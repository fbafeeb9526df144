"""eitmono benchmark: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan_mixed --seed 0 --seconds 20 --trace 0

The run starts its own worker processes with ``src`` of the checkout on
``PYTHONPATH`` and one BLAS thread:

* one measuring worker that runs operations of the workload for
  ``--seconds`` seconds and checks every operation's outputs;
* ``SETUP_PROBES`` probes, half before and half after the measuring
  worker, that only import eitmono, numpy and scipy and build the inputs;
  with the measuring worker's own set-up they give the ``setup_s`` samples
  (process start to the first timed operation).

Times are scaled to a reference host speed.  Each worker times a small
fixed kernel (``worker.Speedometer``) right after its set-up, and the
measuring worker also after each operation and, every half second,
during it.  From those times the worker gives a speed factor for its
set-up and for each operation, which multiplies the raw time.  The raw
times are kept in the record.

The last line of standard output is one JSON object.  With ``--trace 0``
its metrics are the end-to-end ones of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are the per-layer ones from a run
that alternates untraced and traced operations.  Lines before it describe
the run; the full record, and with ``--trace 1`` the spans, are written
under ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = "1"


def source_digest(src):
    """SHA-256 over the program's Python sources (a checkout without git
    still identifies the code it measured)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(argv, env, deadline):
    """Run one worker; returns (start time, last stdout line as JSON)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {argv} exited with code {proc.returncode}")
    lines = [ln for ln in proc.stdout.split("\n") if ln.strip()]
    return start, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "eitmono" / "cli.py").is_file():
        raise SystemExit(f"no eitmono sources under {src}; "
                         "run from the root of a checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    env = dict(os.environ, PYTHONPATH=str(src),
               OMP_NUM_THREADS=BLAS_THREADS, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str(out_dir)]

    def setup_sample(start, out):
        """Raw set-up seconds and set-up scaled to the reference speed."""
        raw = out["ready"] - start
        return raw, raw * out["speed_factor"]

    def probe():
        return setup_sample(*spawn(common + ["--probe"], env, deadline))

    # Half the probes run before the measuring worker and half after it,
    # so the set-up samples spread over the run like the operations do.
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    start, res = spawn(common + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], env, deadline)
    setups.append(setup_sample(start, res))
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    ops = res["ops"]
    failed = sum(1 for op in ops if op["failures"])
    plain = [op["wall"] for op in ops if not op["traced"]]
    scaled = [op["wall"] * op["speed_factor"] for op in ops if not op["traced"]]
    if args.trace:
        values, declared = res["layers"], bench["per_layer"]
    else:
        values = {
            "op_s": statistics.median(scaled),
            "setup_s": statistics.median(t for _, t in setups),
            "maxrss_mb": res["maxrss_mb"],
        }
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(root), "src_sha256": source_digest(src),
        **res["versions"],
        "setup_samples_s": [t for t, _ in setups],
        "setup_scaled_s": [t for _, t in setups], "ops": ops,
        "maxrss_mb": res["maxrss_mb"], "spans_file": res.get("spans_file"),
        "metrics": metrics,
    }
    record_path = out_dir / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for op in ops:
        if op["failures"]:
            print(f"failed op: {'; '.join(op['failures'])}")
    quality = {k: v for op in ops for k, v in op["quality"].items()}
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops "
          f"({len(plain)} untraced), {failed} failed, quality {quality}")
    kernel = [t for op in ops for t in op["kernel_s"]]
    print(f"raw median op {statistics.median(plain):.4f} s, set-up "
          f"{statistics.median(t for t, _ in setups):.4f} s, speed kernel "
          f"{statistics.median(kernel):.4f} s")
    print(f"nproc {record['nproc']} blas_threads {BLAS_THREADS} "
          f"git {record['git_sha']} src {record['src_sha256'][:16]} "
          f"python {record['python']} numpy {record['numpy']} "
          f"scipy {record['scipy']}; record in {record_path}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
