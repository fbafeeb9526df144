"""Self-test of the benchmark.

Run from the root of a checkout (takes about half a minute):

    python3 perfbench/selftest.py

It checks that
* a short run of ``chain_weighted`` passes its checks and prints exactly
  the end-to-end metrics of BENCHMARK.json, and with ``--trace 1`` exactly
  the per-layer ones, each with its declared unit;
* a deliberately wrong chain reference makes every operation fail;
* the scan and forward checks reject a changed raster, a changed verdict
  lambda and eigenvalues off the closed form, and accept the unchanged ones;
* every per-layer metric appears once in ``layer_map.json``;
* in a directory holding only BENCHMARK.json and ``perfbench`` the run
  exits with a nonzero code and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
OUT = ROOT / ".bench_out" / "selftest"


def run_bench(*extra, cwd=ROOT, bench_dir=HERE):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload",
           "chain_weighted", "--seed", "0", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_metric_names(bench):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = last_json(run_bench("--trace", str(trace)))
        declared = {m["name"]: m["unit"] for m in bench[key]}
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(res["correct"] and res["failed"] == 0,
               f"trace {trace}: chain_weighted passes its checks")
        expect(printed == declared,
               f"trace {trace}: printed metrics match BENCHMARK.json {key}")
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"trace {trace}: result has exactly the four keys")


def check_wrong_reference():
    copy = OUT / "wrong_refs" / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "refs" / "chain_weighted.json"
    data = json.loads(path.read_text())
    data["0"][0][1] *= 1.01
    path.write_text(json.dumps(data))
    res = last_json(run_bench("--trace", "0", bench_dir=copy))
    expect(not res["correct"] and res["failed"] == res["attempted"] >= 1,
           "a wrong chain reference fails every operation")


def check_offline_checks():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    scan = WORKLOADS["scan_mixed"]
    refs = json.loads((HERE / "refs" / "scan_mixed.json").read_text())
    ref = refs["0"]
    work = OUT / "scan"
    (work / "out").mkdir(parents=True)

    def write(raster, verdicts):
        (work / "out" / "result.csv").write_text("\n".join(raster) + "\n")
        (work / "out" / "verdicts.log").write_text("\n".join(
            f"{c} {lam(lo)} {lam(hi)} {a} {b}"
            for c, (lo, hi, a, b) in sorted(verdicts.items())) + "\n")

    write(ref["raster"], ref["verdicts"])
    failures, quality = scan.check(0, work, refs)
    expect(not failures and quality["jaccard"] == 1.0,
           "scan check accepts the reference outputs")
    flipped = list(ref["raster"])
    row = flipped[0].split(",")
    row[0] = "1" if row[0] == "0" else "0"
    flipped[0] = ",".join(row)
    write(flipped, ref["verdicts"])
    failures, quality = scan.check(0, work, refs)
    expect(failures and quality["jaccard"] < 1.0,
           "scan check rejects a flipped raster cell")
    verdicts = json.loads(json.dumps(ref["verdicts"]))
    cell = next(c for c, v in verdicts.items() if v[0] is not None)
    verdicts[cell][0] *= 1.001
    write(ref["raster"], verdicts)
    failures, _ = scan.check(0, work, refs)
    expect(failures, "scan check rejects a changed verdict lambda")

    fwd = WORKLOADS["forward_fine"]
    from eitmono.oracle import disk_nd_eigenvalue
    for factor, passes in ((1.0, True), (1.05, False)):
        for kind, kappa in fwd.kinds:
            eigs = [factor * disk_nd_eigenvalue(n, 0.5, kappa)
                    for n in range(1, 9) for _ in range(2)]
            lines = ["16"]
            lines += [" ".join(repr(eigs[i] if i == j else 0.0)
                               for j in range(16)) for i in range(16)]
            lines += [" ".join("1.0" if i == j else "0.0" for j in range(16))
                      for i in range(16)]
            d = OUT / "fwd" / f"out_{kind}"
            d.mkdir(parents=True, exist_ok=True)
            (d / "nd_gamma.txt").write_text("\n".join(lines) + "\n")
        failures, _ = fwd.check(0, OUT / "fwd", {})
        expect(bool(failures) != passes,
               f"forward check {'accepts' if passes else 'rejects'} "
               f"eigenvalues scaled by {factor}")


def lam(value):
    """A verdict lambda as ``verdicts.log`` prints it (None is nan)."""
    return "nan" if value is None else f"{value:.6e}"


def check_layer_map(bench):
    pairs = json.loads((HERE / "layer_map.json").read_text())["pairs"]
    mapped = [n for p in pairs for n in p["layer_metrics"]]
    names = [m["name"] for m in bench["per_layer"]]
    expect(sorted(mapped) == sorted(names),
           "layer_map.json maps every per-layer metric exactly once")


def check_bare_directory():
    bare = OUT / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--trace", "0", cwd=bare)
    printed = proc.stdout.strip().split("\n")[-1]
    expect(proc.returncode != 0 and not printed.startswith("{"),
           "without the program sources the run fails and prints no result")


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_layer_map(bench)
        check_offline_checks()
        check_bare_directory()
        check_wrong_reference()
        check_metric_names(bench)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
