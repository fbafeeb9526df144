"""One benchmark process for one workload.

Started by ``run.py`` from the root of a checkout, with ``src`` of that
checkout on ``PYTHONPATH``.  It imports eitmono, builds the workload's
inputs from the seed, then either stops (``--probe``, a set-up sample) or
runs timed operations for the given number of seconds, checks each
operation's outputs and prints one JSON line with the raw figures.

The host this runs on may change speed over seconds to minutes, because
other load shares its cores.  So a fixed kernel is timed after the
set-up and around and during each operation (see ``Speedometer``), and
the set-up and each operation carry a speed factor that scales their time
to a reference host speed.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
import scipy.sparse
from scipy.sparse.linalg import splu

import eitmono
import eitmono.cli

import spans as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_OPS = 2
TICK_S = 0.5        # speed sampling interval during an untraced operation
EDGE_SAMPLES = 6    # kernel runs after set-up and after each operation
KERNEL_REF_S = 0.033  # kernel time on the reference host


class Speedometer:
    """Tracks the host's speed by timing a fixed kernel (``kernel_s``
    holds every time).  The kernel mixes the kinds of work that tracked
    the operations' own slowdowns best: an interpreted loop, small dense
    eigenproblems, and sparse LU factorizations with solves on a small and
    a memory-bound grid Laplacian.

    Between operations it runs ``EDGE_SAMPLES`` times.  During an untraced
    operation a SIGALRM timer runs it every ``TICK_S`` seconds, so a long
    operation is sampled all along; the handler runs between bytecodes of
    the main thread, and its time is taken off the operation's time."""

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.dense = rng.standard_normal((40, 40))
        self.small = grid_laplacian(30)
        self.large = grid_laplacian(80)
        self.rhs = rng.standard_normal(80 * 80)
        self.kernel_s = []

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        acc = {}
        for i in range(16_000):
            acc[i % 977] = acc.get(i % 977, 0.0) + (i * 0.5) ** 0.5
        for _ in range(8):
            numpy.linalg.eigh(self.dense @ self.dense.T)
        lu = splu(self.small)
        for _ in range(10):
            lu.solve(self.rhs[:self.small.shape[0]])
        splu(self.large).solve(self.rhs)
        self.kernel_s.append(time.perf_counter() - t0)

    def factor(self, first, last=None):
        """Reference speed over the speed while samples first..last ran:
        multiplying a time by it scales the time to the reference host."""
        return KERNEL_REF_S / statistics.fmean(self.kernel_s[first:last])

    def edge(self):
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def grid_laplacian(n):
    """Five-point Laplacian on an n-by-n grid, as a CSC matrix."""
    tri = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = scipy.sparse.eye(n)
    return (scipy.sparse.kron(eye, tri) + scipy.sparse.kron(tri, eye)).tocsc()


def run_op(argvs):
    """Run one operation; returns (wall seconds, failures).  An exception
    escaping the CLI fails the operation as a nonzero exit would."""
    failures = []
    t0 = time.perf_counter()
    try:
        for argv in argvs:
            code = eitmono.cli.main(argv)
            if code != 0:
                failures.append(f"{argv[0]} exited with code {code}")
    except Exception:
        failures.append("CLI raised:\n" + traceback.format_exc())
    return time.perf_counter() - t0, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = Path(eitmono.__file__).resolve().parent
    if src != root / "src" / "eitmono":
        raise SystemExit(f"eitmono imported from {src}, not from {root}/src")

    wl = WORKLOADS[args.workload]
    work = Path(args.out) / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        argvs = wl.calls(args.seed, work)
        ref_path = HERE / "refs" / f"{wl.name}.json"
        refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
        ready = time.monotonic()
        speed = Speedometer()
        speed.edge()
        if args.probe:
            print(json.dumps({"ready": ready, "speed_factor": speed.factor(0),
                              "kernel_s": speed.kernel_s}))
            return
        print(json.dumps(measure(wl, args, argvs, work, refs, ready, speed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, args, argvs, work, refs, ready, speed):
    tracer = tracing.Tracer() if args.trace else None
    ops = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        for argv in argvs:
            shutil.rmtree(argv[-1], ignore_errors=True)
        first = len(speed.kernel_s) - EDGE_SAMPLES
        during = len(speed.kernel_s)
        if traced:
            tracer.op = len(ops)
            tracer.install()
        else:
            speed.start()
        try:
            wall, failures = run_op(argvs)
        finally:
            if traced:
                tracer.uninstall()
            else:
                speed.stop()
        sampling = sum(speed.kernel_s[during:])
        quality = {}
        if not failures:
            try:
                failures, quality = wl.check(args.seed, work, refs)
            except (OSError, ValueError, KeyError, IndexError):
                failures = ["output check raised:\n" + traceback.format_exc()]
        speed.edge()
        ops.append({"wall": wall - sampling, "sampling_s": sampling,
                    "speed_factor": speed.factor(first),
                    "kernel_s": speed.kernel_s[first:], "traced": traced,
                    "failures": failures, "quality": quality})
        elapsed = time.perf_counter() - t_start
        walls = [op["wall"] for op in ops]
        enough = len(ops) >= MIN_OPS and (
            tracer is None or any(op["traced"] for op in ops))
        if enough and elapsed + statistics.median(walls) > args.seconds:
            break

    result = {
        "ready": ready,
        "speed_factor": speed.factor(0, EDGE_SAMPLES),
        "kernel_s": speed.kernel_s[:EDGE_SAMPLES],
        "ops": ops,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = layer_summary(tracer, ops)
        spans_path = Path(args.out) / f"spans-{wl.name}-s{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    return result


def layer_summary(tracer, ops):
    """Median of each per-layer metric over the traced operations, plus the
    tracing overhead against the untraced operations of the same run."""
    per_op = []
    for i, op in enumerate(ops):
        if op["traced"]:
            m = tracing.op_metrics(tracer, i)
            m["trace.coverage"] = sum(m[f"{lay}.self_s"]
                                      for lay in tracing.LAYERS) / op["wall"]
            per_op.append(m)
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    traced = statistics.median(op["wall"] * op["speed_factor"]
                               for op in ops if op["traced"])
    plain = statistics.median(op["wall"] * op["speed_factor"]
                              for op in ops if not op["traced"])
    out["trace.op_s"] = traced
    out["trace.untraced_op_s"] = plain
    out["trace.overhead_s"] = traced - plain
    # The difference of two single operations carries the machine's drift;
    # the span count times the measured cost of one wrapper does not.
    out["trace.overhead_est_s"] = out["trace.spans"] * tracing.span_cost()
    return out


if __name__ == "__main__":
    main()
