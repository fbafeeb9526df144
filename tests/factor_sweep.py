"""Time SuperLU on every system the benchmark workloads factor, over a grid
of its ``relax`` and ``panel_size`` options, so that ``fem.RELAX`` and
``fem.PANEL_SIZE`` can be checked again, after a scipy upgrade say.

Run from the root of a checkout, with one BLAS thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/factor_sweep.py --seed 0

It runs one operation of each workload of ``perfbench/workloads.py`` at the
seed and keeps every system that ``fem.StiffnessSystem.factor`` factors.
Then, for each ``relax`` in (1, 2, 4, 10) and ``panel_size`` in (1, 2, 4,
20), it prints per workload the summed best-of-5 time of ``splu`` (the
ordering step included, which no option here changes), the summed best-of-5
time of a 16-column solve and the summed L+U nonzeros.  SuperLU's defaults
are relax 10 and panel_size 20.  About half a minute on one core.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from eitmono import cli, fem

ROOT = Path(__file__).resolve().parent.parent
RELAX = (1, 2, 4, 10)
PANEL_SIZE = (1, 2, 4, 20)
REPEATS = 5


def captured_systems(seed):
    """workload name -> [(kmat, permc_spec)] of each system its operation
    factored at ``seed``, in the order they were factored."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    real = fem.StiffnessSystem.factor
    systems = {}

    def recording(self):
        if self.lu is None:
            systems[current].append(
                (self.kmat, "NATURAL" if self.ordered else "MMD_AT_PLUS_A"))
        return real(self)

    fem.StiffnessSystem.factor = recording
    try:
        for current, workload in WORKLOADS.items():
            systems[current] = []
            with tempfile.TemporaryDirectory() as work:
                for argv in workload.calls(seed, Path(work)):
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"{current}: exit {code} on {argv}")
    finally:
        fem.StiffnessSystem.factor = real
    return systems


def best_of(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def sweep(systems, relax, panel_size):
    """Summed best-of-5 factor and 16-column solve seconds and summed L+U
    nonzeros of ``systems`` at one setting."""
    rng = np.random.default_rng(0)
    factor_s = solve_s = 0.0
    nnz = 0
    for kmat, permc in systems:

        def factor():
            return spla.splu(kmat, permc_spec=permc,
                             diag_pivot_thresh=fem.DIAG_PIVOT_THRESH,
                             relax=relax, panel_size=panel_size,
                             options=dict(SymmetricMode=True))

        factor_s += best_of(factor)
        lu = factor()
        rhs = rng.standard_normal((kmat.shape[0], 16))
        solve_s += best_of(lambda: lu.solve(rhs))
        nnz += lu.nnz
    return factor_s, solve_s, nnz


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    args = parser.parse_args(argv)
    systems = captured_systems(args.seed)
    print(f"seed {args.seed}; fem.RELAX {fem.RELAX}, fem.PANEL_SIZE {fem.PANEL_SIZE}")
    print(f"{'workload':<15} {'systems':>7} {'relax':>5} {'panel':>5} "
          f"{'factor_ms':>9} {'solve16_ms':>10} {'lu_nnz':>9}")
    for name, group in systems.items():
        for relax in RELAX:
            for panel_size in PANEL_SIZE:
                factor_s, solve_s, nnz = sweep(group, relax, panel_size)
                print(f"{name:<15} {len(group):>7} {relax:>5} {panel_size:>5} "
                      f"{1e3 * factor_s:>9.1f} {1e3 * solve_s:>10.1f} {nnz:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
