"""Time the two kernels the benchmark workloads spend most in, SuperLU and
qhull, on every input they get, so that the options of each can be checked
again, after a scipy upgrade say.

Run from the root of a checkout, with one BLAS thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/factor_sweep.py --seed 0

It runs one operation of each workload of ``perfbench/workloads.py`` at the
seed and keeps every system that ``fem.StiffnessSystem.factor`` factors and
every point set that ``geometry.triangulate`` hands to ``Delaunay``.

* SuperLU (``fem.RELAX``, ``fem.PANEL_SIZE``): for each ``relax`` in (1, 2,
  4, 10) and ``panel_size`` in (1, 2, 4, 20), it prints per workload the
  summed best-of-5 time of ``splu`` (the ordering step included, which no
  option here changes), the summed best-of-5 time of a 16-column solve and
  the summed L+U nonzeros.  SuperLU's defaults are relax 10 and panel_size
  20.
* qhull (``geometry.QHULL_OPTIONS``): for scipy's default options,
  ``QHULL_OPTIONS`` and the default plus ``Q3`` or ``Q8``, it prints per
  workload the summed best-of-5 time of the Delaunay builds and whether
  every build's simplices equal those of the default options.

About half a minute on one core.
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
from scipy.spatial import Delaunay

from eitmono import cli, fem, geometry

ROOT = Path(__file__).resolve().parent.parent
RELAX = (1, 2, 4, 10)
PANEL_SIZE = (1, 2, 4, 20)
# scipy's 2-D default qhull options; passing ``qhull_options`` replaces them.
QHULL_DEFAULT = "Qbb Qc Qz Q12"
QHULL_VARIANTS = {"default": None, "QHULL_OPTIONS": geometry.QHULL_OPTIONS,
                  "default+Q3": QHULL_DEFAULT + " Q3",
                  "default+Q8": QHULL_DEFAULT + " Q8"}
REPEATS = 5


def captured(seed):
    """workload name -> ([(kmat, permc_spec)], [points]): each system its
    operation factored at ``seed`` and each point set it triangulated, in
    the order they were met."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    real_factor, real_delaunay = fem.StiffnessSystem.factor, geometry.Delaunay
    inputs = {}

    def factoring(self):
        if self.lu is None:
            inputs[current][0].append(
                (self.kmat, "NATURAL" if self.ordered else "MMD_AT_PLUS_A"))
        return real_factor(self)

    def triangulating(points, **kwargs):
        inputs[current][1].append(np.array(points))
        return real_delaunay(points, **kwargs)

    fem.StiffnessSystem.factor = factoring
    geometry.Delaunay = triangulating
    try:
        for current, workload in WORKLOADS.items():
            inputs[current] = ([], [])
            with tempfile.TemporaryDirectory() as work:
                for argv in workload.calls(seed, Path(work)):
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    if code != 0:
                        raise SystemExit(f"{current}: exit {code} on {argv}")
    finally:
        fem.StiffnessSystem.factor = real_factor
        geometry.Delaunay = real_delaunay
    return inputs


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


def qhull_sweep(point_sets, options):
    """Summed best-of-5 Delaunay seconds of ``point_sets`` under ``options``
    (None for scipy's default) and whether every build's simplices equal
    those of the default options."""
    build_s, equal = 0.0, True
    for points in point_sets:
        build_s += best_of(lambda: Delaunay(points, qhull_options=options))
        got = Delaunay(points, qhull_options=options).simplices
        want = Delaunay(points).simplices
        equal &= got.dtype == want.dtype and np.array_equal(got, want)
    return build_s, equal


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    args = parser.parse_args(argv)
    inputs = captured(args.seed)
    print(f"seed {args.seed}; fem.RELAX {fem.RELAX}, fem.PANEL_SIZE {fem.PANEL_SIZE}")
    print(f"{'workload':<15} {'systems':>7} {'relax':>5} {'panel':>5} "
          f"{'factor_ms':>9} {'solve16_ms':>10} {'lu_nnz':>9}")
    for name, (systems, _) in inputs.items():
        for relax in RELAX:
            for panel_size in PANEL_SIZE:
                factor_s, solve_s, nnz = sweep(systems, relax, panel_size)
                print(f"{name:<15} {len(systems):>7} {relax:>5} {panel_size:>5} "
                      f"{1e3 * factor_s:>9.1f} {1e3 * solve_s:>10.1f} {nnz:>9}")
    print(f"\nseed {args.seed}; geometry.QHULL_OPTIONS {geometry.QHULL_OPTIONS!r}")
    print(f"{'workload':<15} {'builds':>6} {'options':<15} {'build_ms':>8} "
          f"{'same_simplices':>14}")
    for name, (_, point_sets) in inputs.items():
        for label, options in QHULL_VARIANTS.items():
            build_s, equal = qhull_sweep(point_sets, options)
            print(f"{name:<15} {len(point_sets):>6} {label:<15} "
                  f"{1e3 * build_s:>8.1f} {str(equal):>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
