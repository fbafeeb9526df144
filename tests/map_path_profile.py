"""Split the time of the benchmark workloads' operations between SuperLU
and the work around it on the ND map path, so that a change to the map
path can be sized and checked against its parent commit in one run.

Run from the root of a checkout, with one BLAS thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/map_path_profile.py --seed 0

For each workload of ``perfbench/workloads.py`` it runs one operation to
warm up, then ``--ops`` operations at the seed, and prints the mean
milliseconds and calls per operation of:

* ``gstrf``: ``scipy.sparse.linalg.splu`` (ordering and factorization);
* ``gstrs``: the ``solve`` calls on its factors;
* ``dof_map``: ``PaintTemplate.dof_map`` and the well-posedness checks of
  an updated map (``PaintTemplate.check``);
* ``assemble``: ``PaintTemplate.assemble``;
* ``update``: ``PaintTemplate.update`` and ``closure``, SuperLU excluded;
* ``gates``: ``ndmap._solve``, ``fem.solve_neumann`` and its residual,
  load-norm and gamma-mean gates, and ``_pair``, SuperLU excluded;
* ``solve``: the rest of ``PaintTemplate.solve``;
* ``map``: the sum of the five above, the non-SuperLU work of the maps;
* ``template``: building ``PaintTemplate``s;
* ``eigen``: the generalized eigenvalue tests, ``monotonicity.psd_test``
  and ``NDMatrix.generalized_eigenvalues`` (``gnorm`` among its callers);
* ``rest``: the rest of the operation (meshing, I/O).

Every figure is exclusive: a wrapped call's time leaves out the wrapped
calls it makes.  The wrappers add about a microsecond per call.  A name
missing from the checkout under test is skipped, so the script runs on a
parent commit too, and named in the header line, so a stale entry shows.
About half a minute on one core at the default ``--ops``.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

import scipy.sparse.linalg as spla

from eitmono import cli, fem, monotonicity, ndmap, reconstruction

ROOT = Path(__file__).resolve().parent.parent
# category -> (owner, attribute) of each wrapped callable
CATEGORIES = {
    "dof_map": [(ndmap.PaintTemplate, "dof_map"), (ndmap.PaintTemplate, "check")],
    "assemble": [(ndmap.PaintTemplate, "assemble")],
    "update": [(ndmap.PaintTemplate, "update"), (ndmap.PaintTemplate, "closure")],
    "gates": [(ndmap, "_solve"), (ndmap, "_pair"),
              (fem, "solve_neumann"), (fem, "check_gamma_mean"),
              (fem, "residual_misses"), (fem, "mean_free_norms")],
    "solve": [(ndmap.PaintTemplate, "solve"), (ndmap.PaintTemplate, "cell_codes")],
    "template": [(ndmap.PaintTemplate, "__init__")],
    # reconstruction holds its own name for psd_test
    "eigen": [(monotonicity, "psd_test"), (reconstruction, "psd_test"),
              (ndmap.NDMatrix, "generalized_eigenvalues")],
}
MAP = ("dof_map", "assemble", "update", "gates", "solve")
COLUMNS = ("gstrf", "gstrs", *MAP, "map", "template", "eigen", "rest", "op")


class Clock:
    """Exclusive seconds and calls per category."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.stack = []

    def timed(self, category, fn):
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = self.stack.pop()
                if self.stack:
                    self.stack[-1] += spent
                self.seconds[category] = self.seconds.get(category, 0.0) + spent - inner
                self.calls[category] = self.calls.get(category, 0) + 1
        return wrapper


class TimedFactor:
    """A SuperLU factor whose solves are timed as ``gstrs``."""

    def __init__(self, lu, clock):
        self._lu = lu
        self.solve = clock.timed("gstrs", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def target(owner, name):
    """The callable ``name`` of a module, or of a class as its own
    attribute; None when it has none."""
    return owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)


def skipped():
    """The wrapped names that this checkout lacks, as owner.name."""
    return [f"{owner.__name__}.{name}" for targets in CATEGORIES.values()
            for owner, name in targets if target(owner, name) is None]


@contextlib.contextmanager
def wrapped(clock):
    """Every category's callables and ``splu`` wrapped for the block."""
    saved = []
    real_splu = spla.splu
    factor = clock.timed("gstrf", real_splu)
    saved.append((spla, "splu", real_splu))
    spla.splu = lambda *args, **kwargs: TimedFactor(factor(*args, **kwargs), clock)
    for category, targets in CATEGORIES.items():
        for owner, name in targets:
            fn = target(owner, name)
            if fn is None:
                continue
            saved.append((owner, name, fn))
            setattr(owner, name, clock.timed(category, fn))
    try:
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


def run_op(name, workload, seed):
    with tempfile.TemporaryDirectory() as work:
        for argv in workload.calls(seed, Path(work)):
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{name}: exit {code} on {argv}")


def profile(name, workload, seed, ops):
    """Mean exclusive milliseconds and calls per operation of each column."""
    run_op(name, workload, seed)
    clock = Clock()
    with wrapped(clock):
        start = time.perf_counter()
        for _ in range(ops):
            run_op(name, workload, seed)
        total = time.perf_counter() - start
    ms = {k: 1e3 * v / ops for k, v in clock.seconds.items()}
    calls = {k: v / ops for k, v in clock.calls.items()}
    ms["map"] = sum(ms.get(k, 0.0) for k in MAP)
    ms["op"] = 1e3 * total / ops
    ms["rest"] = ms["op"] - sum(ms.get(k, 0.0) for k in
                                ("gstrf", "gstrs", "map", "template", "eigen"))
    return ms, calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--ops", type=int, default=10, help="timed operations per workload")
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    print(f"seed {args.seed}; mean ms per operation over {args.ops} warm operations "
          f"(calls per operation below); skipped: {', '.join(skipped()) or 'none'}")
    print(f"{'workload':<15}" + "".join(f"{c:>9}" for c in COLUMNS))
    for name in names:
        ms, calls = profile(name, WORKLOADS[name], args.seed, args.ops)
        print(f"{name:<15}" + "".join(f"{ms.get(c, 0.0):>9.1f}" for c in COLUMNS))
        print(f"{'':<15}" + "".join(f"{calls[c]:>9.1f}" if c in calls else f"{'':>9}"
                                    for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
