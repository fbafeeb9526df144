"""Every function and method defined in `src/eitmono/*.py` runs in some
command, or is named in `NEVER_ENTERED` with the reason it does not.

The commands run under `sys.setprofile` on small configs (h=0.15, m=4,
grid 4): `forward`, `reconstruct`, `chain` and `calibrate`, a config with
explicit weights, a half-arc scan and a `measurements_file` scan.  A function
is matched by its code object's file, first line and name.
"""

import json
import sys
import time
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import eitmono
from eitmono import cli, phantoms

SRC = Path(eitmono.__file__).resolve().parent

# The benchmark's tracer (perfbench/spans.py and perfbench/workloads.py)
# reads these, so they stay although no command calls them.
PERFBENCH_PINNED = {
    "PixelFamily.members": "the pixel_family hook counts len(members)",
    "PixelFamily._member": "builds PixelFamily.members",
    "PixelFamily.whole_window": "a member of PixelFamily.members",
    "PixelFamily.cell_members": "builds PixelFamily.members",
    "concentric_disk": "the forward_fine workload's phantom",
}
# Functions that only an invalid input or a failed solve reaches.
ERROR_ONLY = {
    "CutOffError.__init__": "a painting cuts cells off from the measurement arc",
}
# Closed forms that the tests hold the solver to.
ORACLE_ONLY = {
    "power_core_nd_eigenvalue": "acceptance criterion 11 compares forward runs with it",
}
NEVER_ENTERED = {**PERFBENCH_PINNED, **ERROR_ONLY, **ORACLE_ONLY}

BODY = {"domain": {"shape": "disk"}, "mesh": {"target_h": 0.15},
        "basis": {"m": 4}, "scan": {"grid_n": 4}}
SQUARE = [[-0.15, -0.15], [0.15, -0.15], [0.15, 0.15], [-0.15, 0.15]]
WEIGHTED = {
    "regions": {"Dsing": [SQUARE], "DFplus": [[[2 * x, 2 * y] for x, y in SQUARE],
                                              SQUARE[::-1]]},
    "coefficient": {
        "background": 1.0, "DFplus": 2.5,
        "singular_points": [[0.0, 0.0]], "singular_segments": [[[0.0, 0.0], [0.1, 0.0]]],
        "Dsing": {"kind": "product", "factors": [
            {"kind": "radial_power", "center": [0.0, 0.0], "exponent": -1.0},
            {"kind": "surface_power", "segment": [[0.0, 0.0], [0.1, 0.0]],
             "exponent": -0.5},
            {"kind": "constant", "value": 1.0}]}},
}


def runs(tmp_path):
    """(output directory, command, config, extra flags) of every run, in
    order: a forward per catalog phantom, then the other commands and
    configs; ``from_file`` reads the data that ``measured`` wrote."""
    measured = tmp_path / "measured" / "nd_gamma.txt"
    return [(name, "forward", {"phantom": name}, []) for name in phantoms.CATALOG] + [
        ("mesh", "forward", {"phantom": "homogeneous", "artifacts": {"mesh": True}}, []),
        ("noisy", "forward", {"phantom": "two_blob_mixed"}, ["--noise-rel", "1e-3"]),
        ("scan", "reconstruct", {"phantom": "two_blob_mixed"}, ["--noise-rel", "1e-3"]),
        ("chain", "chain", {"phantom": "weighted_annulus"}, []),
        ("calibrate", "calibrate", {"phantom": "insulating_disk", "calibrate": {
            "h": [0.15], "m": [4], "tau": [1e-4, 1e-6]}}, []),
        ("weighted", "forward", WEIGHTED, []),
        ("weighted_chain", "chain", WEIGHTED, []),
        ("half_arc", "reconstruct", {"phantom": "conducting_disk", "domain": {
            "shape": "disk", "gamma_arc": [0.0, 0.5]}}, []),
        ("measured", "forward", {"phantom": "insulating_disk"}, []),
        ("from_file", "reconstruct", {"phantom": "insulating_disk",
                                      "measurements_file": str(measured)}, []),
        # a basis frequency the short arc underresolves prints a warning
        ("short_arc", "forward", {"phantom": "homogeneous", "basis": {"m": 16}, "domain": {
            "shape": "disk", "gamma_arc": [0.0, 0.02]}}, []),
    ]


def defined_functions():
    """Name of each function and method defined in the package's modules,
    keyed by (file, first line, code name)."""
    found = {}

    def walk(code, path):
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            # a class body is not optimized; lambdas and comprehensions
            # are named <lambda>, <genexpr>, <listcomp>, ...
            if const.co_flags & CO_OPTIMIZED and not const.co_name.startswith("<"):
                found[(path, const.co_firstlineno, const.co_name)] = const.co_qualname
            walk(const, path)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), str(path))
    return found


def test_every_function_runs_in_a_command(tmp_path):
    t0 = time.perf_counter()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = []
        for out, command, cfg, flags in runs(tmp_path):
            path = tmp_path / f"{out}.json"
            path.write_text(json.dumps({**BODY, **cfg}))
            codes.append(cli.main([command, "--config", str(path),
                                   "--out", str(tmp_path / out), *flags]))
    finally:
        sys.setprofile(None)
    assert codes == [cli.EXIT_OK] * len(codes)

    keys = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
            for c in entered}
    defined = defined_functions()
    never = {name for key, name in defined.items() if key not in keys}
    assert sorted(never) == sorted(NEVER_ENTERED)
    assert time.perf_counter() - t0 < 5.0
