"""The benchmark's tracer still installs on the program and reads its
counters.  `perfbench/spans.py` patches public functions and named methods
of every layer and reads attributes of their results; the suite never runs
the benchmark, so a removed or renamed hook would otherwise only show in a
traced bench run."""

import importlib
import json
import sys
from pathlib import Path

from eitmono import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    """`perfbench/spans.py` as a module, leaving `perfbench/` unwritten."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def test_traced_commands(tmp_path):
    spans = load_spans()
    runs = {"reconstruct": "two_blob_mixed", "chain": "weighted_annulus",
            "forward": "conducting_disk"}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command, phantom in runs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps({
                "domain": {"shape": "disk"}, "phantom": phantom,
                "mesh": {"target_h": 0.15}, "basis": {"m": 4},
                "scan": {"grid_n": 4}}))
            tracer.op = command
            assert cli.main([command, "--config", str(cfg),
                             "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    for command in runs:
        metrics = spans.op_metrics(tracer, command)
        assert metrics["fem.factorizations"] > 0, command
        assert metrics["geometry.family_members"] == 4 * 4 ** 2 + 1, command
    # one judged cell per verdicts.log line
    lines = (tmp_path / "reconstruct" / "verdicts.log").read_text().splitlines()
    assert spans.op_metrics(tracer, "reconstruct")["reconstruction.cells_judged"] == \
        len(lines) > 0
    forward = spans.op_metrics(tracer, "forward")
    assert forward["ndmap.nd_matrix_calls"] == 1
    assert forward["fem.factorizations"] == 1
    assert forward["ndmap.max_asymmetry"] > 0
