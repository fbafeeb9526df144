import json
import re
from pathlib import Path

import pytest

from eitmono import geometry
from eitmono.cli import main
from eitmono.ndmap import NDMatrix


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "domain": {"shape": "disk", "gamma_arc": [0.0, 1.0]},
        "phantom": "insulating_disk",
        "mesh": {"target_h": 0.12},
        "basis": {"m": 6},
        "scan": {"grid_n": 8, "tau": 1e-5, "tau_rel": 0.5},
    }
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_metrics(out_dir):
    metrics = {}
    for line in (out_dir / "metrics.txt").read_text().strip().split("\n"):
        key, val = line.split(" ", 1)
        metrics[key] = val
    return metrics


class TestForward:
    def test_homogeneous_forward(self, tmp_path):
        cfg = write_config(tmp_path, phantom="homogeneous", scan=None)
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        nd = NDMatrix.from_text((out / "nd_gamma.txt").read_text())
        assert nd.m == 6
        metrics = read_metrics(out)
        assert float(metrics["oracle_max_rel_err"]) < 0.02
        assert (out / "config_snapshot.json").exists()

    def test_single_mode_forward(self, tmp_path):
        # no eigenvalue pair to compare with the disk reference
        cfg = write_config(tmp_path, phantom="homogeneous", scan=None,
                           basis={"m": 1})
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        assert "oracle_max_rel_err" not in read_metrics(out)

    def test_mesh_artifact(self, tmp_path):
        cfg = write_config(tmp_path, phantom="homogeneous", scan=None,
                           artifacts={"mesh": True})
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "mesh.txt").exists()


class TestReconstruct:
    def test_end_to_end_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            code = main(["reconstruct", "--config", str(cfg),
                         "--out", str(out)])
            assert code == 0
        assert (out1 / "result.csv").read_bytes() == (out2 / "result.csv").read_bytes()
        assert (out1 / "result.pgm").exists()
        assert (out1 / "verdicts.log").exists()
        metrics = read_metrics(out1)
        assert float(metrics["jaccard"]) > 0.5
        grid = (out1 / "result.csv").read_text().strip().split("\n")
        assert len(grid) == 8 and len(grid[0].split(",")) == 8

    def test_measurements_file_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path)
        fwd = tmp_path / "fwd"
        assert main(["forward", "--config", str(cfg), "--out", str(fwd)]) == 0
        cfg2 = write_config(tmp_path, name="c2.json",
                            measurements_file=str(fwd / "nd_gamma.txt"))
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", str(cfg2), "--out", str(out)]) == 0
        assert float(read_metrics(out)["jaccard"]) > 0.5

    def test_noise_option_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "noisy"
        code = main(["reconstruct", "--config", str(cfg), "--out", str(out),
                     "--noise-rel", "1e-9", "--seed", "7"])
        assert code == 0


class TestChain:
    def test_degenerate_middle_links(self, tmp_path):
        cfg = write_config(tmp_path, phantom="plain_annulus",
                           mesh={"target_h": 0.11}, basis={"m": 8})
        out = tmp_path / "chain"
        assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = read_metrics(out)
        assert metrics["all_pass"] == "1"
        assert float(metrics["link2"]) == 0.0
        assert float(metrics["link3"]) == 0.0
        lines = (out / "chain.txt").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_weighted_chain(self, tmp_path):
        cfg = write_config(tmp_path, phantom="weighted_annulus",
                           mesh={"target_h": 0.1}, basis={"m": 8})
        out = tmp_path / "chainw"
        assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_metrics(out)["all_pass"] == "1"


class TestCalibrate:
    def test_table_written(self, tmp_path):
        cfg = write_config(tmp_path, calibrate={"h": [0.12], "m": [6],
                                                "tau": [1e-4, 1e-6]})
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "calibration.txt").read_text().strip().split("\n")
        assert lines[0].startswith("h m tau")
        assert len(lines) == 3

    def test_table_follows_the_configured_regions(self, tmp_path):
        sweep = {"h": [0.12], "m": [6], "tau": [1e-5]}
        rows = {}
        for name in ("insulating_disk", "df_minus_square"):
            cfg = write_config(tmp_path, name=f"{name}.json", phantom=name,
                               calibrate=sweep)
            out = tmp_path / name
            assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
            rows[name] = (out / "calibration.txt").read_text().split("\n")[1]
        assert rows["insulating_disk"].startswith("0.12 6 1e-05 ")
        assert rows["df_minus_square"].startswith("0.12 6 1e-05 ")
        assert rows["insulating_disk"] != rows["df_minus_square"]


class TestConfigErrors:
    def test_missing_domain(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"phantom": "homogeneous"}))
        assert main(["forward", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_side(self, tmp_path):
        cfg = write_config(tmp_path, scan={"grid_n": 8, "side": "upward"})
        assert main(["reconstruct", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_zero_arc(self, tmp_path):
        cfg = write_config(tmp_path, domain={"shape": "disk",
                                             "gamma_arc": [0.2, 0.2]})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_phantom(self, tmp_path):
        cfg = write_config(tmp_path, phantom="wat")
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_invalid_regions(self, tmp_path):
        cfg = write_config(tmp_path, phantom=None, regions={
            "D0": [[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]],
            "Dinf": [[[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]]],
        })
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("regions, coefficient, reason", [
        ({"D0": [[[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]],
                 [[0.3, 0.0], [0.0, -0.3], [-0.3, 0.0], [0.0, 0.3]]]},
         {}, "complement of D0 not connected"),
        ({"DFminus": [[[-0.4, -0.4], [0.4, -0.4], [0.4, 0.4], [-0.4, 0.4]],
                      [[0.1, -0.2], [0.1, 0.2], [0.4, 0.2], [0.4, -0.2]]],
          "Ddeg": [[[0.1, -0.2], [0.4, -0.2], [0.4, 0.2], [0.1, 0.2]]]},
         {"DFminus": 0.5, "Ddeg": {"kind": "constant", "value": 0.5}},
         "Ddeg not compactly contained"),
    ], ids=["d0_annulus", "ddeg_touching_union_boundary"])
    def test_mesh_clause_rejected(self, tmp_path, capsys, regions,
                                  coefficient, reason):
        cfg = write_config(tmp_path, phantom=None, regions=regions,
                           coefficient=coefficient)
        assert main(["reconstruct", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: regions invalid: " in err and reason in err

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["forward", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, overrides, entry", [
        ("reconstruct", {"basis": {"m": "x"}}, "basis.m"),
        ("reconstruct", {"domain": {"shape": "disk", "gamma_arc": [0.5]}},
         "domain.gamma_arc"),
        ("reconstruct",
         {"phantom": None,
          "regions": {"Ddeg": [[[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2],
                                [-0.2, 0.2]]]},
          "coefficient": {"Ddeg": {"kind": "radial_power",
                                   "center": [0.0, 0.0]}}}, "coefficient.Ddeg"),
        ("reconstruct", {"scan": {"grid_n": 8, "roi": [0, 0, 1]}}, "scan.roi"),
        ("calibrate", {"calibrate": {"h": 0.12}}, "calibrate.h"),
        ("calibrate", {"calibrate": {"m": [6, "8"]}}, "calibrate.m"),
        ("calibrate", {"calibrate": {"tau": ["1e-5"]}}, "calibrate.tau"),
        ("reconstruct", {"measurements_file": 5}, "measurements_file"),
    ], ids=["non_integer_m", "short_gamma_arc", "weight_without_exponent",
            "short_roi", "scalar_calibrate_h", "string_calibrate_m",
            "string_calibrate_tau", "numeric_measurements_file"])
    def test_malformed_value(self, tmp_path, capsys, command, overrides, entry):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"config error: {entry}: " in err


def test_measurements_file_basis_mismatch(tmp_path):
    fwd = tmp_path / "fwd"
    cfg = write_config(tmp_path)
    assert main(["forward", "--config", str(cfg), "--out", str(fwd)]) == 0
    cfg2 = write_config(tmp_path, name="c2.json", basis={"m": 8},
                        measurements_file=str(fwd / "nd_gamma.txt"))
    assert main(["reconstruct", "--config", str(cfg2),
                 "--out", str(tmp_path / "rec")]) == 2


@pytest.mark.parametrize("content", [None, "16 garbage\n1 2 3\n"],
                         ids=["missing", "malformed"])
def test_bad_measurements_file(tmp_path, capsys, content):
    nd_file = tmp_path / "nd_gamma.txt"
    if content is not None:
        nd_file.write_text(content)
    cfg = write_config(tmp_path, measurements_file=str(nd_file))
    assert main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "rec")]) == 2
    assert "config error: measurements_file: " in capsys.readouterr().err


def test_cell_errors_in_metrics(tmp_path, monkeypatch):
    from eitmono import reconstruction
    from eitmono.fem import ConfigurationError

    real = reconstruction._Scanner.pixel_score

    def failing(self, cell, sign, neutralizer):
        if cell == (3, 3):
            raise ConfigurationError("forced")
        return real(self, cell, sign, neutralizer)

    monkeypatch.setattr(reconstruction._Scanner, "pixel_score", failing)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == 0
    assert read_metrics(out)["n_cell_errors"] == "1"


def test_n_factor_in_metrics(tmp_path, monkeypatch):
    # the scan's factorizations, not the measured map's
    from eitmono import fem

    calls = []
    real = fem.StiffnessSystem.factor

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(fem.StiffnessSystem, "factor", counting)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == 0
    assert int(read_metrics(out)["n_factor"]) == len(calls) - 1 > 0


def test_scan_and_chain_build_no_notched_member(tmp_path, monkeypatch):
    builds = []
    real = geometry._notched_window

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_notched_window", counting)
    cfg = write_config(tmp_path)
    assert main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "rec")]) == 0
    assert main(["chain", "--config", str(cfg),
                 "--out", str(tmp_path / "chain")]) == 0
    assert builds == []


def test_scan_maps_skip_the_direct_path(tmp_path, monkeypatch):
    """Scan maps come from the paint template: during `reconstruct` no DOF
    map or assembly runs, no field is hashed and the mesh is hashed once."""
    from eitmono import cli, fem
    from eitmono.coefficient import CoefficientField

    calls = {}
    scanning = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            if scanning:
                calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapped

    for owner, name in ((fem, "build_dof_map"), (fem, "assemble"),
                        (CoefficientField, "provenance"),
                        (geometry.Mesh, "provenance")):
        monkeypatch.setattr(owner, name, counting(
            f"{owner.__name__}.{name}", getattr(owner, name)))
    real_reconstruct = cli.reconstruct

    def reconstruct(*args, **kwargs):
        scanning.append(True)
        try:
            return real_reconstruct(*args, **kwargs)
        finally:
            scanning.pop()

    monkeypatch.setattr(cli, "reconstruct", reconstruct)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == 0
    assert int(read_metrics(out)["n_factor"]) > 0
    assert calls.get("Mesh.provenance", 0) <= 1
    assert {k: v for k, v in calls.items() if k != "Mesh.provenance"} == {}


@pytest.mark.parametrize("command", ["forward", "reconstruct", "chain",
                                     "calibrate"])
def test_one_mesh_per_command(tmp_path, monkeypatch, command):
    # calibrate meshes once per (h, m) point of its sweep
    from eitmono import cli

    calls = []
    real = geometry.triangulate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("target_h"))
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "triangulate", counting)
    monkeypatch.setattr(cli, "triangulate", counting)
    cfg = write_config(tmp_path, calibrate={"h": [0.12], "m": [6],
                                            "tau": [1e-5]})
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == [0.12]


def test_readme_lists_the_cli_flags(capsys):
    """README's "Common flags" line names exactly the optional flags of
    ``eitmono --help``; the required ``--config``/``--out`` are in its usage
    block."""
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = set(re.findall(r"(--[a-z][a-z-]*)", capsys.readouterr().out))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    common = re.search(r"^Common flags:(.*?)\n\n", readme,
                       re.MULTILINE | re.DOTALL).group(1)
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", common))
    assert documented == flags - {"--help", "--config", "--out"}
    usage = readme[readme.index("## CLI"):readme.index("Common flags:")]
    assert "--config" in usage and "--out" in usage
