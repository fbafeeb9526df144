import json
import re
from pathlib import Path

import numpy as np
import pytest

from eitmono import geometry
from eitmono.cli import Problem, main
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
        assert int(metrics["n_update"]) > 0
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

    def test_measurements_file_takes_the_noise_level(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        fwd = tmp_path / "fwd"
        assert main(["forward", "--config", str(cfg), "--out", str(fwd)]) == 0
        cfg2 = write_config(tmp_path, name="c2.json",
                            measurements_file=str(fwd / "nd_gamma.txt"))
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", str(cfg2), "--out", str(out),
                     "--noise-rel", "0.5"]) == 0
        given = NDMatrix.from_text((fwd / "nd_gamma.txt").read_text())
        used = NDMatrix.from_text((out / "nd_gamma.txt").read_text())
        assert used.field_hash == given.field_hash + "+noise"
        assert not np.allclose(used.matrix, given.matrix)
        assert main(["reconstruct", "--config", str(cfg2), "--out",
                     str(tmp_path / "o"), "--noise-rel", "nan"]) == 2
        assert "config error: --noise-rel: " in capsys.readouterr().err

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

    def test_noise_shows_without_weighted_regions(self, tmp_path):
        # the brackets are noise-free maps: with no weighted region they are
        # the unperturbed data map, so the noise shows in the middle links
        cfg = write_config(tmp_path, mesh={"target_h": 0.1}, basis={"m": 8})
        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        assert main(["chain", "--config", str(cfg), "--out", str(clean)]) == 0
        assert main(["chain", "--config", str(cfg), "--out", str(noisy),
                     "--noise-rel", "1e-2"]) == 0
        links = [(out / "chain.txt").read_text().split("\n") for out in (clean, noisy)]
        assert links[0][1] == "lower_over_data 0.000000e+00 1"
        assert float(links[1][1].split()[1]) != 0.0
        assert float(links[1][2].split()[1]) != 0.0
        # the outer links compare the noise-free maps alone
        assert links[0][0] == links[1][0] and links[0][3] == links[1][3]

    @pytest.mark.parametrize("phantom,n_maps", [("insulating_disk", 3),
                                                ("weighted_annulus", 5)])
    def test_factorizations_in_metrics(self, tmp_path, monkeypatch, phantom, n_maps):
        # n_factor counts the factored maps (the data map, its brackets when
        # a region is weighted, the two window maps) and lu_nnz their L+U
        # nonzeros; the brackets share one template with the data map
        from eitmono import fem, ndmap

        factored, templates = [], []
        real_factor, real_init = fem.StiffnessSystem.factor, ndmap.PaintTemplate.__init__

        def factor(self):
            fresh = self._factor is None
            lu = real_factor(self)
            if fresh:
                factored.append(lu.nnz)
            return lu

        def init(self, *args):
            templates.append(args[2])
            real_init(self, *args)

        monkeypatch.setattr(fem.StiffnessSystem, "factor", factor)
        monkeypatch.setattr(ndmap.PaintTemplate, "__init__", init)
        cfg = write_config(tmp_path, phantom=phantom, mesh={"target_h": 0.1},
                           basis={"m": 8})
        out = tmp_path / "chain"
        assert main(["chain", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = read_metrics(out)
        assert int(metrics["n_factor"]) == len(factored) == n_maps
        assert int(metrics["lu_nnz"]) == sum(factored)
        assert templates == [4, 65]    # the field's label classes, the grid cells


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

    def test_one_background_factorization_per_point(self, tmp_path, monkeypatch):
        # the oracle column reads the background map the scan factors, so a
        # point of CALIBRATE_CONFIG factors the measured map and the scan's
        # maps: 1 + 15 (17 when the background map was factored twice)
        from eitmono import fem
        from record_contract import run_calibrate

        made = []
        real = fem.StiffnessSystem.factor

        def counting(self):
            if self.lu is None:
                made.append(self)
            return real(self)

        monkeypatch.setattr(fem.StiffnessSystem, "factor", counting)
        assert len(run_calibrate(tmp_path)) == 3
        assert len(made) == 16


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
        ("reconstruct", {"basis": {"m": 8.7}}, "basis.m"),
        ("reconstruct", {"scan": {"grid_n": 7.9}}, "scan.grid_n"),
    ], ids=["non_integer_m", "short_gamma_arc", "weight_without_exponent",
            "short_roi", "scalar_calibrate_h", "string_calibrate_m",
            "string_calibrate_tau", "numeric_measurements_file",
            "fractional_m", "fractional_grid_n"])
    def test_malformed_value(self, tmp_path, capsys, command, overrides, entry):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert f"config error: {entry}: " in err

    @pytest.mark.parametrize("command", ["forward", "calibrate"])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, command):
        # a present section of another type is an error, not the defaults
        cfg = write_config(tmp_path, mesh=5)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: mesh: expected an object"]

    @pytest.mark.parametrize("level", ["inf", "nan", "-0.1"])
    def test_bad_noise_level(self, tmp_path, capsys, level):
        cfg = write_config(tmp_path)
        assert main(["reconstruct", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--noise-rel", level]) == 2
        assert "config error: --noise-rel: " in capsys.readouterr().err

    def test_integral_values_keep_their_meaning(self):
        problem = Problem({"domain": {"shape": "disk", "disk_segments": 64.0},
                           "phantom": "homogeneous", "basis": {"m": "8"},
                           "scan": {"grid_n": 7.0}, "solver": {"quad_depth": 12}})
        assert (problem.m, problem.grid_n, problem.quad_depth) == (8, 7, 12)
        assert all(type(v) is int for v in (problem.m, problem.grid_n,
                                            problem.quad_depth))


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
    # the maps the scan factored, not the measured map; a base factored
    # again for its first update is still one map, though the background
    # base is a second matrix, kept in the order its factorization set
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
    metrics = read_metrics(out)
    assert int(metrics["n_factor"]) == len({id(s.kmat) for s in calls}) - 2 > 0
    assert int(metrics["n_update"]) > 0


def test_scan_and_chain_build_no_notched_member(tmp_path, monkeypatch):
    builds = []
    for name in ("whole_window", "cell_members"):
        real = getattr(geometry.PixelFamily, name)

        def counting(*args, real=real):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(geometry.PixelFamily, name, counting)
    cfg = write_config(tmp_path)
    assert main(["reconstruct", "--config", str(cfg),
                 "--out", str(tmp_path / "rec")]) == 0
    assert main(["chain", "--config", str(cfg),
                 "--out", str(tmp_path / "chain")]) == 0
    assert builds == []


def test_scan_maps_skip_the_direct_path(tmp_path, monkeypatch):
    """Scan maps come from one grid template: during `reconstruct` no
    field's ND map is solved, one template is built, no field is hashed and
    the mesh is hashed at most once."""
    from eitmono import cli, ndmap
    from eitmono.coefficient import CoefficientField

    calls = {}
    scanning = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            if scanning:
                calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapped

    for owner, name in ((ndmap, "field_system"),
                        (ndmap.PaintTemplate, "__init__"),
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
    assert calls.pop("Mesh.provenance", 0) <= 1
    assert calls == {"PaintTemplate.__init__": 1}


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
