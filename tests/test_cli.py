import json
import re
from pathlib import Path

import numpy as np
import pytest

from eitmono import cli, geometry, phantoms
from eitmono import polygons as pg
from eitmono.cli import Problem, main, read_config
from eitmono.coefficient import CoefficientField
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


SQUARE = lambda r: [[-r, -r], [r, -r], [r, r], [-r, r]]

# Region sets rejected for overlap, with their one stderr line (a prefix
# when it ends in "["): nested squares, a ring in a square and two polygons
# sharing an edge overlap without crossing, so the mesh's centroid labels
# find them; edges that cross are found on the polygons.
OVERLAPS = {
    "nested": ({"regions": {"D0": [SQUARE(0.5)], "Dinf": [SQUARE(0.2)]}},
               "config error: regions D0 and Dinf overlap near ["),
    "ring_in_square": (
        {"regions": {"DFminus": [SQUARE(0.5), SQUARE(0.45)[::-1]], "D0": [SQUARE(0.6)]},
         "coefficient": {"background": 1.0, "DFminus": 0.5}},
        "config error: regions D0 and DFminus overlap near ["),
    "shared_edge": (
        {"regions": {"Ddeg": [[[0, 0.5], [0.5, 0.5], [0.5, 0.375], [0, 0.375]]],
                     "D0": [[[-0.125, 0.5], [0.125, 0.5], [0.125, 0.375], [-0.125, 0.375]]]},
         "coefficient": {"background": 1.0, "Ddeg": {"kind": "constant", "value": 0.5}}},
        "config error: regions D0 and Ddeg overlap near ["),
    "crossing": (
        {"regions": {"D0": [[[-0.3, -0.3], [0.1, -0.3], [0.1, 0.1], [-0.3, 0.1]]],
                     "Dinf": [[[-0.1, -0.1], [0.3, -0.1], [0.3, 0.3], [-0.1, 0.3]]]}},
        "config error: regions invalid: regions D0 and Dinf overlap (edges cross)"),
}

# A Dsing 1/r weight centred 2e-6 from a declared singular point: both are
# pinned, and the sliver between them fails the mesh-quality floor.
NEAR_SINGULAR_POINTS = {
    "regions": {"DFplus": [[[-0.2, -0.2], [0.5, -0.2], [0.5, 0.2], [-0.2, 0.2]],
                           [[0.2, 0.1], [0.4, 0.1], [0.4, -0.1], [0.2, -0.1]]],
                "Dsing": [[[0.2, -0.1], [0.4, -0.1], [0.4, 0.1], [0.2, 0.1]]]},
    "coefficient": {"background": 1.0, "DFplus": 2.0, "singular_points": [[0.3, 0.0]],
                    "Dsing": {"kind": "radial_power", "center": [0.300002, 0.0],
                              "exponent": -1.0, "amplitude": 0.3}},
}

# DFminus wraps a Ddeg square except for a notch of background that meets
# the square's bottom edge at the single point (0.10625, 0).
PINCHED_DDEG = {
    "regions": {"DFminus": [[[-0.3, -0.3], [0.05625, -0.3], [0.10625, 0.0],
                             [0.15625, -0.3], [0.5, -0.3], [0.5, 0.5], [-0.3, 0.5]],
                            [[0, 0], [0, 0.2], [0.2, 0.2], [0.2, 0]]],
                "Ddeg": [[[0, 0], [0.2, 0], [0.2, 0.2], [0, 0.2]]]},
    "coefficient": {"background": 1.0, "DFminus": 0.5,
                    "Ddeg": {"kind": "constant", "value": 0.5}},
}


# Configs rejected when they are read, before anything is built, with
# their one stderr line; each starts from `write_config` without a phantom.
LOAD_ERRORS = {
    "unknown_section": ({"sovler": {"rtol": 1e-10}},
                        "config error: unknown key sovler (did you mean solver?)"),
    "unknown_scan_key": ({"scan": {"grid_n": 8, "tua": 1e-5}},
                         "config error: unknown key scan.tua (did you mean scan.tau?)"),
    "gamma_ark": ({"domain": {"shape": "disk", "gamma_ark": [0.0, 0.25]}},
                  "config error: unknown key domain.gamma_ark (did you mean "
                  "domain.gamma_arc?)"),
    # a dotted key is not read as the path it spells
    "dotted_key": ({"scan.tau": 1e-5},
                   "config error: unknown key scan.tau (did you mean scan?)"),
    "misspelled_key_and_section": (
        {"scan": {"grid_n": 8, "tua": 1e-5}, "sovler": {"rtol": 1e-10}},
        "config error: unknown key sovler (did you mean solver?)"),
    "phantom_with_regions": (
        {"phantom": "homogeneous", "regions": {"D0": [SQUARE(0.2)]}},
        "config error: phantom: given with regions, which it sets itself"),
    "phantom_with_coefficient": (
        {"phantom": "homogeneous", "coefficient": {"background": 5.0}},
        "config error: phantom: given with coefficient, which it sets itself"),
    "phantom_with_both": (
        {"phantom": "homogeneous", "regions": {"D0": [SQUARE(0.2)]},
         "coefficient": {"background": 5.0}},
        "config error: phantom: given with regions and coefficient, which it sets itself"),
    "mesh_flag_string": ({"phantom": "homogeneous", "artifacts": {"mesh": "no"}},
                         "config error: artifacts.mesh: expected true or false, got 'no'"),
    "mesh_flag_number": ({"phantom": "homogeneous", "artifacts": {"mesh": 1}},
                         "config error: artifacts.mesh: expected true or false, got 1"),
    "phantom_list": ({"phantom": ["homogeneous"]},
                     "config error: phantom: expected a string, got ['homogeneous']"),
    "infinite_background": ({"coefficient": {"background": float("inf")}},
                            "config error: coefficient.background: expected a finite "
                            "number > 0, got inf"),
    # each calibrate sweep value is checked as the entry it stands for
    "fractional_calibrate_m": ({"calibrate": {"m": [8, 4.5]}},
                               "config error: calibrate.m: expected an integer, got 4.5"),
    "zero_calibrate_m": ({"calibrate": {"m": [0]}},
                         "config error: calibrate.m: expected an integer >= 1, got 0"),
    "negative_calibrate_h": ({"calibrate": {"h": [0.1, -1]}},
                             "config error: calibrate.h: expected a finite number > 0, "
                             "got -1"),
    "negative_calibrate_tau": ({"calibrate": {"tau": [-1e-5]}},
                               "config error: calibrate.tau: expected a finite number "
                               ">= 0, got -1e-05"),
    # each range is checked by the entry's converter alone
    "quad_depth_0": ({"solver": {"quad_depth": 0}},
                     "config error: solver.quad_depth: expected an integer in [1, 64], got 0"),
    "quad_depth_65": ({"solver": {"quad_depth": 65}},
                      "config error: solver.quad_depth: expected an integer in [1, 64], "
                      "got 65"),
    "zero_m": ({"basis": {"m": 0}}, "config error: basis.m: expected an integer >= 1, got 0"),
    "grid_n_1": ({"scan": {"grid_n": 1}},
                 "config error: scan.grid_n: expected an integer >= 2, got 1"),
    "side_left": ({"scan": {"grid_n": 8, "side": "left"}},
                  "config error: scan.side: expected one of both, lower_only, upper_only, "
                  "got 'left'"),
}

# A JSON boolean for each kind of numeric value, with the entry its one
# stderr line names: true and false are not the numbers 1 and 0.
BOOLEANS = {
    "rtol_true": ({"solver": {"rtol": True}}, "solver.rtol"),
    "target_h_true": ({"mesh": {"target_h": True}}, "mesh.target_h"),
    "min_angle_false": ({"mesh": {"min_angle_deg": False}}, "mesh.min_angle_deg"),
    "m_true": ({"basis": {"m": True}}, "basis.m"),
    "quad_depth_true": ({"solver": {"quad_depth": True}}, "solver.quad_depth"),
    "disk_segments_true": ({"domain": {"shape": "disk", "disk_segments": True}},
                           "domain.disk_segments"),
    "gamma_arc_true": ({"domain": {"shape": "disk", "gamma_arc": [0.0, True]}},
                       "domain.gamma_arc"),
    "tau_false": ({"scan": {"tau": False}}, "scan.tau"),
    "background_true": ({"phantom": None, "coefficient": {"background": True}},
                        "coefficient.background"),
    "dfminus_true": ({"phantom": None, "coefficient": {"DFminus": True}},
                     "coefficient.DFminus"),
    "dfplus_false": ({"phantom": None, "coefficient": {"DFplus": False}},
                     "coefficient.DFplus"),
    "singular_point_true": ({"phantom": None, "coefficient": {
        "singular_points": [[True, 0.0]]}}, "coefficient.singular_points"),
    "weight_exponent_true": ({"phantom": None, "coefficient": {"Ddeg": {
        "kind": "radial_power", "center": [0.0, 0.0], "exponent": True}}}, "coefficient.Ddeg"),
    "region_vertex_true": ({"phantom": None, "regions": {"D0": [
        [[0.0, 0.0], [0.1, 0.0], [True, 0.1]]]}}, "regions"),
    "calibrate_h_true": ({"calibrate": {"h": [True]}}, "calibrate.h"),
}

# Explicit regions with a Ddeg weight whose centre is also a configured
# singular point: the mesher is given both copies, the config keeps one.
WEIGHTED_DDEG = {
    "domain": {"shape": "disk"}, "mesh": {"target_h": 0.15}, "basis": {"m": 4},
    "regions": {"Ddeg": [SQUARE(0.2)], "DFplus": [SQUARE(0.4), SQUARE(0.2)[::-1]]},
    "coefficient": {"background": 1.0, "DFplus": 2.0, "singular_points": [[0, 0]],
                    "Ddeg": {"kind": "radial_power", "center": [0.0, 0.0],
                             "exponent": 0.5}},
}


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

    def test_mesh_artifact_format(self, tmp_path):
        # README's format: header `nv nt ne`, then nv lines `x y`, nt lines
        # `i j k label` and ne lines `i j on_gamma`
        cfg = write_config(tmp_path, phantom="two_blob_mixed", scan=None,
                           domain={"shape": "disk", "gamma_arc": [0.0, 0.5]},
                           artifacts={"mesh": True})
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
        mesh = Problem(json.loads(cfg.read_text())).build_mesh(with_grid=False)
        lines = (out / "mesh.txt").read_text().split("\n")
        assert lines.pop() == ""
        nv, nt, ne = map(int, lines[0].split())
        assert (nv, nt, ne) == (mesh.num_vertices, mesh.num_triangles,
                                len(mesh.boundary_edges))
        assert len(lines) == 1 + nv + nt + ne
        verts = [ln.split() for ln in lines[1:1 + nv]]
        tris = [ln.split() for ln in lines[1 + nv:1 + nv + nt]]
        edges = [ln.split() for ln in lines[1 + nv + nt:]]
        assert np.array_equal(np.array(verts, dtype=float), mesh.vertices)
        assert all(len(t) == 4 for t in tris)
        assert np.array_equal(np.array([t[:3] for t in tris], dtype=int), mesh.triangles)
        assert [t[3] for t in tris] == mesh.triangle_region.tolist()
        assert {"D0", "Dinf", "bg"} == {t[3] for t in tris}
        edge_ints = np.array(edges, dtype=int)
        assert edge_ints.shape == (ne, 3)
        assert np.array_equal(edge_ints[:, :2], mesh.boundary_edges)
        assert np.array_equal(edge_ints[:, 2], mesh.boundary_on_gamma.astype(int))
        assert 0 < edge_ints[:, 2].sum() < ne


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
        cfg = write_config(tmp_path, calibrate={"h": [0.15], "m": [4],
                                                "tau": [1e-4, 1e-6]})
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "calibration.txt").read_text().strip().split("\n")
        assert lines[0].startswith("h m tau")
        assert len(lines) == 3
        # the resolved config is the one read, not a sweep point
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert (resolved["mesh.target_h"], resolved["basis.m"]) == (0.12, 6)
        assert (resolved["calibrate.h"], resolved["calibrate.m"]) == ([0.15], [4])

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

    def test_one_mesh_per_h(self, tmp_path, monkeypatch):
        # a 2 x 2 sweep meshes once per h, and its table is the rows of the
        # four one-point sweeps, each of which meshes its own point
        from eitmono import cli

        calls = []
        real = cli.triangulate

        def counting(*args, **kwargs):
            calls.append(kwargs["target_h"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "triangulate", counting)

        def table(h, m, name):
            cfg = write_config(tmp_path, name=f"{name}.json",
                               calibrate={"h": h, "m": m, "tau": [1e-4, 1e-6]})
            out = tmp_path / name
            assert main(["calibrate", "--config", str(cfg), "--out", str(out)]) == 0
            return (out / "calibration.txt").read_text().splitlines()

        sweep = table([0.2, 0.15], [4, 6], "sweep")
        assert calls == [0.2, 0.15]
        points = [table([h], [m], f"point_{h}_{m}")[1:] for h in (0.2, 0.15) for m in (4, 6)]
        assert sweep == sweep[:1] + sum(points, [])

    def test_one_background_factorization_per_point(self, tmp_path, monkeypatch):
        # the oracle column reads the background map the scan factors, so a
        # point of CALIBRATE_CONFIG factors the measured map and the scan's
        # maps: 1 + 9, the scan's 8 and its background base once more for
        # the updates (11 when the background map was factored twice)
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
        assert len(made) == 10


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

    def test_unknown_phantom(self, tmp_path, capsys):
        # rejected when the config is read, before anything is written
        cfg = write_config(tmp_path, phantom="wat")
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: unknown phantom 'wat'; known: {sorted(phantoms.CATALOG)}"]
        assert list((tmp_path / "o").iterdir()) == []

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
        # the lower bracket of a weighted annulus seals off its island
        ({"Ddeg": [pg.regular_polygon((0, 0), 0.45, 32).tolist(),
                   pg.regular_polygon((0, 0), 0.25, 32)[::-1].tolist()]},
         {"Ddeg": {"kind": "radial_power", "center": [0.0, 0.0], "exponent": 0.5,
                   "amplitude": 1.0 / 0.45 ** 0.5}},
         "complement of D0+Ddeg+Dsing not connected"),
        (PINCHED_DDEG["regions"], PINCHED_DDEG["coefficient"],
         "Ddeg not compactly contained"),
    ], ids=["d0_annulus", "ddeg_touching_union_boundary", "ddeg_annulus",
            "ddeg_pinched_by_background"])
    def test_mesh_clause_rejected(self, tmp_path, capsys, regions,
                                  coefficient, reason):
        cfg = write_config(tmp_path, phantom=None, regions=regions,
                           coefficient=coefficient)
        assert main(["reconstruct", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error: regions invalid: " in err and reason in err

    @pytest.mark.parametrize("command", ["forward", "chain"])
    def test_pinched_weighted_region_rejected(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, phantom=None, scan=None, mesh={"target_h": 0.1},
                           basis={"m": 8}, **PINCHED_DDEG)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: regions invalid: Ddeg not compactly contained in the "
            "labeled union interior"]

    @pytest.mark.parametrize("polygon, got", [
        ([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]], "shape (3, 3)"),
        ([[0, 0, 1]], "shape (1, 3)"),
        ([[0, 0], [0.1, 0]], "shape (2, 2)"),
        ([], "shape (0,)"),
        ([[0, 0], [0.1, 0], [0, float("nan")]], "a non-finite vertex"),
        ([[0, 0], [float("inf"), 0], [0, 0.1]], "a non-finite vertex"),
        ([[0, 0], [0.1], [0, 0.1]], "a ragged or non-numeric array"),
    ], ids=["three_columns", "one_row", "two_vertices", "empty", "nan_vertex",
            "inf_vertex", "ragged"])
    def test_malformed_polygon(self, tmp_path, capsys, polygon, got):
        square = [[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]]
        cfg = write_config(tmp_path, phantom=None,
                           regions={"Dinf": [square], "D0": [square, polygon]})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: regions: D0 polygon 1 must be a finite (k, 2) array "
            f"with k >= 3, got {got}"]

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["forward", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, overrides, entry", [
        ("reconstruct", {"basis": {"m": "x"}}, "basis.m"),
        ("reconstruct", {"domain": {"shape": "disk", "gamma_arc": [0.5]}},
         "domain.gamma_arc"),
        ("reconstruct", {"domain": {"shape": "disk", "gamma_arc": [0.0, 0.5, 0.7]}},
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
        ("forward", {"phantom": None, "regions": 5}, "regions"),
        ("forward", {"phantom": None, "coefficient": {"Ddeg": 5}},
         "coefficient.Ddeg"),
        ("forward", {"phantom": None, "coefficient": {
            "Ddeg": {"kind": "product", "factors": [5]}}}, "coefficient.Ddeg"),
        *[("forward", overrides, entry) for overrides, entry in BOOLEANS.values()],
    ], ids=["non_integer_m", "short_gamma_arc", "long_gamma_arc",
            "weight_without_exponent", "short_roi", "scalar_calibrate_h",
            "string_calibrate_m", "string_calibrate_tau", "numeric_measurements_file",
            "fractional_m", "fractional_grid_n", "scalar_regions",
            "scalar_weight", "scalar_product_factor", *BOOLEANS])
    def test_malformed_value(self, tmp_path, capsys, command, overrides, entry):
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {entry}: ")

    @pytest.mark.parametrize("weight, key", [
        ({"kind": "radial_power", "center": [0.0, 0.0], "exponent": 0.5,
          "clip": [0.2, 0.8]}, "'clip'"),
        ({"kind": "constant", "value": 0.5, "exponent": 1.0}, "'exponent'"),
        ({"kind": "product", "clip": [0.2, 0.8], "factors": [
            {"kind": "constant", "value": 0.5}]}, "'clip'"),
        ({"kind": "product", "factors": [
            {"kind": "surface_power", "segment": [[0.0, 0.0], [0.1, 0.0]],
             "exponent": 0.5, "center": [0.0, 0.0]}]}, "'center'"),
    ], ids=["radial_clip", "constant_exponent", "product_clip", "factor_center"])
    def test_unknown_weight_key(self, tmp_path, capsys, weight, key):
        # a key the weight's kind does not take is rejected, not ignored
        cfg = write_config(tmp_path, phantom=None, regions={
            "Ddeg": [[[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]]]},
            coefficient={"Ddeg": weight})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: coefficient.Ddeg: ")
        assert f"weight takes no key {key}" in err[0]

    @pytest.mark.parametrize("section, key, value", [
        ("mesh", "target_h", 0.0), ("mesh", "target_h", float("nan")),
        ("mesh", "target_h", -0.1), ("mesh", "target_h", float("inf")),
        ("scan", "tau", float("nan")), ("scan", "tau", -1.0),
        ("scan", "tau", float("inf")), ("scan", "tau_rel", -1.0),
        ("scan", "tau_rel", float("nan")), ("solver", "rtol", float("nan")),
        ("solver", "rtol", -1.0), ("solver", "rtol", 0.0),
        ("mesh", "min_angle_deg", float("nan")), ("mesh", "min_angle_deg", -5.0),
    ], ids=["target_h_0", "target_h_nan", "target_h_negative", "target_h_inf",
            "tau_nan", "tau_negative", "tau_inf", "tau_rel_negative", "tau_rel_nan",
            "rtol_nan", "rtol_negative", "rtol_0", "min_angle_nan",
            "min_angle_negative"])
    def test_out_of_range_value(self, tmp_path, capsys, section, key, value):
        # target_h and rtol must be finite and > 0, tau, tau_rel and
        # min_angle_deg finite and >= 0
        cfg = write_config(tmp_path, **{section: {key: value}})
        assert main(["reconstruct", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {section}.{key}: ")

    @pytest.mark.parametrize("segments", [0, 2, -4])
    def test_too_few_disk_segments(self, tmp_path, capsys, segments):
        cfg = write_config(tmp_path, domain={"shape": "disk", "disk_segments": segments})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: domain: disk_segments must be an integer >= 3, got {segments}"]

    @pytest.mark.parametrize("entry, value, want", [
        ("singular_points", [[float("nan"), 0.0]],
         "expected a finite point (x, y), got [nan, 0.0]"),
        ("singular_points", [[0.0, 0.1, 0.2]],
         "expected a finite point (x, y), got [0.0, 0.1, 0.2]"),
        ("singular_segments", [[[0.0, 0.0], [float("inf"), 0.1]]],
         "expected a finite (k, 2) polyline with k >= 2, got [[0.0, 0.0], [inf, 0.1]]"),
        ("singular_segments", [[[0.0, 0.0]]],
         "expected a finite (k, 2) polyline with k >= 2, got [[0.0, 0.0]]"),
    ], ids=["nan_point", "three_coordinates", "inf_segment", "one_vertex_segment"])
    def test_malformed_singular_feature(self, tmp_path, capsys, entry, value, want):
        # named in one line, not left to the mesher's constraint check
        cfg = write_config(tmp_path, phantom=None, coefficient={entry: value})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: coefficient.{entry}: {want}"]

    @pytest.mark.parametrize("factors, where", [
        ([{"kind": "radial_power", "center": [0.0, 0.0], "exponent": -1.5},
          {"kind": "surface_power", "segment": [[-0.1, 0.0], [0.1, 0.0]], "exponent": -0.9}],
         "sum to -2.4 at corner"),
        ([{"kind": "surface_power", "segment": [[-0.1, 0.0], [0.1, 0.0]], "exponent": -0.6}] * 2,
         "sum to -1.2 at edge"),
    ], ids=["point_on_surface", "two_surfaces_on_one_segment"])
    def test_weight_product_outside_a2(self, tmp_path, capsys, factors, where):
        # each factor is in range, but the exponents add where their
        # singular sets meet: 1/w is not locally integrable there
        square = lambda r: [[-r, -r], [r, -r], [r, r], [-r, r]]
        cfg = write_config(tmp_path, phantom=None,
                           regions={"Dsing": [square(0.15)],
                                    "DFplus": [square(0.3), square(0.15)[::-1]]},
                           coefficient={"background": 1.0, "DFplus": 2.5,
                                        "Dsing": {"kind": "product", "factors": factors}})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: weight exponents " + where)
        assert err[0].endswith("w or 1/w is not locally integrable")

    def test_weight_the_element_rule_cannot_grade(self, tmp_path, capsys):
        # a point singularity at the end of a singular edge, which a rule
        # grading toward the edge alone would miss, is graded and solved
        square = lambda r: [[-r, -r], [r, -r], [r, r], [-r, r]]
        factors = [{"kind": "radial_power", "center": [0.0, 0.0], "exponent": -1.0},
                   {"kind": "surface_power", "segment": [[0.0, 0.0], [0.1, 0.0]],
                    "exponent": -0.5}]
        cfg = write_config(tmp_path, phantom=None,
                           regions={"Dsing": [square(0.15)],
                                    "DFplus": [square(0.3), square(0.15)[::-1]]},
                           coefficient={"background": 1.0, "DFplus": 2.5,
                                        "Dsing": {"kind": "product", "factors": factors}})
        assert main(["forward", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "o" / "nd_gamma.txt").is_file()

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
        config = Problem({"domain": {"shape": "disk", "disk_segments": 64.0},
                          "phantom": "homogeneous", "basis": {"m": "8"},
                          "scan": {"grid_n": 7.0}, "solver": {"quad_depth": 12}}).config
        values = [config[k] for k in ("basis.m", "scan.grid_n", "solver.quad_depth")]
        assert values == [8, 7, 12] and all(type(v) is int for v in values)


@pytest.mark.parametrize("command", ["forward", "reconstruct"])
@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_rejected_when_read(tmp_path, capsys, case, command):
    # a misspelled key is not left to its default, nor a phantom's regions
    # and coefficient to the phantom; no artifact is written
    overrides, line = LOAD_ERRORS[case]
    cfg = write_config(tmp_path, **{"phantom": None, **overrides})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert list(out.iterdir()) == []


def test_problem_keeps_the_read_config():
    # the weight's centre is declared to the mesher beside the configured
    # point without being added to the config; arrays compare as JSON
    problem = Problem(WEIGHTED_DDEG)
    assert len(problem.regions.singular_points) == 2
    assert problem.config["coefficient.singular_points"] == [(0.0, 0.0)]
    as_json = lambda config: json.dumps(config, sort_keys=True, default=cli._as_json)
    assert as_json(problem.config) == as_json(read_config(WEIGHTED_DDEG))


def test_config_resolved_holds_each_read_value(tmp_path):
    # every schema path once, flat, with the value the run used
    cfg = {**WEIGHTED_DDEG, "measurements_file": "nd_gamma.txt"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    resolved = json.loads((tmp_path / "o" / "config_resolved.json").read_text())
    assert sorted(resolved) == sorted(cli.SCHEMA)
    assert resolved["regions"] == WEIGHTED_DDEG["regions"]
    assert resolved["coefficient.singular_points"] == [[0.0, 0.0]]
    assert resolved["coefficient.Ddeg"] == read_config(cfg)["coefficient.Ddeg"].describe()
    assert resolved["measurements_file"] == "nd_gamma.txt"
    assert (resolved["basis.m"], resolved["domain.gamma_arc"], resolved["scan.tau"]) == \
        (4, [0.0, 1.0], cli.DEFAULT_TAU_ABS)


def spelled_out(name):
    """The config of catalog phantom ``name`` with its regions and
    coefficient spelled out in JSON, as `write_config` overrides."""
    regions, spec = phantoms.build_phantom(name)

    def weight(w):
        (f,) = w.factors
        where = {"center": f.center} if f.kind == "radial_power" else {"segment": f.polyline}
        return {"kind": f.kind, **where, "exponent": f.exponent, "amplitude": f.value}

    coefficient = {k: weight(v) if k in ("Ddeg", "Dsing") else v for k, v in spec.items()}
    return json.loads(json.dumps({
        "phantom": None, "regions": {k: [p.tolist() for p in v] for k, v in regions.polys.items()},
        "coefficient": {**coefficient, "singular_points": regions.singular_points,
                        "singular_segments": regions.singular_segments}}))


@pytest.mark.parametrize("name", sorted(phantoms.CATALOG))
def test_phantom_is_read_into_the_schema(tmp_path, name):
    # the read config holds the phantom's polygons, singular features and
    # coefficient; its Problem builds the mesh and field that the phantom's
    # own regions and spec build, and so does the phantom spelled out
    regions, spec = phantoms.build_phantom(name)
    cfg = json.loads(write_config(tmp_path, phantom=name, basis={"m": 4},
                                  scan={"grid_n": 4}).read_text())
    config = read_config(cfg)
    assert {k: [p.tolist() for p in v] for k, v in config["regions"].polys.items()} == \
        {k: [p.tolist() for p in v] for k, v in regions.polys.items()}
    assert config["coefficient.singular_points"] == \
        [tuple(map(float, p)) for p in regions.singular_points]
    assert [p.tolist() for p in config["coefficient.singular_segments"]] == \
        [np.asarray(p, dtype=float).tolist() for p in regions.singular_segments]
    for label in ("background", "DFminus", "DFplus", "Ddeg", "Dsing"):
        assert config[f"coefficient.{label}"] == spec.get(label, cli.SCHEMA[
            f"coefficient.{label}"][1]), label

    weights = {k: v for k, v in spec.items() if k in ("Ddeg", "Dsing")}
    for w in weights.values():
        regions.singular_points.extend(w.singular_points())
        regions.singular_segments.extend(w.singular_segments())
    problem = Problem(cfg)
    mesh = geometry.triangulate(problem.domain, regions, target_h=0.12,
                                extra_segments=problem.family.grid_segments())
    field = CoefficientField(mesh=mesh, gamma0=spec["background"], weights=weights,
                             finite_values={k: v for k, v in spec.items()
                                            if k in ("DFminus", "DFplus")})
    spelled = Problem(json.loads(write_config(
        tmp_path, name="spelled.json", basis={"m": 4}, scan={"grid_n": 4},
        **spelled_out(name)).read_text()))
    for built in (problem, spelled):
        assert built.build_mesh().provenance() == mesh.provenance()
        assert built.build_field().provenance() == field.provenance()
    as_json = lambda config: json.dumps({**config, "phantom": None}, default=cli._as_json)
    assert as_json(spelled.config) == as_json(config)


def test_config_resolved_shows_the_phantom(tmp_path):
    # a phantom run records the coefficient it solved with, not the defaults
    cfg = write_config(tmp_path, phantom="df_minus_square", scan=None,
                       mesh={"target_h": 0.15}, basis={"m": 4})
    assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    resolved = json.loads((tmp_path / "o" / "config_resolved.json").read_text())
    regions, spec = phantoms.build_phantom("df_minus_square")
    assert resolved["phantom"] == "df_minus_square"
    assert resolved["regions"] == {"DFminus": [regions.polys["DFminus"][0].tolist()]}
    assert (resolved["coefficient.DFminus"], resolved["coefficient.background"]) == (0.35, 1.0)


def test_every_schema_path_is_read():
    # each path maps to its default when absent, and a given value to its
    # converted value; nothing else is in the result
    values = read_config({"domain": {"shape": "square"}, "basis": {"m": 4.0}})
    assert sorted(values) == sorted(cli.SCHEMA)
    assert (values["domain.shape"], values["basis.m"]) == ("square", 4)
    assert values["phantom"] is None and values["scan.side"] == "both"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_workload_configs_read(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    argvs = [argv for workload in WORKLOADS.values()
             for argv in workload.calls(seed, tmp_path)]
    assert len(argvs) == 4
    for argv in argvs:
        read_config(json.loads(Path(argv[argv.index("--config") + 1]).read_text()))


def test_weight_features_declared_once():
    # the surface weight's segment is declared as it is beside the
    # phantom's copy, when the config is loaded and never again, however
    # many meshes are built; the mesher merges the two copies
    problem = Problem({"domain": {"shape": "disk"}, "phantom": "surface_weighted_blob",
                       "mesh": {"target_h": 0.15}})
    declared = [np.asarray(s).tolist() for s in problem.regions.singular_segments]
    assert len(declared) == 2 and declared[0] == declared[1]
    problem.build_mesh()
    problem.build_mesh()
    assert [np.asarray(s).tolist() for s in problem.regions.singular_segments] == declared


def test_weight_singular_point_near_a_declared_one(tmp_path, capsys):
    # no tolerance test drops the weight's centre beside the declared point
    cfg = {"domain": {"shape": "disk"}, "mesh": {"target_h": 0.1}, "basis": {"m": 8},
           **NEAR_SINGULAR_POINTS}
    problem = Problem(cfg)
    assert [np.asarray(p).tolist() for p in problem.regions.singular_points] == \
        [[0.3, 0.0], [0.300002, 0.0]]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    # the line names the worst triangle's corners, then the declared points
    # within 1e-5 of them: both singular points
    assert capsys.readouterr().err.splitlines() == [
        "config error: mesh quality below floor: min angle 0.002 deg at triangle "
        "(0.300002, 0), (0.323299653, 0.0441326531), (0.3, 0); within 1e-05 of its "
        "corners: singular point (0.3, 0), singular point (0.300002, 0)"]


@pytest.mark.parametrize("command", ["forward", "reconstruct", "chain"])
@pytest.mark.parametrize("case", sorted(OVERLAPS))
def test_overlap_rejected_with_one_line(tmp_path, capsys, case, command):
    overrides, line = OVERLAPS[case]
    cfg = write_config(tmp_path, phantom=None, mesh={"target_h": 0.1},
                       basis={"m": 8}, scan={"grid_n": 8}, **overrides)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(line) if line.endswith("[") else err[0] == line


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


def altered_measurements(tmp_path, alter):
    """A config whose `measurements_file` is the forward output of the
    default config with ``alter`` applied to its lines (row 1 is the first
    matrix row, row 1 + m the first Gram row)."""
    fwd = tmp_path / "fwd"
    assert main(["forward", "--config", str(write_config(tmp_path)),
                 "--out", str(fwd)]) == 0
    lines = (fwd / "nd_gamma.txt").read_text().split("\n")
    nd_file = tmp_path / "altered.txt"
    nd_file.write_text("\n".join(alter(lines)))
    return write_config(tmp_path, name="altered.json", measurements_file=str(nd_file))


def with_entry(lines, row, value):
    """``lines`` with the first entry of line ``row`` replaced by ``value(old)``."""
    entries = lines[row].split()
    entries[0] = repr(value(float(entries[0])))
    return lines[:row] + [" ".join(entries)] + lines[row + 1:]


def unreadable_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    return path


# Inputs each library error must turn into one documented line and exit
# code: (command, config builder, extra flags, exit code, stderr prefix).
NO_TRACEBACK = {
    "gram_singular_on_short_arc": (
        "forward", lambda tmp: write_config(
            tmp, phantom="homogeneous", scan=None, mesh={"target_h": 0.15},
            basis={"m": 16}, domain={"shape": "disk", "gamma_arc": [0.0, 0.01]}),
        [], 2, "config error: basis.m = 16 exceeds 11"),
    "nan_measurement": (
        "reconstruct", lambda tmp: altered_measurements(
            tmp, lambda lines: with_entry(lines, 1, lambda v: float("nan"))),
        [], 2, "config error: measurements_file: the matrix block"),
    "altered_measurement_gram": (
        "reconstruct", lambda tmp: altered_measurements(
            tmp, lambda lines: with_entry(lines, 7, lambda v: 1.5 * v)),
        [], 2, "config error: measurements_file: the Gram block differs"),
    "negative_seed": (
        "forward", write_config, ["--seed", "-1", "--noise-rel", "1e-3"],
        2, "config error: --seed: "),
    "fractional_m": (
        "forward", lambda tmp: write_config(tmp, basis={"m": 2.5}), [],
        2, "config error: basis.m: "),
    # a prefix that ends in a newline is the whole line
    "unknown_phantom": (
        "chain", lambda tmp: write_config(tmp, phantom="wat"), [], 2,
        f"config error: unknown phantom 'wat'; known: {sorted(phantoms.CATALOG)}\n"),
    "overlapping_regions": (
        "reconstruct", lambda tmp: write_config(tmp, phantom=None, regions={
            "D0": [[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]],
            "Dinf": [[[-0.2, -0.2], [0.2, -0.2], [0.2, 0.2], [-0.2, 0.2]]]}),
        [], 2, "config error: regions D0 and Dinf overlap near ["),
    "unreadable_json": (
        "forward", unreadable_config, [], 2, "config error: "),
    "residual_gate": (
        "forward", lambda tmp: write_config(tmp, solver={"rtol": 1e-300}), [],
        3, "solver error: solve failed for the basis loads: "),
    # rejected before the constraint chop allocates anything
    "lattice_beyond_int32_indices": (
        "forward", lambda tmp: write_config(tmp, mesh={"target_h": 1e-9}), [],
        2, "config error: target_h=1e-09 too fine: its background lattice of "),
    # element matrices that overflow make SuperLU's factor exactly singular
    "singular_factorization": (
        "forward", lambda tmp: write_config(
            tmp, phantom=None, scan=None, mesh={"target_h": 0.2},
            coefficient={"background": 1e308}),
        [], 3, "solver error: solve failed for the basis loads: factorization "
               "failed: Factor is exactly singular\n"),
    # overflowing element matrices that SuperLU factors: a nan residual
    # misses the residual gate
    "nan_residual": (
        "forward", lambda tmp: write_config(
            tmp, phantom=None, scan=None, mesh={"target_h": 0.2},
            coefficient={"background": 5e307}),
        [], 3, "solver error: solve failed for the basis loads: solver "
               "residual nan exceeds "),
}


@pytest.mark.parametrize("case", sorted(NO_TRACEBACK))
def test_errors_print_one_line_and_no_traceback(tmp_path, capsys, case):
    command, config, flags, code, prefix = NO_TRACEBACK[case]
    cfg = config(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
    assert not (out / "nd_gamma.txt").exists()


def test_warning_prints_one_line(tmp_path, capsys):
    # a basis frequency the short arc underresolves warns, and the run goes on
    cfg = write_config(tmp_path, phantom="homogeneous", scan=None,
                       mesh={"target_h": 0.15}, basis={"m": 16},
                       domain={"shape": "disk", "gamma_arc": [0.0, 0.02]})
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "warning: basis frequency 8 underresolved: 6 boundary edges on gamma "
        "(< 8 per period)\n")
    assert (out / "nd_gamma.txt").exists()


def test_huge_background_forwards_without_warning(tmp_path, capsys):
    # the field's provenance hash rounded the background, which overflowed
    # above about 1.8e296 and printed a warning
    cfg = write_config(tmp_path, phantom=None, scan=None, mesh={"target_h": 0.2},
                       coefficient={"background": 1e300})
    capsys.readouterr()
    assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_gram_without_cholesky_factor(tmp_path, capsys, monkeypatch):
    # a basis Gram that is singular on the arc although m is within the
    # quadrature's rank is rejected before any map is solved
    from eitmono import ndmap

    real = ndmap.CurrentBasis.gram

    def singular(self, mesh):
        gram = real(self, mesh)
        gram[:, -1] = gram[-1] = 0.0
        return gram

    monkeypatch.setattr(ndmap.CurrentBasis, "gram", singular)
    monkeypatch.setattr(ndmap, "_GAMMA_DATA", {})
    out = tmp_path / "out"
    assert main(["forward", "--config", str(write_config(tmp_path)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: basis.m = 6: the basis Gram matrix on the measurement "
        "arc is not positive definite\n")
    assert not (out / "nd_gamma.txt").exists()


@pytest.mark.parametrize("command", ["forward", "reconstruct", "chain"])
def test_mesh_terms_once_per_command(tmp_path, monkeypatch, command):
    from eitmono import fem, ndmap

    calls = []
    real = fem.mesh_terms

    def counting(mesh):
        calls.append(mesh.provenance())
        return real(mesh)

    monkeypatch.setattr(fem, "mesh_terms", counting)
    monkeypatch.setattr(ndmap, "_GAMMA_DATA", {})
    cfg = write_config(tmp_path, phantom="weighted_annulus")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


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
    metrics = read_metrics(out)
    assert metrics["n_cell_errors"] == "1"
    keys = list(metrics)
    assert keys[keys.index("n_cell_errors") + 1] == "n_below_floor"
    assert metrics["n_below_floor"] == "0"


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

    for owner, name in ((ndmap, "field_template"),
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
