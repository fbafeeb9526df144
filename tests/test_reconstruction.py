import numpy as np
import pytest

from eitmono import phantoms, reconstruction
from eitmono.coefficient import CoefficientField
from eitmono.fem import ConfigurationError
from eitmono.geometry import TestInclusion, pixel_family, triangulate
from eitmono.ndmap import NDError, build_basis, nd_matrix, painted_field
from eitmono.reconstruction import (ReconstructionResult, _Scanner,
                                    fill_enclosed, jaccard_index, rasterize,
                                    rasterize_truth, reconstruct)

from conftest import build_field


def make_result(inside):
    inside = np.asarray(inside, dtype=bool)
    return ReconstructionResult(grid_n=inside.shape[0], roi=(0, 0, 1, 1),
                                inside=inside, indeterminate=[], verdicts=[])


class TestFill:
    def test_pocket_filled(self):
        inside = np.zeros((5, 5), dtype=bool)
        inside[1:4, 1:4] = True
        inside[2, 2] = False          # enclosed outside pocket
        filled, n = fill_enclosed(~inside)
        assert n == 1
        assert filled[2, 2]

    def test_open_bay_not_filled(self):
        inside = np.zeros((5, 5), dtype=bool)
        inside[1:4, 1:4] = True
        inside[2, 3] = False
        inside[2, 4] = False          # channel to the border
        filled, n = fill_enclosed(~inside)
        assert n == 0
        assert not filled[2, 3]

    def test_truth_raster_fills_annulus(self, disk, family8):
        regions, _ = phantoms.build_phantom("weighted_annulus")
        truth = rasterize_truth(regions, family8)
        # the phantom is an annulus-layered disk: its raster must be solid
        cx, cy = family8.cell_centers()
        for i in range(8):
            for j in range(8):
                if np.hypot(cx[i], cy[j]) < 0.35:
                    assert truth[i, j]


class TestRasterize:
    def test_csv_all_outside(self, tmp_path):
        res = make_result(np.zeros((2, 2)))
        csv_path, pgm_path = rasterize(res, str(tmp_path / "out"))
        assert open(csv_path).read() == "0,0\n0,0\n"

    def test_csv_single_cell(self, tmp_path):
        inside = np.zeros((2, 2), dtype=bool)
        inside[0, 0] = True
        res = make_result(inside)
        csv_path, _ = rasterize(res, str(tmp_path / "out"))
        assert open(csv_path).read() == "1,0\n0,0\n"

    def test_pgm_dimensions(self, tmp_path):
        res = make_result(np.eye(6, dtype=bool))
        _, pgm_path = rasterize(res, str(tmp_path / "out"))
        data = open(pgm_path, "rb").read()
        header, rest = data.split(b"255\n", 1)
        assert header == b"P5\n6 6\n"
        assert len(rest) == 36


class TestJaccard:
    def test_identical(self):
        a = np.zeros((4, 4), dtype=bool)
        a[1:3, 1:3] = True
        assert jaccard_index(a, a) == 1.0

    def test_empty_pair(self):
        a = np.zeros((4, 4), dtype=bool)
        assert jaccard_index(a, a) == 1.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = a[0, 1] = True
        b[0, 1] = b[0, 2] = True
        assert np.isclose(jaccard_index(a, b), 1.0 / 3.0)


@pytest.fixture(scope="module")
def coarse_recon_setup(disk, family8):
    regions, spec = phantoms.build_phantom("insulating_disk")
    mesh = triangulate(disk, regions, target_h=0.11,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(disk, 12, mesh=mesh)
    nd = nd_matrix(mesh, fld, basis)
    return regions, mesh, basis, nd


class TestReconstruct:
    def test_background_all_outside(self, disk, family8):
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(disk, 6, mesh=mesh)
        nd = nd_matrix(mesh, CoefficientField(mesh=mesh, gamma0=1.0), basis)
        res = reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8)
        assert res.inside_count() == 0
        assert res.box_lower is None and res.box_upper is None

    def test_insulating_disk(self, disk, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        res = reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8,
                          truth_regions=regions, max_workers=2)
        truth = rasterize_truth(regions, family8)
        # soundness: every detected cell is in the one-ring dilation of truth
        dil = truth.copy()
        for i in range(8):
            for j in range(8):
                if truth[i, j]:
                    for a in range(max(0, i - 1), min(8, i + 2)):
                        for b in range(max(0, j - 1), min(8, j + 2)):
                            dil[a, b] = True
        assert np.all(~res.inside | dil)
        # completeness: the fully covered center cells are found
        assert res.inside[3, 3] and res.inside[4, 4]
        assert res.jaccard >= 0.6

    def test_side_equality_on_negative_phantom(self, disk, family8,
                                               coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        both = reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8,
                           side="both")
        lower = reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8,
                            side="lower_only")
        assert np.array_equal(both.inside, lower.inside)
        assert both.box_upper is None

    def test_verdict_log(self, disk, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        res = reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8)
        log = res.verdict_log()
        assert len(log.strip().split("\n")) == len(res.verdicts)
        for line in log.strip().split("\n"):
            parts = line.split()
            assert len(parts) == 5

    def test_indeterminate_cells_inside(self, square):
        # window flush with the boundary: every cell position violates the
        # positive-distance clause, so the scan abstains everywhere
        fam = pixel_family(square, 4, roi=(0.0, 0.0, 1.0, 1.0))
        mesh = triangulate(square, target_h=0.12,
                           extra_segments=fam.grid_segments())
        basis = build_basis(square, 4, mesh=mesh)
        nd = nd_matrix(mesh, CoefficientField(mesh=mesh, gamma0=1.0), basis)
        res = reconstruct(nd, square, mesh, 1.0, basis, 4, family=fam)
        boundary_ring = [(i, j) for i in range(4) for j in range(4)
                         if i in (0, 3) or j in (0, 3)]
        for cell in boundary_ring:
            assert cell in res.indeterminate
            assert res.inside[cell]

    def test_bad_side_rejected(self, disk, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        with pytest.raises(ValueError):
            reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8,
                        side="diagonal")


class TestCellPainting:
    @pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
    def test_cell_index_matches_polygon_paint(self, disk, family8, name):
        regions, _ = phantoms.build_phantom(name)
        mesh = triangulate(disk, regions, target_h=0.1,
                           extra_segments=family8.grid_segments())
        basis = build_basis(disk, 2, mesh=mesh)
        nd = nd_matrix(mesh, painted_field(mesh, [], 1.0), basis)
        scanner = _Scanner(nd, mesh, family8, 1.0, basis, 1e-10)
        rng = np.random.default_rng(sum(map(ord, name)))
        cells = [(i, j) for i in range(8) for j in range(8)]
        for _ in range(4):
            picks = rng.permutation(len(cells))
            zero = {cells[k] for k in picks[:rng.integers(0, 20)]}
            # overlapping conducting set: the later paint must win
            inf = {cells[k] for k in picks[rng.integers(0, 10):rng.integers(10, 30)]}
            paint = [(TestInclusion(id=lab, parts=tuple(
                family8.cell_polygon(i, j) for (i, j) in sorted(s))), lab)
                for s, lab in ((zero, "D0"), (inf, "Dinf")) if s]
            fast = scanner.painted(zero, inf).mesh.triangle_region
            direct = painted_field(mesh, paint, 1.0).mesh.triangle_region
            assert np.array_equal(fast, direct)

    def test_nonconforming_mesh_raises_in_scanner(self, disk, family8):
        mesh = triangulate(disk, target_h=0.1)
        basis = build_basis(disk, 4, mesh=mesh)
        nd = nd_matrix(mesh, CoefficientField(mesh=mesh, gamma0=1.0), basis)
        with pytest.raises(NDError):
            reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8)


def test_cell_errors_counted(disk, family8, coarse_recon_setup, monkeypatch):
    regions, mesh, basis, nd = coarse_recon_setup
    real = _Scanner.pixel_score

    def failing(self, cell, sign, neutralizer):
        if cell == (3, 3):
            raise ConfigurationError("forced")
        return real(self, cell, sign, neutralizer)

    monkeypatch.setattr(reconstruction._Scanner, "pixel_score", failing)
    res = reconstruct(nd, disk, mesh, 1.0, basis, 8, family=family8)
    assert res.cell_errors == [((3, 3), "lower", "forced")]
    assert res.inside[3, 3]
