import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eitmono import fem, phantoms, reconstruction
from eitmono.coefficient import CoefficientField
from eitmono.fem import ConfigurationError
from eitmono.geometry import TestInclusion, pixel_family, triangulate
from eitmono.ndmap import (PAINT_LABELS, NDError, PaintTemplate, build_basis,
                           nd_matrix, painted_field)
from eitmono.reconstruction import (ReconstructionResult, _Scanner,
                                    fill_enclosed, jaccard_index, rasterize,
                                    rasterize_truth, reconstruct)

from conftest import build_field


def make_result(inside):
    inside = np.asarray(inside, dtype=bool)
    return ReconstructionResult(grid_n=inside.shape[0], inside=inside,
                                indeterminate=[], verdicts=[])


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
    basis = build_basis(mesh, 12)
    nd = nd_matrix(fld, basis)
    return regions, mesh, basis, nd


class TestReconstruct:
    def test_background_all_outside(self, disk, family8):
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(mesh, 6)
        nd = nd_matrix(CoefficientField(mesh=mesh, gamma0=1.0), basis)
        res = reconstruct(nd, mesh, family8, 1.0, basis)
        assert res.inside_count() == 0
        assert res.box_lower is None and res.box_upper is None

    def test_insulating_disk(self, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        res = reconstruct(nd, mesh, family8, 1.0, basis, truth_regions=regions)
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

    def test_side_equality_on_negative_phantom(self, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        both = reconstruct(nd, mesh, family8, 1.0, basis, side="both")
        lower = reconstruct(nd, mesh, family8, 1.0, basis, side="lower_only")
        assert np.array_equal(both.inside, lower.inside)
        assert both.box_upper is None

    def test_verdict_log(self, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        res = reconstruct(nd, mesh, family8, 1.0, basis)
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
        basis = build_basis(mesh, 4)
        nd = nd_matrix(CoefficientField(mesh=mesh, gamma0=1.0), basis)
        res = reconstruct(nd, mesh, fam, 1.0, basis)
        boundary_ring = [(i, j) for i in range(4) for j in range(4)
                         if i in (0, 3) or j in (0, 3)]
        for cell in boundary_ring:
            assert cell in res.indeterminate
            assert res.inside[cell]

    def test_bad_side_rejected(self, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        with pytest.raises(ValueError):
            reconstruct(nd, mesh, family8, 1.0, basis, side="diagonal")


def assert_same_system(got, ref):
    """Template system against the direct one: the same DOF map and CSC
    pattern, the same constraint, and entries within 1.2e-15*max|K| where
    no conductor DOF is involved.  A conductor entry sums up to a few
    hundred element triplets in another order on each path; on the
    regression phantoms each path is up to 2.2e-15*max|K| from the exactly
    rounded sum (math.fsum), so the bound there is 4e-15*max|K|."""
    for name in ("vertex_status", "dof_of_vertex", "conductor_of_vertex"):
        assert np.array_equal(getattr(got.dofmap, name),
                              getattr(ref.dofmap, name)), name
    assert got.dofmap.n_conductors == ref.dofmap.n_conductors
    assert np.array_equal(got.constraint, ref.constraint)
    a, b = got.kmat, ref.kmat
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    n_free = ref.n - ref.dofmap.n_conductors
    cols = np.repeat(np.arange(b.shape[1]), np.diff(b.indptr))
    conductor = (np.maximum(b.indices, cols) >= n_free) \
        & (np.maximum(b.indices, cols) < ref.n)
    bound = np.where(conductor, 4e-15, 1.2e-15) * np.abs(b.data).max()
    assert np.all(np.abs(a.data - b.data) <= bound)


class TestCellPainting:
    @pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
    def test_cell_index_matches_polygon_paint(self, disk, family8, name):
        """The paint template gives the labels, DOF map and bordered matrix
        of `painted_field` through `fem.build_dof_map` and `fem.assemble`,
        or raises their error, on random overlapping paints."""
        regions, _ = phantoms.build_phantom(name)
        mesh = triangulate(disk, regions, target_h=0.1,
                           extra_segments=family8.grid_segments())
        template = PaintTemplate(mesh, family8, 1.0,
                                 build_basis(mesh, 2))
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
            fld = painted_field(mesh, paint, 1.0)
            codes = template.codes([i * 8 + j for i, j in zero],
                                   [i * 8 + j for i, j in inf])
            assert np.array_equal(PAINT_LABELS[codes], fld.mesh.triangle_region)
            try:
                dofmap = fem.build_dof_map(fld.mesh)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                    template.system(codes)
                continue
            assert_same_system(template.system(codes),
                               fem.assemble(fld, dofmap))

    def test_nonconforming_mesh_raises_in_scanner(self, disk, family8):
        mesh = triangulate(disk, target_h=0.1)
        basis = build_basis(mesh, 4)
        nd = nd_matrix(CoefficientField(mesh=mesh, gamma0=1.0), basis)
        with pytest.raises(NDError):
            reconstruct(nd, mesh, family8, 1.0, basis)


def test_cell_errors_counted(family8, coarse_recon_setup, monkeypatch):
    regions, mesh, basis, nd = coarse_recon_setup
    real = _Scanner.pixel_score

    def failing(self, cell, sign, neutralizer):
        if cell == (3, 3):
            raise ConfigurationError("forced")
        return real(self, cell, sign, neutralizer)

    monkeypatch.setattr(reconstruction._Scanner, "pixel_score", failing)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    assert res.cell_errors == [((3, 3), "lower", "forced")]
    assert res.inside[3, 3]


def test_n_factor_counts_factorizations(family8, coarse_recon_setup, monkeypatch):
    regions, mesh, basis, nd = coarse_recon_setup
    calls = []
    real = fem.StiffnessSystem.factor

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(fem.StiffnessSystem, "factor", counting)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    assert res.n_factor == len(calls) > 0


def default_splu_factor(self):
    """SuperLU's default unsymmetric factorization: the oracle for the
    symmetric-mode one."""
    if self._factor is None:
        self._factor = spla.splu(self.bordered())
    return self._factor


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_symmetric_factorization_matches_default_splu(disk, family8, name,
                                                      monkeypatch):
    regions, spec = phantoms.build_phantom(name)
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    maps = []
    real_nd = PaintTemplate.nd_map
    real_solve = fem.solve_neumann

    def recording(*args, **kwargs):
        out = real_nd(*args, **kwargs)
        maps.append(out.matrix)
        return out

    def checked(system, load, rtol=1e-10):
        sol = real_solve(system, load, rtol=rtol)
        x = np.vstack([sol.u, sol.multiplier[None, :]])
        rhs = np.vstack([load.b, np.zeros((1, load.b.shape[1]))])
        res = np.linalg.norm(rhs - system.bordered() @ x, axis=0)
        assert np.all(res <= rtol * np.linalg.norm(load.b, axis=0))
        return sol

    monkeypatch.setattr(PaintTemplate, "nd_map", recording)
    monkeypatch.setattr(fem, "solve_neumann", checked)
    runs = []
    for factor in (fem.StiffnessSystem.factor, default_splu_factor):
        monkeypatch.setattr(fem.StiffnessSystem, "factor", factor)
        maps.clear()
        nd = nd_matrix(fld, basis)
        res = reconstruct(nd, mesh, family8, fld.gamma0, basis)
        assert len(maps) == res.n_factor > 0
        runs.append((nd.matrix, list(maps), res.verdict_log(), res.csv_text()))
    (nd_sym, maps_sym, log_sym, csv_sym), (nd_ref, maps_ref, log_ref, csv_ref) = runs
    assert log_sym == log_ref and csv_sym == csv_ref
    assert len(maps_sym) == len(maps_ref)
    for got, ref in zip([nd_sym] + maps_sym, [nd_ref] + maps_ref):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
