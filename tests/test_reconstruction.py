import dataclasses
import gc
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eitmono import cli, fem, ndmap, phantoms, reconstruction
from eitmono.coefficient import CoefficientField
from eitmono.fem import ConfigurationError
from eitmono.geometry import pixel_family, triangulate
from eitmono.ndmap import (PAINT_LABELS, NDError, PaintTemplate, build_basis,
                           nd_matrix)
from eitmono.reconstruction import (DEFAULT_TAU_ABS, DEFAULT_TAU_REL,
                                    ReconstructionResult, _box_cells, _Scanner,
                                    fill_enclosed, grid_cells, grid_template,
                                    jaccard_index, rasterize, rasterize_truth,
                                    reconstruct)

from conftest import build_field, gram_distance
import reference_fem
from reference_predicates import ref_fill_enclosed, ref_grid_cells, ref_grid_off_grid


def make_result(inside):
    inside = np.asarray(inside, dtype=bool)
    return ReconstructionResult(grid_n=inside.shape[0], inside=inside, cells=[])


class TestFill:
    def test_pocket_filled(self):
        inside = np.zeros((5, 5), dtype=bool)
        inside[1:4, 1:4] = True
        inside[2, 2] = False          # enclosed outside pocket
        filled = fill_enclosed(~inside)
        assert np.sum(filled & ~inside) == 1
        assert filled[2, 2]

    def test_open_bay_not_filled(self):
        inside = np.zeros((5, 5), dtype=bool)
        inside[1:4, 1:4] = True
        inside[2, 3] = False
        inside[2, 4] = False          # channel to the border
        filled = fill_enclosed(~inside)
        assert np.array_equal(filled, inside)
        assert not filled[2, 3]

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_random_grids_match_reference(self, n):
        # the filled raster and the fill count agree with the grid-graph fill
        rng = np.random.default_rng(n)
        for outside in rng.random((200, n, n)) < rng.random((200, 1, 1)):
            filled = fill_enclosed(outside)
            ref, ref_count = ref_fill_enclosed(outside)
            assert np.array_equal(filled, ref) and np.sum(filled & outside) == ref_count

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
        faults = [row for row in res.cells if row.reason == "family_fault"]
        assert [row.cell for row in faults] == list(fam.cell_faults) == boundary_ring
        assert all(row.sign is None and row.verdict for row in faults)
        assert res.count("family_fault") == len(boundary_ring)
        for cell in boundary_ring:
            assert res.inside[cell]

    def test_bad_side_rejected(self, family8, coarse_recon_setup):
        regions, mesh, basis, nd = coarse_recon_setup
        for side in ("diagonal", "sideways"):
            with pytest.raises(ValueError, match=f"unknown side '{side}'"):
                reconstruct(nd, mesh, family8, 1.0, basis, side=side)


class TestCellPainting:
    @pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
    def test_cell_index_matches_polygon_paint(self, disk, family8, name):
        """The grid template gives the labels, DOF map and bordered matrix
        of `reference_fem.painted_field` through the reference path's `build_dof_map` and
        `assemble`, or raises their error, on random overlapping paints."""
        regions, _ = phantoms.build_phantom(name)
        mesh = triangulate(disk, regions, target_h=0.1,
                           extra_segments=family8.grid_segments())
        template = grid_template(mesh, family8, 1.0, build_basis(mesh, 2))
        # the background map sets the shared order every painting uses
        template.solve([], [], 1e-10)
        rng = np.random.default_rng(sum(map(ord, name)))
        cells = [(i, j) for i in range(8) for j in range(8)]
        for _ in range(4):
            picks = rng.permutation(len(cells))
            zero = {cells[k] for k in picks[:rng.integers(0, 20)]}
            # overlapping conducting set: the later paint must win
            inf = {cells[k] for k in picks[rng.integers(0, 10):rng.integers(10, 30)]}
            paint = [(reference_fem.cell_parts(family8, s), lab)
                     for s, lab in ((zero, "D0"), (inf, "Dinf")) if s]
            fld = reference_fem.painted_field(mesh, paint, 1.0)
            codes = template.cell_codes([i * 8 + j for i, j in zero],
                                        [i * 8 + j for i, j in inf])[template.part]
            assert np.array_equal(PAINT_LABELS[codes], fld.mesh.triangle_region)
            try:
                dofmap = reference_fem.build_dof_map(fld.mesh)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                    template.dof_map(codes)
                continue
            system = template.assemble(codes, template.dof_map(codes))
            assert system.ordered
            reference_fem.assert_same_system(system,
                                             reference_fem.assemble(fld, dofmap))

    def test_grid_template_integrals_are_the_background_field(self, disk, family8):
        # gamma0 times the areas: bytes-identical to the element integrals
        # of the background-only field on the labeled mesh
        regions, _ = phantoms.build_phantom("weighted_annulus")
        mesh = triangulate(disk, regions, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(mesh, 2)
        template = grid_template(mesh, family8, 2.5, basis)
        ref = PaintTemplate(mesh, template.part, template.n_parts,
                            reference_fem.homogeneous_field(mesh, 2.5).element_integrals(),
                            basis)
        assert template.ke.tobytes() == ref.ke.tobytes()

    def test_nonconforming_mesh_raises_in_scanner(self, disk, family8):
        mesh = triangulate(disk, target_h=0.1)
        basis = build_basis(mesh, 4)
        nd = nd_matrix(CoefficientField(mesh=mesh, gamma0=1.0), basis)
        with pytest.raises(NDError):
            reconstruct(nd, mesh, family8, 1.0, basis)


def assert_grid_cells_match(mesh, fam):
    """`grid_cells` and its grid distance against the all-segment oracle:
    the same off-grid vertices, and the same cells or the same NDError."""
    off_grid = reconstruction._grid_distance(mesh.vertices, fam) > 1e-9
    assert np.array_equal(off_grid, ref_grid_off_grid(mesh.vertices, fam))
    try:
        ref = ref_grid_cells(mesh, fam)
    except NDError as exc:
        with pytest.raises(NDError, match=re.escape(str(exc))):
            grid_cells(mesh, fam)
        return False
    assert np.array_equal(grid_cells(mesh, fam), ref)
    return True


@pytest.mark.parametrize("h", [0.1, 0.08])
def test_grid_cells_match_oracle_on_catalog(disk, family8, h):
    for name in phantoms.CATALOG:
        regions, _ = phantoms.build_phantom(name)
        mesh = triangulate(disk, regions, target_h=h,
                           extra_segments=family8.grid_segments())
        assert assert_grid_cells_match(mesh, family8)


def test_grid_cells_match_oracle_on_workload_meshes(tmp_path, monkeypatch):
    # scan_mixed and chain_weighted mesh on the scan grid; forward_fine's
    # two meshes do not, and both paths reject them
    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent / "perfbench")
    from workloads import WORKLOADS

    conforming = []
    for name, workload in WORKLOADS.items():
        for argv in workload.calls(0, tmp_path):
            cfg = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
            problem = cli.Problem(cfg)
            mesh = problem.build_mesh(with_grid="scan" in cfg)
            conforming.append((name, assert_grid_cells_match(mesh, problem.family)))
    assert conforming == [("scan_mixed", True), ("forward_fine", False),
                          ("forward_fine", False), ("chain_weighted", True)]


def test_cell_errors_counted(family8, coarse_recon_setup, monkeypatch):
    regions, mesh, basis, nd = coarse_recon_setup
    real = _Scanner.pixel_score

    def failing(self, cell, sign, neutralizer):
        if cell == (3, 3):
            raise ConfigurationError("forced")
        return real(self, cell, sign, neutralizer)

    monkeypatch.setattr(reconstruction._Scanner, "pixel_score", failing)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    errors = [row for row in res.cells if row.reason.startswith("error")]
    assert [(row.cell, row.sign, row.reason) for row in errors] == \
        [((3, 3), "lower", "error: forced")]
    assert np.isnan(errors[0].score) and errors[0].verdict
    assert res.count("error") == 1
    assert res.inside[3, 3]


def test_cells_below_the_visibility_floor_counted(family8, coarse_recon_setup,
                                                  monkeypatch):
    # a floor above every visibility of the scan: every judged row is
    # below it, counted, and its cell inside
    regions, mesh, basis, nd = coarse_recon_setup
    ref = reconstruct(nd, mesh, family8, 1.0, basis)
    judged = [row for row in ref.cells if row.sign]
    assert judged and ref.count("below_floor") == 0
    monkeypatch.setattr(reconstruction, "VISIBILITY_FLOOR",
                        2 * max(row.vis for row in judged))
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    below = [row for row in res.cells if row.reason == "below_floor"]
    assert res.count("below_floor") == len(below) == len(judged)
    assert all(row.verdict and res.inside[row.cell] for row in below)


def test_n_factor_counts_factorizations(family8, coarse_recon_setup, monkeypatch):
    regions, mesh, basis, nd = coarse_recon_setup
    calls = []
    real = fem.StiffnessSystem.factor

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(fem.StiffnessSystem, "factor", counting)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    # every map the scan factored is factored once, the background first,
    # in vertex order; the background map is kept as a base in the order
    # its factorization set, without the factorization, which its first
    # update rebuilds in that order (this phantom paints one sign, so no
    # box is a base)
    matrices = [id(system.kmat) for system in calls]
    assert res.n_factor + 1 == len(set(matrices)) == len(matrices) > 1
    assert [system.ordered for system in calls] == [False] + [True] * res.n_factor


@pytest.mark.parametrize("name", ["two_blob_mixed", "off_center_mixed"])
def test_one_mmd_ordering_per_reconstruct(disk, family8, name, monkeypatch):
    # the background map's factorization orders every later one, the
    # retained bases included: one reconstruct runs MMD exactly once
    regions, spec = phantoms.build_phantom(name)
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    nd = nd_matrix(fld, basis)
    specs = []
    real = spla.splu

    def counting(matrix, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real(matrix, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(fem.spla, "splu", counting)
    res = reconstruct(nd, mesh, family8, fld.gamma0, basis)
    assert specs.count("MMD_AT_PLUS_A") == 1 and specs[0] == "MMD_AT_PLUS_A"
    assert specs.count("NATURAL") == len(specs) - 1 >= res.n_factor


def exhaustive_min_box(scanner, sign, tau_abs):
    """The greedy shrink that retries every side on every pass until none
    moves: the oracle for `_Scanner.min_box`, which drops failed sides."""
    if scanner.cover_margin(set(), sign) >= -tau_abs:
        return None
    n = scanner.fam.grid_n
    box = [0, n - 1, 0, n - 1]
    if scanner.cover_margin(_box_cells(tuple(box)), sign) < -tau_abs:
        return tuple(box)
    moved = True
    while moved:
        moved = False
        for side in range(4):
            trial = box.copy()
            trial[side] += 1 if side in (0, 2) else -1
            if trial[0] > trial[1] or trial[2] > trial[3]:
                continue
            if scanner.cover_margin(_box_cells(tuple(trial)), sign) >= -tau_abs:
                box = trial
                moved = True
    return tuple(box)


@pytest.fixture(scope="module")
def min_box_runs(disk, family8):
    """Per phantom and sign: min_box's box, the verdict of every box it
    asked about (solved or implied), the boxes it solved, the verdict each
    asked box gets from its own solve, the painted cells of the sign's base
    and the exhaustive oracle's box with the margins of the boxes it
    solved; and the scanner's n_implied."""
    runs = {}

    def run(name):
        if name in runs:
            return runs[name]
        regions, spec = phantoms.build_phantom(name)
        mesh = triangulate(disk, regions, target_h=0.1,
                           extra_segments=family8.grid_segments())
        fld = build_field(mesh, spec)
        basis = build_basis(mesh, 8)
        scanner = _Scanner(nd_matrix(fld, basis), mesh, family8, fld.gamma0,
                           basis, 1e-10)
        asked, margins = {}, {}
        real_passes = reconstruction._CoverRecord.passes
        real = scanner.cover_margin

        def recording(self, box):
            asked[box] = real_passes(self, box)
            return asked[box]

        def solving(cells, sign):
            margins[frozenset(cells)] = real(cells, sign)
            return margins[frozenset(cells)]

        scanner.cover_margin = solving
        signs = {}
        for sign in ("lower", "upper"):
            asked.clear()
            margins.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reconstruction._CoverRecord, "passes", recording)
                box = scanner.min_box(sign, DEFAULT_TAU_ABS)
            solved = set(margins)
            base = scanner.bases.get(sign)
            own = {t: real(_box_cells(t), sign) >= -DEFAULT_TAU_ABS for t in asked}
            margins.clear()
            oracle = exhaustive_min_box(scanner, sign, DEFAULT_TAU_ABS)
            signs[sign] = dict(box=box, asked=dict(asked), solved=solved, own=own,
                               base=None if base is None else set(np.flatnonzero(base.cells)),
                               oracle=oracle, oracle_margins=dict(margins))
        runs[name] = signs, scanner.n_implied
        return runs[name]

    return run


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_min_box_skips_only_failing_trials(min_box_runs, name):
    # a box the exhaustive shrink solves that min_box never asked about,
    # neither solved nor implied, is the retry of a dropped side: it fails
    signs, _ = min_box_runs(name)
    for run in signs.values():
        asked = {frozenset(_box_cells(t)) for t in run["asked"]}
        assert all(margin < -DEFAULT_TAU_ABS
                   for cells, margin in run["oracle_margins"].items()
                   if cells and cells not in asked)


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_min_box_verdicts_match_exhaustive(family8, min_box_runs, name):
    # every box min_box asks about, solved or implied by a solved box, has
    # the verdict its own solve gives; the final box is a solved one, and
    # its map is the sign's base
    signs, n_implied = min_box_runs(name)
    implied = 0
    for run in signs.values():
        box = run["box"]
        assert run["oracle"] == box
        assert run["asked"] == run["own"]
        implied += sum(frozenset(_box_cells(t)) not in run["solved"] for t in run["asked"])
        if box is not None:
            assert run["asked"][box] and frozenset(_box_cells(box)) in run["solved"]
            assert run["base"] == set(family8.flat(_box_cells(box)))
    assert 0 < n_implied <= implied


def test_cover_margin_monotone_in_the_box(disk):
    # the fact min_box's implied verdicts rest on: a box B containing A
    # has a cover margin at least A's, for both signs (insulating paint on
    # more cells gives a larger map, conducting paint a smaller one)
    family = pixel_family(disk, 4)
    regions, spec = phantoms.build_phantom("two_blob_mixed")
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    scanner = _Scanner(nd_matrix(fld, basis), mesh, family, fld.gamma0,
                       basis, 1e-10)
    spans = [(lo, hi) for lo in range(4) for hi in range(lo, 4)]
    boxes = [x + y for x in spans for y in spans]
    assert len(boxes) == 100
    for sign in ("lower", "upper"):
        margin = np.array([scanner.cover_margin(_box_cells(box), sign) for box in boxes])
        inside = np.array([[reconstruction._contains(b, a) for b in boxes] for a in boxes])
        assert np.all(margin[None, :] >= margin[:, None] - 1e-12, where=inside)


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
    real_paint = PaintTemplate.solve
    real_solve = fem.solve_neumann

    def recording(*args, **kwargs):
        out = real_paint(*args, **kwargs)
        maps.append(out.nd.matrix)
        return out

    def checked(system, load, rtol=1e-10):
        sol = real_solve(system, load, rtol=rtol)
        x = np.vstack([sol.u, sol.multiplier[None, :]])
        rhs = load.bordered(system.n)
        res = np.linalg.norm(rhs - system.bordered() @ x, axis=0)
        assert np.all(res <= rtol * np.linalg.norm(load.b, axis=0))
        return sol

    monkeypatch.setattr(PaintTemplate, "solve", recording)
    monkeypatch.setattr(fem, "solve_neumann", checked)
    runs = []
    for factor in (fem.StiffnessSystem.factor, default_splu_factor):
        monkeypatch.setattr(fem.StiffnessSystem, "factor", factor)
        maps.clear()
        nd = nd_matrix(fld, basis)
        res = reconstruct(nd, mesh, family8, fld.gamma0, basis)
        assert len(maps) == res.n_factor + res.n_update > res.n_factor > 0
        runs.append((nd.matrix, list(maps), res.verdict_log(), res.csv_text()))
    (nd_sym, maps_sym, log_sym, csv_sym), (nd_ref, maps_ref, log_ref, csv_ref) = runs
    assert log_sym == log_ref and csv_sym == csv_ref
    assert len(maps_sym) == len(maps_ref)
    for got, ref in zip([nd_sym] + maps_sym, [nd_ref] + maps_ref):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def scan_maps(disk, family8, name, h, m):
    """`reconstruct` on one phantom, and every scan map as (template, flat
    D0 cells, flat Dinf cells, `PaintedMap`) in the order the scan solved
    them."""
    regions, spec = phantoms.build_phantom(name)
    mesh = triangulate(disk, regions, target_h=h,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, m)
    nd = nd_matrix(fld, basis)
    maps, factored = [], []
    real_solve, real_factor = PaintTemplate.solve, fem.StiffnessSystem.factor

    def recording(self, zero, inf, rtol, bases=()):
        out = real_solve(self, zero, inf, rtol, bases)
        maps.append((self, list(zero), list(inf), out))
        return out

    def counting(self):
        new = self.lu is None
        lu = real_factor(self)
        if new:
            factored.append((self.kmat, lu.nnz, self.ordered))
        return lu

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PaintTemplate, "solve", recording)
        mp.setattr(fem.StiffnessSystem, "factor", counting)
        res = reconstruct(nd, mesh, family8, fld.gamma0, basis)
    solved = [p for *_, p in maps if p.system is not None]
    assert len(maps) == res.n_factor + res.n_update
    assert len(solved) == res.n_factor > 1
    # a base is factored again for its first update: the background and
    # the two boxes at most, the background as a new matrix (below)
    assert len(factored) <= res.n_factor + 3
    assert res.n_factor <= len({id(kmat) for kmat, *_ in factored}) <= res.n_factor + 1
    assert res.lu_nnz == sum(nnz for _, nnz, _ in factored)
    # the background map comes first and sets the order of all the others:
    # it is factored in vertex order, and kept in the order it set
    assert [ordered for *_, ordered in factored].index(False) == 0
    assert [ordered for *_, ordered in factored].count(False) == 1
    assert all(p.system.ordered for p in solved)
    return res, maps


def factored_maps(maps):
    """(system, gamma data, map) of every scan map that was factored."""
    return [(p.system, tpl.gd, p.nd) for tpl, _, _, p in maps if p.system is not None]


@pytest.fixture(scope="module")
def regression_scans(disk, family8):
    return {name: scan_maps(disk, family8, name, 0.1, 8)
            for name in phantoms.REGRESSION_PHANTOMS}


def mmd_factor(kmat):
    return spla.splu(kmat, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=fem.DIAG_PIVOT_THRESH,
                     options=dict(SymmetricMode=True))


def fill_ratios(maps):
    """L+U nonzeros of each scan painting after the background on the
    template's shared order over those of MMD_AT_PLUS_A on the same matrix:
    as the scan factored it, or factored here when the scan updated the map.
    MMD's result depends on the numbering it starts from, so it starts from
    the direct path's: free DOFs in vertex order, then the conductors and
    the border row."""
    got, ref = [], []
    for tpl, zero, inf, p in maps[1:]:
        system = p.system
        if system is None:
            codes = tpl.cell_codes(zero, inf)[tpl.part]
            system = tpl.assemble(codes, tpl.dof_map(codes))
        system.factor()
        dofmap = system.dofmap
        free = np.flatnonzero(reference_fem.vertex_status(dofmap) == "free")
        direct = np.arange(system.n + 1)
        direct[:len(free)] = dofmap.dof_of_vertex[free]
        got.append(system.lu.nnz)
        ref.append(mmd_factor(system.kmat[direct][:, direct].tocsc()).nnz)
    return np.array(got), np.array(ref)


def test_shared_order_fill_near_mmd(disk, family8, regression_scans):
    # the background's MMD order serves every painting: its fill, with the
    # options of `fem.StiffnessSystem.factor`, stays within 1.10x that of
    # MMD at SuperLU's defaults summed over a scan and 1.30x on any one map
    # (measured: at most 1.020x, two_blob_mixed at h=0.1, and 1.168x,
    # plain_annulus).  Summed over the maps the scan factored, without the
    # updated pixel maps that sit near the background, it stays within
    # 1.15x (measured: at most 1.067x, on insulating_pair)
    scans = [maps for _, maps in regression_scans.values()]
    scans.append(scan_maps(disk, family8, "two_blob_mixed", 0.08, 16)[1])
    for maps in scans:
        got, ref = fill_ratios(maps)
        assert got.sum() <= 1.10 * ref.sum()
        assert np.all(got <= 1.30 * ref)
        got, ref = fill_ratios(maps[:1] + [m for m in maps[1:] if m[3].system is not None])
        assert got.sum() <= 1.15 * ref.sum()


def test_shared_order_maps_match_mmd_factorization(regression_scans):
    # every scan map solved on the shared order against the same system
    # factored on its own MMD order
    for _, maps in regression_scans.values():
        for system, gd, nd in factored_maps(maps)[1:]:
            mmd = fem.StiffnessSystem(kmat=system.kmat,
                                      constraint=system.constraint,
                                      dofmap=system.dofmap)
            b, sol = ndmap._solve(mmd, gd, 1e-10)
            ref = ndmap._pair(b, sol.u, gd, nd.field_hash)
            assert np.abs(nd.matrix - ref.matrix).max() \
                <= 1e-12 * np.abs(ref.matrix).max()


def test_updated_maps_match_direct_path(regression_scans):
    # every pixel-phase map the scan updated on a base against the direct
    # template map of the same painting (measured: at most 3.4e-15 here,
    # 1.0e-14 at h=0.08, m=16)
    for res, maps in regression_scans.values():
        updated = [(tpl, zero, inf, p) for tpl, zero, inf, p in maps if p.system is None]
        assert len(updated) == res.n_update > 0
        for tpl, zero, inf, p in updated:
            assert gram_distance(p.nd, tpl.solve(zero, inf, 1e-10).nd) <= 1e-10


def test_probes_inside_the_opposite_box(regression_scans):
    # on off_center_mixed the lower box (2,5,1,6) encloses the upper box: a
    # lower probe inside the upper box paints D0 where its base, the upper
    # box, is Dinf, so it is factored; an upper probe's Dinf cell that the
    # lower box's D0 paint cuts off from gamma is named and kept inside
    res, maps = regression_scans["off_center_mixed"]
    upper = {i * 8 + j for i, j in _box_cells(res.box_upper)}
    assert upper and upper <= {i * 8 + j for i, j in _box_cells(res.box_lower)}
    probes = [p for _, zero, inf, p in maps
              if len(zero) == 1 and zero[0] in upper and set(inf) == upper - set(zero)]
    assert len(probes) == len(upper)
    assert all(p.system is not None for p in probes)
    errors = [row for row in res.cells if row.reason.startswith("error")]
    assert len(errors) == res.count("error") == 8
    for row in errors:
        i, j = row.cell
        assert (row.sign, i * 8 + j in upper) == ("upper", True)
        assert row.reason.startswith(f"error: enclosed_by_neutralizer: cell ({i}, {j}) ")
        assert res.inside[i, j]


def test_filled_pocket_has_a_row(family8, coarse_recon_setup, monkeypatch):
    # a lower box whose cells all score inside but its centre: the centre
    # is an enclosed pocket, filled and given a row of its own
    regions, mesh, basis, nd = coarse_recon_setup
    monkeypatch.setattr(_Scanner, "min_box",
                        lambda self, sign, tau: (2, 4, 2, 4) if sign == "lower" else None)
    monkeypatch.setattr(_Scanner, "pixel_score",
                        lambda self, cell, sign, neutralizer: -1.0 if cell == (3, 3) else 0.0)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    centre = [row for row in res.cells if row.cell == (3, 3)]
    assert [(row.sign, row.verdict, row.reason) for row in centre] == \
        [("lower", False, ""), (None, True, "filled")]
    assert res.count("filled") == 1 and res.inside[3, 3]
    assert res.inside_count() == 9


REASONS = ("", "below_floor", "family_fault", "filled")


def test_every_inside_cell_has_a_row(regression_scans):
    # the raster's inside cells are exactly the cells with a passing row
    # or a reason, and the judged rows rebuild verdicts.log line by line
    for res, _ in regression_scans.values():
        judged = {}
        for row in res.cells:
            assert row.reason in REASONS or row.reason.startswith("error: "), row
            assert (row.sign is None) == (row.reason in ("family_fault", "filled"))
            assert row.verdict or not row.reason
            if row.sign:
                judged.setdefault(row.cell, {})[row.sign] = row
            if row.sign and not row.reason:
                assert row.margin == row.score + DEFAULT_TAU_REL * row.vis
                assert row.verdict == (row.margin >= 0)
        marked = {row.cell for row in res.cells if row.verdict}
        assert marked == {(i, j) for i, j in np.argwhere(res.inside)}
        lines = res.verdict_log().splitlines()
        assert len(lines) == len(judged) == len(res.verdicts)
        for line, ((i, j), rows) in zip(lines, sorted(judged.items())):
            lo_hi = [rows.get(sign) for sign in ("lower", "upper")]
            lams = ["nan" if row is None else f"{row.score:.6e}" for row in lo_hi]
            oks = ["0" if row is None else str(int(row.verdict)) for row in lo_hi]
            assert line.split() == [f"cell{i}_{j}", *lams, *oks]


@pytest.fixture(scope="module")
def mixed_setup(disk, family8):
    regions, spec = phantoms.build_phantom("two_blob_mixed")
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    return nd_matrix(fld, basis), mesh, basis


def test_bases_held_and_released(family8, mixed_setup, monkeypatch):
    nd, mesh, basis = mixed_setup
    held, seen = [], []
    real = PaintTemplate.solve

    def watching(self, zero, inf, rtol, bases=()):
        held.append((len(bases), sum(b.system.lu is not None for b in bases)))
        seen.extend(weakref.ref(b.system) for b in bases)
        return real(self, zero, inf, rtol, bases)

    monkeypatch.setattr(PaintTemplate, "solve", watching)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    assert res.n_update > 0
    # the background and both boxes; one of them factored at a time
    assert max(n for n, _ in held) == 3
    assert max(f for _, f in held) == 1
    gc.collect()
    assert seen and all(ref() is None for ref in seen)


def test_update_missing_the_residual_gate_is_factored(family8, mixed_setup,
                                                      monkeypatch):
    nd, mesh, basis = mixed_setup
    ref = reconstruct(nd, mesh, family8, 1.0, basis)
    real = PaintTemplate.update

    def perturbed(self, base, cell, code):
        # an update from base potentials 1e-6 off: its potentials are off
        # as much, and the residual it reports misses the gate
        return real(self, dataclasses.replace(base, x=base.x * (1.0 + 1e-6)), cell, code)

    monkeypatch.setattr(PaintTemplate, "update", perturbed)
    res = reconstruct(nd, mesh, family8, 1.0, basis)
    assert ref.n_update > 0 and res.n_update == 0
    assert res.n_factor == ref.n_factor + ref.n_update
    assert res.csv_text() == ref.csv_text()
    assert [(row.cell, row.sign, row.verdict, row.reason) for row in res.cells] == \
        [(row.cell, row.sign, row.verdict, row.reason) for row in ref.cells]
    for got, want in zip(res.cells, ref.cells):
        for lam, lam_ref in ((got.score, want.score), (got.vis, want.vis)):
            assert np.isnan(lam) == np.isnan(lam_ref)
            assert np.isnan(lam) or abs(lam - lam_ref) <= 1e-9 * abs(lam_ref)


@pytest.mark.parametrize("name", ["two_blob_mixed", "insulating_disk"])
def test_quarter_turn_rotates_the_raster(tmp_path, name):
    # a phantom turned by t quarter turns about the origin gives the raster
    # turned by t quarter turns: the disk, its scan window and grid are
    # invariant, and the cell (i, j) turns into (n - 1 - j, i)
    import json

    from eitmono import cli
    from record_contract import contract_config

    regions, _ = phantoms.build_phantom(name)
    quarter = np.array([[0.0, 1.0], [-1.0, 0.0]])    # (x, y) -> (-y, x)
    rasters = []
    for turns in range(4):
        turn = np.linalg.matrix_power(quarter, turns)
        cfg = dict(contract_config(name), regions={
            lab: [(np.asarray(p) @ turn).tolist() for p in regions.label_polys(lab)]
            for lab in ("D0", "Dinf") if regions.label_polys(lab)})
        del cfg["phantom"]
        path = tmp_path / f"turn{turns}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{turns}"
        assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "result.csv").read_text().split()
        rasters.append(np.array([[int(v) for v in row.split(",")] for row in rows]).T)
    assert rasters[0].any()
    for turns in range(1, 4):
        assert np.array_equal(rasters[turns], np.rot90(rasters[0], turns))
