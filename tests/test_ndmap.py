import dataclasses
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eitmono import fem, ndmap, phantoms
from eitmono.cli import Problem
from eitmono.coefficient import CoefficientField, WeightSpec
from eitmono.geometry import build_domain, triangulate
from eitmono.monotonicity import psd_test
from eitmono.ndmap import (BasisResolutionWarning, CurrentBasis, NDError,
                           NDMatrix, PaintTemplate, bracketed_maps, build_basis,
                           field_painting, field_template, gamma_data, nd_matrix,
                           perturb_symmetric)
from eitmono.oracle import disk_nd_eigenvalue
from eitmono.reconstruction import grid_template
from eitmono import polygons as pg

from conftest import dirichlet_energy, gram_distance
import reference_fem
from reference_fem import (bracket_fields, cell_parts, homogeneous_field, nd_extreme,
                           painted_field, relabeled)


def basis_mean_free(basis, mesh, tol):
    """Gamma-mean of every basis density as used (profiles are projected
    to zero mean in the mesh quadrature, matching the load assembly)."""
    pts, w = fem.gamma_quadrature(mesh)
    vals = np.stack([basis.density(k)(pts) for k in range(basis.m)])
    total = float(np.sum(w))
    projected = vals - (vals @ w)[:, None] / total
    return float(np.max(np.abs(projected @ w))) / total <= tol


class TestBasis:
    def test_full_circle_first_modes(self, disk, disk_mesh, basis8):
        assert basis8.modes[0] == ("sin", 1)
        assert basis8.modes[1] == ("cos", 1)
        assert basis8.max_frequency == 4
        pts = disk.boundary_point(np.linspace(0, 1, 50, endpoint=False))
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        assert np.allclose(basis8.density(0)(pts), np.sin(theta), atol=1e-12)
        assert np.allclose(basis8.density(1)(pts), np.cos(theta), atol=1e-12)

    def test_mean_free(self, disk_mesh, basis8):
        assert basis_mean_free(basis8, disk_mesh, tol=1e-12)

    def test_gram_diagonal_pi(self, disk_mesh, basis8):
        g = basis8.gram(disk_mesh)
        assert np.allclose(np.diag(g), np.pi, rtol=1e-3)
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() < 1e-6
        assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_half_arc_single_mode(self):
        half_arc_mesh = triangulate(build_domain("disk", (0.0, 0.5)), target_h=0.2)
        basis = build_basis(half_arc_mesh, 1)
        assert basis.modes == (("sin", 1),)

    def test_nyquist_warning(self, disk_mesh):
        # 256 edges on gamma, below 8 per period of frequency 40
        with pytest.warns(BasisResolutionWarning):
            build_basis(disk_mesh, 80)

    def test_m_guard(self, disk_mesh):
        with pytest.raises(NDError):
            build_basis(disk_mesh, 0)


class TestNDMatrix:
    def test_symmetry_and_asymmetry_report(self, nd_homogeneous):
        nd = nd_homogeneous
        assert np.allclose(nd.matrix, nd.matrix.T)
        assert nd.asymmetry < 1e-7

    def test_asymmetric_solve_raises(self, disk_field, basis8, monkeypatch):
        real = fem.solve_neumann

        def skewed(system, load, rtol=1e-10):
            sol = real(system, load, rtol=rtol)
            u = sol.u.copy()
            u[:, 1] += 1e-6 * np.abs(u[:, 0]).max() * np.sign(load.bordered(len(u))[:len(u), 0])
            return dataclasses.replace(sol, u=u)

        monkeypatch.setattr(fem, "solve_neumann", skewed)
        with pytest.raises(NDError, match="asymmetry"):
            nd_matrix(disk_field, basis8)

    def test_diagonal_matches_inverse_frequency(self, nd_homogeneous):
        eigs = np.sort(nd_homogeneous.generalized_eigenvalues())[::-1]
        for n in range(1, 5):
            pair = eigs[2 * n - 2:2 * n]
            assert np.all(np.abs(pair - 1.0 / n) * n < 0.02)

    def test_background_scaling(self, disk_mesh, basis8, nd_homogeneous):
        fld = CoefficientField(mesh=disk_mesh, gamma0=2.5)
        nd = nd_matrix(fld, basis8)
        assert np.allclose(nd.matrix, nd_homogeneous.matrix / 2.5, rtol=1e-9)

    def test_quadratic_form_identity(self, disk_mesh, disk_field, basis8):
        # diagonal entries equal the interior Dirichlet energy of the
        # corresponding solve
        from eitmono import fem
        dm = reference_fem.build_dof_map(disk_mesh)
        system = reference_fem.assemble(disk_field, dm)
        nd = nd_matrix(disk_field, basis8)
        for k in (0, 3):
            load = reference_fem.neumann_load(disk_mesh, dm, basis8.density(k))
            sol = fem.solve_neumann(system, load)
            energy = dirichlet_energy(system, sol)
            assert abs(nd.matrix[k, k] - energy) < 1e-8 * abs(energy)

    def test_text_roundtrip(self, nd_homogeneous):
        back = NDMatrix.from_text(nd_homogeneous.to_text())
        assert np.allclose(back.matrix, nd_homogeneous.matrix)
        assert np.allclose(back.gram, nd_homogeneous.gram)
        assert back.mesh_hash == nd_homogeneous.mesh_hash
        assert back.basis_hash == nd_homogeneous.basis_hash

    def test_perturb_symmetric(self, nd_homogeneous):
        noisy = perturb_symmetric(nd_homogeneous, 0.01, seed=42)
        again = perturb_symmetric(nd_homogeneous, 0.01, seed=42)
        assert np.allclose(noisy.matrix, again.matrix)
        assert np.allclose(noisy.matrix, noisy.matrix.T)
        rel = np.linalg.norm(noisy.matrix - nd_homogeneous.matrix) \
            / np.linalg.norm(nd_homogeneous.matrix)
        assert np.isclose(rel, 0.01, rtol=1e-12)
        assert perturb_symmetric(nd_homogeneous, 0.0, seed=42) is nd_homogeneous

    @pytest.mark.parametrize("level", [np.inf, np.nan, -0.1])
    def test_perturb_rejects_bad_level(self, nd_homogeneous, level):
        with pytest.raises(ValueError, match="noise level"):
            perturb_symmetric(nd_homogeneous, level, seed=42)


class TestExtremeMaps:
    def test_empty_test_set_is_background(self, disk_mesh, basis8, nd_homogeneous):
        nd0 = nd_extreme(disk_mesh, None, "insulating", 1.0, basis8)
        assert np.allclose(nd0.matrix, nd_homogeneous.matrix, atol=1e-14)

    def test_concentric_eigenvalues(self, disk):
        regions, _ = phantoms.concentric_disk(0.5, "D0", 96)
        mesh = triangulate(disk, regions, target_h=0.06)
        basis = build_basis(mesh, 8)
        circle = (pg.regular_polygon((0, 0), 0.5, 96),)
        nd0 = nd_extreme(mesh, circle, "insulating", 1.0, basis)
        ndinf = nd_extreme(mesh, circle, "conducting", 1.0, basis)
        e0 = np.sort(nd0.generalized_eigenvalues())[::-1]
        ei = np.sort(ndinf.generalized_eigenvalues())[::-1]
        for n in (1, 2):
            lam0 = disk_nd_eigenvalue(n, 0.5, 0.0)
            lami = disk_nd_eigenvalue(n, 0.5, np.inf)
            assert abs(e0[2 * n - 2] - lam0) / lam0 < 0.01
            assert abs(ei[2 * n - 2] - lami) / lami < 0.01

    def test_nonconforming_mesh_rejected(self, disk_mesh, basis8):
        blob = (pg.regular_polygon((0.2, 0.1), 0.17, 12),)
        with pytest.raises(NDError):
            nd_extreme(disk_mesh, blob, "insulating", 1.0, basis8)

    def test_ordering_around_background(self, disk, family8):
        mesh = triangulate(disk, target_h=0.1,
                           extra_segments=family8.grid_segments())
        fld = CoefficientField(mesh=mesh, gamma0=1.0)
        basis = build_basis(mesh, 8)
        nd_bg = nd_matrix(fld, basis)
        for member in (family8.whole_window().cells, {(3, 3)}):
            parts = cell_parts(family8, member)
            nd0 = nd_extreme(mesh, parts, "insulating", 1.0, basis)
            ndi = nd_extreme(mesh, parts, "conducting", 1.0, basis)
            assert psd_test(nd0, nd_bg) >= -1e-7 * nd_bg.gnorm()
            assert psd_test(nd_bg, ndi) >= -1e-7 * ndi.gnorm()


def ordered_field_pair(mesh, rng):
    """Two validated fields with sigma_1 <= sigma_2 pointwise, mixing the
    finite labels and optionally ordered extreme labels."""
    g1 = rng.uniform(0.5, 1.5)
    g2 = g1 * rng.uniform(1.0, 1.6)
    v1 = g1 * rng.uniform(0.2, 0.95)
    v2 = rng.uniform(v1, g2)
    w2 = g2 * rng.uniform(1.1, 3.0)
    w1 = rng.uniform(g1, min(w2, 2.0 * g1 + w2) )
    w1 = min(w1, w2)
    f1 = CoefficientField(mesh=mesh, gamma0=g1,
                          finite_values={"DFminus": v1, "DFplus": max(w1, g1)})
    f2 = CoefficientField(mesh=mesh, gamma0=g2,
                          finite_values={"DFminus": min(v2, g2), "DFplus": w2})
    return f1.validate(), f2.validate()


class TestCoefficientMonotonicity:
    def test_random_ordered_pairs(self, disk):
        # pointwise-ordered coefficient pairs on a shared mesh produce
        # Loewner-ordered ND matrices (exact discrete monotonicity)
        from eitmono.geometry import RegionSet
        p1 = pg.rectangle(-0.45, -0.25, -0.05, 0.2)
        p2 = pg.regular_polygon((0.3, 0.0), 0.22, 24)
        regions = RegionSet(polys={"DFminus": [p1], "DFplus": [p2]})
        mesh = triangulate(disk, regions, target_h=0.12)
        basis = build_basis(mesh, 6)
        rng = np.random.default_rng(17)
        for _ in range(5):
            f1, f2 = ordered_field_pair(mesh, rng)
            nd_small = nd_matrix(f1, basis)
            nd_big = nd_matrix(f2, basis)
            lam = psd_test(nd_small, nd_big)
            assert lam >= -1e-7 * nd_big.gnorm(), lam

    def test_extreme_label_ordering(self, disk):
        # sigma_1 has an insulating blob where sigma_2 is finite, and
        # sigma_2 a conducting blob where sigma_1 is finite
        from eitmono.geometry import RegionSet
        p1 = pg.regular_polygon((-0.25, 0.1), 0.18, 24)
        p2 = pg.regular_polygon((0.28, -0.15), 0.15, 24)
        regions = RegionSet(polys={"D0": [p1], "Dinf": [p2]})
        mesh = triangulate(disk, regions, target_h=0.12)
        basis = build_basis(mesh, 6)
        f_small = CoefficientField(mesh=relabeled(mesh, {"Dinf": "DFplus"}),
                                   gamma0=1.0, finite_values={"DFplus": 2.0})
        f_big = CoefficientField(mesh=relabeled(mesh, {"D0": "DFminus"}),
                                 gamma0=1.0, finite_values={"DFminus": 0.5})
        nd_small = nd_matrix(f_small.validate(), basis)
        nd_big = nd_matrix(f_big.validate(), basis)
        lam = psd_test(nd_small, nd_big)
        assert lam >= -1e-7 * nd_big.gnorm(), lam


def test_provenance_gate(disk_mesh, disk_field, basis8, nd_homogeneous):
    from eitmono.monotonicity import ProvenanceError
    other_basis = build_basis(disk_mesh, 6)
    nd_other = nd_matrix(disk_field, other_basis)
    with pytest.raises(ProvenanceError):
        psd_test(nd_homogeneous, nd_other)


def test_block_solve_matches_per_load_solves(disk, family8):
    from eitmono import fem

    mesh = triangulate(disk, target_h=0.1,
                       extra_segments=family8.grid_segments())
    basis = build_basis(mesh, 8)
    paint = [(cell_parts(family8, [(2, 5)]), "D0"),
             (cell_parts(family8, [(5, 2), (5, 3)]), "Dinf")]
    for fld in (CoefficientField(mesh=mesh, gamma0=1.0),
                painted_field(mesh, paint, 1.0)):
        nd = nd_matrix(fld, basis)
        dm = reference_fem.build_dof_map(fld.mesh)
        system = reference_fem.assemble(fld, dm)
        loads = [reference_fem.neumann_load(fld.mesh, dm, basis.density(k))
                 for k in range(basis.m)]
        sols = [fem.solve_neumann(system, ld) for ld in loads]
        raw = np.array([[lj.b @ sk.u for sk in sols] for lj in loads])
        ref = 0.5 * (raw + raw.T)
        assert np.abs(nd.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.fixture(scope="module")
def grid_mesh(disk, family8):
    return triangulate(disk, target_h=0.1,
                       extra_segments=family8.grid_segments())


def test_shared_loads_match_per_call_loads(grid_mesh, family8, monkeypatch):
    # the cached loads scattered through a painted DOF map equal the
    # per-call neumann_load bit for bit, where DOFs are removed and merged
    mesh = grid_mesh
    basis = build_basis(mesh, 8)
    zero = (cell_parts(family8, [(2, 5), (2, 6)]), "D0")
    inf = (cell_parts(family8, [(5, 2), (5, 3)]), "Dinf")
    captured = []
    real = fem.solve_neumann

    def capture(system, load, rtol=1e-10):
        captured.append((system, load))
        return real(system, load, rtol=rtol)

    monkeypatch.setattr(fem, "solve_neumann", capture)
    for removes, merges in ((False, False), (True, False), (False, True),
                            (True, True)):
        fld = painted_field(mesh, [zero] * removes + [inf] * merges, 1.0)
        nd_matrix(fld, basis)
        system, block = captured[-1]
        dm = system.dofmap
        status = set(reference_fem.vertex_status(dm).tolist())
        assert ("removed" in status) == removes
        assert ("merged" in status) == merges
        ref = [reference_fem.neumann_load(fld.mesh, dm, basis.density(k))
               for k in range(basis.m)]
        # the block holds the loads on the measurement-arc DOFs, the system's
        # right-hand side those loads on the DOFs, then a zero row
        rhs = block.bordered(system.n)
        assert np.array_equal(rhs[:system.n], np.column_stack([ld.b for ld in ref]))
        assert not np.any(rhs[system.n:])
        assert np.array_equal(system.constraint,
                              reference_fem.gamma_mass_vector(fld.mesh, dm))


def test_gamma_data_once_per_mesh_and_basis(disk, grid_mesh, family8,
                                            monkeypatch):
    mesh = grid_mesh
    b8, b16 = (build_basis(mesh, m) for m in (8, 16))
    other = triangulate(disk, target_h=0.12)
    refs = {m: b.gram(mesh) for m, b in ((8, b8), (16, b16))}
    ref_other = b16.gram(other)
    gram_calls = []
    real_gram = CurrentBasis.gram

    def counting(self, msh):
        gram_calls.append(self.m)
        return real_gram(self, msh)

    monkeypatch.setattr(CurrentBasis, "gram", counting)
    gd8 = gamma_data(mesh, b8)
    # a relabeled mesh (every painting) reuses the entry
    painted = painted_field(mesh, [(cell_parts(family8, [(3, 3)]), "D0")], 1.0)
    assert gamma_data(painted.mesh, b8) is gd8
    assert np.array_equal(gd8.gram, refs[8])
    # a second basis on the same mesh gets its own loads and Gram
    calls_before = len(gram_calls)
    gd16 = gamma_data(mesh, b16)
    assert gram_calls[calls_before:] == [16]
    assert gd16.loads.shape == (len(gd8.terms.gamma_vertices), 16)
    assert np.array_equal(gd16.loads[:, :8], gd8.loads)
    assert np.array_equal(gd16.gram, refs[16])
    for fld in (CoefficientField(mesh=mesh, gamma0=1.0), painted):
        nd = nd_matrix(fld, b16)
        assert np.array_equal(nd.gram, refs[16])
    assert gram_calls[calls_before:] == [16]
    # a second mesh gets its own loads and Gram
    gd_other = gamma_data(other, b16)
    assert gram_calls[calls_before:] == [16, 16]
    assert np.array_equal(gd_other.gram, ref_other)
    assert gd_other is not gd16
    assert gd_other.mesh_hash == other.provenance() != gd16.mesh_hash


def test_nd_maps_share_no_mutable_state(disk_mesh, disk_field, basis8):
    first = nd_matrix(disk_field, basis8)
    first.gram[0, 0] += 1.0
    second = nd_matrix(disk_field, basis8)
    assert np.array_equal(second.gram, basis8.gram(disk_mesh))
    noisy = perturb_symmetric(second, 1e-3, seed=0)
    noisy.gram[0, 0] += 1.0
    assert np.array_equal(second.gram, basis8.gram(disk_mesh))
    gd = gamma_data(disk_mesh, basis8)
    terms = gd.terms
    for arr in (gd.loads, gd.load_norms, gd.gram, terms.dots, terms.four_a2,
                terms.gamma_vertices, terms.gamma_mass):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        gd.loads[0, 0] = 0.0


def test_gamma_data_arrays_are_read_only(disk_mesh, basis8, monkeypatch):
    # the one cache of the forward path is shared by every painting: none
    # of its arrays, those of its mesh terms included, can be written
    monkeypatch.setattr(ndmap, "_GAMMA_DATA", {})
    gd = gamma_data(disk_mesh, basis8)
    arrays = [value for record in (gd, gd.terms) for value in vars(record).values()
              if isinstance(value, np.ndarray)]
    assert len(arrays) == 7
    assert not any(arr.flags.writeable for arr in arrays)
    assert gamma_data(disk_mesh, basis8) is gd


@pytest.fixture(scope="module")
def off_center_dfplus_mesh(disk):
    from eitmono.geometry import RegionSet
    regions = RegionSet(polys={"DFplus": [pg.regular_polygon((0.3, 0.2), 0.3, 32)]})
    return triangulate(disk, regions, target_h=0.05)


class CountingLU:
    """A SuperLU factor that counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


@pytest.fixture
def factors(monkeypatch):
    """Every factor handed out by `fem.StiffnessSystem.factor`, counting
    its solves."""
    made = []
    real = fem.StiffnessSystem.factor

    def counting(self):
        made.append(CountingLU(real(self)))
        return made[-1]

    monkeypatch.setattr(fem.StiffnessSystem, "factor", counting)
    return made


@pytest.mark.parametrize("contrast", [1e3, 1e4, 1e5])
def test_high_contrast_residual_limit(off_center_dfplus_mesh, factors, contrast):
    # the refined residual floors near 7e-15 * contrast relative to |b|
    # (the roundoff of forming r = b - K x), so at the default rtol 1e-10 a
    # 1e4 contrast passes and a 1e5 contrast is refused, not accepted
    # loosely; the refinement solve runs only when the first residual
    # misses the gate, which a 1e4 contrast does
    mesh = off_center_dfplus_mesh
    basis = build_basis(mesh, 16)
    fld = CoefficientField(mesh=mesh, gamma0=1.0,
                           finite_values={"DFplus": contrast}).validate()
    if contrast < 1e5:
        assert nd_matrix(fld, basis).asymmetry < 1e-12
    else:
        with pytest.raises(NDError, match="solver residual"):
            nd_matrix(fld, basis)
    assert [f.solves for f in factors] == [1 if contrast < 1e4 else 2]


# -- paint template properties ------------------------------------------------

# Cell labelings as rank per flat cell: 0 = D0, 1 = background, 2 = Dinf
# (absent cells are background).  The scan window holds 8 x 8 cells.
labelings = st.dictionaries(st.integers(0, 63), st.sampled_from([0, 2]),
                            max_size=12)


@pytest.fixture(scope="module")
def template(grid_mesh, family8):
    basis = build_basis(grid_mesh, 8)
    return grid_template(grid_mesh, family8, 1.0, basis), basis


def test_scan_map_solves_once(template, factors):
    tpl, _ = template
    tpl.solve([9, 10], [45], 1e-10)
    assert [f.solves for f in factors] == [1]


def painted_cells(ranks):
    return ([c for c, r in ranks.items() if r == 0],
            [c for c, r in ranks.items() if r == 2])


def template_map(tpl, ranks):
    """Template map of a labeling; labelings that leave part of the domain
    cut off from gamma are rejected (both paths raise, tested below)."""
    try:
        return tpl.solve(*painted_cells(ranks), 1e-10).nd
    except fem.ConfigurationError:
        assume(False)


@settings(max_examples=15, deadline=None)
@given(labelings, labelings)
def test_ordered_labelings_give_loewner_ordered_maps(template, lower, raise_by):
    # pointwise D0 <= background <= Dinf, so the ND maps are ordered the
    # other way: the lower labeling's map dominates
    tpl, _ = template
    upper = {c: max(lower.get(c, 1), raise_by.get(c, 1))
             for c in set(lower) | set(raise_by)}
    nd_low, nd_up = template_map(tpl, lower), template_map(tpl, upper)
    assert psd_test(nd_low, nd_up) >= -1e-12 * nd_low.gnorm()
    # each map is exactly symmetric and positive definite in the Gram geometry
    for nd in (nd_low, nd_up):
        assert np.array_equal(nd.matrix, nd.matrix.T)
        assert nd.generalized_eigenvalues()[0] > 0


@settings(max_examples=15, deadline=None)
@given(labelings)
def test_template_map_matches_direct_path(template, family8, grid_mesh, ranks):
    tpl, basis = template
    nd = template_map(tpl, ranks)
    zero, inf = painted_cells(ranks)
    paint = [(cell_parts(family8, [divmod(c, 8) for c in ids]), lab)
             for ids, lab in ((zero, "D0"), (inf, "Dinf")) if ids]
    ref = nd_matrix(painted_field(grid_mesh, paint, 1.0), basis)
    assert np.abs(nd.matrix - ref.matrix).max() <= 1e-12 * np.abs(ref.matrix).max()
    assert (nd.field_hash, nd.mesh_hash, nd.basis_hash) == \
        (ref.mesh_hash + "+scan", ref.mesh_hash, ref.basis_hash)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 2]), labelings)
def test_enclosed_pocket_raises_like_direct_path(template, family8, grid_mesh,
                                                 i, j, centre, others):
    # a ring of D0 cells around a background or conducting cell cuts it off
    # from gamma; other paint may add further faults, raised in the same order
    tpl, _ = template
    ranks = dict(others)
    ranks.update({(i + di) * 8 + j + dj: 0
                  for di in (-1, 0, 1) for dj in (-1, 0, 1)})
    ranks[i * 8 + j] = centre
    zero, inf = painted_cells(ranks)
    paint = [(cell_parts(family8, [divmod(c, 8) for c in ids]), lab)
             for ids, lab in ((zero, "D0"), (inf, "Dinf")) if ids]
    with pytest.raises(fem.ConfigurationError) as direct:
        reference_fem.build_dof_map(painted_field(grid_mesh, paint, 1.0).mesh)
    with pytest.raises(fem.ConfigurationError, match=re.escape(str(direct.value))):
        tpl.dof_map(tpl.cell_codes(zero, inf)[tpl.part])


@settings(max_examples=20, deadline=None)
@given(labelings, st.integers(0, 63), st.sampled_from([0, 2]))
def test_one_cell_update_matches_direct_path(template, base_ranks, cell, rank):
    # a base labeling plus one cell painted D0 or Dinf is updated on the
    # base's factorization when that cell is background in the base, and
    # is within 1e-10 of the direct template map in the Gram geometry; a
    # painting the direct path rejects raises the same error
    tpl, _ = template
    try:
        base = tpl.solve(*painted_cells(base_ranks), 1e-10)
    except fem.ConfigurationError:
        assume(False)
    ranks = dict(base_ranks)
    ranks[cell] = rank
    zero, inf = painted_cells(ranks)
    try:
        ref = tpl.solve(zero, inf, 1e-10).nd
    except fem.ConfigurationError as exc:
        with pytest.raises(fem.ConfigurationError, match=re.escape(str(exc))):
            tpl.solve(zero, inf, 1e-10, [base])
        return
    got = tpl.solve(zero, inf, 1e-10, [base])
    assert (got.system is None) == (cell not in base_ranks)
    assert gram_distance(got.nd, ref) <= 1e-10


# Paintings of one kind: D0 cells only, Dinf cells only, or both.
KINDS = {"D0": [0], "Dinf": [2], "both": [0, 2]}
paintings = st.sampled_from(sorted(KINDS)).flatmap(
    lambda kind: st.dictionaries(st.integers(0, 63), st.sampled_from(KINDS[kind]),
                                 max_size=20))


def direct_field(family8, grid_mesh, ranks):
    """The painted field of a labeling on the direct (polygon) path."""
    zero, inf = painted_cells(ranks)
    paint = [(cell_parts(family8, [divmod(c, 8) for c in ids]), lab)
             for ids, lab in ((zero, "D0"), (inf, "Dinf")) if ids]
    return painted_field(grid_mesh, paint, 1.0)


def cut_off_cells(mesh, part):
    """The parts of the live (not D0) triangles whose vertices the live
    triangles do not join to a live vertex on gamma."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    live = np.flatnonzero(mesh.triangle_region != "D0")
    tris = mesh.triangles[live]
    pairs = tris[:, [0, 1, 1, 2]].reshape(-1, 2).T
    graph = coo_matrix((np.ones(pairs.shape[1]), pairs), shape=(mesh.num_vertices,) * 2)
    comp = connected_components(graph, directed=False)[1]
    seeds = np.intersect1d(mesh.gamma_edges(), tris)
    return set(part[live[~np.isin(comp[tris[:, 0]], comp[seeds])]].tolist())


def assert_painting_like_direct_path(tpl, codes, fld, check_only=False):
    """The template's DOF map and CSC system of a painting against the
    direct COO path (`reference_fem`), or the same first error; a
    `CutOffError` names the cut-off cells.  ``check_only`` runs only the
    checks of an updated map (`PaintTemplate.check`)."""
    assert np.array_equal(ndmap.PAINT_LABELS[codes], fld.mesh.triangle_region)
    run = tpl.check if check_only else tpl.dof_map
    try:
        dofmap = reference_fem.build_dof_map(fld.mesh)
    except fem.ConfigurationError as exc:
        with pytest.raises(fem.ConfigurationError, match=f"^{re.escape(str(exc))}$") as got:
            run(codes)
        if isinstance(got.value, ndmap.CutOffError):
            assert set(got.value.cells.tolist()) == cut_off_cells(fld.mesh, tpl.part)
        return
    if check_only:
        tpl.check(codes)
        return
    reference_fem.assert_same_system(tpl.assemble(codes, tpl.dof_map(codes)),
                                     reference_fem.assemble(fld, dofmap))


@pytest.fixture(scope="module")
def vertex_order_template(grid_mesh, family8):
    """A grid template whose background map has not set the order."""
    return grid_template(grid_mesh, family8, 1.0, build_basis(grid_mesh, 8))


# A ring of D0 cells around cell (3, 3), which it cuts off from gamma.
RING = {i * 8 + j: 0 for i in (2, 3, 4) for j in (2, 3, 4) if (i, j) != (3, 3)}


@settings(max_examples=40, deadline=None)
@given(ranks=paintings, ranked=st.booleans())
@example(ranks=RING, ranked=True)
@example(ranks={**RING, 27: 2}, ranked=False)
def test_template_dof_map_and_assembly_match_direct_path(template, vertex_order_template,
                                                         family8, grid_mesh, ranks, ranked):
    # labels, vertex statuses, conductors, the CSC pattern after relabelling
    # and the entries (1.2e-15*max|K|, 4e-15 at a conductor) of random grid
    # paintings, in vertex order and in the background's order, or the
    # direct path's first error with the cells that are cut off
    tpl = template[0] if ranked else vertex_order_template
    if ranked:
        tpl.solve([], [], 1e-10)
    assert (tpl.by_rank is not None) == ranked
    codes = tpl.cell_codes(*painted_cells(ranks))[tpl.part]
    assert_painting_like_direct_path(tpl, codes, direct_field(family8, grid_mesh, ranks))


@settings(max_examples=25, deadline=None)
@given(base_ranks=paintings, cell=st.integers(0, 63), rank=st.sampled_from([0, 2]))
@example(base_ranks={c: r for c, r in RING.items() if c != 36}, cell=36, rank=0)
def test_updated_painting_checks_match_direct_path(template, family8, grid_mesh,
                                                   base_ranks, cell, rank):
    # a base plus one background cell: the checks an updated map runs in
    # place of a DOF map raise the direct path's first error, cut-off
    # cells included, and solving it on the base builds no DofMap
    tpl, _ = template
    assume(cell not in base_ranks)
    try:
        base = tpl.solve(*painted_cells(base_ranks), 1e-10)
    except fem.ConfigurationError:
        assume(False)
    ranks = {**base_ranks, cell: rank}
    codes = tpl.cell_codes(*painted_cells(ranks))[tpl.part]
    fld = direct_field(family8, grid_mesh, ranks)
    assert_painting_like_direct_path(tpl, codes, fld, check_only=True)
    with pytest.MonkeyPatch.context() as mp:
        made = count_dof_maps(mp)
        try:
            got = tpl.solve(*painted_cells(ranks), 1e-10, [base])
        except fem.ConfigurationError:
            assert made == []
            return
    assert (got.system is None) == (made == [])


def count_dof_maps(mp):
    """Every `fem.DofMap` built while ``mp`` is active."""
    made = []
    real = fem.DofMap.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    mp.setattr(fem.DofMap, "__init__", counting)
    return made


def test_updated_map_builds_no_dof_map(template, monkeypatch):
    tpl, _ = template
    base = tpl.solve([], [27], 1e-10)
    made = count_dof_maps(monkeypatch)
    assert tpl.solve([9], [27], 1e-10, [base]).system is None
    assert tpl.solve([], [27, 45], 1e-10, [base]).system is None
    assert made == []
    # a factored painting numbers its DOFs once
    assert tpl.solve([9, 10], [27], 1e-10, [base]).system is not None
    assert len(made) == 1


def test_only_one_background_cell_off_a_base_is_updated(template):
    tpl, _ = template
    base = tpl.solve([], [27], 1e-10)
    assert base.system is not None
    assert tpl.solve([9], [27], 1e-10, [base]).system is None
    assert tpl.solve([], [27, 45], 1e-10, [base]).system is None
    # two new cells, or a cell the base paints, go direct
    assert tpl.solve([9, 10], [27], 1e-10, [base]).system is not None
    assert tpl.solve([27], [], 1e-10, [base]).system is not None
    # a base whose factorization was dropped is factored again to update it
    kept = dataclasses.replace(base, system=base.system.unfactored())
    nnz = tpl.lu_nnz
    assert tpl.solve([9], [27], 1e-10, [kept]).system is None
    assert tpl.lu_nnz == nnz + kept.system.lu.nnz


def test_map_carries_the_mesh_hash_of_its_field(disk, family8):
    # a map is solved on its field's mesh and stamped with that mesh's hash;
    # a relabeled copy and a painting keep the geometry, so the hash stays
    mesh = triangulate(disk, phantoms.build_phantom("insulating_disk")[0],
                       target_h=0.12, extra_segments=family8.grid_segments())
    basis = build_basis(mesh, 6)
    nd = nd_matrix(CoefficientField(mesh=relabeled(mesh, {"D0": "bg"}), gamma0=1.0), basis)
    assert nd.mesh_hash == mesh.provenance()
    painted = painted_field(mesh, [(cell_parts(family8, [(3, 3)]), "D0")], 1.0)
    assert nd_matrix(painted, basis).mesh_hash == mesh.provenance()


# -- the one path against the reference path ----------------------------------

@pytest.fixture(scope="module", params=[(0.0, 1.0), (0.0, 0.5)],
                ids=["full_arc", "half_arc"])
def coarse_disk(request):
    mesh = triangulate(build_domain("disk", request.param), target_h=0.25)
    return mesh, build_basis(mesh, 4)


# Random labellings: each triangle takes the label of the nearest of up to
# eight seed points, or of the first of up to four rings (by outer radius,
# background beyond them) holding its centroid.  Patches touch the boundary
# and cover the disk; rings enclose each other and insulate the arc.
LABELS = ["bg", "D0", "Dinf", "DFminus", "Ddeg"]
patches = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                             st.sampled_from(LABELS)), min_size=1, max_size=8)
rings = st.lists(st.tuples(st.floats(0.05, 1.5), st.sampled_from(LABELS)),
                 min_size=1, max_size=4)


def random_labels(mesh, seeds, bands):
    cents = mesh.centroids()
    if bands:
        radii, labels = zip(*sorted(bands))
        return np.array(labels + ("bg",))[np.searchsorted(radii, np.hypot(*cents.T))]
    points = np.array([(x, y) for x, y, _ in seeds])
    nearest = np.argmin(((cents[:, None] - points[None]) ** 2).sum(axis=2), axis=1)
    return np.array([lab for _, _, lab in seeds])[nearest]


# Every label in the interior; then a conductor on the boundary, no DOFs
# left, an insulated arc, a part cut off from the arc and an insulated arc
# vertex.
MIXED = [(0.0, 0.0, "Ddeg"), (0.3, 0.3, "DFminus"), (-0.3, 0.0, "D0"),
         (0.0, -0.3, "Dinf"), (0.0, -0.9, "bg"), (-0.9, 0.0, "bg"),
         (0.0, 0.9, "bg"), (0.9, 0.0, "bg")]


@settings(max_examples=60, deadline=None)
@given(seeds=patches, bands=rings, ringed=st.booleans())
@example(seeds=MIXED, bands=[], ringed=False)
@example(seeds=[], bands=[(1.5, "Dinf")], ringed=True)
@example(seeds=[], bands=[(1.5, "D0")], ringed=True)
@example(seeds=[], bands=[(0.5, "bg"), (1.5, "D0")], ringed=True)
@example(seeds=[], bands=[(0.3, "Ddeg"), (0.6, "D0")], ringed=True)
@example(seeds=[(0.0, 0.0, "bg"), (0.99, 0.0, "D0")], bands=[], ringed=False)
def test_field_system_matches_reference_path(coarse_disk, seeds, bands, ringed):
    # the system every nd_matrix solves has the DOF map, constraint and CSC
    # pattern of the reference path, entries within 1.2e-15*max|K| (4e-15
    # where a conductor sums), or raises the reference path's first error
    mesh, basis = coarse_disk
    labelled = dataclasses.replace(
        mesh, triangle_region=random_labels(mesh, seeds, bands if ringed else None))
    fld = CoefficientField(
        mesh=labelled, gamma0=1.0, finite_values={"DFminus": 0.5},
        weights={"Ddeg": WeightSpec.radial_power((0.0, 0.0), 0.5)}, quad_depth=4)
    try:
        ref = reference_fem.assemble(fld, reference_fem.build_dof_map(labelled))
    except (fem.ConfigurationError, fem.SolverError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            field_painting(field_template(fld, basis))
        return
    got = field_painting(field_template(fld, basis))
    assert np.array_equal(got.dofmap.dof_of_vertex, ref.dofmap.dof_of_vertex)
    assert not got.ordered
    reference_fem.assert_same_system(got, ref)


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_command_maps_match_reference_path(name):
    # the maps of forward (and calibrate's measured map), chain (brackets
    # and window maps, which are also the window's cover maps), calibrate's
    # background and the nd_matrix of the painted window are within
    # 1e-12*max|L| of the reference path's maps of the same fields
    from record_contract import contract_config

    problem = Problem(contract_config(name))
    mesh, fld, basis = problem.build_mesh(), problem.build_field(), problem.build_basis()
    gamma0, family = problem.gamma0, problem.family
    window = cell_parts(family, family.whole_window().cells)
    every = range(family.grid_n ** 2)
    low, up = bracket_fields(fld)
    template = grid_template(mesh, family, gamma0, basis)
    maps = [(nd_matrix(f, basis), f) for f in ({id(f): f for f in (fld, low, up)}.values())]
    for label, paint in (("D0", (every, [])), ("Dinf", ([], every))):
        painted = painted_field(mesh, [(window, label)], gamma0)
        maps += [(template.solve(*paint, 1e-10).nd, painted),
                 (nd_matrix(painted, basis), painted)]
    maps.append((template.solve([], [], 1e-10).nd, homogeneous_field(mesh, gamma0)))
    for nd, f in maps:
        ref = reference_fem.reference_nd(f, basis).matrix
        assert np.abs(nd.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["weighted_annulus", "singular_core",
                                  "surface_weighted_blob", "insulating_disk"])
def test_bracketed_maps_match_nd_matrix(name, monkeypatch):
    # the data map and its brackets, painted on one field template, are the
    # nd_matrix of the field and of its relabeled bracket fields bit for
    # bit, tagged with the field's provenance; the template is released
    # before the first factorization
    from record_contract import contract_config

    problem = Problem(contract_config(name))
    problem.build_mesh()
    fld, basis = problem.build_field(), problem.build_basis()
    low, up = bracket_fields(fld)
    refs = [nd_matrix(f, basis) for f in {id(f): f for f in (fld, low, up)}.values()]
    tags = [fld.provenance() + tag for tag in ("", "+lower", "+upper")][:len(refs)]
    templates, alive = [], []
    real_init, real_factor = PaintTemplate.__init__, fem.StiffnessSystem.factor

    def init(self, *args):
        templates.append(weakref.ref(self))
        real_init(self, *args)

    def factor(self):
        alive.append(any(t() is not None for t in templates))
        return real_factor(self)

    monkeypatch.setattr(PaintTemplate, "__init__", init)
    monkeypatch.setattr(fem.StiffnessSystem, "factor", factor)
    maps, lu_nnz = bracketed_maps(fld, basis)
    assert len(templates) == 1 and alive == [False] * len(refs) and lu_nnz > 0
    assert len(maps) == len(refs) == (3 if low is not fld else 1)
    for nd, ref, tag in zip(maps, refs, tags):
        assert nd.matrix.tobytes() == ref.matrix.tobytes()
        assert (nd.field_hash, nd.asymmetry) == (tag, ref.asymmetry)
