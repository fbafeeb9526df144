import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eitmono import fem, phantoms
from eitmono.coefficient import CoefficientField
from eitmono.geometry import build_domain, triangulate
from eitmono import polygons as pg

from conftest import border, build_field, dirichlet_energy, energy, expand, stiffness
import reference_fem


# Test-only helpers: re-expressing DOF vectors between the DOF maps of one
# mesh, and a plain-text dump of vertex potentials.

def embed_dof_vector(u_src, dofmap_src, dofmap_dst):
    """Re-express DOF coefficients on another DOF map of the same mesh.

    Valid when the source space is contained in the destination space
    (destination merges no vertices the source kept distinct with different
    values, and only destination-removed vertices are dropped).
    """
    vertex_vals = expand(dofmap_src, u_src, fill=0.0)
    out = np.zeros(dofmap_dst.n_dofs)
    counts = np.zeros(dofmap_dst.n_dofs)
    for v, d in enumerate(dofmap_dst.dof_of_vertex):
        if d >= 0:
            out[d] += vertex_vals[v]
            counts[d] += 1
    counts[counts == 0] = 1.0
    return out / counts


def export_potential(mesh, dofmap, u):
    """Companion text format for a potential: `nv` then one value per
    vertex (nan marks removed vertices)."""
    vals = expand(dofmap, u, fill=np.nan)
    lines = [f"{len(vals)}"]
    lines += [f"{v:.17g}" for v in vals]
    return "\n".join(lines) + "\n"


def cos_theta(p):
    return p[:, 0] / np.hypot(p[:, 0], p[:, 1])


@pytest.fixture(scope="module")
def homogeneous_system(disk_mesh, disk_field):
    dofmap = reference_fem.build_dof_map(disk_mesh)
    system = reference_fem.assemble(disk_field, dofmap)
    return dofmap, system


class TestDofMap:
    def test_identity_without_extremes(self, disk_mesh):
        dm = reference_fem.build_dof_map(disk_mesh)
        assert dm.n_free == dm.n_dofs == disk_mesh.num_vertices
        assert np.array_equal(dm.dof_of_vertex, np.arange(disk_mesh.num_vertices))

    def test_conductor_merging(self, disk):
        regions, _ = phantoms.build_phantom("conducting_disk")
        mesh = triangulate(disk, regions, target_h=0.1)
        dm = reference_fem.build_dof_map(mesh)
        assert dm.n_dofs - dm.n_free == 1
        merged = np.sum(reference_fem.vertex_status(dm) == "merged")
        assert merged > 3
        assert dm.n_dofs == mesh.num_vertices - merged + 1

    def test_insulator_removal(self, disk):
        regions, _ = phantoms.build_phantom("insulating_disk")
        mesh = triangulate(disk, regions, target_h=0.1)
        dm = reference_fem.build_dof_map(mesh)
        status = reference_fem.vertex_status(dm)
        removed = np.sum(status == "removed")
        assert removed > 0
        # vertices on the inclusion boundary stay free (natural condition)
        ring = np.isclose(np.hypot(*mesh.vertices.T), 0.3, atol=1e-9)
        assert np.all(status[ring] == "free")

    def test_conductor_touching_boundary_rejected(self, square):
        poly = pg.rectangle(0.0, 0.4, 0.2, 0.6)   # touches x=0 side
        from eitmono.geometry import RegionSet
        mesh = triangulate(square, RegionSet(polys={"Dinf": [poly]}),
                           target_h=0.1)
        with pytest.raises(fem.ConfigurationError):
            reference_fem.build_dof_map(mesh)

    def test_sealed_pocket_rejected(self, disk, family8):
        # insulating ring of cells with a conductive pocket inside has DOFs
        # unreachable from the measurement arc
        mesh = triangulate(disk, target_h=0.1,
                           extra_segments=family8.grid_segments())
        ring = {(i, j) for i in range(2, 6) for j in range(2, 6)} - {(3, 3)}
        fld = reference_fem.painted_field(
            mesh, [(reference_fem.cell_parts(family8, ring), "D0")], 1.0)
        with pytest.raises(fem.ConfigurationError):
            reference_fem.build_dof_map(fld.mesh)


class TestAssembly:
    def test_reference_element_matrix(self):
        # unit sigma on the reference triangle, worked out by hand
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        e = np.stack([coords[2] - coords[1], coords[0] - coords[2],
                      coords[1] - coords[0]])
        ke = 0.5 * (e @ e.T) / (4 * 0.25)
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        assert np.allclose(ke, expected, atol=1e-15)

    def test_symmetry_exact(self, homogeneous_system):
        _, system = homogeneous_system
        assert abs(stiffness(system) - stiffness(system).T).max() == 0.0

    def test_scaling_linearity(self, disk_mesh):
        dm = reference_fem.build_dof_map(disk_mesh)
        a1 = reference_fem.assemble(CoefficientField(mesh=disk_mesh, gamma0=1.0), dm)
        a2 = reference_fem.assemble(CoefficientField(mesh=disk_mesh, gamma0=2.0), dm)
        diff = abs(stiffness(a2) - 2.0 * stiffness(a1)).max()
        assert diff < 1e-14 * abs(stiffness(a1)).max()

    def test_grounded_kernel(self, disk):
        mesh = triangulate(disk, target_h=0.25)
        dm = reference_fem.build_dof_map(mesh)
        sys1 = reference_fem.assemble(CoefficientField(mesh=mesh, gamma0=1.0), dm)
        vals = np.linalg.eigvalsh(stiffness(sys1).toarray())
        assert abs(vals[0]) < 1e-12          # constants
        assert vals[1] > 1e-6                # discrete Poincare gap
        sys2 = reference_fem.assemble(CoefficientField(mesh=mesh, gamma0=3.0), dm)
        vals2 = np.linalg.eigvalsh(stiffness(sys2).toarray())
        assert vals2[1] > vals[1]            # monotone under sigma scaling


class TestSolve:
    def test_zero_load(self, disk_mesh, homogeneous_system):
        dm, system = homogeneous_system
        b = reference_fem.neumann_load(disk_mesh, dm, lambda p: np.zeros(len(p)))
        assert np.abs(reference_fem.solve_load(system, b)).max() == 0.0

    def test_disk_oracle(self, disk_mesh, homogeneous_system):
        dm, system = homogeneous_system
        b = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
        uv = expand(dm, reference_fem.solve_load(system, b), fill=np.nan)
        r = np.hypot(*disk_mesh.vertices.T)
        th = np.arctan2(disk_mesh.vertices[:, 1], disk_mesh.vertices[:, 0])
        assert np.abs(uv - r * np.cos(th)).max() < 2e-4

    def test_energy_identity(self, disk_mesh, homogeneous_system):
        dm, system = homogeneous_system
        b = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
        u = reference_fem.solve_load(system, b)
        dirichlet = dirichlet_energy(system, u)
        pairing = float(b @ u)
        assert abs(dirichlet - pairing) < 1e-12 * abs(pairing)
        assert np.isclose(energy(system, u, b), -pairing, rtol=1e-12)

    def test_minimiser_property(self, disk_mesh, homogeneous_system):
        dm, system = homogeneous_system
        b = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
        u = reference_fem.solve_load(system, b)
        j0 = energy(system, u, b)
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.standard_normal(system.n)
            t = rng.choice([0.1, -0.1, 1.0, -1.0])
            assert energy(system, u + t * w, b) >= j0 - 1e-9 * abs(j0)

    def test_mean_free_enforced(self, disk_mesh, homogeneous_system):
        dm, system = homogeneous_system
        b = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
        u = reference_fem.solve_load(system, b)
        assert abs(float(border(system) @ u)) < 1e-10
        with pytest.raises(fem.SolverError, match="not gamma-mean-free"):
            fem.mean_free_norms(np.ones((system.n, 1)))

    def test_energy_dimension_guard(self, homogeneous_system, disk_mesh):
        dm, system = homogeneous_system
        b = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
        with pytest.raises(fem.SolverError):
            energy(system, np.zeros(3), b)


class TestSubspaceNesting:
    def test_conductor_space_embeds(self, disk):
        regions, _ = phantoms.build_phantom("conducting_disk")
        mesh = triangulate(disk, regions, target_h=0.1)
        fld = build_field(mesh, {"background": 1.0})
        dm_merged = reference_fem.build_dof_map(mesh)
        plain_mesh = reference_fem.relabeled(mesh, {"Dinf": "bg"})
        dm_plain = reference_fem.build_dof_map(plain_mesh)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(dm_merged.n_dofs)
        emb = embed_dof_vector(v, dm_merged, dm_plain)
        # merged-space vectors have vanishing gradient in the conductor
        tris = mesh.triangles[mesh.triangle_region == "Dinf"]
        vert_vals = expand(dm_plain, emb)
        for t in tris[:50]:
            assert np.ptp(vert_vals[t]) < 1e-12

    def test_restriction_into_insulated_space(self, disk):
        regions, _ = phantoms.build_phantom("insulating_disk")
        mesh = triangulate(disk, regions, target_h=0.1)
        dm_hole = reference_fem.build_dof_map(mesh)
        plain = reference_fem.relabeled(mesh, {"D0": "bg"})
        dm_plain = reference_fem.build_dof_map(plain)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(dm_plain.n_dofs)
        restricted = embed_dof_vector(v, dm_plain, dm_hole)
        assert restricted.shape == (dm_hole.n_dofs,)
        # values agree at every retained vertex
        keep = dm_hole.dof_of_vertex >= 0
        assert np.allclose(expand(dm_hole, restricted)[keep],
                           expand(dm_plain, v)[keep])


@pytest.mark.slow
def test_trace_convergence_rate():
    # boundary discretization refines with h so the geometry error does not
    # floor the finite element rate
    errs = []
    for h, segs in ((0.1, 256), (0.05, 512)):
        dom = build_domain("disk", disk_segments=segs)
        mesh = triangulate(dom, target_h=h)
        fld = CoefficientField(mesh=mesh, gamma0=1.0)
        dm = reference_fem.build_dof_map(mesh)
        system = reference_fem.assemble(fld, dm)
        b = reference_fem.neumann_load(mesh, dm, cos_theta)
        uv = expand(dm, reference_fem.solve_load(system, b), fill=np.nan)
        e2 = 0.0
        for i, j in mesh.gamma_edges():
            pi, pj = mesh.vertices[i], mesh.vertices[j]
            length = np.hypot(*(pj - pi))
            for t in (0.2113248654051871, 0.7886751345948129):
                x = pi + t * (pj - pi)
                ue = np.cos(np.arctan2(x[1], x[0]))
                uh = uv[i] * (1 - t) + uv[j] * t
                e2 += 0.5 * length * (uh - ue) ** 2
        errs.append(np.sqrt(e2))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.8


def test_export_potential(disk_mesh, homogeneous_system):
    dm, system = homogeneous_system
    b = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
    text = export_potential(disk_mesh, dm, reference_fem.solve_load(system, b))
    lines = text.strip().split("\n")
    assert int(lines[0]) == disk_mesh.num_vertices
    assert len(lines) == disk_mesh.num_vertices + 1


# Per-edge reference loops (the direct path the vectorized assembly must
# reproduce).
_GL4_X = np.array([0.069431844202973712, 0.33000947820757187,
                   0.66999052179242813, 0.93056815579702629])
_GL4_W = np.array([0.17392742256872693, 0.32607257743127307,
                   0.32607257743127307, 0.17392742256872693])


def reference_gamma_mass(mesh, dofmap):
    c = np.zeros(dofmap.n_dofs)
    dv = dofmap.dof_of_vertex
    for i, j in mesh.gamma_edges():
        length = float(np.hypot(*(mesh.vertices[j] - mesh.vertices[i])))
        c[dv[i]] += 0.5 * length
        c[dv[j]] += 0.5 * length
    return c


def reference_load(mesh, dofmap, density):
    dv = dofmap.dof_of_vertex
    b = np.zeros(dofmap.n_dofs)
    total_f = total_len = 0.0
    for i, j in mesh.gamma_edges():
        pi, pj = mesh.vertices[i], mesh.vertices[j]
        length = float(np.hypot(*(pj - pi)))
        fvals = density(pi[None, :] + _GL4_X[:, None] * (pj - pi)[None, :])
        w = _GL4_W * length
        b[dv[i]] += float(np.sum(w * fvals * (1.0 - _GL4_X)))
        b[dv[j]] += float(np.sum(w * fvals * _GL4_X))
        total_f += float(np.sum(w * fvals))
        total_len += length
    return b - total_f / total_len * reference_gamma_mass(mesh, dofmap)


@pytest.mark.parametrize("phantom, arc", [("homogeneous", (0.0, 1.0)),
                                          ("conducting_disk", (0.0, 1.0)),
                                          ("insulating_disk", (0.1, 0.6))])
def test_vectorized_loads_match_edge_loop(phantom, arc):
    from eitmono.ndmap import build_basis

    dom = build_domain("disk", arc)
    regions, _ = phantoms.build_phantom(phantom)
    mesh = triangulate(dom, regions, target_h=0.1)
    dm = reference_fem.build_dof_map(mesh)
    c = reference_fem.gamma_mass_vector(mesh, dm)
    ref_c = reference_gamma_mass(mesh, dm)
    assert np.abs(c - ref_c).max() <= 1e-13 * np.abs(ref_c).max()
    basis = build_basis(mesh, 8)
    for f in [basis.density(k) for k in range(8)] + [cos_theta]:
        b = reference_fem.neumann_load(mesh, dm, f)
        ref = reference_load(mesh, dm, f)
        assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()


def test_block_solve_gates_every_column(disk_mesh, homogeneous_system):
    dm, system = homogeneous_system
    good = reference_fem.neumann_load(disk_mesh, dm, cos_theta)
    block = fem.solve_neumann(system, reference_fem.full_load(
        np.column_stack([good, 2 * good])))
    single = reference_fem.solve_load(system, good)
    assert np.allclose(block.u[:, 0], single, rtol=0, atol=1e-14)
    assert np.allclose(block.u[:, 1], 2 * single, rtol=0, atol=1e-14)
    assert system.bordered() is system.bordered()
    with pytest.raises(fem.SolverError, match="not gamma-mean-free"):
        fem.mean_free_norms(np.column_stack([good, np.ones(system.n)]))


def test_gamma_mean_gate(homogeneous_system):
    # the gate sums the rows of the border column (the measurement arc):
    # potentials made mean-free by the full border product pass, and a unit
    # shift of one column misses the gate in that column
    _, system = homogeneous_system
    c = border(system)
    u = np.random.default_rng(0).standard_normal((system.n, 3))
    u -= (c @ u) / c.sum()
    fem.check_gamma_mean(system.kmat, u)
    u[:, 1] += 1.0
    with pytest.raises(fem.SolverError, match="in column 1$"):
        fem.check_gamma_mean(system.kmat, u)


def default_options_factor(system):
    """SuperLU at its default ``relax`` and ``panel_size``, with the column
    ordering, pivot threshold and symmetric mode of
    `fem.StiffnessSystem.factor`: the oracle of the tuned factor."""
    return spla.splu(system.kmat,
                     permc_spec="NATURAL" if system.ordered else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=fem.DIAG_PIVOT_THRESH,
                     options=dict(SymmetricMode=True))


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_tuned_factor_matches_default_options(name, tmp_path, monkeypatch):
    # every system that forward, reconstruct and chain factor at h=0.1,
    # m=8: its solves match the default-option factor's within 1e-12
    # relative, a self-ordered system gets the same column order, and the
    # residual gate needs no refinement where the default factor needed none
    from artifact_digests import collect

    real_factor, real_solve = fem.StiffnessSystem.factor, fem.solve_neumann
    rng = np.random.default_rng(0)
    ordered, gates = [], []

    def close(x, ref):
        return np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def factor(self):
        new = self.lu is None
        lu = real_factor(self)
        if new:
            ref = default_options_factor(self)
            assert self.ordered or np.array_equal(lu.perm_c, ref.perm_c)
            rhs = rng.standard_normal((self.n + 1, 4))
            assert close(lu.solve(rhs), ref.solve(rhs))
            ordered.append(self.ordered)
        return lu

    def solve(system, load, rtol=1e-10):
        rhs = load.bordered(system.n)
        xs = [lu.solve(rhs) for lu in (system.factor(), default_options_factor(system))]
        assert close(*xs)
        misses = [len(fem.residual_misses(np.linalg.norm(rhs - system.kmat @ x, axis=0),
                                          load.norm, rtol)) for x in xs]
        assert misses[0] == 0 or misses[1] > 0
        gates.append(misses)
        return real_solve(system, load, rtol)

    monkeypatch.setattr(fem.StiffnessSystem, "factor", factor)
    monkeypatch.setattr(fem, "solve_neumann", solve)
    digests = collect(tmp_path, names=[name], rejected=False, calibrate=False, seeds=())
    assert [digests[f"{name}/{c}/exit"] for c in ("forward", "reconstruct", "chain")] \
        == ["0"] * 3
    assert ordered.count(False) >= 3 and ordered.count(True) > 0
    assert len(gates) >= ordered.count(False)


def test_stiffness_factor_is_the_only_splu_call():
    # every factorization in src/ takes RELAX and PANEL_SIZE
    call = re.compile(r"\b(?:splu|spilu|factorized)\(")
    found = {path.name: len(call.findall(path.read_text()))
             for path in Path(fem.__file__).parent.glob("*.py")}
    assert {name: n for name, n in found.items() if n} == {"fem.py": 1}
    source = inspect.getsource(fem.StiffnessSystem.factor)
    assert len(call.findall(source)) == 1
    assert "relax=RELAX" in source and "panel_size=PANEL_SIZE" in source
