"""The direct COO path of DOF numbering, connectivity checks, assembly and
Neumann loads: the oracle that the one path of `src/` (`ndmap.PaintTemplate`,
through which every ND map is solved) is tested against.

`build_dof_map` numbers the DOFs of a labeled mesh in vertex order and
`assemble` sums the element triplets of every active triangle in one
COO->CSC pass; both raise the errors of the template, in its order.
`painted_field` paints polygons onto the extreme labels by point-in-polygon,
so `nd_extreme` is the direct-path map that a template painting of the same
grid cells is checked against.
"""

import numpy as np
import scipy.sparse as sp

from eitmono import polygons as pg
from eitmono.coefficient import CoefficientField
from eitmono.fem import (_GL4_X, ConfigurationError, DofMap, NeumannLoad,
                         SolverError, StiffnessSystem, gamma_quadrature,
                         mesh_terms, solve_neumann)
from eitmono.geometry import BACKGROUND, REGION_LABELS, connected_labels
from eitmono.ndmap import NDError, NDMatrix, nd_matrix


def cell_parts(family, cells):
    """The grid cells (i, j) of a pixel family as rectangles, row order."""
    x0, y0, _, _ = family.roi
    w, h = family.cell_size
    return tuple(pg.rectangle(x0 + i * w, y0 + j * h, x0 + (i + 1) * w, y0 + (j + 1) * h)
                 for i, j in sorted(cells))


def painted_field(mesh, paint, gamma0):
    """Background field with polygon sets painted onto extreme labels.

    ``paint`` is a sequence of (parts, label) pairs, ``parts`` a sequence of
    polygons whose closed union is painted; later entries overwrite earlier
    ones where they overlap.
    """
    cents = mesh.centroids()
    base = mesh.relabeled({lab: BACKGROUND for lab in REGION_LABELS})
    for parts, label in paint:
        if not parts:
            continue
        _check_conformity(mesh, parts)
        base.triangle_region[_contains(parts, cents)] = label
    return CoefficientField(mesh=base, gamma0=gamma0)


def _contains(parts, points):
    return np.any([pg.points_in_polygon(points, p, boundary=True) for p in parts], axis=0)


def _check_conformity(mesh, parts, tol=1e-9):
    """No triangle may straddle the boundary of the painted set: a triangle
    with vertices strictly inside and strictly outside betrays a
    non-conforming mesh."""
    inside = _contains(parts, mesh.vertices)
    seg_a = np.vstack(parts)
    seg_b = np.vstack([np.roll(part, -1, axis=0) for part in parts])
    d = pg.points_segments_distance(mesh.vertices, seg_a, seg_b, cutoff=10 * tol)
    strict_in = inside & (d > tol)
    strict_out = ~inside & (d > tol)
    bad = np.any(strict_in[mesh.triangles], axis=1) \
        & np.any(strict_out[mesh.triangles], axis=1)
    if np.any(bad):
        raise NDError("mesh does not conform to the test inclusion polygon")


def nd_extreme(mesh, parts, kind, gamma0, basis, rtol=1e-10):
    """ND matrix with coefficient 0 (insulating) or infinity (conducting) on
    the union of the polygons ``parts`` and the constant background outside."""
    if kind not in ("insulating", "conducting"):
        raise NDError(f"unknown extreme kind {kind!r}")
    target = "D0" if kind == "insulating" else "Dinf"
    return nd_matrix(painted_field(mesh, [(parts, target)], gamma0), basis, rtol=rtol)


def build_dof_map(mesh):
    """DOF map from the mesh labels.

    Vertices strictly inside D0 (every incident triangle insulating) are
    removed; each vertex-connected component of Dinf triangles collapses to
    one DOF.  A conducting component touching the outer boundary is
    rejected (the floating-conductor model needs the conductor strictly
    inside).  Contact between a conductor and an insulating region is
    tolerated: the discrete system stays well posed, and the upper
    bracketing field produces exactly this contact.
    """
    nv = mesh.num_vertices
    region = mesh.triangle_region
    tris = mesh.triangles

    incident_non_d0 = np.zeros(nv, dtype=bool)
    incident_any = np.zeros(nv, dtype=bool)
    for lab_mask, flag in ((region != "D0", incident_non_d0),
                           (np.ones(len(tris), dtype=bool), incident_any)):
        vs = tris[lab_mask].ravel()
        flag[vs] = True
    removed = incident_any & ~incident_non_d0

    # Conducting components: vertex-connected sets of Dinf triangles,
    # numbered in the order of their lowest vertex.
    dinf_tris = tris[region == "Dinf"]
    conductor_vertices = np.unique(dinf_tris)
    conductor_of_vertex = -np.ones(nv, dtype=int)
    n_conductors = 0
    if len(conductor_vertices):
        labels = connected_labels(nv, dinf_tris[:, [0, 1, 1, 2]].reshape(-1, 2))
        _, first, comp = np.unique(labels[conductor_vertices],
                                   return_index=True, return_inverse=True)
        conductor_of_vertex[conductor_vertices] = np.argsort(np.argsort(first))[comp]
        n_conductors = len(first)

    boundary_vertices = np.unique(mesh.boundary_edges.ravel())
    if np.any(conductor_of_vertex[boundary_vertices] >= 0):
        raise ConfigurationError(
            "a perfectly conducting component touches the domain boundary")

    dofmap = DofMap.numbered(removed, conductor_of_vertex, n_conductors)
    _check_dof_connectivity(mesh, dofmap)
    return dofmap


def _check_dof_connectivity(mesh, dofmap):
    """All DOFs must be reachable from the measurement arc through
    conducting triangles, otherwise the grounded system is singular."""
    n = dofmap.n_dofs
    if n == 0:
        raise ConfigurationError("no degrees of freedom remain")
    dofs = dofmap.dof_of_vertex[mesh.triangles[mesh.triangle_region != "D0"]]
    pairs = dofs[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    labels = connected_labels(n, pairs[np.all(pairs >= 0, axis=1)])
    gamma_dofs = dofmap.dof_of_vertex[np.unique(mesh.gamma_edges())]
    gamma_dofs = gamma_dofs[gamma_dofs >= 0]
    if not len(gamma_dofs):
        raise ConfigurationError("measurement arc carries no degrees of freedom")
    if not np.all(np.isin(labels, labels[gamma_dofs])):
        raise ConfigurationError(
            "free degrees of freedom are disconnected from the measurement arc")


def assemble(fld, dofmap):
    """Assemble the weighted stiffness matrix of a field on its mesh,
    bordered by the gamma-mean constraint, in one COO->CSC pass.

    Element contributions are sigma-integral times the constant P1 gradient
    products; insulating and conducting triangles are skipped (the latter
    collapse to a single DOF and contribute nothing).
    """
    mesh = fld.mesh
    sigma_int = fld.element_integrals()
    region = mesh.triangle_region
    active = ~np.isin(region, ("D0", "Dinf"))

    coef = sigma_int[active]
    if np.any(~np.isfinite(coef)):
        raise SolverError("nonfinite element integral in assembly")

    terms = mesh_terms(mesh)
    # K_ij = (integral of sigma) * (e_i . e_j) / (4 A^2)
    ke = coef[:, None, None] * terms.dots[active] \
        / terms.four_a2[active][:, None, None]

    dv = dofmap.dof_of_vertex
    dofs = dv[mesh.triangles[active]]
    if np.any(dofs < 0):
        raise SolverError("active triangle references a removed vertex")
    gamma_dofs = dv[terms.gamma_vertices]
    if np.any(gamma_dofs < 0):
        raise ConfigurationError("measurement arc touches an insulated vertex")

    n = dofmap.n_dofs
    border = np.full(len(gamma_dofs), n)
    rows = np.concatenate([np.repeat(dofs, 3, axis=1).reshape(-1),
                           gamma_dofs, border])
    cols = np.concatenate([np.tile(dofs, (1, 3)).reshape(-1),
                           border, gamma_dofs])
    vals = np.concatenate([ke.reshape(-1), terms.gamma_mass, terms.gamma_mass])
    kmat = sp.coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsc()

    constraint = np.zeros(n)
    constraint[gamma_dofs] = terms.gamma_mass
    return StiffnessSystem(kmat=kmat, constraint=constraint, dofmap=dofmap)


def gamma_mass_vector(mesh, dofmap):
    """c_i = integral over gamma of the i-th hat function trace."""
    edges = mesh.gamma_edges()
    dofs = dofmap.dof_of_vertex[edges]
    if np.any(dofs < 0):
        raise ConfigurationError("measurement arc touches an insulated vertex")
    d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    half = 0.5 * np.hypot(d[:, 0], d[:, 1])
    return np.bincount(dofs.ravel(), weights=np.repeat(half, 2),
                       minlength=dofmap.n_dofs)


def neumann_load(mesh, dofmap, density):
    """Build the load vector for a current density given as a callable on
    physical boundary points; the density is mean-projected on gamma.
    ND maps take their loads from `fem.gamma_loads`; this per-call path is
    the reference the tests hold them to."""
    c = gamma_mass_vector(mesh, dofmap)
    pts, w = gamma_quadrature(mesh)
    wf = (w * np.asarray(density(pts), dtype=float)).reshape(-1, 4)
    ends = np.stack([np.sum(wf * (1.0 - _GL4_X), axis=1),
                     np.sum(wf * _GL4_X, axis=1)], axis=1)
    b = np.bincount(dofmap.dof_of_vertex[mesh.gamma_edges()].ravel(),
                    weights=ends.ravel(), minlength=dofmap.n_dofs)
    mean = float(np.sum(wf)) / mesh.gamma_length()
    b -= mean * c
    return NeumannLoad(b=b)


def reference_nd(fld, basis, rtol=1e-10):
    """ND matrix of a field through `build_dof_map`, `assemble` and one
    `neumann_load` per basis density: the symmetrized pairing B^T U."""
    dofmap = build_dof_map(fld.mesh)
    system = assemble(fld, dofmap)
    b = np.column_stack([neumann_load(fld.mesh, dofmap, basis.density(k)).b
                         for k in range(basis.m)])
    raw = b.T @ solve_neumann(system, NeumannLoad(b=b), rtol=rtol).u
    return NDMatrix(matrix=0.5 * (raw + raw.T), gram=basis.gram(fld.mesh),
                    asymmetry=0.0, field_hash="", mesh_hash=fld.mesh.provenance(),
                    basis_hash=basis.provenance())


def assert_same_system(got, ref):
    """A system of the one path against the direct one.  A template may
    number its free DOFs in its own order, so its DOFs are relabelled
    through the two DOF maps onto the direct numbering (conductors and the
    border row keep theirs).  Then: the same vertex statuses, conductors and
    constraint, the same CSC pattern, and entries within 1.2e-15*max|K|
    where no conductor DOF is involved.  A conductor entry sums up to a few
    hundred element triplets in another order on each path; on the
    regression phantoms each path is up to 2.2e-15*max|K| from the exactly
    rounded sum (math.fsum), so the bound there is 4e-15*max|K|."""
    for name in ("vertex_status", "conductor_of_vertex"):
        assert np.array_equal(getattr(got.dofmap, name),
                              getattr(ref.dofmap, name)), name
    assert got.dofmap.n_conductors == ref.dofmap.n_conductors
    assert got.n == ref.n
    has = ref.dofmap.dof_of_vertex >= 0
    assert np.array_equal(got.dofmap.dof_of_vertex >= 0, has)
    to_ref = np.full(got.n + 1, ref.n)
    to_ref[got.dofmap.dof_of_vertex[has]] = ref.dofmap.dof_of_vertex[has]
    assert np.array_equal(to_ref[got.dofmap.dof_of_vertex[has]],
                          ref.dofmap.dof_of_vertex[has])
    assert np.array_equal(np.sort(to_ref), np.arange(ref.n + 1))
    n_free = ref.n - ref.dofmap.n_conductors
    assert np.array_equal(to_ref[n_free:], np.arange(n_free, ref.n + 1))
    assert np.array_equal(got.constraint, ref.constraint[to_ref[:-1]])
    coo = got.kmat.tocoo()
    a = sp.csc_matrix((coo.data, (to_ref[coo.row], to_ref[coo.col])),
                      shape=got.kmat.shape)
    a.sort_indices()
    assert a.nnz == got.kmat.nnz
    b = ref.kmat
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    cols = np.repeat(np.arange(b.shape[1]), np.diff(b.indptr))
    conductor = (np.maximum(b.indices, cols) >= n_free) \
        & (np.maximum(b.indices, cols) < ref.n)
    bound = np.where(conductor, 4e-15, 1.2e-15) * np.abs(b.data).max()
    assert np.all(np.abs(a.data - b.data) <= bound)
