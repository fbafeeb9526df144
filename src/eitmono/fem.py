"""Piecewise-linear finite elements for the weighted Neumann problem.

Insulating regions are removed from the system (their interior vertices
carry no degrees of freedom; the natural zero-flux condition appears on
their boundary), perfectly conducting components are collapsed to a single
degree of freedom each, and the pure-Neumann kernel is grounded with a
Lagrange multiplier enforcing a zero mean on the measurement arc.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import connected_labels

STATUS_FREE = 0
STATUS_REMOVED = 1
STATUS_MERGED = 2


class SolverError(RuntimeError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass
class DofMap:
    """Vertex-to-DOF assignment for a labeled mesh.

    ``dof_of_vertex`` is -1 for removed vertices; vertices of the k-th
    conducting component share the DOF ``n_plain + k``.
    """

    vertex_status: np.ndarray
    dof_of_vertex: np.ndarray
    conductor_of_vertex: np.ndarray
    n_dofs: int
    n_conductors: int

    @classmethod
    def numbered(cls, removed, conductor_of_vertex, n_conductors):
        """DOF map of the removed vertices and conductors: free vertices
        numbered in vertex order, then one DOF per conductor."""
        merged = conductor_of_vertex >= 0
        status = np.full(len(removed), STATUS_FREE, dtype=np.int8)
        status[removed] = STATUS_REMOVED
        status[merged] = STATUS_MERGED
        plain = status == STATUS_FREE
        n_plain = int(plain.sum())
        dof_of_vertex = -np.ones(len(removed), dtype=int)
        dof_of_vertex[plain] = np.arange(n_plain)
        dof_of_vertex[merged] = n_plain + conductor_of_vertex[merged]
        return cls(vertex_status=status, dof_of_vertex=dof_of_vertex,
                   conductor_of_vertex=conductor_of_vertex,
                   n_dofs=n_plain + n_conductors, n_conductors=n_conductors)

    def expand(self, u_dof, fill=0.0):
        """Per-vertex values from DOF coefficients (removed vertices filled)."""
        out = np.full(len(self.dof_of_vertex), fill, dtype=float)
        has = self.dof_of_vertex >= 0
        out[has] = u_dof[self.dof_of_vertex[has]]
        return out


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


# The bordered matrix is symmetric, so SuperLU factors it in symmetric mode
# on a minimum-degree ordering of A^T + A: about a third of the L+U fill of
# the default column ordering (41.9k against 143.8k nonzeros on a 1.6k-DOF
# scan system).  The diagonal pivot is kept when it is at least this fraction
# of the column maximum; 0, 0.01 and 0.1 gave the same fill and residuals on
# the scan, chain and fine forward systems and up to 1e6 contrast.
DIAG_PIVOT_THRESH = 0.1


@dataclass
class StiffnessSystem:
    """Grounded stiffness system: the symmetric PSD stiffness matrix over
    the free DOFs bordered by the mean-on-gamma constraint row and column."""

    kmat: sp.csc_matrix
    constraint: np.ndarray
    dofmap: DofMap
    _factor: object = None

    @property
    def n(self):
        return self.dofmap.n_dofs

    @property
    def matrix(self):
        """The stiffness block of the bordered matrix."""
        return self.kmat[:self.n, :self.n]

    def bordered(self):
        return self.kmat

    def factor(self):
        if self._factor is None:
            self._factor = spla.splu(self.kmat, permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                     options=dict(SymmetricMode=True))
        return self._factor


def memo(cache, key, build):
    """One-entry cache: the value cached under ``key``, built (evicting any
    other entry) when the key is new.  The value's arrays are made
    read-only, so every user shares it safely."""
    if key not in cache:
        value = build()
        for arr in vars(value).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        cache.clear()
        cache[key] = value
    return cache[key]


@dataclass(frozen=True)
class MeshTerms:
    """Paint-independent arrays of one mesh: the P1 element geometry of
    every triangle and the measurement-arc vertices with their gamma mass."""

    dots: np.ndarray           # (nt, 3, 3) e_i . e_j of the opposite edges
    four_a2: np.ndarray        # (nt,) 4 A^2
    gamma_vertices: np.ndarray
    gamma_mass: np.ndarray     # integral of each gamma vertex's hat trace


_MESH_TERMS = {}


def mesh_terms(mesh):
    """`MeshTerms` of a mesh, computed once per mesh provenance (label
    changes keep the entry)."""
    def build():
        coords = mesh.vertices[mesh.triangles]
        # Edge vectors opposite each local vertex.
        e = np.stack([coords[:, 2] - coords[:, 1],
                      coords[:, 0] - coords[:, 2],
                      coords[:, 1] - coords[:, 0]], axis=1)
        area2 = (e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0]))
        area = 0.5 * np.abs(area2)
        edges = mesh.gamma_edges()
        d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
        half = 0.5 * np.hypot(d[:, 0], d[:, 1])
        mass = np.bincount(edges.ravel(), weights=np.repeat(half, 2),
                           minlength=mesh.num_vertices)
        verts = np.unique(edges)
        return MeshTerms(dots=np.einsum("nid,njd->nij", e, e),
                         four_a2=4.0 * area ** 2, gamma_vertices=verts,
                         gamma_mass=mass[verts])

    return memo(_MESH_TERMS, mesh.provenance(), build)


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


# 4-point Gauss-Legendre on [0, 1].
_GL4_X = np.array([0.069431844202973712, 0.33000947820757187,
                   0.66999052179242813, 0.93056815579702629])
_GL4_W = np.array([0.17392742256872693, 0.32607257743127307,
                   0.32607257743127307, 0.17392742256872693])


def gamma_quadrature(mesh):
    """4-point Gauss nodes and weights along the measurement-arc edges,
    four consecutive nodes per edge in edge order."""
    edges = mesh.gamma_edges()
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    lengths = np.hypot(*(b - a).T)
    pts = (a[:, None, :] + _GL4_X[None, :, None] * (b - a)[:, None, :]).reshape(-1, 2)
    w = (lengths[:, None] * _GL4_W[None, :]).reshape(-1)
    return pts, w


@dataclass
class NeumannLoad:
    """Discrete current load: b_i = <f, phi_i> on gamma, projected to the
    gamma-mean-free space.  ``b`` may hold one load per column."""

    b: np.ndarray


def neumann_load(mesh, dofmap, density):
    """Build the load vector for a current density given as a callable on
    physical boundary points; the density is mean-projected on gamma.
    ND maps take their loads from `gamma_loads`; this per-call path is the
    reference the tests hold them to."""
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


def gamma_loads(mesh, densities):
    """Mean-projected loads of each density on the measurement-arc vertices
    of `mesh_terms`, one column per density.

    Same arithmetic as `neumann_load`, accumulated per vertex instead of per
    DOF: gamma vertices are never removed or merged, so scattering a column
    through a DOF map gives that map's `neumann_load` bit for bit.
    """
    terms = mesh_terms(mesh)
    edges = mesh.gamma_edges()
    pts, w = gamma_quadrature(mesh)
    gamma_length = mesh.gamma_length()
    loads = np.empty((len(terms.gamma_vertices), len(densities)))
    for k, density in enumerate(densities):
        wf = (w * np.asarray(density(pts), dtype=float)).reshape(-1, 4)
        ends = np.stack([np.sum(wf * (1.0 - _GL4_X), axis=1),
                         np.sum(wf * _GL4_X, axis=1)], axis=1)
        b = np.bincount(edges.ravel(), weights=ends.ravel(),
                        minlength=mesh.num_vertices)[terms.gamma_vertices]
        mean = float(np.sum(wf)) / gamma_length
        loads[:, k] = b - mean * terms.gamma_mass
    return loads


@dataclass
class PotentialSolution:
    u: np.ndarray          # DOF coefficients, gamma-mean-free representative
    multiplier: float
    residual: float


def solve_neumann(system, load, rtol=1e-10):
    """Solve the grounded variational problem for one current load, or for
    a block of loads (one per column of ``load.b``) with one factorization.

    The returned representative satisfies the gamma-mean-zero constraint;
    a column whose residual exceeds rtol*|b| after one refinement pass
    raises SolverError.  ``residual`` is the (Frobenius) norm over all
    columns.
    """
    total = np.sum(load.b, axis=0)
    scale = np.maximum(1.0, np.abs(load.b).sum(axis=0))
    if not np.all(np.abs(total) <= 1e-12 * scale):
        raise SolverError("load is not gamma-mean-free")
    n = system.n
    b = load.b.reshape(n, -1)
    rhs = np.vstack([b, np.zeros((1, b.shape[1]))])
    lu = system.factor()
    x = lu.solve(rhs)
    kmat = system.bordered()
    res = rhs - kmat @ x
    x = x + lu.solve(res)
    res = rhs - kmat @ x
    bnorm = np.linalg.norm(b, axis=0)
    rnorm = np.linalg.norm(res, axis=0)
    bad = np.flatnonzero((bnorm > 0) & (rnorm > rtol * bnorm))
    if len(bad):
        k = bad[0]
        raise SolverError(f"solver residual {rnorm[k]:.3e} exceeds "
                          f"{rtol:.1e}*|b| in column {k}")
    u, lam = x[:n], x[n]
    gmean = system.constraint @ u
    gscale = np.maximum(1.0, np.abs(u).max(axis=0) * float(np.sum(system.constraint)))
    bad = np.flatnonzero(np.abs(gmean) > 1e-10 * gscale)
    if len(bad):
        k = bad[0]
        raise SolverError(f"gamma mean {gmean[k]:.3e} not zeroed by the "
                          f"multiplier in column {k}")
    if load.b.ndim == 1:
        u, lam = u[:, 0], float(lam[0])
    return PotentialSolution(u=u, multiplier=lam,
                             residual=float(np.linalg.norm(rnorm)))


def energy(system, solution_or_vector, load):
    """Quadratic energy J(v) = v^T A v - 2 b^T v for a DOF vector."""
    v = solution_or_vector.u if isinstance(solution_or_vector, PotentialSolution) \
        else np.asarray(solution_or_vector, dtype=float)
    if v.shape != (system.n,):
        raise SolverError("energy: coefficient vector has wrong dimension")
    return float(v @ (system.matrix @ v) - 2.0 * float(load.b @ v))
