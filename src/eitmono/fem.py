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

    def expand(self, u_dof, fill=0.0):
        """Per-vertex values from DOF coefficients (removed vertices filled)."""
        out = np.full(len(self.dof_of_vertex), fill, dtype=float)
        has = self.dof_of_vertex >= 0
        out[has] = u_dof[self.dof_of_vertex[has]]
        return out


def build_dof_map(mesh, allow_conductor_on_insulator=True):
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
    if len(conductor_vertices) and np.any(removed[conductor_vertices]):
        raise ConfigurationError("conductor vertex marked for removal")

    status = np.full(nv, STATUS_FREE, dtype=np.int8)
    status[removed] = STATUS_REMOVED
    status[conductor_of_vertex >= 0] = STATUS_MERGED

    dof_of_vertex = -np.ones(nv, dtype=int)
    plain = (status == STATUS_FREE)
    dof_of_vertex[plain] = np.arange(int(plain.sum()))
    n_plain = int(plain.sum())
    merged = conductor_of_vertex >= 0
    dof_of_vertex[merged] = n_plain + conductor_of_vertex[merged]
    n_dofs = n_plain + n_conductors

    dofmap = DofMap(vertex_status=status, dof_of_vertex=dof_of_vertex,
                    conductor_of_vertex=conductor_of_vertex,
                    n_dofs=n_dofs, n_conductors=n_conductors)
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


@dataclass
class StiffnessSystem:
    """Grounded stiffness system: symmetric PSD matrix over the free DOFs
    plus the mean-on-gamma constraint vector."""

    matrix: sp.csr_matrix
    constraint: np.ndarray
    dofmap: DofMap
    mesh: object
    field: object
    _factor: object = None
    _bordered: object = None

    @property
    def n(self):
        return self.dofmap.n_dofs

    def bordered(self):
        if self._bordered is None:
            c = sp.csr_matrix(self.constraint[:, None])
            self._bordered = sp.bmat([[self.matrix, c], [c.T, None]], format="csc")
        return self._bordered

    def factor(self):
        if self._factor is None:
            self._factor = spla.splu(self.bordered())
        return self._factor


def assemble(mesh, fld, dofmap):
    """Assemble the weighted stiffness matrix and the gamma-mean constraint.

    Element contributions are sigma-integral times the constant P1 gradient
    products; insulating and conducting triangles are skipped (the latter
    collapse to a single DOF and contribute nothing).
    """
    sigma_int = fld.element_integrals()
    region = mesh.triangle_region
    active = ~np.isin(region, ("D0", "Dinf"))

    tris = mesh.triangles[active]
    coef = sigma_int[active]
    if np.any(~np.isfinite(coef)):
        raise SolverError("nonfinite element integral in assembly")

    coords = mesh.vertices[tris]
    # Edge vectors opposite each local vertex.
    e = np.stack([coords[:, 2] - coords[:, 1],
                  coords[:, 0] - coords[:, 2],
                  coords[:, 1] - coords[:, 0]], axis=1)
    area2 = (e[:, 2, 0] * (-e[:, 1, 1]) - e[:, 2, 1] * (-e[:, 1, 0]))
    area = 0.5 * np.abs(area2)
    # K_ij = (integral of sigma) * (e_i . e_j) / (4 A^2)
    dots = np.einsum("nid,njd->nij", e, e)
    ke = coef[:, None, None] * dots / (4.0 * area[:, None, None] ** 2)

    dv = dofmap.dof_of_vertex
    dofs = dv[tris]
    if np.any(dofs < 0):
        raise SolverError("active triangle references a removed vertex")
    rows = np.repeat(dofs, 3, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, 3)).reshape(-1)
    vals = ke.reshape(-1)
    a = sp.coo_matrix((vals, (rows, cols)),
                      shape=(dofmap.n_dofs, dofmap.n_dofs)).tocsr()
    a.sum_duplicates()

    constraint = gamma_mass_vector(mesh, dofmap)
    return StiffnessSystem(matrix=a, constraint=constraint, dofmap=dofmap,
                           mesh=mesh, field=fld)


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
    density_mean: float
    label: str = ""

    def check_mean_free(self, system, tol=1e-12):
        total = np.sum(self.b, axis=0)
        scale = np.maximum(1.0, np.abs(self.b).sum(axis=0))
        return bool(np.all(np.abs(total) <= tol * scale))


def neumann_load(mesh, dofmap, density, label=""):
    """Build the load vector for a current density given as a callable on
    physical boundary points; the density is mean-projected on gamma."""
    c = gamma_mass_vector(mesh, dofmap)
    pts, w = gamma_quadrature(mesh)
    wf = (w * np.asarray(density(pts), dtype=float)).reshape(-1, 4)
    ends = np.stack([np.sum(wf * (1.0 - _GL4_X), axis=1),
                     np.sum(wf * _GL4_X, axis=1)], axis=1)
    b = np.bincount(dofmap.dof_of_vertex[mesh.gamma_edges()].ravel(),
                    weights=ends.ravel(), minlength=dofmap.n_dofs)
    mean = float(np.sum(wf)) / mesh.gamma_length()
    b -= mean * c
    return NeumannLoad(b=b, density_mean=mean, label=label)


@dataclass
class PotentialSolution:
    u: np.ndarray          # DOF coefficients, gamma-mean-free representative
    multiplier: float
    residual: float

    def vertex_values(self, dofmap, fill=np.nan):
        return dofmap.expand(self.u, fill=fill)


def solve_neumann(system, load, rtol=1e-10):
    """Solve the grounded variational problem for one current load, or for
    a block of loads (one per column of ``load.b``) with one factorization.

    The returned representative satisfies the gamma-mean-zero constraint;
    a column whose residual exceeds rtol*|b| after one refinement pass
    raises SolverError.  ``residual`` is the (Frobenius) norm over all
    columns.
    """
    if not load.check_mean_free(system):
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


def dirichlet_energy(system, solution):
    """sigma-weighted Dirichlet energy of the solution (A-quadratic form)."""
    u = solution.u
    return float(u @ (system.matrix @ u))


def embed_dof_vector(u_src, dofmap_src, dofmap_dst):
    """Re-express DOF coefficients on another DOF map of the same mesh.

    Valid when the source space is contained in the destination space
    (destination merges no vertices the source kept distinct with different
    values, and only destination-removed vertices are dropped).
    """
    vertex_vals = dofmap_src.expand(u_src, fill=0.0)
    out = np.zeros(dofmap_dst.n_dofs)
    counts = np.zeros(dofmap_dst.n_dofs)
    for v, d in enumerate(dofmap_dst.dof_of_vertex):
        if d >= 0:
            out[d] += vertex_vals[v]
            counts[d] += 1
    counts[counts == 0] = 1.0
    return out / counts


def export_potential(mesh, dofmap, solution):
    """Companion text format for potentials: `nv` then one value per vertex
    (nan marks removed vertices)."""
    vals = solution.vertex_values(dofmap)
    lines = [f"{len(vals)}"]
    lines += [f"{v:.17g}" for v in vals]
    return "\n".join(lines) + "\n"
