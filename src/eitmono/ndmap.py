"""Discretized local Neumann-to-Dirichlet maps on a fixed current basis.

Basis densities are full-period trigonometric profiles in the normalized
arclength of the measurement arc (sines first, then cosines, frequency by
frequency), so on the full circle the family starts with sin(theta),
cos(theta).  The ND matrix entries are L_jk = <Lambda f_k, f_j> computed as
load-vector inner products with the solved potentials, which keeps L
symmetric up to solver residual.
"""

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .coefficient import CoefficientField, homogeneous_field
from .fem import ConfigurationError
from .geometry import BACKGROUND, REGION_LABELS, connected_labels


class BasisResolutionWarning(UserWarning):
    pass


class NDError(RuntimeError):
    pass


# Bound on the relative asymmetry max|R - R^T| / max|R| of the raw pairing
# R = B^T U.  The solves are exact up to roundoff, so R is symmetric to a
# few ulps: the worst value is 6.4e-15 over the test suite and 1.1e-14 over
# the regression phantoms (scan and chain, h=0.1 m=8 and h=0.08 m=16), and a
# 1e3-contrast inclusion gives 5.5e-14.  Above the bound the solves are not
# trusted.
MAX_ASYMMETRY = 1e-10


@dataclass
class CurrentBasis:
    """Mean-free trigonometric current densities on the measurement arc."""

    domain: object
    modes: tuple          # sequence of ("sin"|"cos", frequency)

    @property
    def m(self):
        return len(self.modes)

    @property
    def max_frequency(self):
        return max(f for _, f in self.modes)

    def density(self, k):
        """Callable evaluating basis density k at physical boundary points."""
        kind, freq = self.modes[k]
        t0, t1 = self.domain.gamma_span
        span = t1 - t0

        def f(points):
            t = self.domain.boundary_param(points)
            s = np.mod(t - t0, 1.0) / span
            arg = 2.0 * np.pi * freq * s
            return np.sin(arg) if kind == "sin" else np.cos(arg)

        return f

    def gram(self, mesh):
        """L2(gamma) Gram matrix on the mesh boundary quadrature."""
        pts, w = fem.gamma_quadrature(mesh)
        vals = np.stack([self.density(k)(pts) for k in range(self.m)])
        means = (vals @ w) / float(np.sum(w))
        vals = vals - means[:, None]
        return (vals * w[None, :]) @ vals.T

    def provenance(self):
        hasher = hashlib.sha256()
        hasher.update(f"{self.domain.shape}|{self.domain.gamma_span}|"
                      f"{self.domain.disk_segments}|{self.m}|{self.modes}".encode())
        return hasher.hexdigest()[:16]


def build_basis(mesh, m):
    """Trigonometric basis of size m with frequencies 1..ceil(m/2) on the
    measurement arc of the mesh's domain.

    Warns when the mesh has fewer than eight edges on gamma per period of
    the highest frequency.
    """
    if m < 1:
        raise NDError("basis size m must be >= 1")
    modes = []
    freq = 1
    while len(modes) < m:
        modes.append(("sin", freq))
        if len(modes) < m:
            modes.append(("cos", freq))
        freq += 1
    basis = CurrentBasis(domain=mesh.domain, modes=tuple(modes))

    n_edges = int(np.sum(mesh.boundary_on_gamma))
    if n_edges < 8 * basis.max_frequency:
        warnings.warn(
            f"basis frequency {basis.max_frequency} underresolved: "
            f"{n_edges} boundary edges on gamma (< 8 per period)",
            BasisResolutionWarning)
    return basis


@dataclass
class NDMatrix:
    """Symmetric ND matrix over a current basis, with its Gram matrix and
    the provenance hashes that gate every comparison."""

    matrix: np.ndarray
    gram: np.ndarray
    asymmetry: float
    field_hash: str
    mesh_hash: str
    basis_hash: str

    @property
    def m(self):
        return self.matrix.shape[0]

    def gnorm(self):
        """Operator norm in the Gram geometry (max |generalized eigenvalue|)."""
        return float(np.max(np.abs(self.generalized_eigenvalues())))

    def generalized_eigenvalues(self):
        from scipy.linalg import eigh
        return eigh(self.matrix, self.gram, eigvals_only=True)

    def same_provenance(self, other):
        return self.mesh_hash == other.mesh_hash and self.basis_hash == other.basis_hash

    def to_text(self):
        lines = [str(self.m)]
        for row in self.matrix:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        for row in self.gram:
            lines.append(" ".join(f"{v:.17g}" for v in row))
        lines.append(f"field {self.field_hash}")
        lines.append(f"mesh {self.mesh_hash}")
        lines.append(f"basis {self.basis_hash}")
        lines.append(f"asymmetry {self.asymmetry:.17g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        lines = [ln for ln in text.strip().split("\n") if ln.strip()]
        m = int(lines[0])
        mat = np.array([[float(v) for v in lines[1 + i].split()] for i in range(m)])
        gram = np.array([[float(v) for v in lines[1 + m + i].split()] for i in range(m)])
        meta = {}
        for ln in lines[1 + 2 * m:]:
            key, val = ln.split()
            meta[key] = val
        return NDMatrix(matrix=mat, gram=gram,
                        asymmetry=float(meta.get("asymmetry", 0.0)),
                        field_hash=meta.get("field", ""),
                        mesh_hash=meta.get("mesh", ""),
                        basis_hash=meta.get("basis", ""))


@dataclass(frozen=True)
class GammaData:
    """Paint-independent part of every ND map on one (mesh, basis) pair:
    the mesh's `fem.MeshTerms`, the basis loads on the measurement-arc
    vertices (`fem.gamma_loads`) and the Gram matrix (read-only arrays)."""

    terms: fem.MeshTerms
    vertices: np.ndarray
    loads: np.ndarray          # (len(vertices), m)
    gram: np.ndarray
    mesh_hash: str
    basis_hash: str


_GAMMA_DATA = {}


def gamma_data(mesh, basis):
    """`GammaData` of a mesh and a basis, computed once per
    (mesh.provenance(), basis.provenance()) and shared by every painting."""
    key = (mesh.provenance(), basis.provenance())

    def build():
        loads = fem.gamma_loads(mesh, [basis.density(k) for k in range(basis.m)])
        terms = fem.mesh_terms(mesh)
        return GammaData(terms=terms, vertices=terms.gamma_vertices,
                         loads=loads, gram=basis.gram(mesh),
                         mesh_hash=key[0], basis_hash=key[1])

    return fem.memo(_GAMMA_DATA, key, build)


def nd_matrix(fld, basis, rtol=1e-10):
    """ND matrix of a coefficient field on its mesh: one block solve over
    all basis densities, then the trace pairings B^T U of loads against
    potentials.  Only the painting-dependent work runs per call; the loads
    and the Gram matrix come from `gamma_data`."""
    gd = gamma_data(fld.mesh, basis)
    system = fem.assemble(fld, fem.build_dof_map(fld.mesh))
    return _solve_and_pair(system, gd, fld.provenance(), rtol)


def _solve_and_pair(system, gd, field_hash, rtol):
    """Solve a grounded system for the basis loads of `gd` and pair the
    potentials with the loads, under the residual, gamma-mean and
    `MAX_ASYMMETRY` gates."""
    b = np.zeros((system.n, gd.loads.shape[1]))
    b[system.dofmap.dof_of_vertex[gd.vertices]] = gd.loads
    block = fem.NeumannLoad(b=b)
    try:
        sol = fem.solve_neumann(system, block, rtol=rtol)
    except fem.SolverError as exc:
        raise NDError(f"solve failed for the basis loads: {exc}") from exc

    raw = block.b.T @ sol.u
    scale = float(np.max(np.abs(raw))) or 1.0
    asym = float(np.max(np.abs(raw - raw.T))) / scale
    if asym > MAX_ASYMMETRY:
        raise NDError(f"ND matrix asymmetry {asym:.3e} exceeds {MAX_ASYMMETRY:.0e}")
    sym = 0.5 * (raw + raw.T)
    return NDMatrix(matrix=sym, gram=gd.gram.copy(), asymmetry=asym,
                    field_hash=field_hash, mesh_hash=gd.mesh_hash,
                    basis_hash=gd.basis_hash)


def painted_field(mesh, paint, gamma0):
    """Background field with test inclusions painted onto extreme labels.

    ``paint`` is a sequence of (TestInclusion, label) pairs; later entries
    overwrite earlier ones where they overlap.
    """
    cents = mesh.centroids()
    base = mesh.relabeled({lab: BACKGROUND for lab in REGION_LABELS})
    for test, label in paint:
        if test is None or len(test.parts) == 0:
            continue
        _check_conformity(mesh, test)
        base.triangle_region[test.contains(cents)] = label
    return CoefficientField(mesh=base, gamma0=gamma0)


def _check_conformity(mesh, test, tol=1e-9):
    """No triangle may straddle the test boundary: a triangle with vertices
    strictly inside and strictly outside betrays a non-conforming mesh."""
    from .polygons import points_segments_distance

    inside = test.contains(mesh.vertices)
    seg_a = np.vstack([part for part in test.parts])
    seg_b = np.vstack([np.roll(part, -1, axis=0) for part in test.parts])
    d = points_segments_distance(mesh.vertices, seg_a, seg_b, cutoff=10 * tol)
    strict_in = inside & (d > tol)
    strict_out = ~inside & (d > tol)
    bad = np.any(strict_in[mesh.triangles], axis=1) \
        & np.any(strict_out[mesh.triangles], axis=1)
    if np.any(bad):
        raise NDError("mesh does not conform to the test inclusion polygon")


# Label of each paint code; a painting gives every triangle one code.
PAINT_LABELS = np.array([BACKGROUND, "D0", "Dinf"])
PAINT_BG, PAINT_D0, PAINT_DINF = range(3)


class PaintTemplate:
    """Paint-independent part of every scan map on one (mesh, family,
    basis), so that painting grid cells with the extreme labels is index
    arithmetic.  `nd_matrix` on `painted_field` (through `fem.build_dof_map`
    and `fem.assemble`) stays the direct path it is tested against.

    Graph nodes are the vertex-connected pieces of each cell's triangles and
    of the triangles outside the window; two nodes are linked when they
    share a mesh vertex.  All triangles of a node carry one label, so a
    painting's removed vertices, conductors and connectivity to gamma
    follow from about grid_n**2 + 1 nodes.  The stiffness entries of all
    triangles sit in a vertex-space CSC pattern (columns, then rows, in
    vertex order) with the slot of each element triplet.
    """

    def __init__(self, mesh, fam, gamma0, basis):
        from .polygons import points_segments_distance

        self.gd = gamma_data(mesh, basis)
        terms = self.gd.terms
        tris = mesh.triangles
        nv = self.nv = mesh.num_vertices

        # Cell i*grid_n + j holding each triangle's centroid, grid_n**2
        # outside the window.  A vertex off the grid lines must lie in the
        # cell of each of its triangles, so no union of cells is straddled.
        n = fam.grid_n
        x0, y0, _, _ = fam.roi
        xs = x0 + np.arange(n + 1) * fam.cell_size[0]
        ys = y0 + np.arange(n + 1) * fam.cell_size[1]

        def cell_of(points):
            i = np.searchsorted(xs, points[:, 0], side="right") - 1
            j = np.searchsorted(ys, points[:, 1], side="right") - 1
            return np.where((i >= 0) & (i < n) & (j >= 0) & (j < n), i * n + j, n * n)

        self.cell = cell_of(mesh.centroids())
        seg_a, seg_b = (np.array(s) for s in zip(*fam.grid_segments()))
        off_grid = points_segments_distance(mesh.vertices, seg_a, seg_b,
                                            cutoff=1e-8) > 1e-9
        if np.any(off_grid[tris] & (cell_of(mesh.vertices)[tris] != self.cell[:, None])):
            raise NDError("mesh does not conform to the scan grid")
        self.n_cells = n * n

        # Nodes: triangles are joined when they share a vertex and a cell.
        corner_v = tris.ravel()
        corner_c = np.repeat(self.cell, 3)
        order = np.lexsort((corner_c, corner_v))
        tri = order // 3
        same = (np.diff(corner_v[order]) == 0) & (np.diff(corner_c[order]) == 0)
        pieces = connected_labels(len(tris), np.stack([tri[:-1][same], tri[1:][same]], axis=1))
        _, self.node_tri, node = np.unique(pieces, return_index=True, return_inverse=True)
        n_nodes = len(self.node_tri)

        # Node-vertex incidence in vertex order; every pair of nodes at one
        # vertex is linked.
        inc = np.unique(corner_v.astype(np.int64) * n_nodes + np.repeat(node, 3))
        self.inc_vertex, self.inc_node = np.divmod(inc, n_nodes)
        links = [np.empty((0, 2), dtype=np.int64)]
        for d in range(1, len(inc)):
            shared = self.inc_vertex[d:] == self.inc_vertex[:-d]
            if not shared.any():
                break
            links.append(np.stack([self.inc_node[:-d][shared],
                                   self.inc_node[d:][shared]], axis=1))
        self.links = np.unique(np.concatenate(links), axis=0)
        _, first = np.unique(self.inc_node, return_index=True)
        self.lowest = self.inc_vertex[first]

        def touches(vertices):
            flag = np.zeros(nv, dtype=bool)
            flag[vertices] = True
            return np.bincount(self.inc_node, weights=flag[self.inc_vertex],
                               minlength=n_nodes) > 0

        self.on_boundary = touches(mesh.boundary_edges)
        self.on_gamma = touches(terms.gamma_vertices)

        # Element triplets (row vertex a, column vertex b of each triangle,
        # as `fem.assemble` computes them) by slot and triangle: a triangle
        # puts one triplet in each of its slots, so a product with the
        # active-triangle indicator sums each slot in triangle order.
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        slots, slot_of = np.unique(cols.astype(np.int64) * nv + rows,
                                   return_inverse=True)
        self.slot_col, self.slot_row = np.divmod(slots, nv)
        coef = homogeneous_field(mesh, gamma0).element_integrals()
        self.finite = np.isfinite(coef)
        ke = coef[:, None, None] * terms.dots / terms.four_a2[:, None, None]
        # Rows n_slots + k count the triangles of slot k.
        owner = np.repeat(np.arange(len(tris)), 9)
        self.triplets = sp.csr_matrix(
            (np.concatenate([ke.ravel(), np.ones(len(owner))]),
             (np.concatenate([slot_of, len(slots) + slot_of]), np.tile(owner, 2))),
            shape=(2 * len(slots), len(tris)))

    def codes(self, zero, inf):
        """Paint code of every triangle with the flat cells ``zero`` painted
        D0, then ``inf`` painted Dinf (Dinf wins where they overlap)."""
        code = np.full(self.n_cells + 1, PAINT_BG, dtype=np.int8)
        code[list(zero)] = PAINT_D0
        code[list(inf)] = PAINT_DINF
        return code[self.cell]

    def system(self, codes):
        """`fem.StiffnessSystem` of a painting: the DOF map and the bordered
        matrix of `fem.build_dof_map` and `fem.assemble`, which raise the
        same errors."""
        terms = self.gd.terms
        label = codes[self.node_tri]
        live = label != PAINT_D0
        removed = np.bincount(self.inc_vertex[live[self.inc_node]],
                              minlength=self.nv) == 0
        # Components of the live nodes' links (as nodes 0..N-1) and of the
        # Dinf nodes' links (as nodes N..2N-1), labelled in one call.
        nn = len(label)
        comp = connected_labels(2 * nn, np.concatenate([
            self.links[np.all(live[self.links], axis=1)],
            nn + self.links[np.all(label[self.links] == PAINT_DINF, axis=1)]]))

        # Conductors: linked Dinf nodes, numbered by their lowest vertex.
        dinf = np.flatnonzero(label == PAINT_DINF)
        conductor = -np.ones(nn, dtype=int)
        n_conductors = 0
        if len(dinf):
            if np.any(self.on_boundary[dinf]):
                raise ConfigurationError(
                    "a perfectly conducting component touches the domain boundary")
            part = comp[nn + dinf]
            low = np.full(2 * nn, self.nv)
            np.minimum.at(low, part, self.lowest[dinf])
            lows, conductor[dinf] = np.unique(low[part], return_inverse=True)
            n_conductors = len(lows)
        conductor_of_vertex = -np.ones(self.nv, dtype=int)
        merged = conductor[self.inc_node] >= 0
        conductor_of_vertex[self.inc_vertex[merged]] = conductor[self.inc_node[merged]]
        dofmap = fem.DofMap.numbered(removed, conductor_of_vertex, n_conductors)

        # Every node that keeps DOFs must reach a node on gamma.
        if dofmap.n_dofs == 0:
            raise ConfigurationError("no degrees of freedom remain")
        if not np.any(live & self.on_gamma):
            raise ConfigurationError("measurement arc carries no degrees of freedom")
        reach = np.zeros(2 * nn, dtype=bool)
        reach[comp[:nn][live & self.on_gamma]] = True
        if not np.all(reach[comp[:nn][live]]):
            raise ConfigurationError(
                "free degrees of freedom are disconnected from the measurement arc")
        active = codes == PAINT_BG
        if not np.all(self.finite[active]):
            raise fem.SolverError("nonfinite element integral in assembly")
        if np.any(removed[terms.gamma_vertices]):
            raise ConfigurationError("measurement arc touches an insulated vertex")

        # Sum the active triplets per slot.  Slots between free DOFs are
        # already in CSC order; those with a conductor DOF are merged and
        # sorted, and go after the free rows of their column with the border
        # row and column.
        sums = self.triplets @ active.astype(float)
        present = np.flatnonzero(sums[len(self.slot_row):])
        vals = sums[present]
        dv = dofmap.dof_of_vertex
        n = dofmap.n_dofs
        r, c = dv[self.slot_row[present]], dv[self.slot_col[present]]
        free = np.maximum(r, c) < n - dofmap.n_conductors
        cond = ~free
        keys, at = np.unique(c[cond] * (n + 1) + r[cond], return_inverse=True)
        gamma_dofs = dv[terms.gamma_vertices]
        extra = np.concatenate([keys, gamma_dofs * (n + 1) + n, n * (n + 1) + gamma_dofs])
        order = np.argsort(extra)
        extra_vals = np.concatenate([np.bincount(at, weights=vals[cond], minlength=len(keys)),
                                     terms.gamma_mass, terms.gamma_mass])[order]
        extra_col, extra_row = np.divmod(extra[order], n + 1)
        count = np.bincount(c[free], minlength=n + 1)
        at = np.cumsum(count)[extra_col] + np.arange(len(extra))
        indptr = np.zeros(n + 2, dtype=np.int32)
        np.cumsum(count + np.bincount(extra_col, minlength=n + 1), out=indptr[1:])
        keep = np.ones(indptr[-1], dtype=bool)
        keep[at] = False
        data = np.empty(len(keep))
        data[keep], data[at] = vals[free], extra_vals
        rows = np.empty(len(keep), dtype=np.int32)
        rows[keep], rows[at] = r[free], extra_row
        kmat = sp.csc_matrix((data, rows, indptr), shape=(n + 1, n + 1))
        constraint = np.zeros(n)
        constraint[gamma_dofs] = terms.gamma_mass
        return fem.StiffnessSystem(kmat=kmat, constraint=constraint, dofmap=dofmap)

    def nd_map(self, zero, inf, rtol):
        """ND matrix with the flat cells ``zero`` painted D0 and ``inf``
        painted Dinf: `nd_matrix` of the same `painted_field`, tagged with
        the mesh hash plus "+scan" in place of a field hash."""
        return _solve_and_pair(self.system(self.codes(zero, inf)), self.gd,
                               self.gd.mesh_hash + "+scan", rtol)


def nd_extreme(mesh, test, kind, gamma0, basis, rtol=1e-10):
    """ND matrix with coefficient 0 (insulating) or infinity (conducting) on
    the test inclusion and the constant background outside."""
    if kind not in ("insulating", "conducting"):
        raise NDError(f"unknown extreme kind {kind!r}")
    target = "D0" if kind == "insulating" else "Dinf"
    fld = painted_field(mesh, [(test, target)], gamma0)
    return nd_matrix(fld, basis, rtol=rtol)


def perturb_symmetric(nd, rel_magnitude, seed):
    """Additive symmetric noise scaled by the Frobenius norm (measurement
    noise model for robustness experiments)."""
    if rel_magnitude <= 0:
        return nd
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(nd.matrix.shape)
    noise = 0.5 * (s + s.T)
    noise *= rel_magnitude * np.linalg.norm(nd.matrix) / np.linalg.norm(noise)
    return NDMatrix(matrix=nd.matrix + noise, gram=nd.gram.copy(),
                    asymmetry=nd.asymmetry, field_hash=nd.field_hash + "+noise",
                    mesh_hash=nd.mesh_hash, basis_hash=nd.basis_hash)
