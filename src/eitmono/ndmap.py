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
from .coefficient import WEIGHT_LABELS
from .fem import ConfigurationError
from .geometry import BACKGROUND, connected_labels
from .polygons import stable_order


class BasisResolutionWarning(UserWarning):
    pass


class NDError(RuntimeError):
    pass


class CutOffError(ConfigurationError):
    """Part of a painting keeps DOFs but cannot reach the measurement arc;
    ``cells`` are the flat cells of that part (grid_n**2 for the outside
    of the window)."""

    def __init__(self, message, cells):
        super().__init__(message)
        self.cells = cells


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
        from .monotonicity import pencil_eigenvalues
        return pencil_eigenvalues(self.matrix, self.gram)

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
    the mesh's `fem.MeshTerms`, the basis loads on its measurement-arc
    vertices (`fem.gamma_loads`) with their column norms, checked
    mean-free once here, and the Gram matrix (read-only arrays)."""

    terms: fem.MeshTerms
    loads: np.ndarray          # (len(terms.gamma_vertices), m)
    load_norms: np.ndarray
    gram: np.ndarray
    mesh_hash: str
    basis_hash: str


_GAMMA_DATA = {}


def gamma_data(mesh, basis):
    """`GammaData` of a mesh and a basis, computed once per
    (mesh.provenance(), basis.provenance()) and shared by every painting:
    the one cache of the forward path, holding the last pair only."""
    key = (mesh.provenance(), basis.provenance())
    if key not in _GAMMA_DATA:
        terms = fem.mesh_terms(mesh)
        loads = fem.gamma_loads(mesh, terms, [basis.density(k) for k in range(basis.m)])
        gd = GammaData(terms=terms, loads=loads, load_norms=fem.mean_free_norms(loads),
                       gram=basis.gram(mesh), mesh_hash=key[0], basis_hash=key[1])
        for arr in [*vars(terms).values(), *vars(gd).values()]:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        _GAMMA_DATA.clear()
        _GAMMA_DATA[key] = gd
    return _GAMMA_DATA[key]


# Label of each paint code; a painting gives every triangle one code.
PAINT_LABELS = np.array([BACKGROUND, "D0", "Dinf"])
PAINT_BG, PAINT_D0, PAINT_DINF = range(3)


def nd_matrix(fld, basis, rtol=1e-10):
    """ND matrix of a coefficient field on its mesh: one block solve over
    all basis densities, then the trace pairings B^T U of loads against
    potentials.  Only the painting-dependent work runs per call; the loads
    and the Gram matrix come from `gamma_data`."""
    gd = gamma_data(fld.mesh, basis)
    dofs, sol = _solve(field_painting(field_template(fld, basis)), gd, rtol)
    return _pair(dofs, sol.u, gd, fld.provenance())


def field_template(fld, basis):
    """`PaintTemplate` whose parts are the label classes of a field: every
    other label, D0, Dinf, and Ddeg with Dsing.  The element integrals, nan
    on D0 and Dinf, are zeroed there so that no slot sum meets a nan."""
    region = fld.mesh.triangle_region
    part = np.select([region == "D0", region == "Dinf", np.isin(region, WEIGHT_LABELS)],
                     [1, 2, 3])
    integrals = np.where(np.isin(part, (1, 2)), 0.0, fld.element_integrals())
    return PaintTemplate(fld.mesh, part, 4, integrals, basis)


def field_painting(template, weighted=PAINT_BG):
    """`fem.StiffnessSystem`, numbered in vertex order, of the painting of a
    `field_template` with its field's labels and Ddeg and Dsing painted
    ``weighted``: the field itself, or its lower (PAINT_D0) or upper
    (PAINT_DINF) bracket, which replaces every weighted region by 0 or by
    infinity."""
    codes = np.array([PAINT_BG, PAINT_D0, PAINT_DINF, weighted])[template.part]
    return template.assemble(codes, template.dof_map(codes))


def bracketed_maps(fld, basis, rtol=1e-10):
    """`nd_matrix` of a field and, when it has weighted labels, of its lower
    and upper brackets (tagged with the field's provenance plus "+lower"
    and "+upper"), and the L+U nonzeros of their factorizations.  All are
    paintings of one `field_template`, assembled before the first is
    factored so that the template is released first.

    A bracket painting that is not well posed raises as
    `PaintTemplate.dof_map` does: a lower bracket that seals a part of the
    domain off the measurement arc raises `CutOffError`."""
    template = field_template(fld, basis)
    field_hash = fld.provenance()
    painted = [(field_hash, field_painting(template))]
    if np.any(template.part == 3):
        painted += [(field_hash + "+lower", field_painting(template, PAINT_D0)),
                    (field_hash + "+upper", field_painting(template, PAINT_DINF))]
    gd = template.gd
    del template
    maps, lu_nnz = [], 0
    while painted:   # each system and its factorization go once solved
        tag, system = painted.pop(0)
        dofs, sol = _solve(system, gd, rtol)
        maps.append(_pair(dofs, sol.u, gd, tag))
        lu_nnz += system.lu.nnz
    return maps, lu_nnz


def _solve(system, gd, rtol):
    """DOFs of the measurement-arc vertices of `gd` in a grounded system,
    and its `fem.PotentialSolution` for the basis loads, under the residual
    and gamma-mean gates.  The loads go to the solve on those DOFs alone."""
    dofs = system.dofmap.dof_of_vertex[gd.terms.gamma_vertices]
    try:
        sol = fem.solve_neumann(
            system, fem.NeumannLoad(b=gd.loads, norm=gd.load_norms, rows=dofs), rtol=rtol)
    except fem.SolverError as exc:
        raise NDError(f"solve failed for the basis loads: {exc}") from exc
    return dofs, sol


def _pair(dofs, u, gd, field_hash):
    """ND matrix of the trace pairings B^T u, B the basis loads of `gd` at
    the measurement-arc DOFs ``dofs``, under the `MAX_ASYMMETRY` gate."""
    raw = gd.loads.T @ u[dofs]
    scale = float(abs(raw).max()) or 1.0
    asym = float(abs(raw - raw.T).max()) / scale
    if asym > MAX_ASYMMETRY:
        raise NDError(f"ND matrix asymmetry {asym:.3e} exceeds {MAX_ASYMMETRY:.0e}")
    sym = 0.5 * (raw + raw.T)
    return NDMatrix(matrix=sym, gram=gd.gram.copy(), asymmetry=asym,
                    field_hash=field_hash, mesh_hash=gd.mesh_hash,
                    basis_hash=gd.basis_hash)


@dataclass
class PaintedMap:
    """A scan map: the ND matrix of a painting with the paint code of each
    part (for a scan, the last cell stands for the triangles outside the
    window).  A factored map also keeps its system and the potentials with
    multipliers ``x`` (n + 1, m): a base that `PaintTemplate.solve` can
    update by one cell.  An updated map keeps neither."""

    nd: NDMatrix
    cells: np.ndarray
    system: fem.StiffnessSystem = None
    x: np.ndarray = None


def _firsts(labels):
    """The first index of each distinct non-negative integer label, in
    label order, and the rank of every entry's label among them: what
    ``np.unique(labels, return_index=True, return_inverse=True)`` gives
    after its unique values."""
    order = stable_order(labels)
    start = np.ones(len(order), dtype=bool)
    start[1:] = labels[order[1:]] != labels[order[:-1]]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.cumsum(start) - 1
    return order[start], rank


def _bits(mask):
    """The True entries of a boolean array as the set bits of an int."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _mask(bits, n):
    """The boolean array of length n that is True at the set bits."""
    packed = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").astype(bool)


def _summed(mat, rows, cols, shape):
    """``out[rows[i], cols[j]] += mat[i, j]`` over every (i, j), as a
    dense array of ``shape``."""
    flat = (rows[:, None] * shape[1] + cols[None, :]).ravel()
    return np.bincount(flat, weights=mat.ravel(), minlength=shape[0] * shape[1]).reshape(shape)


class PaintTemplate:
    """Paint-independent part of every map on one mesh, partition of its
    triangles (the part of each, 0 <= part < n_parts), set of element
    integrals and basis, so that painting parts with the extreme labels is
    index arithmetic.  Every ND map is solved here: a scan paints the grid
    cells of `reconstruction.grid_cells`, the others a `field_template`.

    Graph nodes are the vertex-connected pieces of each part's triangles;
    two nodes are linked when they share a mesh vertex.  All triangles of a
    node carry one label, so a painting's removed vertices, conductors and
    connectivity to gamma follow from the node graph: each node's links
    are kept as the bits of an int (``adjacent``), and a painting's
    conductors and its reach to gamma are spread over those bits, with no
    graph library call.  The stiffness entries of all triangles, each
    triangle's element integral times its P1 gradient products, are
    grouped by slot, one (row vertex, column vertex) pair of the bordered
    matrix, the border row and column among them, so that one product
    with the active triangles sums every slot and one counts its active
    triplets.  The DOF order
    is `dof_map`'s alone: free vertices in vertex order, until the
    background map's MMD order ranks the vertices of every later painting,
    whose free DOFs, then conductors, then border row are factored in that
    order.  The slots are kept sorted by the ranks of their column, then
    row, vertex, so a painting's entries that meet no conductor come out
    of the product in CSC order; only those at a conductor are summed and
    merged in (`assemble`).  ``lu_nnz`` sums the L+U nonzeros
    solved.

    A painting that is a factored base plus one background part is solved
    as an exact rank-k update of the base's factorization (`update`), k at
    most the DOFs of the part's closure, after `check` and without a
    `fem.DofMap`; `solve` factors every other painting.  A template that
    paints once or three times (`field_template`) pays for none of this:
    the re-sort by rank (`_rank`) and the per-part lists of `closure` are
    built by the first background map and the first update of a scan.
    """

    def __init__(self, mesh, part, n_parts, integrals, basis):
        self.gd = gamma_data(mesh, basis)
        terms = self.gd.terms
        tris = self.tris = mesh.triangles
        nv = self.nv = mesh.num_vertices
        self.by_rank = None
        self.lu_nnz = 0
        self._closures = {}
        self.part = part
        self.n_parts = n_parts

        # Nodes: triangles are joined when they share a vertex and a part.
        corner = tris.ravel().astype(np.int64) * n_parts + np.repeat(part, 3)
        order = stable_order(corner)
        tri = order // 3
        same = np.diff(corner[order]) == 0
        pieces = connected_labels(len(tris), np.stack([tri[:-1][same], tri[1:][same]], axis=1))
        # Each piece's first triangle, and the piece of every triangle.
        self.node_tri, node = _firsts(pieces)
        self.node_part = part[self.node_tri]
        n_nodes = len(self.node_tri)

        # Node-vertex incidence in vertex order: one entry per distinct
        # (vertex, part) corner, all of whose triangles are one node's.
        first = np.r_[True, ~same]
        self.inc_vertex = corner[order[first]] // n_parts
        self.inc_node = node[tri[first]]
        # Every pair of nodes at one vertex is linked.
        links, d = [np.zeros(0, dtype=np.int64)], 1
        while len(at := np.flatnonzero(self.inc_vertex[d:] == self.inc_vertex[:-d])):
            a, b = self.inc_node[at], self.inc_node[at + d]
            links.append(np.minimum(a, b) * n_nodes + np.maximum(a, b))
            d += 1
        self.adjacent = [0] * n_nodes
        for link in np.unique(np.concatenate(links)).tolist():
            a, b = divmod(link, n_nodes)
            self.adjacent[a] |= 1 << b
            self.adjacent[b] |= 1 << a
        self.lowest = self.inc_vertex[_firsts(self.inc_node)[0]]

        def touches(vertices):
            flag = np.zeros(nv, dtype=bool)
            flag[vertices] = True
            return np.bincount(self.inc_node, weights=flag[self.inc_vertex],
                               minlength=n_nodes) > 0

        self.on_boundary = _bits(touches(mesh.boundary_edges))
        self.on_gamma = _bits(touches(terms.gamma_vertices))
        # the nodes that reach gamma when every node is live: all of them
        # on a connected mesh
        self.reach_all = self._spread(self.on_gamma, (1 << n_nodes) - 1)
        # The nodes at each gamma vertex, as bits; each distinct set once.
        at_gamma = np.zeros(nv, dtype=bool)
        at_gamma[terms.gamma_vertices] = True
        at_gamma = at_gamma[self.inc_vertex]
        nodes_at = {}
        for v, k in zip(self.inc_vertex[at_gamma].tolist(), self.inc_node[at_gamma].tolist()):
            nodes_at[v] = nodes_at.get(v, 0) | 1 << k
        self.gamma_nodes = set(nodes_at.values())

        # Triplets by slot (rows) and triangle (columns).  A slot is one
        # (column vertex b, row vertex a) entry of the bordered matrix, in
        # which vertex nv stands for the border row and column.  Triplet
        # 9t + 3i + j puts row vertex tris[t, i] and column vertex tris[t, j]
        # in one; the two border slots of each gamma vertex hold its gamma
        # mass as a triplet of the extra column nt.  The triplets of a slot
        # stay in triangle order, so a product with the active-triangle
        # indicator (1 at nt) sums each slot in that order; the same product
        # on int8 ones (`counts`, sharing the indices) counts them.  The
        # slots are in CSC order: by column vertex, then row vertex.
        nt = len(tris)
        gamma = terms.gamma_vertices.astype(np.int64)
        keys = np.concatenate([
            (np.tile(tris, (1, 3)).astype(np.int64) * (nv + 1)
             + np.repeat(tris, 3, axis=1)).ravel(),
            gamma * (nv + 1) + nv, nv * (nv + 1) + gamma])
        by_slot = stable_order(keys).astype(np.int32)
        keys = keys[by_slot]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.slot_col, self.slot_row = np.divmod(keys[starts], nv + 1)
        self.nonfinite = np.flatnonzero(~np.isfinite(integrals))
        # a painting's active triangles, 1 at nt, as floats and as int8
        self._active, self._active8 = np.ones(nt + 1), np.ones(nt + 1, dtype=np.int8)
        # An element matrix that overflows stays inf: its system fails the
        # factorization or the residual gate with a SolverError.
        with np.errstate(over="ignore"):
            ke = self.ke = integrals[:, None, None] * terms.dots / terms.four_a2[:, None, None]
        values = np.concatenate([ke.ravel(), terms.gamma_mass, terms.gamma_mass])[by_slot]
        self._triplets(values, np.minimum(by_slot // 9, nt), np.r_[starts, len(keys)])

    def _triplets(self, values, owner, indptr):
        """`triplets` and `counts`, one row per slot, from the triplets'
        values and owning triangles in slot order."""
        shape = (len(indptr) - 1, len(self._active))
        indptr = indptr.astype(np.int32)
        self.triplets = sp.csr_matrix((values, owner, indptr), shape=shape)
        self.counts = sp.csr_matrix((np.ones(len(owner), dtype=np.int8),
                                     self.triplets.indices, indptr), shape=shape)

    def cell_codes(self, zero, inf):
        """Paint code of every part, with the parts ``zero`` painted D0,
        then ``inf`` painted Dinf (Dinf wins where they overlap)."""
        code = np.full(self.n_parts, PAINT_BG, dtype=np.int8)
        code[list(zero)] = PAINT_D0
        code[list(inf)] = PAINT_DINF
        return code

    def _spread(self, seeds, within):
        """The nodes linked to the nodes ``seeds`` through nodes of
        ``within`` (seeds among them), all three as bits of an int."""
        reached = frontier = seeds
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= self.adjacent[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & within & ~reached
            reached |= frontier
        return reached

    def check(self, codes):
        """Raise the first error of `dof_map` on a painting, if any: a
        conductor on the domain boundary, a painting without DOFs or
        without DOFs on gamma, a part cut off from gamma, a nonfinite
        active integral and an insulated gamma vertex, in this order.
        Returns the painting's live (not D0) nodes as a mask and its Dinf
        nodes as bits."""
        label = codes[self.node_tri]
        live = label != PAINT_D0
        dinf, within = _bits(label == PAINT_DINF), _bits(live)
        if dinf & self.on_boundary:
            raise ConfigurationError(
                "a perfectly conducting component touches the domain boundary")
        # Every vertex of a live node keeps a DOF, free or merged.
        if not within:
            raise ConfigurationError("no degrees of freedom remain")
        seeds = within & self.on_gamma
        if not seeds:
            raise ConfigurationError("measurement arc carries no degrees of freedom")
        # Every node that keeps DOFs must reach a node on gamma.  Live nodes
        # that are exactly those reaching it with every node live do.
        if within == self.reach_all:
            cut_off = 0
        else:
            cut_off = within & ~self._spread(seeds, within)
        if cut_off:
            raise CutOffError(
                "free degrees of freedom are disconnected from the measurement arc",
                np.unique(self.node_part[_mask(cut_off, len(live))]))
        if len(self.nonfinite) and np.any(codes[self.nonfinite] == PAINT_BG):
            raise fem.SolverError("nonfinite element integral in assembly")
        if any(not nodes & within for nodes in self.gamma_nodes):
            raise ConfigurationError("measurement arc touches an insulated vertex")
        return live, dinf

    def dof_map(self, codes):
        """`fem.DofMap` of a painting from the node graph, numbered in the
        template's order, after `check` has found the grounded system well
        posed.  Vertices that only D0 triangles touch are removed, and each
        vertex-connected set of Dinf triangles collapses to one DOF; the
        conductors are numbered by their lowest vertex.  Contact between a
        conductor and an insulating region is tolerated: the discrete
        system stays well posed, and the upper bracketing field produces
        exactly this contact."""
        live, rest = self.check(codes)
        free = np.zeros(self.nv, dtype=bool)
        free[self.inc_vertex[live[self.inc_node]]] = True
        conductors = []
        while rest:
            nodes = self._spread(rest & -rest, rest)
            rest &= ~nodes
            nodes = np.flatnonzero(_mask(nodes, len(live)))
            conductors.append((self.lowest[nodes].min(), nodes))
        if conductors:
            conductor = np.full(len(live), -1)
            for k, (_, nodes) in enumerate(sorted(conductors, key=lambda c: c[0])):
                conductor[nodes] = k
            at = conductor[self.inc_node]
            merged = at >= 0
            free[self.inc_vertex[merged]] = False
        ranked = np.flatnonzero(free) if self.by_rank is None else self.by_rank[free[self.by_rank]]
        dof_of_vertex = np.full(self.nv, -1, dtype=np.int32)
        dof_of_vertex[ranked] = np.arange(len(ranked))
        if conductors:
            dof_of_vertex[self.inc_vertex[merged]] = len(ranked) + at[merged]
        return fem.DofMap(dof_of_vertex=dof_of_vertex, n_dofs=len(ranked) + len(conductors),
                          n_free=len(ranked))

    def assemble(self, codes, dofmap):
        """Bordered `fem.StiffnessSystem` of a painting on its `dof_map`,
        written directly as CSC arrays.  Free DOFs and the border follow
        the slots' order, so the present slots that meet no conductor come
        in CSC order.  A conductor's column sums the slots of its vertices'
        columns per row, in slot order; its row in a free column is that
        entry transposed, bit for bit (the slots (a, b) and (b, a) sum the
        same values in the same order), and goes before the column's border
        row.  `check` keeps conductors off the boundary, so no border entry
        meets one."""
        np.equal(codes, PAINT_BG, out=self._active[:-1])
        np.equal(codes, PAINT_BG, out=self._active8[:-1])
        present = np.flatnonzero(self.counts @ self._active8 > 0)
        sums = self.triplets @ self._active
        n, n_free = dofmap.n_dofs, dofmap.n_free
        dv = np.empty(self.nv + 1, dtype=np.int32)
        dv[:-1] = dofmap.dof_of_vertex
        dv[-1] = n
        rows, cols, values = dv[self.slot_row[present]], dv[self.slot_col[present]], sums[present]
        n_c = n - n_free
        if n_c:
            conductor = np.zeros(n + 1, dtype=bool)
            conductor[n_free:n] = True
            in_col = conductor[cols]
            keep = ~(in_col | conductor[rows])
            entry = (cols[in_col] - n_free) * (n + 1) + rows[in_col]
            block = np.bincount(entry, weights=values[in_col], minlength=n_c * (n + 1))
            hit = np.bincount(entry, minlength=n_c * (n + 1)).reshape(n_c, n + 1) > 0
            rows, cols, values = rows[keep], cols[keep], values[keep]
        count = np.bincount(cols, minlength=n + 1)
        if n_c:
            # the conductor rows of each free column, then the conductor
            # columns, as insertions into the entries that meet none
            col, k = np.nonzero(hit[:, :n_free].T)
            flat = np.flatnonzero(hit)
            ends = np.cumsum(count)
            border = np.zeros(n_free, dtype=np.int64)
            border[dofmap.dof_of_vertex[self.gd.terms.gamma_vertices]] = 1
            at = np.concatenate([ends[col] - border[col], np.full(len(flat), ends[n_free - 1])])
            at += np.arange(len(at))
            old = np.ones(len(rows) + len(at), dtype=bool)
            old[at] = False
            rows_in = np.empty(len(old), dtype=np.int32)
            rows_in[at] = np.concatenate([n_free + k, flat % (n + 1)])
            rows_in[old] = rows
            values_in = np.empty(len(old))
            values_in[at] = np.concatenate([block[k * (n + 1) + col], block[flat]])
            values_in[old] = values
            rows, values = rows_in, values_in
            count[:n_free] += np.bincount(col, minlength=n_free)
            count[n_free:n] = hit.sum(axis=1)
        indptr = np.zeros(n + 2, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        kmat = sp.csc_matrix((values, rows, indptr), shape=(n + 1, n + 1))
        kmat.has_canonical_format = True   # sorted rows, none twice: splu need not check
        return fem.StiffnessSystem(kmat=kmat, dofmap=dofmap, ordered=self.by_rank is not None)

    def _rank(self, by_rank):
        """Number every later painting in the order ``by_rank`` (the vertex
        of each rank): the slots are sorted by the ranks of their column,
        then row, vertex, the border last."""
        self.by_rank = by_rank
        rank = np.empty(self.nv + 1, dtype=np.int64)
        rank[by_rank] = np.arange(self.nv)
        rank[self.nv] = self.nv
        perm = stable_order(rank[self.slot_col] * (self.nv + 1) + rank[self.slot_row])
        self.slot_row, self.slot_col = self.slot_row[perm], self.slot_col[perm]
        # the rows of the triplets in that order, each row's triplets kept
        old = self.triplets
        length = np.diff(old.indptr)[perm]
        indptr = np.zeros(len(perm) + 1, dtype=np.int32)
        np.cumsum(length, out=indptr[1:])
        src = np.repeat(old.indptr[perm] - indptr[:-1], length) + np.arange(indptr[-1])
        self._triplets(old.data[src], old.indices[src], indptr)

    def solve(self, zero, inf, rtol, bases=()):
        """`PaintedMap` of the painting with the parts ``zero`` painted D0
        and ``inf`` painted Dinf, its ND matrix tagged with the mesh hash
        plus "+scan" in place of a field hash.  The first background map
        sets the template's order.  When the painting is
        one of the factored ``bases`` plus one cell that is background
        there, the painting is checked (`check`, no DOF map) and the map
        updated on that base (`update`) under the gates of a factored map:
        the residual at rtol*|b| against the updated system, the gamma mean
        and `MAX_ASYMMETRY`.  An update that misses the residual gate, and
        every other painting, is factored."""
        cells = self.cell_codes(zero, inf)
        codes = cells[self.part]
        field_hash = self.gd.mesh_hash + "+scan"
        for base in bases:
            changed = np.flatnonzero(cells != base.cells)
            if len(changed) == 1 and base.cells[changed[0]] == PAINT_BG:
                self.check(codes)
                x, residual = self.update(base, changed[0], cells[changed[0]])
                if not len(fem.residual_misses(residual, self.gd.load_norms, rtol)):
                    u = x[:base.system.n]
                    try:
                        fem.check_gamma_mean(base.system.kmat, u)
                    except fem.SolverError as exc:
                        raise NDError(f"solve failed for the basis loads: {exc}") from exc
                    dofs = base.system.dofmap.dof_of_vertex[self.gd.terms.gamma_vertices]
                    return PaintedMap(nd=_pair(dofs, u, self.gd, field_hash), cells=cells)
                break
        dofmap = self.dof_map(codes)
        system = self.assemble(codes, dofmap)
        dofs, sol = _solve(system, self.gd, rtol)
        nd = _pair(dofs, sol.u, self.gd, field_hash)
        self.lu_nnz += system.lu.nnz
        x = sol.x
        if self.by_rank is None and not codes.any():
            # position of each vertex's column
            self._rank(np.argsort(system.lu.perm_c[:self.nv]))
            # The background map is kept in the order it sets, so that a
            # base refactored for an update reuses that order: the scan
            # runs MMD once.
            shared = self.dof_map(codes)
            moved = np.arange(system.n + 1)
            moved[shared.dof_of_vertex] = dofmap.dof_of_vertex
            system, x = self.assemble(codes, shared), x[moved]
        return PaintedMap(nd=nd, cells=cells, system=system, x=x)

    def closure(self, cell):
        """Vertices of a cell's triangles, the sum of their element
        matrices on those vertices, and each incidence of those vertices
        with a node of another part, as (position in the vertices, part)."""
        if not self._closures:
            # the triangles and the incidences of every part, in part order
            inc_part = self.node_part[self.inc_node]
            self._by_part = [(order, np.searchsorted(key[order], np.arange(self.n_parts + 1)))
                             for key in (self.part, inc_part)
                             for order in [stable_order(key)]]
            # each incidence's run of incidences at its vertex
            self._runs = np.searchsorted(self.inc_vertex, [self.inc_vertex, self.inc_vertex + 1])
        if cell not in self._closures:
            (tri_order, tri_at), (inc_order, inc_at) = self._by_part
            mine = tri_order[tri_at[cell]:tri_at[cell + 1]]
            own = inc_order[inc_at[cell]:inc_at[cell + 1]]
            verts = self.inc_vertex[own]
            local = np.searchsorted(verts, self.tris[mine])
            n = len(verts)
            kc = np.bincount((local[:, :, None] * n + local[:, None, :]).ravel(),
                             weights=self.ke[mine].ravel(), minlength=n * n)
            near = np.array([i for k, a, b in zip(own.tolist(), *self._runs[:, own].tolist())
                             for i in range(a, b) if i != k], dtype=np.intp)
            self._closures[cell] = (verts, kc.reshape(n, n),
                                    np.searchsorted(verts, self.inc_vertex[near]),
                                    self.node_part[self.inc_node[near]])
        return self._closures[cell]

    def update(self, base, cell, code):
        """Potentials and multipliers of ``base`` with the background cell
        ``cell`` painted ``code``, on the base's factorization, and their
        residual norms against the painting's system.

        Let K be the cell's element matrix on its closure.  The closure
        vertices I whose active triangles in the base are all the cell's
        have rows of K alone, so the change condenses onto the base DOFs R
        of the other closure vertices (a base conductor among them): a
        k-column solve W = A0^-1 E_R, k = |R|, gives it exactly.  K sums
        onto R through the index of each closure vertex's DOF in R.

        Insulating: the cell's triangles and I leave the system.  A0^-1
        away from I inverts A0's Schur complement S0 there, and the new
        matrix is S0 - E_R S E_R^T with S = K_RR - K_RI K_II^-1 K_IR, so
        x = x0 - W (I - S W_R)^-1 (-S) x0_R (Sherman-Morrison-Woodbury in
        capacitance form; S is singular and never inverted) and x_I = 0.
        Conducting: equality constraints C^T x = 0 tie R together, the
        cell's energy vanishes on them and the constant extends to I, so
        x = x0 - A0^-1 C (C^T A0^-1 C)^-1 C^T x0."""
        verts, kc, near, near_part = self.closure(cell)
        alone = np.bincount(near[base.cells[near_part] != PAINT_D0],
                            minlength=len(verts)) == 0
        dv = base.system.dofmap.dof_of_vertex
        arc = dv[self.gd.terms.gamma_vertices]
        inner = dv[verts[alone]]
        at_rim = dv[verts[~alone]]
        rim = np.unique(at_rim)
        local = np.searchsorted(rim, at_rim)
        n, k = base.system.n, len(rim)
        kmat, x0 = base.system.kmat, base.x
        if base.system.lu is None:    # a base kept without its factorization
            self.lu_nnz += base.system.factor().nnz
        lu = base.system.lu
        k_rr = _summed(kc[np.ix_(~alone, ~alone)], local, local, (k, k))
        if code == PAINT_D0:
            k_ri = _summed(kc[np.ix_(~alone, alone)], local, np.arange(len(inner)),
                           (k, len(inner)))
            s = k_rr - k_ri @ np.linalg.solve(kc[np.ix_(alone, alone)], k_ri.T)
            e = np.zeros((n + 1, k), order="F")
            e[rim, np.arange(k)] = 1.0
            w = lu.solve(e)
            x = w @ np.linalg.solve(np.eye(k) - s @ w[rim], -s @ x0[rim])
            np.subtract(x0, x, out=x)
            x[inner] = 0.0
            # r = K0 x - b - K_RR x_R, the residual's negative
            r = kmat @ x
            r[arc] -= self.gd.loads
            r[rim] -= k_rr @ x[rim]
            r[inner] = 0.0
        else:
            c = np.zeros((n + 1, k - 1), order="F")
            c[rim[0]] = 1.0
            c[rim[1:], np.arange(k - 1)] = -1.0
            w = lu.solve(c) if k > 1 else c
            x = w @ np.linalg.solve(c[rim].T @ w[rim], c[rim].T @ x0[rim])
            np.subtract(x0, x, out=x)
            # the residual (negated) of the merged DOF sums the rows it merges
            merged = np.concatenate([rim, inner])
            r = kmat @ x
            r[arc] -= self.gd.loads
            total = r[merged].sum(axis=0)
            r[merged] = 0.0
            r[rim[0]] = total
        return x, fem.column_norms(r)


def perturb_symmetric(nd, rel_magnitude, seed):
    """Additive symmetric noise scaled by the Frobenius norm (measurement
    noise model for robustness experiments)."""
    if not np.isfinite(rel_magnitude) or rel_magnitude < 0:
        raise ValueError(f"noise level must be finite and >= 0, got {rel_magnitude}")
    if rel_magnitude == 0:
        return nd
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(nd.matrix.shape)
    noise = 0.5 * (s + s.T)
    noise *= rel_magnitude * np.linalg.norm(nd.matrix) / np.linalg.norm(noise)
    return NDMatrix(matrix=nd.matrix + noise, gram=nd.gram.copy(),
                    asymmetry=nd.asymmetry, field_hash=nd.field_hash + "+noise",
                    mesh_hash=nd.mesh_hash, basis_hash=nd.basis_hash)
