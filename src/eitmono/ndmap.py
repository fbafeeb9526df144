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
    b, sol = _solve(field_painting(field_template(fld, basis)), gd, rtol)
    return _pair(b, sol.u, gd, fld.provenance())


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
        b, sol = _solve(system, gd, rtol)
        maps.append(_pair(b, sol.u, gd, tag))
        lu_nnz += system.lu.nnz
    return maps, lu_nnz


def _loads(dofmap, gd):
    """The basis loads of `gd` on the DOFs of a map, one column each."""
    b = np.zeros((dofmap.n_dofs, gd.loads.shape[1]))
    b[dofmap.dof_of_vertex[gd.terms.gamma_vertices]] = gd.loads
    return b


def _solve(system, gd, rtol):
    """Loads and `fem.PotentialSolution` of a grounded system for the basis
    loads of `gd`, under the residual and gamma-mean gates."""
    b = _loads(system.dofmap, gd)
    try:
        sol = fem.solve_neumann(system, fem.NeumannLoad(b=b, norm=gd.load_norms),
                                rtol=rtol)
    except fem.SolverError as exc:
        raise NDError(f"solve failed for the basis loads: {exc}") from exc
    return b, sol


def _pair(b, u, gd, field_hash):
    """ND matrix of the trace pairings b^T u under the `MAX_ASYMMETRY` gate."""
    raw = b.T @ u
    scale = float(np.max(np.abs(raw))) or 1.0
    asym = float(np.max(np.abs(raw - raw.T))) / scale
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
    window).  A factored map also keeps its system, loads ``b`` and
    potentials with multipliers ``x`` (n + 1, m): a base that
    `PaintTemplate.solve` can update by one cell.  An updated map keeps
    none of them."""

    nd: NDMatrix
    cells: np.ndarray
    system: fem.StiffnessSystem = None
    b: np.ndarray = None
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


class PaintTemplate:
    """Paint-independent part of every map on one mesh, partition of its
    triangles (the part of each, 0 <= part < n_parts), set of element
    integrals and basis, so that painting parts with the extreme labels is
    index arithmetic.  Every ND map is solved here: a scan paints the grid
    cells of `reconstruction.grid_cells`, the others a `field_template`.

    Graph nodes are the vertex-connected pieces of each part's triangles;
    two nodes are linked when they share a mesh vertex.  All triangles of a
    node carry one label, so a painting's removed vertices, conductors and
    connectivity to gamma follow from the node graph.  The stiffness
    entries of all triangles, each triangle's element integral times its
    P1 gradient products, are grouped by slot, one (row vertex, column
    vertex) pair, so that one product with the active triangles sums every
    slot.  The DOF order is `dof_map`'s alone: vertex order, until the
    background map's MMD order ranks the vertices of every later painting,
    whose free DOFs, then conductors, then border row are factored in that
    order.  ``lu_nnz`` sums the L+U nonzeros solved.

    A painting that is a factored base plus one background part is solved
    as an exact rank-k update of the base's factorization (`update`), k at
    most the DOFs of the part's closure; `solve` factors every other
    painting.
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

        # Node-vertex incidence in vertex order; every pair of nodes at one
        # vertex is linked.
        inc = np.unique(tris.ravel().astype(np.int64) * n_nodes + np.repeat(node, 3))
        self.inc_vertex, self.inc_node = np.divmod(inc, n_nodes)
        m = sp.csr_matrix((np.ones(len(inc)), (self.inc_node, self.inc_vertex)),
                          shape=(n_nodes, nv))
        shared = sp.triu(m @ m.T, 1, format="coo")
        self.links = np.stack([shared.row, shared.col], axis=1)
        self.lowest = self.inc_vertex[_firsts(self.inc_node)[0]]

        def touches(vertices):
            flag = np.zeros(nv, dtype=bool)
            flag[vertices] = True
            return np.bincount(self.inc_node, weights=flag[self.inc_vertex],
                               minlength=n_nodes) > 0

        self.on_boundary = touches(mesh.boundary_edges)
        self.on_gamma = touches(terms.gamma_vertices)

        # Element triplets by slot (rows) and triangle (columns).  A slot is
        # one (column vertex b, row vertex a) entry of the vertex-space
        # matrix; triplet 9t + 3i + j puts row vertex tris[t, i] and column
        # vertex tris[t, j] in one.  The triplets of a slot stay in triangle
        # order, so a product with the active-triangle indicator sums each
        # slot in that order; rows n_slots + k count the triangles of slot k.
        keys = (np.tile(tris, (1, 3)).astype(np.int64) * nv
                + np.repeat(tris, 3, axis=1)).ravel()
        by_slot = stable_order(keys).astype(np.int32)
        keys = keys[by_slot]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.slot_col, self.slot_row = np.divmod(keys[starts], nv)
        self.finite = np.isfinite(integrals)
        # An element matrix that overflows stays inf: its system fails the
        # factorization or the residual gate with a SolverError.
        with np.errstate(over="ignore"):
            ke = self.ke = integrals[:, None, None] * terms.dots / terms.four_a2[:, None, None]
        owner = by_slot // 9
        self.triplets = sp.csr_matrix(
            (np.concatenate([ke.ravel()[by_slot], np.ones(len(keys))]),
             np.concatenate([owner, owner]),
             np.concatenate([starts, len(keys) + starts, [2 * len(keys)]]).astype(np.int32)),
            shape=(2 * len(starts), len(tris)))

    def cell_codes(self, zero, inf):
        """Paint code of every part, with the parts ``zero`` painted D0,
        then ``inf`` painted Dinf (Dinf wins where they overlap)."""
        code = np.full(self.n_parts, PAINT_BG, dtype=np.int8)
        code[list(zero)] = PAINT_D0
        code[list(inf)] = PAINT_DINF
        return code

    def dof_map(self, codes):
        """`fem.DofMap` of a painting from the node graph, numbered in the
        template's order, after every check that the grounded system is
        well posed.  Vertices that only D0 triangles touch are removed, and
        each vertex-connected set of Dinf triangles collapses to one DOF; a
        conductor on the domain boundary, a painting without DOFs or
        without DOFs on gamma, a part cut off from gamma, a nonfinite
        active integral and an insulated gamma vertex raise, in this order.
        Contact between a conductor and an insulating region is tolerated:
        the discrete system stays well posed, and the upper bracketing field
        produces exactly this contact."""
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
        if self.by_rank is not None:
            dof = dofmap.dof_of_vertex[self.by_rank]
            free = self.by_rank[(0 <= dof) & (dof < dofmap.n_free)]
            dofmap.dof_of_vertex[free] = np.arange(len(free))

        # Every node that keeps DOFs must reach a node on gamma.
        if dofmap.n_dofs == 0:
            raise ConfigurationError("no degrees of freedom remain")
        if not np.any(live & self.on_gamma):
            raise ConfigurationError("measurement arc carries no degrees of freedom")
        reach = np.zeros(2 * nn, dtype=bool)
        reach[comp[:nn][live & self.on_gamma]] = True
        cut_off = live & ~reach[comp[:nn]]
        if np.any(cut_off):
            raise CutOffError(
                "free degrees of freedom are disconnected from the measurement arc",
                np.unique(self.node_part[cut_off]))
        if not np.all(self.finite[codes == PAINT_BG]):
            raise fem.SolverError("nonfinite element integral in assembly")
        if np.any(removed[terms.gamma_vertices]):
            raise ConfigurationError("measurement arc touches an insulated vertex")
        return dofmap

    def assemble(self, codes, dofmap):
        """Bordered `fem.StiffnessSystem` of a painting on its `dof_map`:
        the present slot sums at their DOFs and the gamma masses in the
        border row and column, converted to CSC in one step, which sums the
        slots that meet at a conductor DOF."""
        terms = self.gd.terms
        sums = self.triplets @ (codes == PAINT_BG).astype(float)
        present = np.flatnonzero(sums[len(self.slot_row):])
        dv = dofmap.dof_of_vertex
        n = dofmap.n_dofs
        gamma_dofs = dv[terms.gamma_vertices]
        border = np.full(len(gamma_dofs), n)
        kmat = sp.csc_matrix(
            (np.concatenate([sums[present], terms.gamma_mass, terms.gamma_mass]),
             (np.concatenate([dv[self.slot_row[present]], gamma_dofs, border]),
              np.concatenate([dv[self.slot_col[present]], border, gamma_dofs]))),
            shape=(n + 1, n + 1))
        constraint = np.zeros(n)
        constraint[gamma_dofs] = terms.gamma_mass
        return fem.StiffnessSystem(kmat=kmat, constraint=constraint, dofmap=dofmap,
                                   ordered=self.by_rank is not None)

    def solve(self, zero, inf, rtol, bases=()):
        """`PaintedMap` of the painting with the parts ``zero`` painted D0
        and ``inf`` painted Dinf, its ND matrix tagged with the mesh hash
        plus "+scan" in place of a field hash.  The first background map
        sets the template's order.  When the painting is
        one of the factored ``bases`` plus one cell that is background
        there, the map is updated on that base (`update`) under the gates
        of a factored map: the residual at rtol*|b| against the updated
        system, the gamma mean and `MAX_ASYMMETRY`.  An update that misses
        the residual gate, and every other painting, is factored."""
        cells = self.cell_codes(zero, inf)
        codes = cells[self.part]
        dofmap = self.dof_map(codes)
        field_hash = self.gd.mesh_hash + "+scan"
        for base in bases:
            changed = np.flatnonzero(cells != base.cells)
            if len(changed) == 1 and base.cells[changed[0]] == PAINT_BG:
                x, residual = self.update(base, changed[0], cells[changed[0]])
                if not len(fem.residual_misses(residual, self.gd.load_norms, rtol)):
                    u = x[:base.system.n]
                    try:
                        fem.check_gamma_mean(base.system.constraint, u)
                    except fem.SolverError as exc:
                        raise NDError(f"solve failed for the basis loads: {exc}") from exc
                    return PaintedMap(nd=_pair(base.b, u, self.gd, field_hash), cells=cells)
                break
        system = self.assemble(codes, dofmap)
        b, sol = _solve(system, self.gd, rtol)
        nd = _pair(b, sol.u, self.gd, field_hash)
        self.lu_nnz += system.lu.nnz
        x = np.vstack([sol.u, sol.multiplier])
        if self.by_rank is None and not codes.any():
            rank = system.lu.perm_c[:self.nv]   # position of each vertex's column
            self.by_rank = np.argsort(rank)
            # The background map is kept in the order it sets, so that a
            # base refactored for an update reuses that order: the scan
            # runs MMD once.
            shared = self.dof_map(codes)
            moved = np.arange(system.n + 1)
            moved[shared.dof_of_vertex] = dofmap.dof_of_vertex
            system, b, x = self.assemble(codes, shared), b[moved[:-1]], x[moved]
        return PaintedMap(nd=nd, cells=cells, system=system, b=b, x=x)

    def closure(self, cell):
        """Vertices of a cell's triangles and the sum of their element
        matrices on those vertices."""
        if cell not in self._closures:
            mine = self.part == cell
            verts, local = np.unique(self.tris[mine], return_inverse=True)
            local = local.reshape(-1, 3)
            kc = np.zeros((len(verts), len(verts)))
            np.add.at(kc, (local[:, :, None], local[:, None, :]), self.ke[mine])
            self._closures[cell] = verts, kc
        return self._closures[cell]

    def update(self, base, cell, code):
        """Potentials and multipliers of ``base`` with the background cell
        ``cell`` painted ``code``, on the base's factorization, and their
        residual norms against the painting's system.

        Let K be the cell's element matrix on its closure.  The closure
        vertices I whose active triangles in the base are all the cell's
        have rows of K alone, so the change condenses onto the base DOFs R
        of the other closure vertices (a base conductor among them): a
        k-column solve W = A0^-1 E_R, k = |R|, gives it exactly.

        Insulating: the cell's triangles and I leave the system.  A0^-1
        away from I inverts A0's Schur complement S0 there, and the new
        matrix is S0 - E_R S E_R^T with S = K_RR - K_RI K_II^-1 K_IR, so
        x = x0 - W (I - S W_R)^-1 (-S) x0_R (Sherman-Morrison-Woodbury in
        capacitance form; S is singular and never inverted) and x_I = 0.
        Conducting: equality constraints C^T x = 0 tie R together, the
        cell's energy vanishes on them and the constant extends to I, so
        x = x0 - A0^-1 C (C^T A0^-1 C)^-1 C^T x0."""
        verts, kc = self.closure(cell)
        elsewhere = (base.cells[self.node_part] != PAINT_D0) & (self.node_part != cell)
        alone = np.bincount(self.inc_vertex, weights=elsewhere[self.inc_node],
                            minlength=self.nv)[verts] == 0
        dv = base.system.dofmap.dof_of_vertex
        inner = dv[verts[alone]]
        rim, local = np.unique(dv[verts[~alone]], return_inverse=True)
        n, k = base.system.n, len(rim)
        kmat, x0 = base.system.kmat, base.x
        if base.system.lu is None:    # a base kept without its factorization
            self.lu_nnz += base.system.factor().nnz
        lu = base.system.lu
        onto = np.zeros((len(local), k))
        onto[np.arange(len(local)), local] = 1.0
        k_rr = onto.T @ kc[np.ix_(~alone, ~alone)] @ onto
        if code == PAINT_D0:
            k_ri = onto.T @ kc[np.ix_(~alone, alone)]
            s = k_rr - k_ri @ np.linalg.solve(kc[np.ix_(alone, alone)], k_ri.T)
            e = np.zeros((n + 1, k))
            e[rim, np.arange(k)] = 1.0
            w = lu.solve(e)
            x = x0 - w @ np.linalg.solve(np.eye(k) - s @ w[rim], -s @ x0[rim])
            x[inner] = 0.0
            r = -(kmat @ x)
            r[:n] += base.b
            r[rim] += k_rr @ x[rim]
            r[inner] = 0.0
        else:
            c = np.zeros((n + 1, k - 1))
            c[rim[0]] = 1.0
            c[rim[1:], np.arange(k - 1)] = -1.0
            w = lu.solve(c) if k > 1 else c
            x = x0 - w @ np.linalg.solve(c[rim].T @ w[rim], c[rim].T @ x0[rim])
            # the residual of the merged DOF sums the rows it merges
            merged = np.concatenate([rim, inner])
            r = -(kmat @ x)
            r[:n] += base.b
            total = r[merged].sum(axis=0)
            r[merged] = 0.0
            r[rim[0]] = total
        return x, np.linalg.norm(r, axis=0)


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
