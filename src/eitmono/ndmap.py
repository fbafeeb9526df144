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

from . import fem
from .coefficient import CoefficientField
from .geometry import BACKGROUND, REGION_LABELS


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
    m: int
    modes: tuple          # sequence of ("sin"|"cos", frequency)

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

    def check_mean_free(self, mesh, tol=1e-12):
        """Gamma-mean of every basis density as used (profiles are projected
        to zero mean in the mesh quadrature, matching the load assembly)."""
        pts, w = fem.gamma_quadrature(mesh)
        vals = np.stack([self.density(k)(pts) for k in range(self.m)])
        total = float(np.sum(w))
        projected = vals - (vals @ w)[:, None] / total
        return float(np.max(np.abs(projected @ w))) / total <= tol

    def provenance(self):
        hasher = hashlib.sha256()
        hasher.update(f"{self.domain.shape}|{self.domain.gamma_span}|"
                      f"{self.domain.disk_segments}|{self.m}|{self.modes}".encode())
        return hasher.hexdigest()[:16]


def build_basis(domain, m, mesh=None):
    """Trigonometric basis of size m with frequencies 1..ceil(m/2).

    Warns when the boundary discretization falls below eight edges per
    period of the highest frequency.
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
    basis = CurrentBasis(domain=domain, m=m, modes=tuple(modes))

    if mesh is not None:
        n_edges = int(np.sum(mesh.boundary_on_gamma))
    elif domain.shape == "disk":
        n_edges = int(domain.disk_segments * domain.gamma_fraction)
    else:
        n_edges = None
    if n_edges is not None and n_edges < 8 * basis.max_frequency:
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
    label: str = ""

    @property
    def m(self):
        return self.matrix.shape[0]

    def gnorm(self):
        """Operator norm in the Gram geometry (max |generalized eigenvalue|)."""
        from scipy.linalg import eigh
        vals = eigh(self.matrix, self.gram, eigvals_only=True)
        return float(np.max(np.abs(vals)))

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
    the basis loads on the measurement-arc vertices (`fem.gamma_loads`),
    the density means and the Gram matrix (read-only arrays)."""

    vertices: np.ndarray
    loads: np.ndarray          # (len(vertices), m)
    means: np.ndarray
    gram: np.ndarray
    mesh_hash: str
    basis_hash: str


_GAMMA_DATA = {}


def gamma_data(mesh, basis):
    """`GammaData` of a mesh and a basis, computed once per
    (mesh.provenance(), basis.provenance()) and shared by every painting."""
    key = (mesh.provenance(), basis.provenance())

    def build():
        loads, means = fem.gamma_loads(
            mesh, [basis.density(k) for k in range(basis.m)])
        return GammaData(vertices=fem.mesh_terms(mesh).gamma_vertices,
                         loads=loads, means=means, gram=basis.gram(mesh),
                         mesh_hash=key[0], basis_hash=key[1])

    return fem.memo(_GAMMA_DATA, key, build)


def nd_matrix(mesh, fld, basis, rtol=1e-10, label=""):
    """ND matrix of a coefficient field: one block solve over all basis
    densities, then the trace pairings B^T U of loads against potentials.
    Only the painting-dependent work runs per call; the loads and the Gram
    matrix come from `gamma_data`."""
    gd = gamma_data(mesh, basis)
    dofmap = fem.build_dof_map(fld.mesh)
    system = fem.assemble(fld.mesh, fld, dofmap)
    b = np.zeros((dofmap.n_dofs, basis.m))
    b[dofmap.dof_of_vertex[gd.vertices]] = gd.loads
    block = fem.NeumannLoad(b=b, density_mean=gd.means, label=label)
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
                    field_hash=fld.provenance(), mesh_hash=gd.mesh_hash,
                    basis_hash=gd.basis_hash, label=label)


def painted_field(mesh, paint, gamma0):
    """Background field with test inclusions painted onto extreme labels.

    ``paint`` is a sequence of (TestInclusion, label) pairs; later entries
    overwrite earlier ones where they overlap.
    """
    cents = mesh.centroids()
    masks = []
    for test, label in paint:
        if test is None or len(test.parts) == 0:
            continue
        _check_conformity(mesh, test)
        masks.append((test.contains(cents), label))
    return _background_with(mesh, masks, gamma0)


def _background_with(mesh, masks, gamma0):
    """Background field with each (triangle mask, label) painted in order."""
    base = mesh.relabeled({lab: BACKGROUND for lab in REGION_LABELS})
    for mask, label in masks:
        base.triangle_region[mask] = label
    return CoefficientField(mesh=base, gamma0=gamma0)


def extreme_field(mesh, test, kind, gamma0):
    """Background field with the test inclusion painted as an extreme label."""
    if kind not in ("insulating", "conducting"):
        raise NDError(f"unknown extreme kind {kind!r}")
    target = "D0" if kind == "insulating" else "Dinf"
    return painted_field(mesh, [(test, target)], gamma0)


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


def triangle_cells(mesh, fam):
    """Scan-grid cell of every triangle as the flat index i*grid_n + j of
    the cell holding its centroid, -1 outside the window.

    Checks the mesh against the whole grid once: a vertex off the grid
    lines must lie in the cell of each of its triangles, so no union of
    cells is straddled (the `_check_conformity` test for every painting).
    """
    from .polygons import points_segments_distance

    n = fam.grid_n
    x0, y0, _, _ = fam.roi
    w, h = fam.cell_size
    xs = x0 + np.arange(n + 1) * w
    ys = y0 + np.arange(n + 1) * h

    def cell_of(points):
        i = np.searchsorted(xs, points[:, 0], side="right") - 1
        j = np.searchsorted(ys, points[:, 1], side="right") - 1
        return np.where((i >= 0) & (i < n) & (j >= 0) & (j < n), i * n + j, -1)

    cells = cell_of(mesh.centroids())
    seg_a, seg_b = (np.array(s) for s in zip(*fam.grid_segments()))
    off_grid = points_segments_distance(mesh.vertices, seg_a, seg_b,
                                        cutoff=1e-8) > 1e-9
    tv = mesh.triangles
    if np.any(off_grid[tv] & (cell_of(mesh.vertices)[tv] != cells[:, None])):
        raise NDError("mesh does not conform to the scan grid")
    return cells


def cell_painted_field(mesh, cells, paint, gamma0):
    """`painted_field` through a triangle->cell index from `triangle_cells`:
    ``paint`` is a sequence of (flat cell indices, label) pairs; later
    entries overwrite earlier ones."""
    return _background_with(mesh, [(np.isin(cells, ids), label)
                                   for ids, label in paint], gamma0)


def nd_extreme(mesh, test, kind, gamma0, basis, rtol=1e-10):
    """ND matrix with coefficient 0 (insulating) or infinity (conducting) on
    the test inclusion and the constant background outside."""
    fld = extreme_field(mesh, test, kind, gamma0)
    tid = test.id if test is not None else "empty"
    return nd_matrix(mesh, fld, basis, rtol=rtol, label=f"{kind}:{tid}")


def perturb_symmetric(nd, rel_magnitude, seed):
    """Additive symmetric noise scaled by the Frobenius norm (measurement
    noise model for robustness experiments)."""
    if rel_magnitude <= 0:
        return nd
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(nd.matrix.shape)
    noise = 0.5 * (s + s.T)
    noise *= rel_magnitude * np.linalg.norm(nd.matrix) / np.linalg.norm(noise)
    return NDMatrix(matrix=nd.matrix + noise, gram=nd.gram,
                    asymmetry=nd.asymmetry, field_hash=nd.field_hash + "+noise",
                    mesh_hash=nd.mesh_hash, basis_hash=nd.basis_hash,
                    label=nd.label + "+noise")
