"""Piecewise-linear finite elements for the weighted Neumann problem.

Insulating regions are removed from the system (their interior vertices
carry no degrees of freedom; the natural zero-flux condition appears on
their boundary), perfectly conducting components are collapsed to a single
degree of freedom each, and the pure-Neumann kernel is grounded with a
Lagrange multiplier enforcing a zero mean on the measurement arc.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .polygons import triangle_areas

class SolverError(RuntimeError):
    pass


class ConfigurationError(ValueError):
    pass


@dataclass
class DofMap:
    """Vertex-to-DOF assignment for a labeled mesh.

    ``dof_of_vertex`` is -1 for removed vertices; the free vertices hold
    the DOFs below ``n_free``, and the vertices of the k-th conducting
    component share the DOF ``n_free + k``.
    """

    dof_of_vertex: np.ndarray
    n_dofs: int
    n_free: int


# The bordered matrix is symmetric, so SuperLU factors it in symmetric mode
# on a minimum-degree ordering of A^T + A: about a third of the L+U fill of
# the default column ordering (46.7k against 150.7k nonzeros on the 1.6k-DOF
# `scan_mixed` data map at seed 0, with the options below).  A system solved
# once (every `nd_matrix`) gets its own MMD ordering; a scan system comes
# `ordered` in its paint template's shared order (the background painting's
# MMD order) and is not reordered.  The diagonal pivot is kept when it is at
# least this fraction of the column maximum; 0, 0.01 and 0.1 gave the same
# fill and residuals on the scan, chain and fine forward systems and up to
# 1e6 contrast.
DIAG_PIVOT_THRESH = 0.1

# SuperLU's plain column kernel: no relaxed supernodes and one-column
# panels, where its defaults are relax 10 and panel_size 20.  The supernodes
# of a 2-D P1 system are narrow, so the relaxed and panel updates cost more
# than they save.  Over every system the benchmark workloads factor at seed
# 0 (`tests/factor_sweep.py`, one BLAS thread), `splu` took 26.3 against
# 35.3 ms on the 27 scan_mixed systems, 8.2 against 10.3 ms on the 5
# chain_weighted ones and 48.9 against 61.7 ms on the 2 forward_fine ones;
# the 16-column solves did not move.  One-column panels give most of the
# saving; without relaxed supernodes forward_fine takes 48.9 against 51.9 ms
# and has 6.6 % fewer L+U nonzeros.
RELAX = 1
PANEL_SIZE = 1


@dataclass
class StiffnessSystem:
    """Grounded stiffness system: the symmetric PSD stiffness matrix over
    the free DOFs bordered by the mean-on-gamma constraint row and column,
    the last column holding the gamma mass of each measurement-arc DOF.
    ``ordered`` marks DOFs already numbered in a fill-reducing order."""

    kmat: sp.csc_matrix
    dofmap: DofMap
    ordered: bool = False
    _factor: object = None

    @property
    def n(self):
        return self.dofmap.n_dofs

    def bordered(self):
        return self.kmat

    @property
    def lu(self):
        """The SuperLU factorization once `factor` has run, else None."""
        return self._factor

    def unfactored(self):
        """The same system without its factorization; `factor` rebuilds it."""
        return replace(self, _factor=None)

    def factor(self):
        """The SuperLU factorization, computed on the first call; raises
        SolverError when SuperLU fails, on a singular matrix say."""
        if self._factor is None:
            try:
                self._factor = spla.splu(
                    self.kmat, permc_spec="NATURAL" if self.ordered else "MMD_AT_PLUS_A",
                    diag_pivot_thresh=DIAG_PIVOT_THRESH, relax=RELAX,
                    panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
            except RuntimeError as exc:
                raise SolverError(f"factorization failed: {exc}") from exc
        return self._factor


@dataclass(frozen=True)
class MeshTerms:
    """Paint-independent arrays of one mesh: the P1 element geometry of
    every triangle and the measurement-arc vertices with their gamma mass."""

    dots: np.ndarray           # (nt, 3, 3) e_i . e_j of the opposite edges
    four_a2: np.ndarray        # (nt,) 4 A^2
    gamma_vertices: np.ndarray
    gamma_mass: np.ndarray     # integral of each gamma vertex's hat trace


def mesh_terms(mesh):
    """`MeshTerms` of a mesh (its labels play no part)."""
    coords = mesh.triangle_coords()
    # Edge vectors opposite each local vertex.
    e = np.stack([coords[:, 2] - coords[:, 1],
                  coords[:, 0] - coords[:, 2],
                  coords[:, 1] - coords[:, 0]], axis=1)
    area = np.abs(triangle_areas(coords))
    edges = mesh.gamma_edges()
    d = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    half = 0.5 * np.hypot(d[:, 0], d[:, 1])
    mass = np.bincount(edges.ravel(), weights=np.repeat(half, 2),
                       minlength=mesh.num_vertices)
    verts = np.unique(edges)
    return MeshTerms(dots=np.einsum("nid,njd->nij", e, e),
                     four_a2=4.0 * area ** 2, gamma_vertices=verts,
                     gamma_mass=mass[verts])


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
    """Discrete current loads: b_i = <f, phi_i> on gamma, projected to the
    gamma-mean-free space, one load per column of ``b`` on the DOFs
    ``rows`` (zero on the others), with the column norms ``norm`` that
    `mean_free_norms` gave when it checked them."""

    b: np.ndarray
    norm: np.ndarray
    rows: np.ndarray

    def bordered(self, n):
        """The right-hand side, one column per load, on a grounded system
        of n DOFs: the loads, then the constraint row, zero (Fortran order,
        as SuperLU takes it)."""
        rhs = np.zeros((n + 1, self.b.shape[1]), order="F")
        rhs[self.rows] = self.b
        return rhs


def mean_free_norms(b):
    """Column norms of a load block, which must be gamma-mean-free."""
    scale = np.maximum(1.0, np.abs(b).sum(axis=0))
    if not np.all(np.abs(np.sum(b, axis=0)) <= 1e-12 * scale):
        raise SolverError("load is not gamma-mean-free")
    return np.linalg.norm(b, axis=0)


def gamma_loads(mesh, terms, densities):
    """Mean-projected loads of each density on the measurement-arc vertices
    of the mesh's `mesh_terms` ``terms``, one column per density.

    Same arithmetic as the per-DOF loads of the tests' reference path,
    accumulated per vertex: gamma vertices are never removed or merged, so
    scattering a column through a DOF map gives that map's load bit for
    bit.
    """
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
    u: np.ndarray          # DOF coefficients, gamma-mean-free representatives, (n, k)
    residual: float
    x: np.ndarray          # the potentials over their multipliers, (n + 1, k)


def column_norms(a):
    """The Euclidean norm of each column of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def residual_misses(rnorm, bnorm, rtol):
    """Columns whose residual norm misses the gate rtol*|b|; a nan
    residual misses it."""
    return np.flatnonzero((bnorm > 0) & ~(rnorm <= rtol * bnorm))


def check_gamma_mean(kmat, u):
    """Every column of the potentials ``u`` must have a zero gamma mean,
    summed over the measurement-arc rows: the rows of the bordered
    matrix's last column, which holds their gamma masses."""
    n = kmat.shape[1] - 1
    span = slice(kmat.indptr[n], kmat.indptr[n + 1])
    arc, mass = kmat.indices[span], kmat.data[span]
    gmean = mass @ u[arc]
    # the scale is at least 1, so only a mean above 1e-10 can miss the gate
    if not (np.abs(gmean) > 1e-10).any():
        return
    gscale = np.maximum(1.0, np.abs(u).max(axis=0) * float(np.sum(mass)))
    bad = np.flatnonzero(np.abs(gmean) > 1e-10 * gscale)
    if len(bad):
        k = bad[0]
        raise SolverError(f"gamma mean {gmean[k]:.3e} not zeroed by the "
                          f"multiplier in column {k}")


def _residual(kmat, x, load):
    """K x minus the load's right-hand side, formed in the product's array;
    the load is subtracted on its rows only."""
    res = kmat @ x
    res[load.rows] -= load.b
    return res


def solve_neumann(system, load, rtol=1e-10):
    """Solve the grounded variational problem for a block of current loads
    (one per column of ``load.b``) with one factorization.

    The returned representatives satisfy the gamma-mean-zero constraint.
    The residual of every column is gated at rtol*|b|.  When a column
    misses the gate after the direct solve, one refinement pass runs on the
    whole block, and a column that still misses it raises SolverError.  The
    pass corrects by a residual formed in extended precision: formed in
    double, the residual of a high-contrast system is mostly the roundoff
    of K x, and a correction by it degrades the solve (the ND asymmetry of
    a 1e4 contrast rose from 3e-16 before the pass to 1e-13..2e-12 after).
    ``residual`` is the (Frobenius) norm over all columns.
    """
    n = system.n
    rhs = load.bordered(n)
    lu = system.factor()
    kmat = system.bordered()
    # SuperLU returns Fortran order; the products below want rows
    x = np.ascontiguousarray(lu.solve(rhs))
    rnorm = column_norms(_residual(kmat, x, load))
    bad = residual_misses(rnorm, load.norm, rtol)
    if len(bad):
        wide = np.longdouble
        x = x + lu.solve((rhs.astype(wide) - kmat.astype(wide) @ x.astype(wide))
                         .astype(float))
        rnorm = column_norms(_residual(kmat, x, load))
        bad = residual_misses(rnorm, load.norm, rtol)
    if len(bad):
        k = bad[0]
        raise SolverError(f"solver residual {rnorm[k]:.3e} exceeds "
                          f"{rtol:.1e}*|b| in column {k}")
    check_gamma_mean(kmat, x[:n])
    return PotentialSolution(u=x[:n], residual=math.sqrt(rnorm @ rnorm), x=x)

