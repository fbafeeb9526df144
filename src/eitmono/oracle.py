"""Independent references for validating the forward solver and ND maps.

The concentric-disk eigenvalues come from separation of variables: with a
centered circular inclusion of radius rho and conductivity kappa in a unit
disk of background gamma0, the trigonometric mode of frequency n solves with
radial profile a*r^n inside and b*r^n + c*r^(-n) outside.  Matching the trace
and the flux at r = rho and applying the unit Neumann datum at r = 1 gives
the voltage-to-current ratio

    lambda_n = (1 + mu*rho^(2n)) / (gamma0 * n * (1 - mu*rho^(2n))),
    mu = (gamma0 - kappa) / (gamma0 + kappa),

with mu = 1 for an insulating inclusion (kappa = 0) and mu = -1 for a
perfectly conducting one (kappa = infinite).

The brute-force ND path takes the DOF map of `ndmap.field_system` and
recomputes the matrix with dense assembly, its own gamma mass and loads, a
dense bordered solve, and entries evaluated through the interior Dirichlet
energy instead of boundary traces.
"""

import math

import numpy as np

from .ndmap import NDMatrix, field_system


def disk_nd_eigenvalue(n, rho, kappa, gamma0_const=1.0):
    """Generalized ND eigenvalue of frequency n for a concentric inclusion.

    ``kappa`` may be 0 (insulating), math.inf (conducting), or any positive
    conductivity; ``rho`` is the inclusion radius in [0, 1).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("inclusion radius must lie in [0, 1)")
    if n < 1:
        raise ValueError("frequency must be >= 1")
    if gamma0_const <= 0:
        raise ValueError("background conductivity must be positive")
    if math.isinf(kappa):
        mu = -1.0
    else:
        if kappa < 0:
            raise ValueError("inclusion conductivity must be nonnegative")
        mu = (gamma0_const - kappa) / (gamma0_const + kappa)
    x = mu * rho ** (2 * n)
    return (1.0 + x) / (gamma0_const * n * (1.0 - x))


# 8-point Gauss-Legendre on [0, 1]; deliberately a different boundary rule
# than the production path uses.
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_GL8_X = 0.5 * (_GL8_X + 1.0)
_GL8_W = 0.5 * _GL8_W


def brute_force_nd(fld, basis, max_vertices=2000):
    """Reference ND matrix of a field on its mesh through an independent
    dense pipeline.

    Guarded to small meshes; raises ValueError beyond ``max_vertices``.
    """
    mesh = fld.mesh
    if mesh.num_vertices > max_vertices:
        raise ValueError(
            f"brute-force path guarded to {max_vertices} vertices "
            f"(mesh has {mesh.num_vertices})")

    dofmap = field_system(fld, basis).dofmap
    n = dofmap.n_dofs
    region = mesh.triangle_region
    sigma_int = fld.element_integrals()

    # Dense assembly with per-triangle barycentric gradients obtained by
    # solving the local linear system (not the edge-rotation formula).
    a = np.zeros((n, n))
    grads = {}
    dv = dofmap.dof_of_vertex
    for t in range(mesh.num_triangles):
        if region[t] in ("D0", "Dinf"):
            continue
        tri = mesh.triangle_coords(t)
        m = np.column_stack([np.ones(3), tri])
        # Rows of the inverse give barycentric gradient coefficients.
        coeff = np.linalg.solve(m, np.eye(3))
        g = coeff[1:, :].T            # (3 vertices, 2 components)
        grads[t] = g
        area = abs(np.linalg.det(m)) / 2.0
        local = sigma_int[t] * (g @ g.T)
        idx = dv[mesh.triangles[t]]
        for p in range(3):
            for q in range(3):
                a[idx[p], idx[q]] += local[p, q]

    # c_i = integral over gamma of the i-th hat function trace.
    c = np.zeros(n)
    for i, j in mesh.gamma_edges():
        half = 0.5 * float(np.hypot(*(mesh.vertices[j] - mesh.vertices[i])))
        c[dv[i]] += half
        c[dv[j]] += half
    k = np.zeros((n + 1, n + 1))
    k[:n, :n] = a
    k[:n, n] = c
    k[n, :n] = c

    # Loads with the alternative boundary rule.
    loads = []
    for kb in range(basis.m):
        density = basis.density(kb)
        b = np.zeros(n)
        total_f = 0.0
        total_len = 0.0
        for i, j in mesh.gamma_edges():
            pi, pj = mesh.vertices[i], mesh.vertices[j]
            length = float(np.hypot(*(pj - pi)))
            pts = pi[None, :] + _GL8_X[:, None] * (pj - pi)[None, :]
            fv = np.asarray(density(pts), dtype=float)
            w = _GL8_W * length
            b[dv[i]] += float(np.sum(w * fv * (1.0 - _GL8_X)))
            b[dv[j]] += float(np.sum(w * fv * _GL8_X))
            total_f += float(np.sum(w * fv))
            total_len += length
        b -= (total_f / total_len) * c
        loads.append(b)

    sols = []
    for b in loads:
        rhs = np.concatenate([b, [0.0]])
        sols.append(np.linalg.solve(k, rhs)[:n])

    # Entries through the interior energy pairing.
    lmat = np.zeros((basis.m, basis.m))
    items = sorted(grads.items())
    tri_idx = np.array([t for t, _ in items], dtype=int)
    gstack = np.stack([g for _, g in items])        # (nt_active, 3, 2)
    weights = sigma_int[tri_idx]
    dofs = dv[mesh.triangles[tri_idx]]
    for j in range(basis.m):
        gu_j = np.einsum("tv,tvd->td", sols[j][dofs], gstack)
        for kb in range(j, basis.m):
            gu_k = np.einsum("tv,tvd->td", sols[kb][dofs], gstack)
            val = float(np.sum(weights * np.sum(gu_j * gu_k, axis=1)))
            lmat[j, kb] = val
            lmat[kb, j] = val

    return NDMatrix(matrix=lmat, gram=basis.gram(mesh), asymmetry=0.0,
                    field_hash=fld.provenance(), mesh_hash=mesh.provenance(),
                    basis_hash=basis.provenance())
