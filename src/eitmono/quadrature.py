"""Triangle quadrature: the element integrals of a power-law weight as one
linear rule.

Every element integral of a weight is a fixed linear functional of its
values, so `element_rule` gives the nodes, weights and owning triangle of
all triangles at once.  A triangle touching singular features of the
weight (f ~ dist(x, F)^s near a feature F) is cut into six pieces, each
collapsed at its corner (Duffy, SIAM J. Numer. Anal. 19, 1982), and
integrated with Gauss–Jacobi nodes whose weight carries the power law of
its corner and of its half edge, so every singular corner and edge of a
triangle is graded at once.
"""

import numpy as np
from scipy.special import roots_jacobi

from .polygons import triangle_areas

_SQRT15 = np.sqrt(15.0)

# Degree-5, 7 points (Strang-Fix): barycentric points and area-normalized
# weights, sum 1.
_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [(9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21, (6 + _SQRT15) / 21],
     [(6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21],
     [(6 + _SQRT15) / 21, (6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21],
     [(9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21, (6 - _SQRT15) / 21],
     [(6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21],
     [(6 - _SQRT15) / 21, (6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21]])
_WEIGHTS = np.array([9 / 40,
                     (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200,
                     (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200])

# Uniform 4-way refinements of every plain triangle.
_SPLITS = 2


def _split_triangles(tris, levels):
    """Uniform 4-way refinement of an array of triangles, `levels` times."""
    out = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    for _ in range(levels):
        a, b, c = out[:, 0], out[:, 1], out[:, 2]
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        out = np.concatenate([
            np.stack([a, ab, ca], axis=1),
            np.stack([ab, b, bc], axis=1),
            np.stack([ca, bc, c], axis=1),
            np.stack([ab, bc, ca], axis=1),
        ])
    return out


def quad_nodes(tris):
    """Order-5 nodes and weights of one or more triangles: (points (7n, 2),
    weights (7n,)), rows 7i to 7i+6 on triangle i, weights summing to its
    area."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    pts = np.einsum("kj,njd->nkd", _BARY, tris).reshape(-1, 2)
    return pts, (np.abs(triangle_areas(tris))[:, None] * _WEIGHTS[None, :]).reshape(-1)


def _gauss_jacobi(n, beta):
    """n Gauss–Jacobi nodes and weights on [0, 1] for the weight t^beta."""
    x, w = roots_jacobi(n, 0.0, beta)
    return (1.0 + x) / 2.0, w / 2.0 ** (1.0 + beta)


# The six pieces of a graded triangle as (corner a, far end b of the half
# edge a-mid(a, b), corner opposite that edge).
_PIECES = ((0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0))


def element_rule(tris, vertex, edge, depth):
    """Nodes, weights and owning triangle of the element integrals of an
    (n, 3, 2) array of triangles: the integral of f over triangle i is
    ``np.bincount(owner, f(points) * weights)[i]``.

    ``vertex`` (n, 3) is the homogeneity degree s of f at each corner (0 off
    every feature) and ``edge`` (n, 3) its degree e on the edge opposite each
    corner (nan off every singular surface); a triangle with none takes the
    plain rule.  Any other is cut into six pieces (corner a, midpoint mid of
    an edge through a, centroid g), each collapsed at its corner by
    x = a + u[(mid - a) + v(g - mid)], so that f ~ u^s v^e with e the degree
    of the half edge a-mid (0 when it is not singular).  A piece takes
    ``depth`` x ``depth`` Gauss–Jacobi nodes for the weights u^(1+s) in u
    (the Jacobian is u * area / 3) and v^e in v, each node's weight divided
    by u^s v^e; this needs s > -2 and e > -1.  Each triangle's nodes come
    in the same order whatever else is in the batch.
    """
    touched = (vertex != 0.0).any(axis=1) | ~np.isnan(edge).all(axis=1)
    graded, plain = np.flatnonzero(touched), np.flatnonzero(~touched)
    pts, w = quad_nodes(_split_triangles(tris[plain], _SPLITS))
    points, weights = [pts], [w]
    owners = [np.repeat(np.tile(plain, 4 ** _SPLITS), len(_WEIGHTS))]

    t = tris[graded]
    g = (t[:, 0] + t[:, 1] + t[:, 2]) / 3.0
    third = np.abs(triangle_areas(t)) / 3.0
    degree = np.nan_to_num(edge[graded], nan=0.0)
    for a, b, c in _PIECES:
        mid = (t[:, a] + t[:, b]) / 2.0
        pairs, group = np.unique(np.stack([vertex[graded, a], degree[:, c]], axis=1),
                                 axis=0, return_inverse=True)
        for k, (s, e) in enumerate(pairs):
            on = np.flatnonzero(group.ravel() == k)
            u, wu = _gauss_jacobi(depth, 1.0 + s)
            v, wv = _gauss_jacobi(depth, e)
            node_w = np.outer(wu / u ** s, wv / v ** e).ravel()
            u, v = np.repeat(u, depth)[:, None], np.tile(v, depth)[:, None]
            corner, span, inner = t[on, a], mid[on] - t[on, a], g[on] - mid[on]
            points.append((corner[:, None] + u * (span[:, None] + v * inner[:, None]))
                          .reshape(-1, 2))
            weights.append((third[on, None] * node_w).ravel())
            owners.append(np.repeat(graded[on], depth * depth))
    return np.concatenate(points), np.concatenate(weights), np.concatenate(owners)
