"""Per-triangle element integrals: the oracle that the one linear rule of
`src/` (`quadrature.element_rule`, summed by
`coefficient.graded_triangle_integrals`) is tested against.

Each triangle is integrated on its own: `integrate` with the plain order-5
rule on uniform splits, `integrate_graded` node by node over its six
corner-collapsed pieces.  `scalar_dispatch` picks the integrator of one
triangle of a weighted label as the field does.
"""

import numpy as np
from scipy.special import roots_jacobi

from eitmono.coefficient import _FEATURE_TOL

_SQRT15 = np.sqrt(15.0)

# Area-normalized barycentric rule: (points (k,3), weights (k,)), sum(w)=1.
_RULES = {
    # degree-5, 7 points (Strang-Fix)
    "order5": (np.array(
        [[1 / 3, 1 / 3, 1 / 3],
         [(9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21, (6 + _SQRT15) / 21],
         [(6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21, (6 + _SQRT15) / 21],
         [(6 + _SQRT15) / 21, (6 + _SQRT15) / 21, (9 - 2 * _SQRT15) / 21],
         [(9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21, (6 - _SQRT15) / 21],
         [(6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21, (6 - _SQRT15) / 21],
         [(6 - _SQRT15) / 21, (6 - _SQRT15) / 21, (9 + 2 * _SQRT15) / 21]]),
        np.array([9 / 40,
                  (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200, (155 + _SQRT15) / 1200,
                  (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200, (155 - _SQRT15) / 1200])),
}


def triangle_area(tri):
    (x1, y1), (x2, y2), (x3, y3) = tri
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


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


def quad_nodes(tris, rule="order5", splits=0):
    """Physical quadrature nodes and weights for one or more triangles.

    Returns (points (N,2), weights (N,)) with weights summing to the total
    area of the input triangles.
    """
    tris = _split_triangles(tris, splits)
    bary, w = _RULES[rule]
    pts = np.einsum("kj,njd->nkd", bary, tris).reshape(-1, 2)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    areas = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                         - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    weights = (areas[:, None] * w[None, :]).reshape(-1)
    return pts, weights


def integrate(f, tris, rule="order5", splits=0):
    """Integral of f over the union of triangles with a smooth-integrand rule."""
    pts, w = quad_nodes(tris, rule=rule, splits=splits)
    return float(np.dot(np.asarray(f(pts), dtype=float), w))


def integrate_graded(f, tri, vertex, edge, depth=12):
    """Integral of f over one triangle with f ~ r^vertex[k] at corner k and
    f ~ dist^edge[k] on the edge opposite corner k (None where that edge is
    not singular), piece by piece: each of the six triangles (corner,
    midpoint of an edge through it, centroid) is collapsed at its corner by
    x = a + u[(mid - a) + v(g - mid)] and integrated with ``depth`` x
    ``depth`` Gauss–Jacobi nodes for u^(1+s) v^e, the Jacobian taken from
    the map's derivatives at each node."""
    tri = np.asarray(tri, dtype=float)
    g = tri.sum(axis=0) / 3.0
    total = 0.0
    for a in range(3):
        for b in ((a + 1) % 3, (a + 2) % 3):
            s = vertex[a]
            e = edge[3 - a - b] or 0.0
            x, wx = roots_jacobi(depth, 0.0, 1.0 + s)
            y, wy = roots_jacobi(depth, 0.0, e)
            mid = (tri[a] + tri[b]) / 2.0
            for u, wu in zip((1.0 + x) / 2.0, wx / 2.0 ** (2.0 + s)):
                for v, wv in zip((1.0 + y) / 2.0, wy / 2.0 ** (1.0 + e)):
                    du, dv = (mid - tri[a]) + v * (g - mid), u * (g - mid)
                    jac = abs(du[0] * dv[1] - du[1] * dv[0])
                    point = tri[a] + u * du
                    total += wu * wv * jac / (u ** (1.0 + s) * v ** e) \
                        * float(f(point[None, :])[0])
    return total


def scalar_dispatch(tri, w, depth=12, splits=2):
    """The integral of weight ``w`` over one triangle as the field gives
    it: `integrate_graded` at the exponents of the features within
    `_FEATURE_TOL` of its corners and edges, or `integrate` on the triangle
    split ``splits`` times when none touches it."""
    def near(f, pts):
        return np.all(w._feature_distance(f, np.array(pts)) <= _FEATURE_TOL)

    vertex = [sum((f.exponent for f in w.factors
                   if f.kind != "constant" and near(f, [tri[k]])), 0.0)
              for k in range(3)]
    edge = []
    for k in range(3):
        a, b = tri[(k + 1) % 3], tri[(k + 2) % 3]
        hits = [f.exponent for f in w.factors if f.kind == "surface_power"
                and f.exponent != 0.0 and near(f, [a, b, (a + b) / 2.0])]
        edge.append(sum(hits, 0.0) if hits else None)
    if any(s != 0.0 for s in vertex) or any(e is not None for e in edge):
        return integrate_graded(w.eval, tri, vertex, edge, depth=depth)
    return integrate(w.eval, tri[None], rule="order5", splits=splits)
