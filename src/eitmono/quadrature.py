"""Triangle quadrature, including dyadically graded rules for power-law
integrands.

The graded rules target integrands behaving like dist(x, F)^s near a feature
F (a point or a segment) located on the triangle boundary.  Grading subdivides
the triangle geometrically toward the feature and closes the series with a
tail term that is exact for integrands homogeneous around the feature, which
is what makes deep grading converge instead of stalling on the truncated
innermost cell.
"""

import numpy as np

_SQRT15 = np.sqrt(15.0)

# Area-normalized barycentric rules: (points (k,3), weights (k,)), sum(w)=1.
_RULES = {
    # degree-1, centroid
    "order1": (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    # degree-2, edge midpoints
    "order2": (np.array([[0.5, 0.5, 0.0],
                         [0.0, 0.5, 0.5],
                         [0.5, 0.0, 0.5]]), np.full(3, 1 / 3)),
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


def _ring_triangles(tri, vidx, k):
    """Two triangles tiling the k-th dyadic ring toward vertex `vidx`."""
    v = tri[vidx]
    a = tri[(vidx + 1) % 3]
    b = tri[(vidx + 2) % 3]
    sa_o, sb_o = v + (a - v) * 2.0 ** (-k), v + (b - v) * 2.0 ** (-k)
    sa_i, sb_i = v + (a - v) * 2.0 ** (-k - 1), v + (b - v) * 2.0 ** (-k - 1)
    return np.array([[sa_i, sa_o, sb_o], [sa_i, sb_o, sb_i]])


def integrate_vertex_graded(f, tri, vidx, exponent, depth=12, rule="order5",
                            splits=1):
    """Integral of f over a triangle when f ~ dist(x, v)^exponent at vertex v.

    Dyadic rings shrink toward the vertex; the innermost similar triangle is
    summed with the geometric-series tail, exact when f is homogeneous of the
    given degree around v.  Requires exponent > -2 for integrability.
    """
    if exponent <= -2.0:
        raise ValueError("vertex exponent must exceed -2 for an integrable singularity")
    tri = np.asarray(tri, dtype=float)
    total = 0.0
    last_ring = 0.0
    for k in range(depth):
        last_ring = integrate(f, _ring_triangles(tri, vidx, k), rule=rule, splits=splits)
        total += last_ring
    q = 2.0 ** (-(2.0 + exponent))
    total += last_ring * q / (1.0 - q)
    return total


def integrate_edge_graded(f, tri, eidx, exponent, depth=12, rule="order5",
                          splits=1):
    """Integral of f over a triangle when f ~ dist(x, E)^exponent at edge E.

    ``eidx`` is the index of the vertex opposite the singular edge.  Strips
    parallel to the edge shrink dyadically; the innermost strip is integrated
    with the closed form for c*eta^s times an affine cross-section width,
    with c calibrated at the deepest computed strip.  Requires exponent > -1.
    """
    if exponent <= -1.0:
        raise ValueError("edge exponent must exceed -1 for an integrable singularity")
    tri = np.asarray(tri, dtype=float)
    c = tri[eidx]
    a = tri[(eidx + 1) % 3]
    b = tri[(eidx + 2) % 3]

    # eta: fraction of the height above edge (a,b); cross-section endpoints.
    def section(t):
        return a + t * (c - a), b + t * (c - b)

    edge = b - a
    elen = float(np.hypot(*edge))
    height = 2.0 * triangle_area(tri) / elen

    total = 0.0
    for k in range(depth):
        t_hi, t_lo = 2.0 ** (-k), 2.0 ** (-k - 1)
        a_hi, b_hi = section(t_hi)
        a_lo, b_lo = section(t_lo)
        strip = np.array([[a_lo, b_lo, b_hi], [a_lo, b_hi, a_hi]])
        total += integrate(f, strip, rule=rule, splits=splits)

    # Innermost trapezoid {0 <= eta <= eta_d}: model f = c_w * eta^s with the
    # affine width w(eta) = elen * (1 - eta/height).
    t_d = 2.0 ** (-depth)
    eta_d = t_d * height
    probe_t = t_d / 2.0
    pa, pb = section(probe_t)
    probe = (pa + pb) / 2.0
    eta_probe = probe_t * height
    c_w = float(np.asarray(f(probe[None, :]), dtype=float)[0]) / eta_probe ** exponent
    s = exponent
    tail = c_w * elen * (eta_d ** (1 + s) / (1 + s)
                         - eta_d ** (2 + s) / ((2 + s) * height))
    return total + tail


def fan_triangles(apex, boundary):
    """Triangles fanning from an apex over a closed polyline boundary."""
    apex = np.asarray(apex, dtype=float)
    bd = np.asarray(boundary, dtype=float)
    nxt = np.roll(bd, -1, axis=0)
    return np.stack([np.broadcast_to(apex, bd.shape), bd, nxt], axis=1)
