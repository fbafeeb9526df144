"""Triangle quadrature: the element integrals of a power-law weight as one
linear rule.

Every element integral of a weight is a fixed linear functional of its
values, so `element_rule` gives the nodes, weights and owning triangle of
all triangles at once.  A triangle touching a singular feature F of the
weight (f ~ dist(x, F)^s near F) is subdivided geometrically toward F, and
the series is closed with a tail term that is exact for integrands
homogeneous around F, which is what makes deep grading converge instead of
stalling on the truncated innermost cell.
"""

import numpy as np

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

# Uniform 4-way refinements of every plain triangle and every band.
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
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    areas = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                         - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))
    return pts, (areas[:, None] * _WEIGHTS[None, :]).reshape(-1)


def element_rule(tris, vertex, edge, depth):
    """Nodes, weights and owning triangle of the element integrals of an
    (n, 3, 2) array of triangles: the integral of f over triangle i is
    ``np.bincount(owner, f(points) * weights)[i]``.

    ``vertex`` (n, 3) is the homogeneity degree of f at each corner (0 off
    every feature) and ``edge`` (n, 3) its degree on the edge opposite each
    corner (nan off every singular surface).  A triangle with a singular
    edge is cut into ``depth`` >= 1 strips toward its first one, plus one
    probe node for the innermost strip; else one with a singular corner
    into ``depth`` rings toward its first one, the last ring weighted by
    the geometric-series tail; the others take the plain rule.  Each
    triangle's nodes come in the same order whatever else is in the batch.
    """
    on_edge, on_vertex = ~np.isnan(edge), vertex != 0.0
    touched = on_edge.any(axis=1) | on_vertex.any(axis=1)
    graded, plain = np.flatnonzero(touched), np.flatnonzero(~touched)
    strip = on_edge[graded].any(axis=1)
    i = np.where(strip, np.argmax(on_edge[graded], axis=1),
                 np.argmax(on_vertex[graded], axis=1))
    s = np.where(strip, edge[graded, i], vertex[graded, i])
    # Feature corner first: a ring's apex, or the corner opposite a strip's edge.
    f, p, q = np.moveaxis(tris[graded[:, None], (i[:, None] + np.arange(3)) % 3], 1, 0)

    # Band k lies between t = 2^-(k+1) and 2^-k on two rays: from the apex
    # toward p and q for rings, from p and q toward the apex for strips.
    t = 2.0 ** -np.arange(depth + 2.0)[None, :, None]
    sel = strip[:, None]
    a0, b0 = np.where(sel, p, f), np.where(sel, q, f)
    a1, b1 = np.where(sel, f, p), np.where(sel, f, q)
    ray_a = a0[:, None] + (a1 - a0)[:, None] * t
    ray_b = b0[:, None] + (b1 - b0)[:, None] * t
    lo_a, hi_a = ray_a[:, 1:depth + 1], ray_a[:, :depth]
    lo_b, hi_b = ray_b[:, 1:depth + 1], ray_b[:, :depth]
    bands = np.stack([np.stack([lo_a, hi_a, hi_b], axis=2),
                      np.stack([lo_a, hi_b, lo_b], axis=2)], axis=2)
    # Around a corner of degree s each ring is r = 2^-(2+s) times the one
    # outside it, so the last ring and all inside it sum to it times 1/(1-r).
    scale = np.ones((len(graded), depth, 2))
    scale[~strip, -1] = 1.0 / (1.0 - 2.0 ** -(2.0 + s[~strip, None]))

    sub = np.concatenate([tris[plain], bands.reshape(-1, 3, 2)])
    sub_owner = np.concatenate([plain, np.repeat(graded, 2 * depth)])
    sub_scale = np.concatenate([np.ones(len(plain)), scale.reshape(-1)])
    pts, w = quad_nodes(_split_triangles(sub, _SPLITS))
    nodes = len(_WEIGHTS)
    owner = np.repeat(np.tile(sub_owner, 4 ** _SPLITS), nodes)
    w = w * np.repeat(np.tile(sub_scale, 4 ** _SPLITS), nodes)

    # Below the last strip, f = c * eta^s over the affine width
    # elen * (1 - eta/height) integrates in closed form; c is f at the probe
    # node halfway through, so the tail is f(probe) times a fixed weight.
    p, q, f, s = p[strip], q[strip], f[strip], s[strip]
    elen = np.hypot(*(q - p).T)
    height = np.abs((q - p)[:, 0] * (f - p)[:, 1] - (f - p)[:, 0] * (q - p)[:, 1]) / elen
    probe = (ray_a[strip, depth + 1] + ray_b[strip, depth + 1]) / 2.0
    eta_d = 2.0 ** -depth * height
    tail = elen * (eta_d ** (1 + s) / (1 + s) - eta_d ** (2 + s) / ((2 + s) * height)) \
        / (eta_d / 2.0) ** s
    return (np.concatenate([pts, probe]), np.concatenate([w, tail]),
            np.concatenate([owner, graded[strip]]))
