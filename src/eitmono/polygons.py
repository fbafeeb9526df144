"""Planar polygon and segment predicates used by the geometry layer.

All polygons are numpy arrays of shape (n, 2) listing vertices of a simple
closed polygon (last vertex implicitly connects to the first).  Orientation
matters where documented: counter-clockwise (positive signed area) polygons
are solid, clockwise polygons act as holes.
"""

import itertools

import numpy as np

# Coordinates closer than this are treated as the same point when snapping
# arrangement vertices.  Features in this package live at scale O(1).
SNAP_TOL = 1e-9


def signed_area(poly):
    """Signed area of a polygon; positive for counter-clockwise vertex order."""
    p = np.asarray(poly, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_area(poly):
    return abs(signed_area(poly))


def ensure_ccw(poly):
    """Return the polygon with counter-clockwise orientation."""
    p = np.asarray(poly, dtype=float)
    return p if signed_area(p) >= 0 else p[::-1].copy()


def points_in_polygon(points, poly, boundary=True, tol=1e-12):
    """Crossing-number membership test for an array of points.

    Points within ``tol`` of an edge count as inside iff ``boundary`` is
    True.  Vectorized over ``points``; the polygon may be CW or CCW.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.asarray(poly, dtype=float)
    a = p
    b = np.roll(p, -1, axis=0)
    inside = _crossing_parity(pts, a, b)
    if tol > 0:
        on_edge = _points_near_edges(pts, a, b, tol)
        inside = np.where(on_edge, boundary, inside)
    if np.isscalar(points[0]) if isinstance(points, (list, tuple)) else (np.asarray(points).ndim == 1):
        return bool(inside[0])
    return inside


def _crossing_parity(pts, a, b):
    """Even-odd count of the edges (a[k], b[k]) crossed by the ray from each
    point to the right.

    Edge k can only cross the points whose y lies in its half-open slab
    [min(ay, by), max(ay, by)), which is exactly where (ay > y) != (by > y).
    With the points sorted by y once, each edge visits its slab only, so the
    work is O(P log P + crossings) rather than P x E.
    """
    order = np.argsort(pts[:, 1])
    ys = pts[order, 1]
    lo = np.searchsorted(ys, np.minimum(a[:, 1], b[:, 1]), side="left")
    hi = np.searchsorted(ys, np.maximum(a[:, 1], b[:, 1]), side="left")
    counts = hi - lo
    edge = np.repeat(np.arange(len(a)), counts)
    rank = np.arange(len(edge)) - np.repeat(np.cumsum(counts) - counts, counts)
    pt = order[np.repeat(lo, counts) + rank]
    x, y = pts[pt, 0], pts[pt, 1]
    ax, ay = a[edge, 0], a[edge, 1]
    bx, by = b[edge, 0], b[edge, 1]
    xint = ax + (y - ay) * (bx - ax) / (by - ay)
    crossed = np.bincount(pt[x < xint], minlength=len(pts))
    return crossed % 2 == 1


def _points_near_edges(pts, a, b, tol):
    """True per point when within tol of any edge (a[i], b[i])."""
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(ap * ab[None, :, :], axis=2) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d2 = np.sum((pts[:, None, :] - closest) ** 2, axis=2)
    return np.any(d2 <= tol * tol, axis=1)


def point_in_polygon(point, poly, boundary=True, tol=1e-12):
    return bool(points_in_polygon(np.asarray(point, dtype=float)[None, :], poly,
                                  boundary=boundary, tol=tol)[0])


def points_in_region(points, polys, tol=1e-12):
    """Membership in a region given as oriented polygons (CW acts as hole).

    Implemented with the winding-parity convention: a point belongs to the
    region when it lies inside an odd number of the listed polygons.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    count = np.zeros(len(pts), dtype=int)
    for poly in polys:
        count += points_in_polygon(pts, poly, boundary=True, tol=tol).astype(int)
    return count % 2 == 1


def _dot2(u, v):
    """Dot products of 2-vectors along the last axis, bit for bit equal to
    ``u[k] @ v[k]`` per row: the stacked matmul runs the same dot kernel,
    which may fuse the multiply-add, so ``u0*v0 + u1*v1`` can differ in the
    last bit."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def segment_point_distance(p, a, b):
    """Distance from point p to segment ab; elementwise over stacked points
    and segments (arrays of shape (..., 2))."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = _dot2(ab, ab)
    degenerate = denom == 0.0
    t = np.clip(_dot2(p - a, ab) / np.where(degenerate, 1.0, denom), 0.0, 1.0)
    t = np.where(degenerate, 0.0, t)
    gap = p - (a + t[..., None] * ab)
    d = np.hypot(gap[..., 0], gap[..., 1])
    return float(d) if d.ndim == 0 else d


def touches_segment_interior(q, a, b, tol):
    """True where point q lies within tol of segment ab but farther than
    tol from both of its endpoints (elementwise)."""
    qa = q - a
    qb = q - b
    return ((segment_point_distance(q, a, b) <= tol)
            & (np.hypot(qa[..., 0], qa[..., 1]) > tol)
            & (np.hypot(qb[..., 0], qb[..., 1]) > tol))


def points_segments_distance(pts, seg_a, seg_b, cutoff=None):
    """Min distance from each point to a family of segments (vectorized).

    With ``cutoff`` given, distances above it are reported as cutoff (allows
    a KD-tree prefilter; use when only nearby segments matter).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.atleast_2d(np.asarray(seg_a, dtype=float))
    b = np.atleast_2d(np.asarray(seg_b, dtype=float))
    if cutoff is not None and len(a) > 64 and len(pts) > 256:
        return _points_segments_distance_kd(pts, a, b, cutoff)
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    best = np.full(len(pts), np.inf)
    # Chunk over segments to bound memory.
    step = max(1, int(2e6 / max(len(pts), 1)))
    for i in range(0, len(a), step):
        aa, bb = a[i:i + step], b[i:i + step]
        abab = ab[i:i + step]
        t = np.sum((pts[:, None, :] - aa[None, :, :]) * abab[None, :, :], axis=2)
        t = np.clip(t / ab2[i:i + step][None, :], 0.0, 1.0)
        closest = aa[None, :, :] + t[:, :, None] * abab[None, :, :]
        d2 = np.sum((pts[:, None, :] - closest) ** 2, axis=2)
        best = np.minimum(best, np.sqrt(np.min(d2, axis=1)))
    return best


def _points_segments_distance_kd(pts, a, b, cutoff):
    from scipy.spatial import cKDTree

    mid = (a + b) / 2.0
    half = 0.5 * np.hypot(*(b - a).T)
    radius = cutoff + float(half.max())
    tree = cKDTree(mid)
    groups = tree.query_ball_point(pts, r=radius)
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    segs = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp,
                       count=int(sizes.sum()))
    owner = np.repeat(np.arange(len(pts)), sizes)
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    ap = pts[owner] - a[segs]
    t = np.clip(np.sum(ap * ab[segs], axis=1) / ab2[segs], 0.0, 1.0)
    closest = a[segs] + t[:, None] * ab[segs]
    d = np.hypot(*(pts[owner] - closest).T)
    best = np.full(len(pts), cutoff, dtype=float)
    np.minimum.at(best, owner, d)
    return best


def _orient(a, b, c):
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def segments_properly_intersect(a, b, c, d, tol=1e-14):
    """True where open segments ab and cd cross at an interior point
    (elementwise over stacked segments)."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    return (o1 * o2 < -tol) & (o3 * o4 < -tol)


def segment_intersection_point(a, b, c, d):
    """Intersection point of the lines through ab and cd (assumed
    non-parallel); elementwise over stacked segments."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c = np.asarray(c, float)
    d = np.asarray(d, float)
    r = b - a
    s = d - c
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    t = ((c[..., 0] - a[..., 0]) * s[..., 1] - (c[..., 1] - a[..., 1]) * s[..., 0]) / denom
    return a + t[..., None] * r


# Vertex and edge pairs are tested in blocks of this many pairs, which
# bounds the memory of the all-pairs predicates on large polygons.
_PAIR_BLOCK = 1 << 16


def polygon_is_simple(poly, tol=1e-12):
    """Check that no two non-adjacent edges intersect and no vertex repeats."""
    p = np.asarray(poly, dtype=float)
    n = len(p)
    if n < 3:
        return False
    q = np.roll(p, -1, axis=0)
    first, second = np.triu_indices(n, 1)
    for s in range(0, len(first), _PAIR_BLOCK):
        i, j = first[s:s + _PAIR_BLOCK], second[s:s + _PAIR_BLOCK]
        gap = p[i] - p[j]
        if np.any(np.hypot(gap[:, 0], gap[:, 1]) <= tol):
            return False
        # Edge k runs from p[k] to q[k]; edges i < j are adjacent when they
        # share a vertex (j == i + 1, or the closing pair 0 and n - 1).
        apart = (j != i + 1) & ~((i == 0) & (j == n - 1))
        i, j = i[apart], j[apart]
        a, b, c, d = p[i], q[i], p[j], q[j]
        if np.any(segments_properly_intersect(a, b, c, d)):
            return False
        # Degenerate touch: an endpoint of one edge in the interior of the other.
        if np.any(touches_segment_interior(c, a, b, tol)
                  | touches_segment_interior(d, a, b, tol)
                  | touches_segment_interior(a, c, d, tol)
                  | touches_segment_interior(b, c, d, tol)):
            return False
    return True


def polygons_edges_cross(poly_a, poly_b, tol=1e-14):
    """True when some edge of poly_a and some edge of poly_b cross at a
    point interior to both (``segments_properly_intersect`` over all edge
    pairs)."""
    pa = np.asarray(poly_a, dtype=float)
    pb = np.asarray(poly_b, dtype=float)
    qa = np.roll(pa, -1, axis=0)
    qb = np.roll(pb, -1, axis=0)
    rows = max(1, _PAIR_BLOCK // max(len(pb), 1))
    for s in range(0, len(pa), rows):
        if np.any(segments_properly_intersect(pa[s:s + rows, None], qa[s:s + rows, None],
                                              pb[None], qb[None], tol)):
            return True
    return False


def _interior_probe(poly):
    """A point strictly inside a simple polygon (ear-based probe)."""
    p = ensure_ccw(poly)
    n = len(p)
    for i in range(n):
        a, b, c = p[i - 1], p[i], p[(i + 1) % n]
        if _orient(a, b, c) <= 0:
            continue
        probe = (a + b + c) / 3.0
        if point_in_polygon(probe, p, boundary=False, tol=0.0):
            others = np.array([p[j] for j in range(n) if j not in (i - 1 if i > 0 else n - 1, i, (i + 1) % n)])
            if len(others) == 0 or not points_in_polygon(others, np.array([a, b, c]), boundary=False, tol=0.0).any():
                return probe
    return p.mean(axis=0)


def regular_polygon(center, radius, n, phase=0.0):
    """Vertices of a regular n-gon inscribed in the circle of given radius."""
    theta = phase + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([center[0] + radius * np.cos(theta),
                            center[1] + radius * np.sin(theta)])


def rectangle(x0, y0, x1, y1):
    """CCW rectangle polygon."""
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
