"""Planar polygon and segment predicates used by the geometry layer.

All polygons are numpy arrays of shape (n, 2) listing vertices of a simple
closed polygon (last vertex implicitly connects to the first).  No
predicate reads the orientation: region membership is by crossing parity,
so a polygon nested in another of its region cuts a hole either way round.
"""

import numpy as np

# Coordinates closer than this are treated as the same point when snapping
# arrangement vertices.  Features in this package live at scale O(1).
SNAP_TOL = 1e-9


def triangle_areas(coords):
    """Signed areas of an (n, 3, 2) array of triangles; positive for
    counter-clockwise corners."""
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def stable_order(keys):
    """The permutation that stably sorts non-negative integer keys, equal to
    ``np.argsort(keys, kind="stable")``.

    One unstable sort of the distinct composite keys key * n + position
    gives it, whichever sort numpy picks; the composite must fit in int64.
    """
    keys = np.asarray(keys)
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    if keys.min() < 0 or int(keys.max()) > (np.iinfo(np.int64).max - (n - 1)) // n:
        raise ValueError(f"stable_order: keys must lie in [0, (2**63 - {n}) // {n}]")
    composite = keys.astype(np.int64)
    composite *= n
    composite += np.arange(n)
    composite.sort()
    composite %= n
    return composite


def box_pairs(lo, hi, tol):
    """Index pairs (i, j), i < j, of the finite boxes [lo, hi] (arrays of
    shape (n, 2)) that come within ``tol`` of each other on both axes, in
    (i, j) order.

    The pairs are those of the all-pairs filter ``not (lo[j] > hi[i] + tol
    or hi[j] < lo[i] - tol)`` on both axes, which decides every candidate
    of a sweep over the boxes sorted by x-min: each box meets the boxes
    after it whose x-min lies within its x-max plus a padded tol, so the
    work is O(n log n + pairs overlapping in x)."""
    n = len(lo)
    order = np.argsort(lo[:, 0])
    xs = lo[order, 0]
    # The pad covers the roundoff of lo[i] - tol against hi[j] + tol.
    pad = 2 * tol + 4 * np.finfo(float).eps * (float(np.abs(lo).max(initial=0.0))
                                                + float(np.abs(hi).max(initial=0.0)))
    stop = np.searchsorted(xs, hi[order, 0] + pad, side="right")
    counts = np.maximum(stop - np.arange(1, n + 1), 0)
    first = np.repeat(np.arange(n), counts)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(counts) - counts, counts)
    p, q = order[first], order[second]
    i, j = np.minimum(p, q), np.maximum(p, q)
    near = ~((lo[j, 0] > hi[i, 0] + tol) | (hi[j, 0] < lo[i, 0] - tol)
             | (lo[j, 1] > hi[i, 1] + tol) | (hi[j, 1] < lo[i, 1] - tol))
    keys = np.sort(i[near].astype(np.int64) * n + j[near])
    return keys // n, keys % n


def points_in_polygon(points, poly, tol=1e-12):
    """Crossing-number membership test for an array of points.

    With ``tol`` > 0, points within ``tol`` of an edge count as inside;
    ``tol`` = 0 keeps the bare crossing parity.  Vectorized over
    ``points``; the polygon may be CW or CCW.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = np.asarray(poly, dtype=float)
    a = p
    b = np.roll(p, -1, axis=0)
    inside = _crossing_parity(pts, a, b)
    if tol > 0:
        on_edge = _points_near_edges(pts, a, b, tol)
        inside |= on_edge
    return inside


def _slab_pairs(pts, lo, hi, closed=False):
    """Each edge k beside each point whose y lies in its slab [lo[k],
    hi[k]) (closed: [lo[k], hi[k]]), as index arrays (edge, point).

    With the points sorted by y once, each edge visits its slab only, so
    the work is O(P log P + pairs) rather than P x E.
    """
    order = np.argsort(pts[:, 1])
    ys = pts[order, 1]
    first = np.searchsorted(ys, lo, side="left")
    counts = np.searchsorted(ys, hi, side="right" if closed else "left") - first
    edge = np.repeat(np.arange(len(lo)), counts)
    rank = np.arange(len(edge)) - np.repeat(np.cumsum(counts) - counts, counts)
    return edge, order[np.repeat(first, counts) + rank]


def _crossing_parity(pts, a, b):
    """Even-odd count of the edges (a[k], b[k]) crossed by the ray from each
    point to the right.

    Edge k can only cross the points whose y lies in its half-open slab
    [min(ay, by), max(ay, by)), which is exactly where (ay > y) != (by > y).
    """
    edge, pt = _slab_pairs(pts, np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1]))
    x, y = pts[pt, 0], pts[pt, 1]
    ax, ay = a[edge, 0], a[edge, 1]
    bx, by = b[edge, 0], b[edge, 1]
    xint = ax + (y - ay) * (bx - ax) / (by - ay)
    crossed = np.bincount(pt[x < xint], minlength=len(pts))
    return crossed % 2 == 1


def _points_near_edges(pts, a, b, tol):
    """True per point when within tol of any edge (a[i], b[i]).

    Only the points whose y is within 2 tol (plus the roundoff of the
    closest point) of an edge's y range can be within tol of it, so each
    edge is measured against its widened slab only."""
    ay, by = a[:, 1], b[:, 1]
    pad = 2 * tol + 4 * np.finfo(float).eps * (np.abs(ay) + np.abs(by))
    edge, pt = _slab_pairs(pts, np.minimum(ay, by) - pad, np.maximum(ay, by) + pad,
                           closed=True)
    d2 = np.sum(_gaps(pts[pt], a[edge], b[edge]) ** 2, axis=1)
    near = np.zeros(len(pts), dtype=bool)
    near[pt[d2 <= tol * tol]] = True
    return near


def points_in_region(points, polys):
    """Membership in a region given as oriented polygons (CW acts as hole).

    Implemented with the winding-parity convention: a point belongs to the
    region when it lies inside an odd number of the listed polygons, each
    by its bare crossing parity.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    count = np.zeros(len(pts), dtype=int)
    for poly in polys:
        count += points_in_polygon(pts, poly, tol=0.0).astype(int)
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


def _gaps(p, a, b):
    """p minus its closest point on segment ab, over broadcast (..., 2)
    arrays; a zero-length segment's closest point is a."""
    ab = b - a
    ab2 = np.sum(ab * ab, axis=-1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    t = np.clip(np.sum((p - a) * ab, axis=-1) / ab2, 0.0, 1.0)
    return p - (a + t[..., None] * ab)


def points_segments_distance(pts, seg_a, seg_b, cutoff=None):
    """Min distance from each point to a family of segments (vectorized),
    each measured to the segment's closest point (`_gaps`).

    With ``cutoff`` given, distances above it are reported as cutoff (allows
    a KD-tree prefilter; use when only nearby segments matter).  Without
    it, the points meet the segments in chunks of at most about 2e6 pairs.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.atleast_2d(np.asarray(seg_a, dtype=float))
    b = np.atleast_2d(np.asarray(seg_b, dtype=float))
    if cutoff is not None and len(a) > 64 and len(pts) > 256:
        return _points_segments_distance_kd(pts, a, b, cutoff)
    best = np.full(len(pts), np.inf)
    # Chunk over segments to bound memory.
    step = max(1, int(2e6 / max(len(pts), 1)))
    for i in range(0, len(a), step):
        d2 = np.sum(_gaps(pts[:, None], a[i:i + step], b[i:i + step]) ** 2, axis=2)
        best = np.minimum(best, np.sqrt(np.min(d2, axis=1)))
    return best


def _points_segments_distance_kd(pts, a, b, cutoff):
    """`points_segments_distance` with a cutoff over the candidate pairs of
    a KD-tree search: every segment within ``cutoff`` of a point has its
    midpoint within ``cutoff`` plus the largest half-length, and the minimum
    over any superset of those candidates is the same."""
    from scipy.spatial import cKDTree

    mid = (a + b) / 2.0
    half = 0.5 * np.hypot(*(b - a).T)
    radius = cutoff + float(half.max())
    pairs = cKDTree(pts).sparse_distance_matrix(cKDTree(mid), radius,
                                                output_type="ndarray")
    owner, segs = pairs["i"], pairs["j"]
    d = np.hypot(*_gaps(pts[owner], a[segs], b[segs]).T)
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


def polygon_is_simple(poly, tol=1e-12):
    """Check that no two non-adjacent edges intersect and no vertex repeats.

    Only edges whose boxes come within tol can share a point within tol,
    and edge k's box holds vertex k, so every test runs on the `box_pairs`
    within 2 tol (the margin keeps a distance that rounds to tol)."""
    p = np.asarray(poly, dtype=float)
    n = len(p)
    if n < 3:
        return False
    q = np.roll(p, -1, axis=0)
    i, j = box_pairs(np.minimum(p, q), np.maximum(p, q), 2 * tol)
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
    # Degenerate touch: an endpoint of one edge in the interior of the
    # other (the four endpoint-edge cases stacked into one call).
    return not np.any(touches_segment_interior(np.concatenate([c, d, a, b]),
                                               np.concatenate([a, a, c, c]),
                                               np.concatenate([b, b, d, d]), tol))


def regular_polygon(center, radius, n, phase=0.0):
    """Vertices of a regular n-gon inscribed in the circle of given radius."""
    theta = phase + 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([center[0] + radius * np.cos(theta),
                            center[1] + radius * np.sin(theta)])


def rectangle(x0, y0, x1, y1):
    """CCW rectangle polygon."""
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
