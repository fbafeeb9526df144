"""Reference implementations: the direct loops and sorts that the
vectorized mesher predicates replaced.  The fast paths in
``eitmono.polygons`` and ``eitmono.geometry`` must reproduce them bit for
bit."""

import itertools

import numpy as np

from eitmono import polygons as pg
from eitmono.geometry import _PointRegistry


def ref_crossing_parity(pts, a, b):
    """Dense crossing number: every point against every edge."""
    x = pts[:, 0][:, None]
    y = pts[:, 1][:, None]
    ax, ay = a[:, 0][None, :], a[:, 1][None, :]
    bx, by = b[:, 0][None, :], b[:, 1][None, :]
    cond = (ay > y) != (by > y)
    # Off the edge's slab (cond False) the quotient is never used, and a
    # near-horizontal edge may overflow it there.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    crossing = cond & (x < xint)
    return np.sum(crossing, axis=1) % 2 == 1


def ref_points_in_polygon(pts, poly, boundary=True, tol=1e-12):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)
    inside = ref_crossing_parity(pts, a, b)
    if tol > 0:
        on_edge = pg._points_near_edges(pts, a, b, tol)
        inside = np.where(on_edge, boundary, inside)
    return inside


def ref_segment_point_distance(p, a, b):
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(p - (a + t * ab))))


def ref_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def ref_segments_properly_intersect(a, b, c, d, tol=1e-14):
    o1 = ref_orient(a, b, c)
    o2 = ref_orient(a, b, d)
    o3 = ref_orient(c, d, a)
    o4 = ref_orient(c, d, b)
    return (o1 * o2 < -tol) and (o3 * o4 < -tol)


def ref_polygon_is_simple(poly, tol=1e-12):
    p = np.asarray(poly, dtype=float)
    n = len(p)
    if n < 3:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(p[i] - p[j])) <= tol:
                return False
    edges = [(p[i], p[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            a, b = edges[i]
            c, d = edges[j]
            if adjacent:
                continue
            if ref_segments_properly_intersect(a, b, c, d):
                return False
            for q in (c, d):
                if ref_segment_point_distance(q, a, b) <= tol:
                    if np.hypot(*(q - a)) > tol and np.hypot(*(q - b)) > tol:
                        return False
            for q in (a, b):
                if ref_segment_point_distance(q, c, d) <= tol:
                    if np.hypot(*(q - c)) > tol and np.hypot(*(q - d)) > tol:
                        return False
    return True


def ref_points_segments_distance_kd(pts, a, b, cutoff):
    from scipy.spatial import cKDTree

    mid = (a + b) / 2.0
    half = 0.5 * np.hypot(*(b - a).T)
    radius = cutoff + float(half.max())
    groups = cKDTree(mid).query_ball_point(pts, r=radius)
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    best = np.full(len(pts), cutoff, dtype=float)
    for i, segs in enumerate(groups):
        if not segs:
            continue
        segs = np.asarray(segs)
        ap = pts[i] - a[segs]
        t = np.clip(np.sum(ap * ab[segs], axis=1) / ab2[segs], 0.0, 1.0)
        closest = a[segs] + t[:, None] * ab[segs]
        d = np.hypot(*(pts[i] - closest).T)
        best[i] = min(cutoff, float(d.min()))
    return best


def ref_ball_point_distance_kd(pts, a, b, cutoff):
    """The KD path with its candidate pairs from per-point
    ``query_ball_point`` lists, flattened."""
    from scipy.spatial import cKDTree

    mid = (a + b) / 2.0
    half = 0.5 * np.hypot(*(b - a).T)
    radius = cutoff + float(half.max())
    groups = cKDTree(mid).query_ball_point(pts, r=radius)
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


def ref_edge_keys(simplices, n):
    """Distinct edge keys i*n + j from per-row sorted vertex pairs."""
    e = np.sort(simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = np.sort(e[:, 0].astype(np.int64) * n + e[:, 1])
    return keys[np.append(True, keys[1:] != keys[:-1])]


def ref_edge_owners(tris):
    """Sorted edge pairs and their triangles in `np.lexsort` order."""
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    owner = np.repeat(np.arange(len(tris)), 3)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order], owner[order]


def ref_arrange_segments(segments, extra_points):
    """Pair-by-pair segment arrangement with scalar predicates."""
    reg = _PointRegistry()
    segs = [(np.asarray(a, float), np.asarray(b, float)) for a, b in segments]
    pts_on = [list() for _ in segs]
    boxes = np.array([[min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])]
                      for a, b in segs]) if segs else np.zeros((0, 4))
    tol = pg.SNAP_TOL

    def touches(q, a, b):
        return (ref_segment_point_distance(q, a, b) <= tol
                and np.hypot(*(q - a)) > tol and np.hypot(*(q - b)) > tol)

    for i in range(len(segs)):
        a, b = segs[i]
        others = np.arange(i + 1, len(segs))
        ob = boxes[others]
        mask = ~((ob[:, 0] > boxes[i, 2] + tol) | (ob[:, 2] < boxes[i, 0] - tol)
                 | (ob[:, 1] > boxes[i, 3] + tol) | (ob[:, 3] < boxes[i, 1] - tol))
        for j in others[mask]:
            c, d = segs[j]
            if ref_segments_properly_intersect(a, b, c, d):
                r, s = b - a, d - c
                denom = r[0] * s[1] - r[1] * s[0]
                x = a + ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom * r
                pts_on[i].append(x)
                pts_on[j].append(x)
            else:
                pts_on[i].extend(q for q in (c, d) if touches(q, a, b))
                pts_on[j].extend(q for q in (a, b) if touches(q, c, d))
    for q in extra_points:
        q = np.asarray(q, dtype=float)
        reg.add(q)
        for i, (a, b) in enumerate(segs):
            if touches(q, a, b):
                pts_on[i].append(q)

    subsegments = set()
    for i, (a, b) in enumerate(segs):
        cuts = [(0.0, reg.add(a)), (1.0, reg.add(b))]
        ab = b - a
        denom = float(ab @ ab)
        for x in pts_on[i]:
            cuts.append((float((np.asarray(x) - a) @ ab / denom), reg.add(x)))
        cuts.sort()
        prev = None
        for _, idx in cuts:
            if prev is not None and idx != prev:
                subsegments.add((min(prev, idx), max(prev, idx)))
            prev = idx
    return reg, sorted(subsegments)
