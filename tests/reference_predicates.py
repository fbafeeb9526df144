"""Reference implementations: the direct loops and sorts that the
vectorized mesher predicates replaced, the all-pairs box and edge scans
that ``polygons.box_pairs`` replaced, the grid-graph hole fill that
``scipy.ndimage`` replaced and the all-segments grid distance that
``reconstruction.grid_cells`` replaced.  The fast paths in ``eitmono.polygons``,
``eitmono.geometry`` and ``eitmono.reconstruction`` must reproduce them bit
for bit.  ``ref_probe_overlaps`` keeps the sampled overlap clause that the
mesher's centroid labels replaced, as the bar those labels must clear."""

import itertools
import math

import numpy as np

from eitmono import polygons as pg
from eitmono.geometry import connected_labels
from eitmono.ndmap import NDError


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


def ref_points_near_edges(pts, a, b, tol):
    """Dense distance test: every point against every edge."""
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(ap * ab[None, :, :], axis=2) / ab2[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d2 = np.sum((pts[:, None, :] - closest) ** 2, axis=2)
    return np.any(d2 <= tol * tol, axis=1)


def ref_points_in_polygon(pts, poly, tol=1e-12):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)
    inside = ref_crossing_parity(pts, a, b)
    if tol > 0:
        on_edge = ref_points_near_edges(pts, a, b, tol)
        inside = np.where(on_edge, True, inside)
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


def ref_points_segments_distance_dense(pts, a, b):
    """The chunked all-pairs distance loop with its closest-point arithmetic
    written out: `polygons.points_segments_distance` without a cutoff."""
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    best = np.full(len(pts), np.inf)
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


class RefPointRegistry:
    """Arrangement points keyed by their coordinates rounded to the
    SNAP_TOL lattice, numbered in order of first addition."""

    def __init__(self):
        self.points = []
        self.index = {}

    def add(self, p):
        tol = pg.SNAP_TOL
        key = (round(p[0] / tol) * tol, round(p[1] / tol) * tol)
        idx = self.index.get(key)
        if idx is None:
            idx = len(self.points)
            self.points.append(np.array([key[0], key[1]], dtype=float))
            self.index[key] = idx
        return idx

    def array(self):
        return np.array(self.points, dtype=float)


def ref_chop_to_length(reg, subsegments, max_len):
    """Split subsegments into pieces no longer than max_len, one chop point
    at a time."""
    out = []
    pts = reg.array()
    for i, j in subsegments:
        a, b = pts[i], pts[j]
        length = float(np.hypot(*(b - a)))
        parts = max(1, int(math.ceil(length / max_len)))
        prev = i
        for k in range(1, parts):
            idx = reg.add(a + (b - a) * (k / parts))
            out.append((min(prev, idx), max(prev, idx)))
            prev = idx
        out.append((min(prev, j), max(prev, j)))
    return out


def ref_arrange_segments(segments, extra_points):
    """Pair-by-pair segment arrangement with scalar predicates."""
    reg = RefPointRegistry()
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


def ref_polygons_edges_cross(pa, pb):
    """Some edge of pa and some edge of pb cross properly, pair by pair."""
    return any(ref_segments_properly_intersect(pa[k], pa[(k + 1) % len(pa)],
                                               pb[m], pb[(m + 1) % len(pb)])
               for k in range(len(pa)) for m in range(len(pb)))


def ref_validate_regions(domain, regions):
    """`validate_regions` polygon by polygon and pair by pair."""
    from eitmono.geometry import GeometryError

    violations = []
    all_polys = regions.all_polys()
    for label, poly in all_polys:
        if not ref_polygon_is_simple(poly):
            raise GeometryError(f"self-intersecting polygon in {label}")

    bp = domain.boundary_polygon
    for label, poly in all_polys:
        if not ref_points_in_polygon(poly, bp).all():
            violations.append(f"{label} polygon extends outside the domain")

    # each unordered label pair is reported once, at its first occurrence
    seen = set()
    for (la, pa), (lb, pb) in itertools.combinations(all_polys, 2):
        if la != lb and frozenset((la, lb)) not in seen and \
                ref_polygons_edges_cross(pa, pb):
            seen.add(frozenset((la, lb)))
            violations.append(f"regions {la} and {lb} overlap (edges cross)")
    return violations


def signed_area(poly):
    """Signed area of a polygon; positive for counter-clockwise vertex order."""
    p = np.asarray(poly, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ensure_ccw(poly):
    """Return the polygon with counter-clockwise orientation."""
    p = np.asarray(poly, dtype=float)
    return p if signed_area(p) >= 0 else p[::-1].copy()


def _interior_probe(poly):
    """A point strictly inside a simple polygon (ear-based probe)."""
    p = ensure_ccw(poly)
    n = len(p)
    for i in range(n):
        a, b, c = p[i - 1], p[i], p[(i + 1) % n]
        if pg._orient(a, b, c) <= 0:
            continue
        probe = (a + b + c) / 3.0
        if pg.points_in_polygon(probe[None, :], p, tol=0.0)[0]:
            others = np.array([p[j] for j in range(n) if j not in (i - 1 if i > 0 else n - 1, i, (i + 1) % n)])
            if len(others) == 0 or not pg.points_in_polygon(others, np.array([a, b, c]), tol=0.0).any():
                return probe
    return p.mean(axis=0)


def ref_probe_overlaps(regions):
    """The interior-probe overlap clause: polygon a overlaps label lb when
    its interior probe lies in both its own label's region and lb's.  It
    samples one point per polygon, so it misses overlaps away from the
    probes; each unordered label pair is reported once."""
    seen = set()
    violations = []
    for (la, pa), (lb, _) in itertools.permutations(regions.all_polys(), 2):
        if la == lb or frozenset((la, lb)) in seen:
            continue
        probe = _interior_probe(pa)[None, :]
        if pg.points_in_region(probe, regions.label_polys(la))[0] and \
                pg.points_in_region(probe, regions.label_polys(lb))[0]:
            seen.add(frozenset((la, lb)))
            violations.append(f"regions {la} and {lb} overlap")
    return violations


def ref_fill_enclosed(outside):
    """`reconstruction.fill_enclosed` through `connected_labels` on the
    4-neighbour graph of the outside cells: cells whose component misses
    the window border flip to inside.  Returns (inside_after_fill,
    n_filled)."""
    n = outside.shape[0]
    ids = np.arange(n * n).reshape(n, n)
    pairs = np.concatenate([np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
                            np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)])
    labels = connected_labels(n * n, pairs[outside.ravel()[pairs].all(axis=1)])
    labels = labels.reshape(n, n)
    border = np.zeros_like(outside)
    border[[0, -1], :] = border[:, [0, -1]] = True
    reach = outside & np.isin(labels, labels[border & outside])
    pockets = outside & ~reach
    return ~(outside & reach), int(np.sum(pockets))


def ref_grid_off_grid(points, fam):
    """Points farther than 1e-9 from every grid segment, each point
    measured against each segment of ``fam.grid_segments()``."""
    seg_a, seg_b = (np.array(s) for s in zip(*fam.grid_segments()))
    return pg.points_segments_distance(points, seg_a, seg_b, cutoff=1e-8) > 1e-9


def ref_grid_cells(mesh, fam):
    """`reconstruction.grid_cells` on `ref_grid_off_grid`."""
    cell = fam.cell_of(mesh.centroids())
    off_grid = ref_grid_off_grid(mesh.vertices, fam)
    tris = mesh.triangles
    if np.any(off_grid[tris] & (fam.cell_of(mesh.vertices)[tris] != cell[:, None])):
        raise NDError("mesh does not conform to the scan grid")
    return cell


# Vertex and edge pairs are tested in blocks of this many pairs, which
# bounds the memory of the all-pairs predicates on large polygons.
_PAIR_BLOCK = 1 << 16


def ref_box_pairs(lo, hi, tol):
    """Pairs i < j of boxes that overlap when widened by tol, in row
    order, from the all-pairs filter in blocks of 256 rows."""
    n = len(lo)
    first, second = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for r0 in range(0, n, 256):
        rows = np.arange(r0, min(n, r0 + 256))
        near = ~((lo[None, :, 0] > hi[rows, None, 0] + tol)
                 | (hi[None, :, 0] < lo[rows, None, 0] - tol)
                 | (lo[None, :, 1] > hi[rows, None, 1] + tol)
                 | (hi[None, :, 1] < lo[rows, None, 1] - tol))
        r, c = np.nonzero(near & (np.arange(n)[None, :] > rows[:, None]))
        first.append(rows[r])
        second.append(c)
    return np.concatenate(first), np.concatenate(second)


def ref_polygon_is_simple_all_pairs(poly, tol=1e-12):
    """`polygon_is_simple` over every vertex pair and every edge pair, in
    blocks of `_PAIR_BLOCK` pairs."""
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
        apart = (j != i + 1) & ~((i == 0) & (j == n - 1))
        i, j = i[apart], j[apart]
        a, b, c, d = p[i], q[i], p[j], q[j]
        if np.any(pg.segments_properly_intersect(a, b, c, d)):
            return False
        if np.any(pg.touches_segment_interior(np.concatenate([c, d, a, b]),
                                              np.concatenate([a, a, c, c]),
                                              np.concatenate([b, b, d, d]), tol)):
            return False
    return True


def ref_polygons_edges_cross_all_pairs(poly_a, poly_b, tol=1e-14):
    """The crossing clause of `validate_regions` for two polygons over
    every edge pair, in row blocks."""
    pa = np.asarray(poly_a, dtype=float)
    pb = np.asarray(poly_b, dtype=float)
    qa = np.roll(pa, -1, axis=0)
    qb = np.roll(pb, -1, axis=0)
    rows = max(1, _PAIR_BLOCK // max(len(pb), 1))
    for s in range(0, len(pa), rows):
        if np.any(pg.segments_properly_intersect(pa[s:s + rows, None], qa[s:s + rows, None],
                                                 pb[None], qb[None], tol)):
            return True
    return False
