"""Computational domains, region sets, conforming triangulations, and the
pixel scanning family for inclusion detection.

The mesher is deliberately self-contained: it builds a planar straight-line
graph from the domain boundary, region polygons, and any extra constraint
segments (pixel-grid lines, declared singular segments), splits mutual
intersections, and computes a Delaunay triangulation that is refined until
every constraint segment is a union of mesh edges.  Interior resolution comes
from a background point lattice with an exclusion zone around constraints,
plus Laplacian smoothing of the free points.
"""

import functools
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay

from . import polygons as pg

REGION_LABELS = ("D0", "Dinf", "Ddeg", "Dsing", "DFminus", "DFplus")
BACKGROUND = "bg"


class GeometryError(ValueError):
    pass


class MeshConformityError(GeometryError):
    pass


# qhull options of every Delaunay build: scipy's 2-D default, which a
# ``qhull_options`` string replaces (scipy adds ``Qt`` itself), plus ``Q5``,
# which skips qhull's final check that every point lies below every outer
# plane.  The mesher reads only the simplices, and that check runs after
# they are fixed.  Over the Delaunay inputs of one operation of each
# benchmark workload at seed 0 (`tests/factor_sweep.py`, one BLAS thread on
# a 2-core Xeon VM), the summed best-of-5 build time fell from 599.3 to
# 542.3 ms on the 8 builds of forward_fine, from 27.8 to 25.7 ms on the 6 of
# scan_mixed and from 20.4 to 18.8 ms on the 4 of chain_weighted, with the
# same simplices on every build.  ``Q3``, ``Q4``, ``Q8``, ``Q10``, ``Q11``
# and ``Q14`` move the time by about 1 % or less; ``Q0`` and ``Q9``, and
# dropping ``Qbb``, or ``Qc`` with ``Qz``, change the simplices.
QHULL_OPTIONS = "Qbb Qc Qz Q12 Q5"

# Most background-lattice points a mesh may have.  The paint template
# (`ndmap`) numbers its element triplets with int32 indices, 18 per
# triangle, and the lattice makes about 2 triangles per point.
MAX_LATTICE_POINTS = (2 ** 31 - 1) // 36


@dataclass(frozen=True)
class Domain:
    """Computational domain: unit disk or unit square, with the measurement
    arc given as an interval of the normalized boundary parameter t in [0,1).

    For the disk, t = angle/(2*pi) starting at (1,0); for the square
    [0,1]^2, t runs counter-clockwise from (0,0) along the bottom edge.
    The disk boundary is polygonalized as a regular n-gon.
    """

    shape: str
    gamma_span: tuple
    disk_segments: int = 256

    def __post_init__(self):
        if self.shape not in ("disk", "square"):
            raise GeometryError(f"unknown domain shape {self.shape!r}")
        t0, t1 = self.gamma_span
        if not (t0 < t1 <= t0 + 1.0):
            raise GeometryError("gamma_span must satisfy t0 < t1 <= t0 + 1")
        segments = self.disk_segments
        if not (isinstance(segments, (int, np.integer)) and segments >= 3):
            raise GeometryError(f"disk_segments must be an integer >= 3, got {segments!r}")

    @property
    def boundary_polygon(self):
        if self.shape == "disk":
            return pg.regular_polygon((0.0, 0.0), 1.0, self.disk_segments)
        return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    @property
    def area(self):
        return pg.polygon_area(self.boundary_polygon)

    @property
    def gamma_fraction(self):
        t0, t1 = self.gamma_span
        return t1 - t0

    def boundary_point(self, t):
        """Point on the boundary at normalized parameter t (vectorized)."""
        t = np.mod(np.asarray(t, dtype=float), 1.0)
        if self.shape == "disk":
            # Points of the polygonalized circle: interpolate along chords.
            n = self.disk_segments
            k = np.floor(t * n).astype(int) % n
            frac = t * n - np.floor(t * n)
            th0 = 2 * np.pi * k / n
            th1 = 2 * np.pi * (k + 1) / n
            p0 = np.stack([np.cos(th0), np.sin(th0)], axis=-1)
            p1 = np.stack([np.cos(th1), np.sin(th1)], axis=-1)
            return p0 + frac[..., None] * (p1 - p0)
        side = np.floor(t * 4).astype(int) % 4
        frac = t * 4 - np.floor(t * 4)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        p0 = corners[side]
        p1 = corners[(side + 1) % 4]
        return p0 + frac[..., None] * (p1 - p0)

    def boundary_param(self, points):
        """Normalized boundary parameter of points on (or near) the boundary."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.shape == "disk":
            ang = np.arctan2(pts[:, 1], pts[:, 0])
            return np.mod(ang / (2 * np.pi), 1.0)
        x, y = pts[:, 0], pts[:, 1]
        d = np.stack([y, 1 - x, 1 - y, x], axis=1)  # distance to each side
        side = np.argmin(d, axis=1)
        frac = np.choose(side, [x, y, 1 - x, 1 - y])
        return np.mod((side + np.clip(frac, 0.0, 1.0)) / 4.0, 1.0)

    def param_in_gamma(self, t):
        t0, t1 = self.gamma_span
        return np.mod(np.asarray(t, dtype=float) - t0, 1.0) < (t1 - t0) + 1e-12


def build_domain(shape, gamma_arc=(0.0, 1.0), disk_segments=256):
    """Construct a Domain; gamma_arc is (t0, t1) in the normalized boundary
    parameter, full boundary by default."""
    return Domain(shape=shape, gamma_span=(float(gamma_arc[0]), float(gamma_arc[1])),
                  disk_segments=disk_segments)


@dataclass
class RegionSet:
    """Labeled inclusion geometry.

    ``polys`` maps a label to a list of oriented simple polygons; CCW
    polygons are solid, CW polygons cut holes (membership by parity).
    ``singular_points``/``singular_segments`` declare weight singularities so
    the mesher can pin them to vertices/edges.
    """

    polys: dict = field(default_factory=dict)
    singular_points: list = field(default_factory=list)
    singular_segments: list = field(default_factory=list)

    def __post_init__(self):
        clean = {}
        for label, plist in self.polys.items():
            if label not in REGION_LABELS:
                raise GeometryError(f"unknown region label {label!r}")
            clean[label] = [_polygon_array(label, i, p) for i, p in enumerate(plist)]
        self.polys = clean

    def label_polys(self, label):
        return self.polys.get(label, [])

    def all_polys(self):
        out = []
        for label in REGION_LABELS:
            for p in self.label_polys(label):
                out.append((label, p))
        return out

    def is_empty(self):
        return all(len(v) == 0 for v in self.polys.values())

    def membership(self, points, label):
        plist = self.label_polys(label)
        pts = np.atleast_2d(points)
        if not plist:
            return np.zeros(len(pts), dtype=bool)
        return pg.points_in_region(pts, plist, tol=0.0)


def _polygon_array(label, i, poly):
    """Polygon ``i`` of ``label`` as a float array, which must be finite
    and of shape (k, 2) with k >= 3."""
    try:
        p = np.asarray(poly, dtype=float)
    except (ValueError, TypeError):
        got = "a ragged or non-numeric array"
    else:
        if p.ndim != 2 or p.shape[1] != 2 or len(p) < 3:
            got = f"shape {p.shape}"
        elif not np.all(np.isfinite(p)):
            got = "a non-finite vertex"
        else:
            return p
    raise GeometryError(f"{label} polygon {i} must be a finite (k, 2) array "
                        f"with k >= 3, got {got}")


# Diagonal offsets that move a point within 1e-12 of a grid line or corner
# into each cell beside it.
_NUDGES = 1e-12 * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])


@dataclass
class TestInclusion:
    """A test set from the scanning family: the closed union of the grid
    cells ``cells`` (a frozenset of (i, j)) of ``family``."""

    __test__ = False          # bare data, despite the pytest-like name

    id: str
    cells: frozenset
    family: "PixelFamily" = field(repr=False, compare=False)
    excluded_cell: tuple = None
    direction: str = None
    admissible: bool = True
    reason: str = ""

    def contains(self, points):
        """Points in the closed union of the cells: a point on a grid line,
        or within 1e-12 of one, counts for every cell beside it."""
        pts = np.atleast_2d(points)
        member = np.zeros(self.family.grid_n ** 2 + 1, dtype=bool)
        member[self.family.flat(self.cells)] = True
        return np.any([member[self.family.cell_of(pts + d)] for d in _NUDGES], axis=0)


# ---------------------------------------------------------------------------
# PSLG arrangement
# ---------------------------------------------------------------------------

def _register(points, known=None):
    """Snap points to the SNAP_TOL lattice and number the distinct ones in
    order of first occurrence, after the already-registered points
    ``known`` (distinct lattice points, which keep their numbers).

    Returns the registry (the lattice points, in number order) and the
    number of each point.  The lattice keys are integers, so a coordinate
    that rounds to -0.0 is the same point as 0.0 and is stored as 0.0.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    # The int64 keys hold coordinates below 2**62 lattice steps.
    if not np.all(np.abs(points) < 2.0 ** 62 * pg.SNAP_TOL):
        raise GeometryError("mesh constraint points must be finite and within "
                            f"{2.0 ** 62 * pg.SNAP_TOL:.3g} of the origin")
    if known is not None:
        points = np.concatenate([known, points])
    keys = np.round(points / pg.SNAP_TOL).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    # np.unique numbers the keys in sorted order; renumber by first row.
    rank = np.argsort(first)
    number = np.empty(len(first), dtype=np.int64)
    number[rank] = np.arange(len(first))
    ids = number[inverse.ravel()]
    registry = keys[first[rank]] * pg.SNAP_TOL
    return registry, ids if known is None else ids[len(known):]


def _arrange_segments(segments, extra_points):
    """Split segments at mutual intersections and at points lying on them.

    Returns (points array, list of index-pair subsegments).  The registry
    numbers points in a fixed order: the extra points, then per segment its
    endpoints and the points found on it, ordered by the other segment's
    index (extra points last); that order is the vertex numbering.
    """
    seg_a = np.array([a for a, _ in segments], dtype=float).reshape(-1, 2)
    seg_b = np.array([b for _, b in segments], dtype=float).reshape(-1, 2)
    extra = np.array(extra_points, dtype=float).reshape(-1, 2)
    n = len(seg_a)
    tol = pg.SNAP_TOL

    # Candidate pairs i < j with overlapping bounding boxes, in row order.
    i, j = pg.box_pairs(np.minimum(seg_a, seg_b), np.maximum(seg_a, seg_b), tol)
    a, b, c, d = seg_a[i], seg_b[i], seg_a[j], seg_b[j]

    # Points found on a segment, as (segment, other, rank, point): a proper
    # crossing puts one point on both segments; otherwise an endpoint of
    # one segment interior to the other is a T-junction.
    cross = pg.segments_properly_intersect(a, b, c, d)
    x = pg.segment_intersection_point(a[cross], b[cross], c[cross], d[cross])
    found = [(i[cross], j[cross], 0, x), (j[cross], i[cross], 0, x)]
    for q, s0, s1, seg, other, rank in ((c, a, b, i, j, 0), (d, a, b, i, j, 1),
                                        (a, c, d, j, i, 0), (b, c, d, j, i, 1)):
        hit = ~cross & pg.touches_segment_interior(q, s0, s1, tol)
        found.append((seg[hit], other[hit], rank, q[hit]))
    q_idx, s_idx = np.nonzero(pg.touches_segment_interior(
        extra[:, None], seg_a[None], seg_b[None], tol))
    found.append((s_idx, n + q_idx, 0, extra[q_idx]))

    seg = np.concatenate([f[0] for f in found])
    other = np.concatenate([f[1] for f in found])
    rank = np.concatenate([np.full(len(f[0]), f[2]) for f in found])
    order = np.lexsort((rank, other, seg))
    seg = seg[order]
    on = np.concatenate([f[3] for f in found])[order]
    bounds = np.searchsorted(seg, np.arange(n + 1))

    # Register the extra points, then per segment its endpoints and the
    # points found on it: found point m of segment s sits at m + 2(s + 1).
    seq = np.empty((n * 2 + len(on), 2))
    at_a = np.arange(n) * 2 + bounds[:-1]
    at_on = np.arange(len(on)) + 2 * (seg + 1)
    seq[at_a] = seg_a
    seq[at_a + 1] = seg_b
    seq[at_on] = on
    reg, ids = _register(np.concatenate([extra, seq]))
    ids = ids[len(extra):]

    # Cuts of each segment ordered by (t, number): its endpoints at t = 0
    # and 1, and each found point at its parameter along the segment.
    ab = seg_b - seg_a
    t = pg._dot2(on - seg_a[seg], ab[seg]) / pg._dot2(ab, ab)[seg]
    cut_seg = np.concatenate([np.arange(n), np.arange(n), seg])
    cut_t = np.concatenate([np.zeros(n), np.ones(n), t])
    cut_id = np.concatenate([ids[at_a], ids[at_a + 1], ids[at_on]])
    order = np.lexsort((cut_id, cut_t, cut_seg))
    cut_seg, cut_id = cut_seg[order], cut_id[order]
    step = (cut_seg[1:] == cut_seg[:-1]) & (cut_id[1:] != cut_id[:-1])
    lo = np.minimum(cut_id[:-1], cut_id[1:])[step]
    hi = np.maximum(cut_id[:-1], cut_id[1:])[step]
    keys = np.unique(lo * len(reg) + hi)
    return reg, list(zip(*(v.tolist() for v in np.divmod(keys, len(reg)))))


def _chop_to_length(reg, subsegments, max_len):
    """Split subsegments into pieces no longer than max_len.

    Returns the registry grown by the chop points and the pieces, each
    subsegment's in order from its first end; a chop point that snaps onto
    its neighbour leaves a degenerate piece (i, i)."""
    if not subsegments:
        return reg, []
    ends = np.array(subsegments, dtype=np.int64)
    a, b = reg[ends[:, 0]], reg[ends[:, 1]]
    parts = np.maximum(1, np.ceil(np.hypot(*(b - a).T) / max_len)).astype(np.int64)
    # The chop points, k / parts of the way along for k = 1 .. parts - 1,
    # are registered in output order.
    owner = np.repeat(np.arange(len(parts)), parts - 1)
    k = np.arange(len(owner)) - (np.cumsum(parts - 1) - (parts - 1))[owner] + 1
    reg, ids = _register(a[owner] + (b[owner] - a[owner]) * (k / parts[owner])[:, None],
                         known=reg)
    # Each subsegment's chain: first end, chop points, second end.
    start = np.cumsum(parts + 1) - (parts + 1)
    chain = np.empty(int(np.sum(parts + 1)), dtype=np.int64)
    chain[start] = ends[:, 0]
    chain[start + parts] = ends[:, 1]
    chain[start[owner] + k] = ids
    link = np.ones(len(chain) - 1, dtype=bool)
    link[(start + parts)[:-1]] = False
    lo = np.minimum(chain[:-1], chain[1:])[link]
    hi = np.maximum(chain[:-1], chain[1:])[link]
    return reg, list(zip(lo.tolist(), hi.tolist()))


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------

def connected_labels(n, pairs):
    """Connected-component label of each of n graph nodes joined by the
    index pairs (an array of shape (k, 2))."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    # CSR built directly: a COO input costs csgraph a conversion, about
    # as long as the traversal itself on the scan's node graphs.
    pairs = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=indptr[1:])
    heads = pairs[pg.stable_order(pairs[:, 0]), 1]
    graph = sp.csr_matrix((np.ones(len(pairs)), heads, indptr), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _corner_edge_keys(simplices, n):
    """The integer key i*n + j (i < j < n) of each simplex edge (k, k+1 mod
    3) in simplex order: one key per edge copy, unsorted."""
    s = simplices.astype(np.int64, copy=False)
    t = s[:, [1, 2, 0]]
    return (np.minimum(s, t) * n + np.maximum(s, t)).ravel()


def edge_owners(tris):
    """Every triangle edge as a sorted vertex pair beside its triangle
    index, in lexicographic edge order: copies of one edge are adjacent,
    in triangle order."""
    n = int(tris.max()) + 1 if len(tris) else 1
    keys = _corner_edge_keys(tris, n)
    order = pg.stable_order(keys)
    edges = np.column_stack(np.divmod(keys[order], n)).astype(tris.dtype, copy=False)
    return edges, order // 3


def edge_runs(edges):
    """Start index and copy count of each distinct edge in a lexsorted edge
    list (the first output of ``edge_owners``)."""
    start = np.ones(len(edges), dtype=bool)
    start[1:] = np.any(edges[1:] != edges[:-1], axis=1)
    first = np.flatnonzero(start)
    return first, np.diff(np.append(first, len(edges)))


def _connected_through_edges(table, mask):
    """True when the masked triangles form one set connected through
    shared edges (False when the mask is empty), read from the mesh's
    `edge_owners` table."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return False
    edges, owner = table
    shared = np.all(edges[1:] == edges[:-1], axis=1)
    pairs = np.stack([owner[:-1][shared], owner[1:][shared]], axis=1)
    labels = connected_labels(len(mask), pairs[np.all(mask[pairs], axis=1)])
    return bool(np.all(labels[idx] == labels[idx[0]]))


def _edge_keys(simplices, n):
    """Each distinct edge of the simplices as the integer key i*n + j of its
    sorted vertex pair (i < j < n), in ascending (lexicographic) order."""
    keys = np.sort(_corner_edge_keys(simplices, n))
    return keys[np.append(True, keys[1:] != keys[:-1])]


@dataclass
class Mesh:
    vertices: np.ndarray
    triangles: np.ndarray
    triangle_region: np.ndarray
    boundary_edges: np.ndarray
    boundary_on_gamma: np.ndarray
    h: float
    domain: Domain

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def triangle_coords(self, idx=None):
        t = self.triangles if idx is None else self.triangles[idx]
        return self.vertices[t]

    def triangle_areas(self):
        return pg.triangle_areas(self.triangle_coords())

    def centroids(self):
        return self.triangle_coords().mean(axis=1)

    def min_angle_deg(self):
        """The smallest corner angle: arccos of the largest corner cosine,
        as arccos is decreasing."""
        c = self.triangle_coords()
        cosines = []
        for k in range(3):
            u = c[:, (k + 1) % 3] - c[:, k]
            v = c[:, (k + 2) % 3] - c[:, k]
            cosines.append(np.sum(u * v, axis=1) / (np.hypot(*u.T) * np.hypot(*v.T)))
        return float(np.degrees(np.arccos(np.clip(np.max(cosines), -1, 1))))

    def gamma_edges(self):
        return self.boundary_edges[self.boundary_on_gamma]

    def gamma_length(self):
        e = self.gamma_edges()
        d = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
        return float(np.sum(np.hypot(d[:, 0], d[:, 1])))

    def provenance(self):
        """Hash of the geometric mesh identity (labels excluded, so coefficient
        relabelings on a shared mesh keep comparable provenance)."""
        hasher = hashlib.sha256()
        hasher.update(np.round(self.vertices, 12).tobytes())
        hasher.update(self.triangles.astype(np.int64).tobytes())
        hasher.update(self.boundary_on_gamma.tobytes())
        return hasher.hexdigest()[:16]

    def relabeled(self, mapping):
        """Copy of the mesh with triangle labels moved per mapping."""
        region = self.triangle_region.copy()
        for src, tgt in mapping.items():
            region[self.triangle_region == src] = tgt
        return Mesh(self.vertices, self.triangles, region,
                    self.boundary_edges, self.boundary_on_gamma, self.h, self.domain)

    def validate(self, min_angle_floor=1.0):
        problems = []
        areas = self.triangle_areas()
        if np.any(areas <= 0):
            problems.append("non-positively-oriented or degenerate triangles present")
        if self.min_angle_deg() < min_angle_floor:
            problems.append(f"min angle {self.min_angle_deg():.3f} deg below floor {min_angle_floor}")
        _, counts = edge_runs(edge_owners(self.triangles)[0])
        bad = int(np.sum(counts > 2))
        if bad:
            problems.append(f"{bad} edges shared by more than two triangles")
        if np.sum(counts == 1) != len(self.boundary_edges):
            problems.append("boundary edge bookkeeping inconsistent")
        return problems

    # -- plain-text export: header `nv nt ne`, vertices, triangles, edges --

    def to_text(self):
        buf = io.StringIO()
        buf.write(f"{self.num_vertices} {self.num_triangles} {len(self.boundary_edges)}\n")
        for x, y in self.vertices:
            buf.write(f"{x:.17g} {y:.17g}\n")
        for (i, j, k), lab in zip(self.triangles, self.triangle_region):
            buf.write(f"{i} {j} {k} {lab}\n")
        for (i, j), g in zip(self.boundary_edges, self.boundary_on_gamma):
            buf.write(f"{i} {j} {int(g)}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Triangulation
# ---------------------------------------------------------------------------

def triangulate(domain, regions=None, target_h=0.1, extra_segments=(),
                min_angle_deg=0.05):
    """Conforming triangulation of the domain resolving all region polygons.

    Region boundaries, declared singular features, and any extra constraint
    segments become unions of mesh edges; singular points become vertices.
    Raises MeshConformityError when target_h is so fine that the background
    lattice exceeds `MAX_LATTICE_POINTS`, when constraint recovery fails or
    when a labeled region ends up without triangles (target_h cannot
    resolve it).
    """
    regions = regions or RegionSet()
    bp = domain.boundary_polygon
    spacing = target_h / 1.6
    # Background lattice bounds; a lattice too large to index is rejected
    # before anything is chopped or allocated.
    xmin, ymin = bp.min(axis=0) - spacing
    xmax, ymax = bp.max(axis=0) + spacing
    lattice = (math.ceil((xmax + spacing - xmin) / spacing)
               * math.ceil((ymax + spacing - ymin) / spacing))
    if lattice > MAX_LATTICE_POINTS:
        raise MeshConformityError(
            f"target_h={target_h} too fine: its background lattice of "
            f"{lattice:.3g} points exceeds {MAX_LATTICE_POINTS}, the most "
            f"that int32 paint-template indices address")

    segments = [(bp[i], bp[(i + 1) % len(bp)]) for i in range(len(bp))]
    for _, poly in regions.all_polys():
        for i in range(len(poly)):
            segments.append((poly[i], poly[(i + 1) % len(poly)]))
    for seg in regions.singular_segments:
        seg = np.asarray(seg, dtype=float)
        for i in range(len(seg) - 1):
            segments.append((seg[i], seg[i + 1]))
    for seg in extra_segments:
        segments.append((np.asarray(seg[0], float), np.asarray(seg[1], float)))

    pins = [np.asarray(p, dtype=float) for p in regions.singular_points]
    # Measurement-arc endpoints must be mesh vertices so gamma is resolved.
    t0, t1 = domain.gamma_span
    if domain.gamma_fraction < 1.0:
        pins.append(domain.boundary_point(t0))
        pins.append(domain.boundary_point(t1))

    pts, subsegs = _arrange_segments(segments, pins)
    pts, subsegs = _chop_to_length(pts, subsegs, spacing)
    ends = np.array(subsegs)
    seg_a, seg_b = pts[ends[:, 0]], pts[ends[:, 1]]

    # Background lattice clipped to the domain with an exclusion zone
    # around constraints (prevents slivers along segments).
    gx = np.arange(xmin, xmax + spacing, spacing)
    gy = np.arange(ymin, ymax + spacing, spacing)
    gpts = np.array(np.meshgrid(gx, gy)).reshape(2, -1).T
    inside = pg.points_in_polygon(gpts, bp, boundary=False, tol=0.0)
    gpts = gpts[inside]
    if len(gpts):
        d = pg.points_segments_distance(gpts, seg_a, seg_b, cutoff=0.5 * spacing)
        gpts = gpts[d > 0.45 * spacing]

    points = np.vstack([pts, gpts]) if len(gpts) else pts.copy()
    n_fixed = len(pts)
    constraints = set(subsegs)

    def recover(arr, constraints):
        """Delaunay + midpoint insertion until all constraints are edges;
        returns the points, the triangulation, the constraints and the
        triangulation's `_edge_keys`.

        The midpoints of missing constraints are numbered in the iteration
        order of the ``constraints`` set, so the set is updated in place,
        one missing constraint at a time."""
        for _ in range(60):
            dt = Delaunay(arr, qhull_options=QHULL_OPTIONS)
            n = len(arr)
            keys = _edge_keys(dt.simplices, n)
            pending = list(constraints)
            pairs = np.array(pending, dtype=np.int64).reshape(-1, 2)
            wanted = pairs[:, 0] * n + pairs[:, 1]
            at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
            absent = keys[at] != wanted
            if not np.any(absent):
                return arr, dt, constraints, keys
            missing = pairs[absent]
            arr = np.vstack([arr, (arr[missing[:, 0]] + arr[missing[:, 1]]) / 2.0])
            for k, (i, j) in enumerate(pending[m] for m in np.flatnonzero(absent)):
                idx = n + k
                constraints.discard((i, j))
                constraints.add((min(i, idx), max(i, idx)))
                constraints.add((min(idx, j), max(idx, j)))
        raise MeshConformityError("failed to recover constraint segments")

    arr, dt, constraints, keys = recover(points, set(constraints))

    # Two rounds of Laplacian smoothing of the lattice points only;
    # constraint vertices (original and midpoint-inserted) stay fixed.
    # Each vertex sums its neighbours over the edges in key order, first
    # where it is the edge's first endpoint, then where it is the second:
    # the meshes the golden tests pin depend on that addition order.
    free_mask = np.zeros(len(arr), dtype=bool)
    free_mask[n_fixed:n_fixed + len(gpts)] = True

    for _ in range(2):
        n = len(arr)
        free_mask = np.concatenate([free_mask, np.zeros(n - len(free_mask), dtype=bool)])
        i, j = np.divmod(keys, n)
        ends, other = np.concatenate([i, j]), np.concatenate([j, i])
        neighbor_cnt = np.bincount(ends, minlength=n)
        neighbor_sum = np.column_stack([np.bincount(ends, weights=arr[other, c], minlength=n)
                                        for c in (0, 1)])
        valid = free_mask & (neighbor_cnt > 0)
        proposed = neighbor_sum[valid] / neighbor_cnt[valid][:, None]
        keep = pg.points_in_polygon(proposed, bp, boundary=False, tol=0.0)
        dseg = pg.points_segments_distance(proposed, seg_a, seg_b, cutoff=0.35 * spacing)
        keep &= dseg > 0.3 * spacing
        idxs = np.flatnonzero(valid)
        arr[idxs[keep]] = proposed[keep]
        arr, dt, constraints, keys = recover(arr, constraints)

    # Enforce the maximum-diameter contract: split interior edges that are
    # still longer than target_h (constraint subsegments are already short).
    for _ in range(4):
        i, j = np.divmod(keys, len(arr))
        lengths = np.hypot(*(arr[j] - arr[i]).T)
        long = lengths > target_h
        mids = (arr[i[long]] + arr[j[long]]) / 2.0
        mids = mids[pg.points_in_polygon(mids, bp, boundary=False, tol=0.0)]
        if len(mids):
            dmid = pg.points_segments_distance(mids, seg_a, seg_b, cutoff=0.25 * spacing)
            mids = mids[dmid > 0.2 * spacing]
        if not len(mids):
            break
        arr = np.vstack([arr, mids])
        arr, dt, constraints, keys = recover(arr, constraints)

    # Keep triangles whose centroid is inside the domain polygon.
    simplices = dt.simplices
    cent = arr[simplices].mean(axis=1)
    keep = pg.points_in_polygon(cent, bp, boundary=False, tol=0.0)
    tris = simplices[keep]

    # Snapped collinear chains can leave hairline slivers hugging constraint
    # lines; dropping them keeps conformity (their leg edges stay on the
    # neighbors) and perturbs areas at roundoff level only.
    tc = arr[tris]
    areas2 = 2.0 * np.abs(pg.triangle_areas(tc))
    elen = np.stack([np.hypot(*(tc[:, 1] - tc[:, 0]).T),
                     np.hypot(*(tc[:, 2] - tc[:, 1]).T),
                     np.hypot(*(tc[:, 0] - tc[:, 2]).T)])
    sliver = areas2 < 1e-7 * np.max(elen, axis=0) ** 2
    tris = tris[~sliver]
    # Reindexing and reorienting below keep every edge's length.
    hmax = elen[:, ~sliver].max()

    # Drop unreferenced vertices and reindex.
    used = np.flatnonzero(np.bincount(tris.ravel(), minlength=len(arr)))
    remap = -np.ones(len(arr), dtype=int)
    remap[used] = np.arange(len(used))
    verts = arr[used]
    tris = remap[tris]

    # Positive orientation.
    flip = pg.triangle_areas(verts[tris]) < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    # Region labels from centroid parity.
    cent = verts[tris].mean(axis=1)
    labels = np.full(len(tris), BACKGROUND, dtype="<U8")
    for label in REGION_LABELS:
        plist = regions.label_polys(label)
        if not plist:
            continue
        member = pg.points_in_region(cent, plist, tol=0.0)
        clash = member & (labels != BACKGROUND)
        if np.any(clash):
            raise GeometryError(f"regions overlap near {cent[np.argmax(clash)]}")
        labels[member] = label

    for label in REGION_LABELS:
        if regions.label_polys(label) and not np.any(labels == label):
            raise MeshConformityError(
                f"target_h={target_h} too coarse to resolve region {label}")

    # Boundary edges (incident to exactly one triangle) and gamma flags.
    edges, _ = edge_owners(tris)
    first, counts = edge_runs(edges)
    bedges = edges[first[counts == 1]]
    mid = (verts[bedges[:, 0]] + verts[bedges[:, 1]]) / 2.0
    on_gamma = domain.param_in_gamma(domain.boundary_param(mid))

    mesh = Mesh(verts, tris, labels, bedges, on_gamma, float(hmax), domain)
    if mesh.min_angle_deg() < min_angle_deg:
        raise MeshConformityError(
            f"mesh quality below floor: min angle {mesh.min_angle_deg():.3f} deg")
    return mesh


# ---------------------------------------------------------------------------
# Region validation
# ---------------------------------------------------------------------------

def validate_regions(domain, regions):
    """Check the region-set invariants decidable on the polygons alone:
    simple polygons inside the domain that do not overlap across labels;
    returns violation strings.  The clauses that need a conforming mesh are
    `mesh_region_faults`.

    Raises GeometryError on self-intersecting input polygons.
    """
    violations = []
    all_polys = regions.all_polys()
    if not all_polys:
        return violations
    for label, poly in all_polys:
        if not pg.polygon_is_simple(poly):
            raise GeometryError(f"self-intersecting polygon in {label}")

    labels, polys = zip(*all_polys)
    inside = pg.points_in_polygon(np.concatenate(polys), domain.boundary_polygon,
                                  boundary=True)
    offsets = np.cumsum([0] + [len(p) for p in polys[:-1]])
    for label, contained in zip(labels, np.logical_and.reduceat(inside, offsets)):
        if not contained:
            violations.append(f"{label} polygon extends outside the domain")

    def report(pairs, clause):
        # each unordered label pair once, at its first occurrence
        seen = set()
        for la, lb in pairs:
            if frozenset((la, lb)) not in seen:
                seen.add(frozenset((la, lb)))
                violations.append(f"regions {la} and {lb} overlap{clause}")

    # Pairwise interior disjointness between different labels (parity-aware;
    # same-label nesting encodes holes).
    report(((la, lb) for (la, pa), (lb, pb) in itertools.combinations(all_polys, 2)
            if la != lb and pg.polygons_edges_cross(pa, pb)), " (edges cross)")
    if not violations:
        # Polygon a overlaps label lb when its interior probe lies in both
        # its own label's region and lb's.
        probes = np.array([pg._interior_probe(p) for p in polys])
        member = {label: regions.membership(probes, label) for label in set(labels)}
        report(((la, lb) for a, la in enumerate(labels) for lb in dict.fromkeys(labels)
                if la != lb and member[la][a] and member[lb][a]), "")
    return violations


def mesh_region_faults(mesh, regions):
    """Check the region-set invariants decided on a mesh that conforms to
    the regions (exact on any such mesh); returns violation strings.

    The complements of D0 and of D0+Ddeg+Dsing must be connected, and the
    weighted regions compactly contained in the interior of the labeled
    union: sampled points of their boundaries must stay clear of the edges
    between labeled and unlabeled area.  The mesh's edge table is built
    once per call, and only when a clause reads it.
    """
    violations = []
    weighted = [lab for lab in ("Ddeg", "Dsing") if regions.label_polys(lab)]
    if not (weighted or regions.label_polys("D0")):
        return violations
    table = edge_owners(mesh.triangles)
    if regions.label_polys("D0") and not _connected_through_edges(
            table, mesh.triangle_region != "D0"):
        violations.append("complement of D0 not connected")
    if not weighted:
        # The merged complement is then the complement of D0.
        if violations:
            violations.append("complement of D0+Ddeg+Dsing not connected")
        return violations
    merged = np.isin(mesh.triangle_region, ["D0", "Ddeg", "Dsing"])
    if not _connected_through_edges(table, ~merged):
        violations.append("complement of D0+Ddeg+Dsing not connected")

    d_boundary = _union_boundary_segments(mesh, table)
    if d_boundary is not None:
        for label in weighted:
            for poly in regions.label_polys(label):
                samples = _densify_polygon(poly, 16)
                # Only a distance under the cutoff decides, and the KD
                # path measures every segment within it.
                dist = pg.points_segments_distance(samples, d_boundary[0], d_boundary[1],
                                                   cutoff=1e-9)
                if dist.min() < 1e-9:
                    violations.append(
                        f"{label} not compactly contained in the labeled union interior")
                    break
    return violations


def _union_boundary_segments(mesh, table):
    """Edges separating labeled triangles from background/outside, from the
    mesh's `edge_owners` table."""
    edges, owner = table
    first, counts = edge_runs(edges)
    is_d = mesh.triangle_region != BACKGROUND
    d_first = is_d[owner[first]]
    d_second = is_d[owner[np.minimum(first + 1, len(owner) - 1)]]
    keep = ((counts == 1) & d_first) | ((counts == 2) & (d_first != d_second))
    if not np.any(keep):
        return None
    e = edges[first[keep]]
    return mesh.vertices[e[:, 0]], mesh.vertices[e[:, 1]]


def _densify_polygon(poly, per_edge):
    p = np.asarray(poly, dtype=float)
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)[None, :, None]
    return (p[:, None] + t * (np.roll(p, -1, axis=0) - p)[:, None]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Pixel scanning family
# ---------------------------------------------------------------------------

_DIRECTIONS = ("up", "down", "left", "right")
_CLAUSES = ("{} extends outside the domain", "{} touches the domain boundary")


@dataclass
class PixelFamily:
    """Scanning family on a grid over a window compactly inside the domain.

    Members are the whole window and, per cell and scan direction, the window
    minus the straight strip of cells from that cell to the window edge.  A
    strip keeps the notched remainder's complement connected (the notch
    reaches out of the window), which is what makes the excluded cell
    electrically accessible in the extreme-coefficient test maps.  A member
    is a set of grid cells, admissible when none of its cells has a
    `cell_faults` clause.

    Members are built only when read (``whole_window``, ``cell_members``,
    ``members``); the grid scan paints cells and reads none.
    """

    domain: Domain
    grid_n: int
    roi: tuple

    @property
    def cell_size(self):
        x0, y0, x1, y1 = self.roi
        return ((x1 - x0) / self.grid_n, (y1 - y0) / self.grid_n)

    def grid_lines(self):
        """The x and the y coordinates of the grid lines, low edge first."""
        x0, y0, _, _ = self.roi
        w, h = self.cell_size
        k = np.arange(self.grid_n + 1)
        return x0 + k * w, y0 + k * h

    def cell_centers(self):
        x0, y0, _, _ = self.roi
        w, h = self.cell_size
        i = np.arange(self.grid_n)
        cx = x0 + (i + 0.5) * w
        cy = y0 + (i + 0.5) * h
        return cx, cy

    def flat(self, cells):
        """Flat index i*grid_n + j of each cell (i, j)."""
        return [i * self.grid_n + j for i, j in cells]

    def cell_of(self, points):
        """Flat index of the cell holding each point, grid_n**2 outside the
        window; a point on a grid line goes to the cell above or right of it."""
        n = self.grid_n
        xs, ys = self.grid_lines()
        i = np.searchsorted(xs, points[:, 0], side="right") - 1
        j = np.searchsorted(ys, points[:, 1], side="right") - 1
        return np.where((i >= 0) & (i < n) & (j >= 0) & (j < n), i * n + j, n * n)

    @functools.cached_property
    def cell_faults(self):
        """The admissibility clauses of each cell that fails one, as reason
        templates with ``{}`` for a member id, cells in row order: a cell
        extends outside the domain when a corner does, and touches the
        domain boundary when a corner is within 1e-9 of it."""
        bp = self.domain.boundary_polygon
        nodes = np.stack(np.meshgrid(*self.grid_lines(), indexing="ij"), axis=-1)
        nodes = nodes.reshape(-1, 2)
        inside = pg.points_in_polygon(nodes, bp, boundary=True)
        near = pg.points_segments_distance(nodes, bp, np.roll(bp, -1, axis=0)) < 1e-9
        faults = {}
        for i, j in itertools.product(range(self.grid_n), repeat=2):
            corners = [(i + di) * (self.grid_n + 1) + j + dj
                       for di in (0, 1) for dj in (0, 1)]
            failed = (not inside[corners].all(), near[corners].any())
            if any(failed):
                faults[(i, j)] = tuple(c for c, bad in zip(_CLAUSES, failed) if bad)
        return faults

    def _member(self, id, cells, excluded_cell=None, direction=None):
        """The member of the cell set ``cells``, flagged with every clause
        that any of its cells fails."""
        cells = frozenset(cells)
        failed = {c for cell in cells for c in self.cell_faults.get(cell, ())}
        reasons = [c.format(id) for c in _CLAUSES if c in failed]
        return TestInclusion(id=id, cells=cells, family=self,
                             excluded_cell=excluded_cell, direction=direction,
                             admissible=not reasons, reason="; ".join(reasons))

    def whole_window(self):
        return self._member("all", itertools.product(range(self.grid_n), repeat=2))

    def cell_members(self, i, j):
        """The window notched at cell (i, j), one member per scan direction:
        the window minus the cells from (i, j) to its edge that way."""
        n = self.grid_n
        if not (0 <= i < n and 0 <= j < n):
            raise GeometryError(f"cell ({i}, {j}) is outside the {n}x{n} grid")
        strips = {"up": {(i, k) for k in range(j, n)},
                  "down": {(i, k) for k in range(j + 1)},
                  "left": {(k, j) for k in range(i + 1)},
                  "right": {(k, j) for k in range(i, n)}}
        window = set(itertools.product(range(n), repeat=2))
        return [self._member(f"c{i}_{j}_{direction}", window - strips[direction],
                             excluded_cell=(i, j), direction=direction)
                for direction in _DIRECTIONS]

    @functools.cached_property
    def members(self):
        """Whole window first, then each cell's members, cells in row order."""
        return [self.whole_window()] + [m for i in range(self.grid_n)
                                        for j in range(self.grid_n)
                                        for m in self.cell_members(i, j)]

    def grid_segments(self):
        """Constraint segments for mesh conformity: all grid lines."""
        x0, y0, x1, y1 = self.roi
        xs, ys = self.grid_lines()
        return ([(np.array([x, y0]), np.array([x, y1])) for x in xs]
                + [(np.array([x0, y]), np.array([x1, y])) for y in ys])


def default_roi(domain):
    if domain.shape == "disk":
        return (-0.65, -0.65, 0.65, 0.65)
    return (0.1, 0.1, 0.9, 0.9)


def pixel_family(domain, grid_n, roi=None):
    """The scanning family for a grid_n x grid_n window (``roi`` defaults to
    ``default_roi``).  No member is built here."""
    if grid_n < 2:
        raise GeometryError("grid_n must be at least 2")
    roi = tuple(roi) if roi is not None else default_roi(domain)
    x0, y0, x1, y1 = roi
    if not (x1 > x0 and y1 > y0):
        raise GeometryError("roi must have positive extent")
    return PixelFamily(domain=domain, grid_n=grid_n, roi=roi)
