import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitmono import polygons as pg
from eitmono.geometry import (GeometryError, RegionSet, build_domain, triangulate,
                              validate_regions)
from eitmono.ndmap import _firsts

from reference_predicates import (ref_ball_point_distance_kd, ref_box_pairs,
                                  ref_crossing_parity, ref_points_in_polygon,
                                  ref_points_segments_distance_dense,
                                  ref_points_segments_distance_kd,
                                  ref_polygon_is_simple,
                                  ref_polygon_is_simple_all_pairs,
                                  ref_polygons_edges_cross,
                                  ref_polygons_edges_cross_all_pairs,
                                  ref_segment_point_distance,
                                  ref_segments_properly_intersect, signed_area)


def test_signed_area_orientation():
    sq = pg.rectangle(0, 0, 2, 1)
    assert np.isclose(signed_area(sq), 2.0)
    assert np.isclose(signed_area(sq[::-1]), -2.0)


def test_regular_polygon_area():
    # area of an n-gon inscribed in radius r: n/2 * r^2 * sin(2 pi / n)
    for n in (8, 64, 256):
        poly = pg.regular_polygon((0.3, -0.2), 1.5, n)
        exact = 0.5 * n * 1.5 ** 2 * np.sin(2 * np.pi / n)
        assert np.isclose(abs(signed_area(poly)), exact, rtol=1e-12)


def test_point_in_polygon_basic():
    # within tol of an edge counts as inside; at tol 0 the bare crossing
    # parity holds the left edge and not the right one
    sq = pg.rectangle(0, 0, 1, 1)
    pts = [(0.5, 0.5), (1.5, 0.5), (0.0, 0.5), (1.0, 0.5)]
    assert pg.points_in_polygon(pts, sq).tolist() == [True, False, True, True]
    assert pg.points_in_polygon(pts, sq, tol=0.0).tolist() == [True, False, True, False]


def test_points_in_region_parity_hole():
    outer = pg.regular_polygon((0, 0), 1.0, 32)
    hole = pg.regular_polygon((0, 0), 0.4, 32)[::-1].copy()
    pts = np.array([[0.0, 0.0], [0.7, 0.0], [1.2, 0.0]])
    got = pg.points_in_region(pts, [outer, hole])
    assert got.tolist() == [False, True, False]


def test_polygon_is_simple():
    assert pg.polygon_is_simple(pg.rectangle(0, 0, 1, 1))
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    assert not pg.polygon_is_simple(bowtie)
    repeated = np.array([[0, 0], [1, 0], [1, 0], [0, 1]], dtype=float)
    assert not pg.polygon_is_simple(repeated)


def crossing(poly_a, poly_b):
    """Whether `validate_regions` finds edges of D0 poly_a and Dinf poly_b
    that cross (on the unit square, whatever lies outside it)."""
    regions = RegionSet(polys={"D0": [poly_a], "Dinf": [poly_b]})
    return "regions D0 and Dinf overlap (edges cross)" in \
        validate_regions(build_domain("square"), regions)


def polygons_interiors_disjoint(poly_a, poly_b):
    """True when D0 poly_a and Dinf poly_b, scaled into the unit square,
    pass `validate_regions` and mesh without a clash at h=0.1.

    Touching along edges or at vertices is allowed.
    """
    regions = RegionSet(polys={"D0": [0.1 + 0.25 * poly_a], "Dinf": [0.1 + 0.25 * poly_b]})
    square = build_domain("square")
    if validate_regions(square, regions):
        return False
    try:
        triangulate(square, regions, target_h=0.1)
    except GeometryError:
        return False
    return True


def test_interiors_disjoint():
    a = pg.rectangle(0, 0, 1, 1)
    b = pg.rectangle(2, 0, 3, 1)
    c = pg.rectangle(0.5, 0.5, 2.5, 1.5)
    touching = pg.rectangle(1, 0, 2, 1)
    assert polygons_interiors_disjoint(a, b)
    assert not polygons_interiors_disjoint(a, c)
    assert not polygons_interiors_disjoint(b, c)
    assert polygons_interiors_disjoint(a, touching)
    nested = pg.rectangle(0.25, 0.25, 0.75, 0.75)
    assert not polygons_interiors_disjoint(a, nested)


def test_segment_intersection():
    a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    c, d = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    assert pg.segments_properly_intersect(a, b, c, d)
    x = pg.segment_intersection_point(a, b, c, d)
    assert np.allclose(x, [0.5, 0.5])
    # sharing an endpoint is not a proper intersection
    assert not pg.segments_properly_intersect(a, b, b, d)


def test_distances():
    assert np.isclose(pg.segment_point_distance((0, 1), (0, 0), (2, 0)), 1.0)
    assert np.isclose(pg.segment_point_distance((-1, 1), (0, 0), (2, 0)),
                      np.sqrt(2))
    pts = np.array([[0.0, 0.5], [3.0, 0.0]])
    d = pg.points_segments_distance(pts, np.array([[0.0, 0.0]]),
                                    np.array([[2.0, 0.0]]))
    assert np.allclose(d, [0.5, 1.0])
    # KD-tree path agrees with the direct path
    rng = np.random.default_rng(7)
    pts = rng.random((400, 2))
    a = rng.random((100, 2))
    b = a + 0.05 * rng.random((100, 2))
    direct = pg.points_segments_distance(pts, a, b)
    kd = pg.points_segments_distance(pts, a, b, cutoff=0.2)
    assert np.allclose(np.minimum(direct, 0.2), kd)


def test_polygons_edges_cross():
    a = pg.rectangle(0, 0, 1, 1)
    assert crossing(a, pg.rectangle(0.5, 0.5, 2.5, 1.5))
    assert not crossing(a, pg.rectangle(1, 0, 2, 1))
    assert not crossing(a, pg.rectangle(0.25, 0.25, 0.75, 0.75))


# Coordinates on a coarse lattice make repeated vertices, horizontal edges,
# collinear touches and query points level with a vertex common; free
# floats cover the generic case.
lattice = st.integers(-4, 4).map(lambda k: k / 4)
coord = st.one_of(lattice, st.floats(-1, 1, allow_nan=False, width=64))
point = st.tuples(coord, coord)
polygon = st.builds(
    lambda verts, ccw: np.array(verts if ccw else verts[::-1], dtype=float),
    st.lists(point, min_size=3, max_size=10), st.booleans())
fast = settings(max_examples=150, deadline=None)


def star_order(verts, ccw):
    """The vertices in angular order about their mean (reversed when not
    ``ccw``), which makes most of them simple polygons."""
    p = np.array(verts, dtype=float)
    d = p - p.mean(axis=0)
    p = p[np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")]
    return p if ccw else p[::-1].copy()


simple_polygon = st.builds(star_order, st.lists(point, min_size=3, max_size=10),
                           st.booleans()).filter(pg.polygon_is_simple)


def probes(poly, extra):
    """Query points: the drawn ones, every vertex, every edge midpoint (on
    the edge), points level with every vertex, and points 1e-3 and 2e-3
    above and below every vertex (at and beyond a 1e-3 tolerance, where
    the near-edge test's slabs end)."""
    b = np.roll(poly, -1, axis=0)
    level = np.column_stack([poly[:, 0] + 0.125, poly[:, 1]])
    shifted = [poly + [0.0, dy] for dy in (1e-3, -1e-3, 2e-3, -2e-3)]
    return np.vstack([np.asarray(extra, dtype=float).reshape(-1, 2), poly,
                      (poly + b) / 2.0, level] + shifted)


@fast
@given(polygon, st.lists(point, max_size=20), st.sampled_from([0.0, 1e-12, 1e-3]))
def test_points_in_polygon_matches_dense_reference(poly, extra, tol):
    pts = probes(poly, extra)
    got = pg.points_in_polygon(pts, poly, tol=tol)
    assert np.array_equal(got, ref_points_in_polygon(pts, poly, tol))
    assert np.array_equal(pg._crossing_parity(pts, poly, np.roll(poly, -1, axis=0)),
                          ref_crossing_parity(pts, poly, np.roll(poly, -1, axis=0)))
    single = pg.points_in_polygon(tuple(pts[0]), poly, tol=tol)
    assert single.tolist() == ref_points_in_polygon(pts[:1], poly, tol).tolist()


@fast
@given(polygon, st.sampled_from([1e-12, 1e-3, 0.1]))
def test_polygon_is_simple_matches_loop_reference(poly, tol):
    assert pg.polygon_is_simple(poly, tol) == ref_polygon_is_simple(poly, tol)


def test_polygon_is_simple_touching_cases():
    # a vertex on the interior of a non-adjacent edge, a repeated vertex,
    # collinear overlap and a flat triangle (every edge pair adjacent), in
    # both orientations
    cases = [np.array([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]], dtype=float),
             np.array([[0, 0], [1, 0], [1, 1], [0, 0], [-1, 1]], dtype=float),
             np.array([[0, 0], [3, 0], [2, 0], [1, 1]], dtype=float),
             np.array([[0, 0], [2, 0], [1, 0]], dtype=float),
             pg.regular_polygon((0, 0), 0.5, 32)]
    # a vertex 0.5, 0.9, 1.5 and 2.5 thousandths off the interior of an
    # axis-parallel edge: within a 1e-3 tolerance for the first two only
    cases += [np.array([[0, 0], [2, 0], [2, 2], [1, off], [0, 2]])
              for off in (5e-4, 9e-4, 1.5e-3, 2.5e-3)]
    for poly in cases:
        for p in (poly, poly[::-1]):
            for tol in (1e-12, 1e-3):
                assert pg.polygon_is_simple(p, tol) == ref_polygon_is_simple(p, tol)
    assert pg.polygon_is_simple(cases[4]) and not pg.polygon_is_simple(cases[0])
    assert [pg.polygon_is_simple(p, 1e-3) for p in cases[5:]] == [False, False, True, True]


@fast
@given(st.lists(st.tuples(point, point, point), min_size=1, max_size=30))
def test_segment_point_distance_matches_scalar_reference(rows):
    p, a, b = (np.array(col, dtype=float) for col in zip(*rows))
    got = pg.segment_point_distance(p, a, b)
    want = [ref_segment_point_distance(*r) for r in zip(p, a, b)]
    assert np.array_equal(got, want)
    assert pg.segment_point_distance(p[0], a[0], b[0]) == want[0]
    crossed = pg.segments_properly_intersect(p, a, b, np.roll(p, 1, axis=0))
    assert crossed.tolist() == [bool(ref_segments_properly_intersect(*r))
                                for r in zip(p, a, b, np.roll(p, 1, axis=0))]


@fast
@given(simple_polygon, simple_polygon)
def test_polygons_edges_cross_matches_loop_reference(pa, pb):
    # validate_regions takes simple polygons only
    assert crossing(pa, pb) == ref_polygons_edges_cross(pa, pb)


@fast
@given(st.lists(point, min_size=1, max_size=40),
       st.lists(st.tuples(point, point), min_size=1, max_size=20),
       st.floats(1e-3, 1.0))
def test_kd_distance_matches_per_point_reference(pts, segs, cutoff):
    pts = np.array(pts, dtype=float)
    a = np.array([s[0] for s in segs], dtype=float)
    b = np.array([s[1] for s in segs], dtype=float)
    got = pg._points_segments_distance_kd(pts, a, b, cutoff)
    assert np.array_equal(got, ref_points_segments_distance_kd(pts, a, b, cutoff))


@fast
@given(st.lists(point, min_size=1, max_size=40),
       st.lists(st.tuples(point, point), max_size=20),
       st.lists(point, max_size=4))
def test_dense_distance_matches_reference(pts, segs, stubs):
    # the public call without a cutoff, with zero-length segments among
    # the inputs, bit for bit against the loop with its arithmetic inline
    segs = segs + [(p, p) for p in stubs] or [((0.0, 0.0), (0.0, 0.0))]
    pts = np.array(pts, dtype=float)
    a = np.array([s[0] for s in segs], dtype=float)
    b = np.array([s[1] for s in segs], dtype=float)
    got = pg.points_segments_distance(pts, a, b)
    assert np.array_equal(got, ref_points_segments_distance_dense(pts, a, b))


def test_kd_path_matches_reference_through_public_call():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (600, 2))
    a = rng.uniform(-1, 1, (90, 2))
    b = a + 0.1 * rng.standard_normal((90, 2))
    b[:3] = a[:3]                       # degenerate segments
    got = pg.points_segments_distance(pts, a, b, cutoff=0.05)
    assert np.array_equal(got, ref_points_segments_distance_kd(pts, a, b, 0.05))


def at_the_radii(a, b, cutoff):
    """Points exactly ``cutoff`` from each segment endpoint along the axes
    (from an axis-parallel segment, exactly ``cutoff`` from the segment),
    and points the KD search radius from each midpoint along the axes."""
    mid = (a + b) / 2.0
    radius = cutoff + float(np.max(0.5 * np.hypot(*(b - a).T)))
    axes = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return np.concatenate([(c[:, None] + r * axes[None]).reshape(-1, 2)
                           for c, r in ((a, cutoff), (b, cutoff), (mid, radius))])


@fast
@given(st.lists(st.tuples(st.tuples(lattice, lattice), st.tuples(lattice, lattice)),
                min_size=1, max_size=12),
       st.lists(point, max_size=20), st.sampled_from([0.125, 0.25, 0.5, 0.3]))
def test_kd_pairs_match_ball_point_reference_at_the_radii(segs, extra, cutoff):
    # the candidate pairs as one array against the per-point candidate
    # lists, with points exactly at the cutoff and at the search radius
    a = np.array([s[0] for s in segs], dtype=float)
    b = np.array([s[1] for s in segs], dtype=float)
    pts = np.concatenate([at_the_radii(a, b, cutoff),
                          np.array(extra, dtype=float).reshape(-1, 2)])
    got = pg._points_segments_distance_kd(pts, a, b, cutoff)
    assert got.dtype == np.float64
    assert np.array_equal(got, ref_ball_point_distance_kd(pts, a, b, cutoff))
    assert np.array_equal(got, ref_points_segments_distance_kd(pts, a, b, cutoff))


# Keys drawn from a few values tie often; the tail of the range tests the
# int64 bound of the composite keys.
tied_keys = st.lists(st.integers(0, 5), max_size=60)


@fast
@given(tied_keys, tied_keys)
def test_stable_order_matches_numpy_sorts(keys, minor):
    keys = np.array(keys, dtype=np.int64)
    got = pg.stable_order(keys)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(keys, kind="stable"))
    # two key columns as one composite key sort like np.lexsort
    minor = np.resize(np.array(minor + [0], dtype=np.int64), len(keys))
    assert np.array_equal(pg.stable_order(keys * 6 + minor), np.lexsort((minor, keys)))
    # first index and inverse of every distinct key, as np.unique gives them
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    got_first, got_inverse = _firsts(keys)
    assert np.array_equal(got_first, first) and np.array_equal(got_inverse, inverse)


def test_stable_order_edges():
    assert pg.stable_order(np.zeros(0, dtype=np.int64)).tolist() == []
    assert pg.stable_order(np.array([7])).tolist() == [0]
    for n in (1, 2, 3, 1000):
        top = (np.iinfo(np.int64).max - (n - 1)) // n
        keys = np.full(n, top, dtype=np.int64)
        keys[::2] = 0
        assert np.array_equal(pg.stable_order(keys), np.argsort(keys, kind="stable"))
        if n == 1:
            continue                    # top is the int64 maximum itself
        keys[-1] = top + 1
        with pytest.raises(ValueError, match="stable_order"):
            pg.stable_order(keys)
    with pytest.raises(ValueError, match="stable_order"):
        pg.stable_order(np.array([3, -1]))


def segment_boxes(segs):
    a = np.array([s[0] for s in segs], dtype=float).reshape(-1, 2)
    b = np.array([s[1] for s in segs], dtype=float).reshape(-1, 2)
    return np.minimum(a, b), np.maximum(a, b)


@fast
@given(st.lists(st.tuples(point, point), max_size=40),
       st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
def test_box_pairs_match_all_pairs_filter(segs, tol):
    # lattice coordinates make collinear, touching and zero-length segments
    lo, hi = segment_boxes(segs)
    i, j = pg.box_pairs(lo, hi, tol)
    ri, rj = ref_box_pairs(lo, hi, tol)
    assert np.array_equal(i, ri) and np.array_equal(j, rj)


def test_box_pairs_on_collinear_touching_and_zero_length_segments():
    # a chain along one line (each box touches the next), a zero-length
    # segment at every joint, and two boxes 5e-10 apart: near at tol 1e-9,
    # apart at tol 0
    xs = np.linspace(-1.0, 1.0, 300)
    chain = [((x0, 0.5), (x1, 0.5)) for x0, x1 in zip(xs[:-1], xs[1:])]
    dots = [((x, 0.5), (x, 0.5)) for x in xs]
    gap = [((2.0, 0.0), (3.0, 1.0)), ((3.0 + 5e-10, 0.0), (4.0, 1.0))]
    rng = np.random.default_rng(5)
    scattered = [tuple(map(tuple, s)) for s in rng.uniform(-1, 1, (300, 2, 2))]
    for segs in (chain + dots + gap, scattered, chain[::-1] + scattered):
        lo, hi = segment_boxes(segs)
        for tol in (0.0, 1e-9, 1e-2):
            got = pg.box_pairs(lo, hi, tol)
            ref = ref_box_pairs(lo, hi, tol)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    lo, hi = segment_boxes(gap)
    assert len(pg.box_pairs(lo, hi, 0.0)[0]) == 0
    assert pg.box_pairs(lo, hi, 1e-9)[0].tolist() == [0]


@fast
@given(polygon, polygon, st.sampled_from([1e-12, 1e-3, 0.1]))
def test_swept_predicates_match_all_pairs_bodies(pa, pb, tol):
    assert pg.polygon_is_simple(pa, tol) == ref_polygon_is_simple_all_pairs(pa, tol)
    if pg.polygon_is_simple(pa) and pg.polygon_is_simple(pb):
        assert crossing(pa, pb) == ref_polygons_edges_cross_all_pairs(pa, pb)


def test_swept_predicates_on_large_polygons():
    # the 128-gon of the fine forward workload, a copy shifted so that its
    # edges cross the first, one moved to touch it, and random star polygons
    disk = pg.regular_polygon((0.0, 0.0), 0.5, 128)
    rng = np.random.default_rng(3)
    theta = np.sort(rng.uniform(0, 2 * np.pi, 200))
    star = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(0.2, 1, (200, 1))
    knot = star.copy()
    knot[[10, 120]] = knot[[120, 10]]
    for poly in (disk, star, knot, disk[::-1]):
        assert pg.polygon_is_simple(poly) == ref_polygon_is_simple_all_pairs(poly)
    assert pg.polygon_is_simple(star) and not pg.polygon_is_simple(knot)
    for other in (disk + [0.3, 0.0], disk + [1.0, 0.0], star * 0.4, star + [0.8, 0.1]):
        assert crossing(disk, other) == ref_polygons_edges_cross_all_pairs(disk, other)
    assert crossing(disk, disk + [0.3, 0.0])
    assert not crossing(disk, disk + [1.0, 0.0])
