import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eitmono import polygons as pg

from reference_predicates import (ref_crossing_parity, ref_points_in_polygon,
                                  ref_points_segments_distance_kd,
                                  ref_polygon_is_simple,
                                  ref_segment_point_distance,
                                  ref_segments_properly_intersect)


def test_signed_area_orientation():
    sq = pg.rectangle(0, 0, 2, 1)
    assert np.isclose(pg.signed_area(sq), 2.0)
    assert np.isclose(pg.signed_area(sq[::-1]), -2.0)
    assert np.isclose(pg.polygon_area(sq[::-1]), 2.0)


def test_regular_polygon_area():
    # area of an n-gon inscribed in radius r: n/2 * r^2 * sin(2 pi / n)
    for n in (8, 64, 256):
        poly = pg.regular_polygon((0.3, -0.2), 1.5, n)
        exact = 0.5 * n * 1.5 ** 2 * np.sin(2 * np.pi / n)
        assert np.isclose(pg.polygon_area(poly), exact, rtol=1e-12)


def test_point_in_polygon_basic():
    sq = pg.rectangle(0, 0, 1, 1)
    assert pg.point_in_polygon((0.5, 0.5), sq)
    assert not pg.point_in_polygon((1.5, 0.5), sq)
    assert pg.point_in_polygon((0.0, 0.5), sq, boundary=True)
    assert not pg.point_in_polygon((0.0, 0.5), sq, boundary=False)


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


def polygons_interiors_disjoint(poly_a, poly_b, tol=1e-12):
    """True when the open interiors of two simple polygons do not overlap.

    Touching along edges or at vertices is allowed.
    """
    pa = np.asarray(poly_a, dtype=float)
    pb = np.asarray(poly_b, dtype=float)
    if pg.polygons_edges_cross(pa, pb):
        return False
    # No proper edge crossings: containment decides overlap.
    if pg.point_in_polygon(pg._interior_probe(pa), pb, boundary=False, tol=tol):
        return False
    if pg.point_in_polygon(pg._interior_probe(pb), pa, boundary=False, tol=tol):
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
    assert pg.polygons_edges_cross(a, pg.rectangle(0.5, 0.5, 2.5, 1.5))
    assert not pg.polygons_edges_cross(a, pg.rectangle(1, 0, 2, 1))
    assert not pg.polygons_edges_cross(a, pg.rectangle(0.25, 0.25, 0.75, 0.75))


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


def probes(poly, extra):
    """Query points: the drawn ones, every vertex, every edge midpoint (on
    the edge) and points level with every vertex."""
    b = np.roll(poly, -1, axis=0)
    level = np.column_stack([poly[:, 0] + 0.125, poly[:, 1]])
    return np.vstack([np.asarray(extra, dtype=float).reshape(-1, 2), poly,
                      (poly + b) / 2.0, level])


@fast
@given(polygon, st.lists(point, max_size=20), st.booleans(),
       st.sampled_from([0.0, 1e-12, 1e-3]))
def test_points_in_polygon_matches_dense_reference(poly, extra, boundary, tol):
    pts = probes(poly, extra)
    got = pg.points_in_polygon(pts, poly, boundary=boundary, tol=tol)
    assert np.array_equal(got, ref_points_in_polygon(pts, poly, boundary, tol))
    assert np.array_equal(pg._crossing_parity(pts, poly, np.roll(poly, -1, axis=0)),
                          ref_crossing_parity(pts, poly, np.roll(poly, -1, axis=0)))
    single = pg.points_in_polygon(tuple(pts[0]), poly, boundary=boundary, tol=tol)
    assert single is bool(ref_points_in_polygon(pts[:1], poly, boundary, tol)[0])


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
    for poly in cases:
        for p in (poly, poly[::-1]):
            assert pg.polygon_is_simple(p) == ref_polygon_is_simple(p)
    assert pg.polygon_is_simple(cases[-1]) and not pg.polygon_is_simple(cases[0])


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
@given(polygon, polygon)
def test_polygons_edges_cross_matches_loop_reference(pa, pb):
    want = any(ref_segments_properly_intersect(pa[k], pa[(k + 1) % len(pa)],
                                               pb[m], pb[(m + 1) % len(pb)])
               for k in range(len(pa)) for m in range(len(pb)))
    assert pg.polygons_edges_cross(pa, pb) == want


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


def test_kd_path_matches_reference_through_public_call():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (600, 2))
    a = rng.uniform(-1, 1, (90, 2))
    b = a + 0.1 * rng.standard_normal((90, 2))
    b[:3] = a[:3]                       # degenerate segments
    got = pg.points_segments_distance(pts, a, b, cutoff=0.05)
    assert np.array_equal(got, ref_points_segments_distance_kd(pts, a, b, 0.05))
