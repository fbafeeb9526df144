import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_quadrature as ref
from eitmono import quadrature as quad
from eitmono.coefficient import CoefficientError, WeightSpec, graded_triangle_integrals

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def rule_integral(f, tri, vertex=(0.0, 0.0, 0.0), edge=(np.nan,) * 3, depth=12):
    """Integral of f over one triangle by the element rule, the weight of
    degree ``vertex`` at its corners and ``edge`` on its opposite edges."""
    pts, w, owner = quad.element_rule(np.asarray(tri, float)[None], np.array([vertex]),
                                      np.array([edge]), depth)
    assert np.all(owner == 0)
    return np.bincount(owner, f(pts) * w)[0]


def test_order5_exact_to_degree_5():
    # the 7-point rule alone and the plain element rule (its 16 split
    # children) integrate every monomial up to degree 5 exactly
    for a in range(6):
        for b in range(6 - a):
            f = lambda p: p[:, 0] ** a * p[:, 1] ** b
            pts, w = quad.quad_nodes(REF)
            for got in (np.dot(f(pts), w), rule_integral(f, REF)):
                assert np.isclose(got, monomial_integral(a, b), rtol=1e-13, atol=1e-15)


def test_splits_preserve_integral():
    f = lambda p: np.cos(3 * p[:, 0]) * np.exp(p[:, 1])
    v0 = rule_integral(f, REF)
    v1 = ref.integrate(f, REF[None, :, :], splits=4)
    assert np.isclose(v0, v1, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(tris=st.lists(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                              min_size=3, max_size=3), min_size=0, max_size=7),
       labels=st.lists(st.tuples(st.sampled_from(["plain", "vertex", "edge"]),
                                 st.integers(0, 2), st.sampled_from([-1.5, -0.5, 0.5]),
                                 st.sampled_from([-0.9, -0.5, 0.5])),
                       min_size=7, max_size=7),
       depth=st.integers(1, 6))
def test_integrate_each_matches_integrate(tris, labels, depth):
    # one batch over all triangles gives each triangle's one-triangle value
    # bit for bit; the plain ones match the reference rule split twice and
    # the graded ones the piece-by-piece reference
    f = lambda p: np.cos(3 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 0] * p[:, 1]
    tris = np.array(tris, dtype=float).reshape(-1, 3, 2)
    n = len(tris)
    vertex, edge = np.zeros((n, 3)), np.full((n, 3), np.nan)
    for i, (kind, k, s_vertex, s_edge) in enumerate(labels[:n]):
        # a singular feature only on a triangle of positive area; an edge's
        # degree adds to its two end corners, as `graded_triangle_integrals`
        # computes it
        if ref.triangle_area(tris[i]) > 1e-2:
            if kind == "vertex":
                vertex[i, k] = s_vertex
            elif kind == "edge":
                edge[i, k] = s_edge
                vertex[i, [(k + 1) % 3, (k + 2) % 3]] = s_edge
    pts, w, owner = quad.element_rule(tris, vertex, edge, depth)
    got = np.bincount(owner, f(pts) * w, minlength=n)
    one = []
    for i in range(n):
        pts, w, owner = quad.element_rule(tris[i:i + 1], vertex[i:i + 1], edge[i:i + 1], depth)
        one.append(np.bincount(owner, f(pts) * w, minlength=1)[0])
    assert got.shape == (n,) and got.tobytes() == np.array(one).tobytes()
    plain = (vertex == 0.0).all(axis=1) & np.isnan(edge).all(axis=1)
    for i in range(n):
        want = (ref.integrate(f, tris[i:i + 1], splits=2) if plain[i] else
                ref.integrate_graded(f, tris[i], vertex[i],
                                     [None if np.isnan(e) else e for e in edge[i]], depth))
        assert np.isclose(got[i], want, rtol=1e-12, atol=1e-13)


def polar_vertex_oracle(tri, s, n=400):
    """1-D polar reference for the integral of |x - v|^s over a triangle
    with vertex v at the power-law center."""
    v, a, b = np.asarray(tri, float)
    e = b - a
    nrm = np.array([-e[1], e[0]])
    nrm /= np.hypot(*nrm)
    d = nrm @ (a - v)
    th_a = np.arctan2(*(a - v)[::-1])
    th_b = np.arctan2(*(b - v)[::-1])
    lo, hi = min(th_a, th_b), max(th_a, th_b)
    x, w = np.polynomial.legendre.leggauss(n)
    th = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    radius = d / (np.cos(th) * nrm[0] + np.sin(th) * nrm[1])
    return float(np.sum(w * radius ** (2 + s) / (2 + s)) * 0.5 * (hi - lo))


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 1.5])
def test_vertex_graded_matches_polar_oracle(s):
    f = lambda p: np.hypot(p[:, 0], p[:, 1]) ** s
    oracle = polar_vertex_oracle(REF, s)
    got = rule_integral(f, REF, vertex=(s, 0.0, 0.0))
    assert np.isclose(got, oracle, rtol=1e-10)


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 1.5])
def test_vertex_graded_depth_stable(s):
    # raising the order must be a Cauchy sequence: 12 vs 16 below 1e-10
    f = lambda p: np.hypot(p[:, 0], p[:, 1]) ** s
    v12 = rule_integral(f, REF, vertex=(s, 0.0, 0.0), depth=12)
    v16 = rule_integral(f, REF, vertex=(s, 0.0, 0.0), depth=16)
    assert abs(v12 - v16) / abs(v16) < 1e-10


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.5, 0.9])
def test_edge_graded_matches_closed_form(s):
    # triangle with base on y=0, apex height H: integral of y^s equals
    # H^(1+s) * (1/(1+s) - 1/(2+s)) for unit base length.
    tri = np.array([[0.3, 0.8], [0.0, 0.0], [1.0, 0.0]])
    h = 0.8
    # The edge's degree is also the degree at its two end corners.
    exact = h ** (1 + s) * (1.0 / (1 + s) - 1.0 / (2 + s))
    vertex, edge = (0.0, s, s), (s, np.nan, np.nan)
    got = rule_integral(lambda p: p[:, 1] ** s, tri, vertex, edge, depth=12)
    assert np.isclose(got, exact, rtol=1e-10)
    g16 = rule_integral(lambda p: p[:, 1] ** s, tri, vertex, edge, depth=16)
    assert abs(got - g16) / abs(g16) < 1e-10


def test_graded_exponent_bounds():
    # a corner's total exponent must lie in (-2, 2), a singular edge's in
    # (-1, 1): beyond them w or 1/w is not locally integrable
    radial = lambda s: WeightSpec.radial_power((0, 0), s)
    surface = lambda s: WeightSpec.surface_power([(0, 0), (1, 0)], s)
    for factors in ([radial(-1.0)] * 2, [radial(1.0)] * 2, [radial(-1.5), surface(-0.9)],
                    [surface(-0.5)] * 2, [surface(0.5)] * 2):
        with pytest.raises(CoefficientError, match="not locally integrable"):
            graded_triangle_integrals(REF[None], WeightSpec.product(*factors))
    for factors in ([radial(-0.99)] * 2, [surface(-0.5), surface(-0.49)], [surface(0.45)] * 2):
        assert np.isfinite(graded_triangle_integrals(REF[None], WeightSpec.product(*factors)))
