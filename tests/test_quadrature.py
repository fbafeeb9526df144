import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitmono import quadrature as quad

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("rule,degree", [("order1", 1), ("order2", 2), ("order5", 5)])
def test_rules_exact_to_degree(rule, degree):
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = quad.integrate(lambda p: p[:, 0] ** a * p[:, 1] ** b,
                                 REF[None, :, :], rule=rule)
            assert np.isclose(got, monomial_integral(a, b), rtol=1e-13, atol=1e-15)


def test_splits_preserve_integral():
    f = lambda p: np.cos(3 * p[:, 0]) * np.exp(p[:, 1])
    v0 = quad.integrate(f, REF[None, :, :], splits=3)
    v1 = quad.integrate(f, REF[None, :, :], splits=4)
    assert np.isclose(v0, v1, rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(tris=st.lists(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                              min_size=3, max_size=3), min_size=0, max_size=7),
       splits=st.integers(0, 3), rule=st.sampled_from(["order1", "order2", "order5"]))
def test_integrate_each_matches_integrate(tris, splits, rule):
    # one batch over all triangles gives each triangle's `integrate` value
    # bit for bit
    f = lambda p: np.cos(3 * p[:, 0]) * np.exp(p[:, 1]) + p[:, 0] * p[:, 1]
    tris = np.array(tris, dtype=float).reshape(-1, 3, 2)
    got = quad.integrate_each(f, tris, rule=rule, splits=splits)
    one = [quad.integrate(f, tri[None], rule=rule, splits=splits) for tri in tris]
    assert got.shape == (len(tris),) and got.tobytes() == np.array(one).tobytes()


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
    got = quad.integrate_vertex_graded(f, REF, 0, s, depth=12, splits=2)
    assert np.isclose(got, oracle, rtol=5e-6)


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 1.5])
def test_vertex_graded_depth_stable(s):
    # depth refinement must be a Cauchy sequence: 12 vs 16 below 1e-6
    f = lambda p: np.hypot(p[:, 0], p[:, 1]) ** s
    v12 = quad.integrate_vertex_graded(f, REF, 0, s, depth=12)
    v16 = quad.integrate_vertex_graded(f, REF, 0, s, depth=16)
    assert abs(v12 - v16) / abs(v16) < 1e-6


@pytest.mark.parametrize("s", [-0.9, -0.5, 0.5, 0.9])
def test_edge_graded_matches_closed_form(s):
    # triangle with base on y=0, apex height H: integral of y^s equals
    # H^(1+s) * (1/(1+s) - 1/(2+s)) for unit base length.
    tri = np.array([[0.3, 0.8], [0.0, 0.0], [1.0, 0.0]])
    h = 0.8
    exact = h ** (1 + s) * (1.0 / (1 + s) - 1.0 / (2 + s))
    got = quad.integrate_edge_graded(lambda p: p[:, 1] ** s, tri, 0, s,
                                     depth=12, splits=2)
    assert np.isclose(got, exact, rtol=1e-6)
    g16 = quad.integrate_edge_graded(lambda p: p[:, 1] ** s, tri, 0, s,
                                     depth=16, splits=2)
    assert abs(got - g16) / abs(g16) < 1e-6


def test_graded_exponent_bounds():
    f = lambda p: np.ones(len(p))
    with pytest.raises(ValueError):
        quad.integrate_vertex_graded(f, REF, 0, -2.0)
    with pytest.raises(ValueError):
        quad.integrate_edge_graded(f, REF, 0, -1.0)

