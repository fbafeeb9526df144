import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eitmono import polygons as pg
from eitmono.cli import Problem
from eitmono.coefficient import (_FEATURE_TOL, CoefficientError, CoefficientField,
                                 SingularNodeError, WeightSpec, graded_triangle_integrals)
from eitmono.geometry import RegionSet, triangulate
from eitmono.ndmap import CutOffError, bracketed_maps, build_basis
from eitmono import phantoms

from conftest import build_field
from record_contract import contract_config
from reference_quadrature import integrate, scalar_dispatch, triangle_area


class TestWeightSpec:
    def test_exponent_ranges(self):
        with pytest.raises(CoefficientError):
            WeightSpec.radial_power((0, 0), 2.0)
        with pytest.raises(CoefficientError):
            WeightSpec.radial_power((0, 0), -2.5)
        with pytest.raises(CoefficientError):
            WeightSpec.surface_power([(0, 0), (1, 0)], 1.0)
        WeightSpec.radial_power((0, 0), 1.9)
        WeightSpec.surface_power([(0, 0), (1, 0)], -0.9)

    def test_radial_eval(self):
        w = WeightSpec.radial_power((0.0, 0.0), 1.0)
        assert np.isclose(w.eval(np.array([[0.5, 0.0]]))[0], 0.5)
        w2 = WeightSpec.radial_power((0.0, 0.0), 0.5, amplitude=2.0)
        assert np.isclose(w2.eval(np.array([[0.25, 0.0]]))[0], 2 * 0.5)

    def test_surface_eval(self):
        w = WeightSpec.surface_power([(-1, 0), (1, 0)], 0.5)
        assert np.isclose(w.eval(np.array([[0.0, 0.09]]))[0], 0.3)

    def test_product_and_clip(self):
        w = WeightSpec.product(WeightSpec.radial_power((0, 0), 1.0),
                               WeightSpec.constant(3.0))
        assert np.isclose(w.eval(np.array([[0.5, 0.0]]))[0], 1.5)

    def test_singular_node_error(self):
        w = WeightSpec.radial_power((0.0, 0.0), -0.5)
        with pytest.raises(SingularNodeError):
            w.eval(np.array([[0.0, 0.0]]))
        # positive exponents evaluate to zero there instead
        wp = WeightSpec.radial_power((0.0, 0.0), 0.5)
        assert wp.eval(np.array([[0.0, 0.0]]))[0] == 0.0

    def test_features(self):
        w = WeightSpec.product(
            WeightSpec.radial_power((0.1, 0.2), -0.5),
            WeightSpec.surface_power([(0, 0), (1, 0)], 0.5))
        assert len(w.singular_points()) == 1
        assert len(w.singular_segments()) == 1
        assert np.allclose(w.vertex_exponents([(0.1, 0.2), (0.5, 0.0)]), [-0.5, 0.5])
        assert np.isclose(w.edge_exponents((0.2, 0.0), (0.6, 0.0))[0], 0.5)
        assert np.isnan(w.edge_exponents((0.2, 0.1), (0.6, 0.1))[0])


class TestValidation:
    def test_sign_violation_rejected(self, disk):
        regions, spec = phantoms.build_phantom("weighted_annulus")
        mesh = triangulate(disk, regions, target_h=0.12)
        bad = dict(spec)
        # weight exceeding the background on Ddeg violates the deficit side
        bad["Ddeg"] = WeightSpec.radial_power((0.0, 0.0), 0.5, amplitude=100.0)
        with pytest.raises(CoefficientError):
            build_field(mesh, bad)

    def test_missing_values_rejected(self, disk):
        regions, spec = phantoms.build_phantom("df_minus_square")
        mesh = triangulate(disk, regions, target_h=0.12)
        with pytest.raises(CoefficientError):
            CoefficientField(mesh=mesh, gamma0=1.0).validate()

    def test_dfplus_below_background_rejected(self, disk):
        regions, spec = phantoms.build_phantom("df_plus_disk")
        mesh = triangulate(disk, regions, target_h=0.12)
        with pytest.raises(CoefficientError):
            CoefficientField(mesh=mesh, gamma0=1.0,
                             finite_values={"DFplus": 0.5}).validate()


@pytest.mark.parametrize("label", ["background", "DFplus"])
def test_provenance_tells_huge_values_apart(disk, label):
    # np.round(v, 12) overflows to inf above about 1.8e296, so such values
    # are hashed unrounded; one just below keeps its rounded hash
    regions, _ = phantoms.build_phantom("df_plus_disk")
    mesh = triangulate(disk, regions, target_h=0.2)

    def provenance(value):
        if label == "background":
            return CoefficientField(mesh=mesh, gamma0=value,
                                    finite_values={"DFplus": 2.0}).provenance()
        return CoefficientField(mesh=mesh, gamma0=1.0,
                                finite_values={"DFplus": value}).provenance()

    hashes = [provenance(v) for v in (1.7e296, 1e300, 1e305, 1e308)]
    assert len(set(hashes)) == 4


class TestBracketing:
    def test_no_weights_identity(self, disk_mesh, basis8):
        fld = CoefficientField(mesh=disk_mesh, gamma0=1.0)
        maps, _ = bracketed_maps(fld, basis8)
        assert [nd.field_hash for nd in maps] == [fld.provenance()]

    def test_weighted_annulus_brackets(self, disk):
        regions, spec = phantoms.build_phantom("weighted_annulus")
        mesh = triangulate(disk, regions, target_h=0.1)
        fld = build_field(mesh, spec)
        maps, _ = bracketed_maps(fld, build_basis(mesh, 8))
        assert [nd.field_hash for nd in maps] == [
            fld.provenance() + tag for tag in ("", "+lower", "+upper")]
        # 0 <= w <= gamma0 on the weighted ring, so the ND maps are ordered:
        # the insulating lower bracket over the data over the upper bracket
        mask = fld.mesh.triangle_region == "Ddeg"
        w = fld.weights["Ddeg"].eval(fld.mesh.centroids()[mask])
        assert np.all(w > 0) and np.all(w <= 1.0 + 1e-12)
        nd, low, up = (m.matrix for m in maps)
        scale = np.abs(nd).max()
        assert np.linalg.eigvalsh(low - nd).min() >= -1e-10 * scale
        assert np.linalg.eigvalsh(nd - up).min() >= -1e-10 * scale
        assert np.linalg.eigvalsh(low - up).max() > 1e-3 * scale

    def test_disconnecting_bracket_rejected(self, disk):
        # an annular weighted region whose insulating bracket seals off an
        # island; built directly (bypassing the region checks on purpose)
        outer = pg.regular_polygon((0, 0), 0.45, 32)
        inner = pg.regular_polygon((0, 0), 0.25, 32)[::-1].copy()
        regions = RegionSet(polys={"Ddeg": [outer, inner]})
        mesh = triangulate(disk, regions, target_h=0.1)
        w = WeightSpec.radial_power((0.0, 0.0), 0.5, amplitude=1.0 / 0.45 ** 0.5)
        fld = CoefficientField(mesh=mesh, gamma0=1.0, weights={"Ddeg": w})
        with pytest.raises(CutOffError):
            bracketed_maps(fld, build_basis(mesh, 8))


# Weights with a radial factor at CENTER, a surface factor on POLYLINE or
# both, and triangles that are free, have a vertex at CENTER, have a vertex
# on POLYLINE or have an edge on it; a feature vertex is moved by an offset
# within, at or beyond the feature tolerance.
CENTER = (0.1, -0.05)
POLYLINE = ((-0.4, -0.2), (0.0, 0.1), (0.5, 0.15))
coords = st.floats(-0.6, 0.6)
offsets = st.sampled_from([0.0, 0.4 * _FEATURE_TOL, -0.7 * _FEATURE_TOL,
                           _FEATURE_TOL, 2 * _FEATURE_TOL])


@st.composite
def weights(draw):
    radial = WeightSpec.radial_power(CENTER, draw(st.floats(-1.9, 1.9)),
                                     amplitude=draw(st.floats(0.5, 2.0)))
    surface = WeightSpec.surface_power(POLYLINE, draw(st.floats(-0.9, 0.9)))
    return draw(st.sampled_from([radial, surface, WeightSpec.product(radial, surface)]))


@st.composite
def triangles(draw):
    kind = draw(st.sampled_from(["free", "vertex", "on_line", "edge"]))
    p = np.array([[draw(coords), draw(coords)] for _ in range(3)])
    if kind == "vertex":
        p[0] = np.array(CENTER) + draw(offsets)
    elif kind != "free":
        k = draw(st.integers(0, len(POLYLINE) - 2))
        a, b = np.array(POLYLINE[k]), np.array(POLYLINE[k + 1])
        t0, t1 = draw(st.floats(0.0, 0.45)), draw(st.floats(0.55, 1.0))
        p[0] = a + t0 * (b - a) + draw(offsets)
        if kind == "edge":
            p[1] = a + t1 * (b - a)
    assume(triangle_area(p) > 1e-3)
    return p[draw(st.permutations(range(3)))]


class TestElementIntegrals:
    @settings(max_examples=80, deadline=None)
    @given(w=weights(), tris=st.lists(triangles(), min_size=1, max_size=6))
    @example(w=WeightSpec.radial_power(CENTER, -1.5),
             tris=[np.array([CENTER, (0.3, 0.0), (0.0, 0.3)]),
                   np.array([(0.2, 0.3), (0.4, 0.3), (0.3, 0.5)])])
    def test_batched_integrals_match_one_triangle_calls(self, w, tris):
        # each triangle's integral is the same bit for bit whatever else is
        # in the batch, and within 1e-12 of the per-triangle reference
        got = graded_triangle_integrals(np.array(tris), w, depth=4)
        one = [graded_triangle_integrals(tri[None], w, depth=4)[0] for tri in tris]
        ref = [scalar_dispatch(tri, w, depth=4) for tri in tris]
        assert got.tobytes() == np.array(one).tobytes()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", [
        name for name in phantoms.REGRESSION_PHANTOMS + ("surface_weighted_blob",)
        if {"Ddeg", "Dsing"} & set(phantoms.build_phantom(name)[1])])
    def test_batched_integrals_on_weighted_phantoms(self, name):
        # the element integrals of every weighted label, batched per label,
        # against one-triangle calls and the per-triangle reference (grid 8
        # as in the contract, at its h=0.1 and at h=0.07)
        for h in (0.1, 0.07):
            cfg = contract_config(name)
            cfg["mesh"]["target_h"] = h
            problem = Problem(cfg)
            problem.build_mesh()
            fld = problem.build_field()
            got = fld.element_integrals()
            for label, w in fld.weights.items():
                tris = np.flatnonzero(fld.mesh.triangle_region == label)
                coords = fld.mesh.triangle_coords(tris)
                one = [graded_triangle_integrals(tri[None], w, depth=fld.quad_depth)[0]
                       for tri in coords]
                ref = [scalar_dispatch(tri, w, depth=fld.quad_depth) for tri in coords]
                assert len(tris)
                assert got[tris].tobytes() == np.array(one).tobytes()
                np.testing.assert_allclose(got[tris], ref, rtol=1e-12, atol=0)

    def test_nonfinite_integral_names_the_first_bad_triangle(self, disk, monkeypatch):
        from eitmono import coefficient

        regions, spec = phantoms.build_phantom("weighted_annulus")
        fld = build_field(triangulate(disk, regions, target_h=0.12), spec)
        ddeg = np.flatnonzero(fld.mesh.triangle_region == "Ddeg")
        real = coefficient.graded_triangle_integrals

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            out[[4, 9]] = np.inf
            return out

        monkeypatch.setattr(coefficient, "graded_triangle_integrals", poisoned)
        with pytest.raises(CoefficientError,
                           match=f"^nonfinite element integral on triangle {ddeg[4]} "
                                 r"\(Ddeg\); undeclared singularity\?$"):
            fld.element_integrals()

    @pytest.mark.parametrize("factors, exact", [
        ([WeightSpec.surface_power([(1, 0), (0, 0), (0, 1)], -0.5)],
         4 * math.sqrt(2) / 3),
        ([WeightSpec.surface_power([(1, 0), (0, 1)], -0.5),
          WeightSpec.radial_power((0, 0), -1.0)],
         2 ** 1.75 * math.log(1 + math.sqrt(2))),
        # 2 * integral over t > 0 of dt / sqrt(t (1 + t) (1 + t^2)), the
        # polar form at the corner, to 16 digits
        ([WeightSpec.radial_power((0, 0), -1.0),
          WeightSpec.surface_power([(0, 0), (1, 0)], -0.5)],
         4.774001885274005),
        ([WeightSpec.radial_power((0, 0), -1.0), WeightSpec.radial_power((1, 0), 0.5)],
         None),
    ], ids=["two_edges", "apex", "edge_end", "two_corners"])
    def test_features_the_element_rule_cannot_grade(self, factors, exact):
        # features that a rule grading toward one edge or one corner could
        # not reach: two singular edges at a corner, a singular corner
        # opposite a singular edge, a point at the end of a singular segment
        # and two singular corners; the corner-collapsed rule grades them
        # all, to its order-40 value where no closed form is at hand
        tri = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        w = WeightSpec.product(*factors)
        got = graded_triangle_integrals(tri, w, depth=12)[0]
        if exact is None:
            exact = graded_triangle_integrals(tri, w, depth=40)[0]
        assert abs(got - exact) < 1e-12

    def test_triangle_at_the_end_of_a_polyline(self):
        # a `surface_weighted_blob` triangle whose corner is the end of its
        # singular segment, against the plain rule split 7 times (itself
        # within 3e-9 of 8 splits)
        _, spec = phantoms.build_phantom("surface_weighted_blob")
        tri = np.array([[-0.14, -0.04], [-0.1, -0.05], [-0.105, 0.0]])
        got = graded_triangle_integrals(tri[None], spec["Ddeg"])[0]
        fine = integrate(spec["Ddeg"].eval, tri[None], splits=7)
        assert abs(got - fine) < 1e-6 * fine

    def test_weighted_element_convergence(self, disk):
        # element integral over a triangle at the singular vertex converges
        # in the order of the rule (relative change under 1e-10 from 12 to 16)
        w = WeightSpec.radial_power((0.0, 0.0), -1.5)
        tri = np.array([[0.0, 0.0], [0.08, 0.0], [0.0, 0.08]])
        v12 = graded_triangle_integrals(tri[None], w, depth=12)[0]
        v16 = graded_triangle_integrals(tri[None], w, depth=16)[0]
        assert abs(v12 - v16) / abs(v16) < 1e-10

    @pytest.mark.parametrize("depth", [0, 65, 2.5])
    @pytest.mark.parametrize("shift", [0.0, 5.0], ids=["graded", "plain"])
    def test_depth_outside_range_rejected(self, depth, shift):
        # the order is checked whether or not a triangle is graded
        w = WeightSpec.radial_power((0.0, 0.0), -1.0)
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + shift
        with pytest.raises(CoefficientError, match=r"depth must be an integer in \[1, 64\]"):
            graded_triangle_integrals(tri[None], w, depth=depth)

    def test_field_element_integrals(self, disk):
        regions, spec = phantoms.build_phantom("weighted_annulus")
        mesh = triangulate(disk, regions, target_h=0.12)
        fld = build_field(mesh, spec)
        vals = fld.element_integrals()
        areas = mesh.triangle_areas()
        bg = mesh.triangle_region == "bg"
        assert np.allclose(vals[bg], areas[bg])
        d0 = mesh.triangle_region == "D0"
        assert np.all(np.isnan(vals[d0]))
        ddeg = mesh.triangle_region == "Ddeg"
        # deficit weight: element averages strictly below the area
        assert np.all(vals[ddeg] < areas[ddeg])
        assert np.all(vals[ddeg] > 0)
