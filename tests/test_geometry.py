import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitmono import phantoms
from eitmono import polygons as pg
from eitmono.geometry import (GeometryError, Mesh, MeshConformityError,
                              RegionSet, _arrange_segments, build_domain,
                              pixel_family, triangulate, validate_regions)

from reference_predicates import ref_arrange_segments


def region_area(mesh, label):
    mask = mesh.triangle_region == label
    return float(np.sum(mesh.triangle_areas()[mask]))


class TestDomain:
    def test_full_circle(self):
        dom = build_domain("disk", (0.0, 1.0))
        assert dom.gamma_fraction == 1.0
        assert np.isclose(dom.area, 0.5 * 256 * np.sin(2 * np.pi / 256))

    def test_half_circle(self):
        dom = build_domain("disk", (0.0, 0.5))
        assert dom.gamma_fraction == 0.5
        assert dom.param_in_gamma(0.25)
        assert not dom.param_in_gamma(0.75)

    def test_square_bottom_edge(self):
        dom = build_domain("square", (0.0, 0.25))
        p = dom.boundary_point(0.125)
        assert np.allclose(p, [0.5, 0.0])
        assert dom.param_in_gamma(0.1)
        assert not dom.param_in_gamma(0.5)

    def test_zero_length_arc_rejected(self):
        with pytest.raises(GeometryError):
            build_domain("disk", (0.3, 0.3))
        with pytest.raises(GeometryError):
            build_domain("disk", (0.5, 0.2))

    def test_param_point_roundtrip(self):
        for shape in ("disk", "square"):
            dom = build_domain(shape)
            t = np.linspace(0.01, 0.99, 37)
            pts = dom.boundary_point(t)
            back = dom.boundary_param(pts)
            assert np.allclose(back, t, atol=1e-9)


class TestValidateRegions:
    def test_empty_is_clean(self, disk):
        assert validate_regions(disk, RegionSet()) == []

    def test_annular_insulator_rejected(self, disk):
        outer = pg.regular_polygon((0, 0), 0.5, 32)
        inner = pg.regular_polygon((0, 0), 0.3, 32)[::-1].copy()
        regions = RegionSet(polys={"D0": [outer, inner]})
        violations = validate_regions(disk, regions)
        assert any("complement of D0 not connected" in v for v in violations)

    def test_weighted_region_touching_union_boundary(self, disk):
        # Ddeg flush with the outer boundary of the labeled union
        df = pg.rectangle(-0.4, -0.4, 0.4, 0.4)
        ddeg = pg.rectangle(0.1, -0.2, 0.4, 0.2)   # shares x=0.4 edge
        regions = RegionSet(polys={"DFminus": [df, ddeg[::-1].copy()],
                                   "Ddeg": [ddeg]})
        violations = validate_regions(disk, regions)
        assert any("not compactly contained" in v for v in violations)

    def test_self_intersecting_raises(self, disk):
        bowtie = np.array([[0, 0], [0.3, 0.3], [0.3, 0], [0, 0.3]])
        with pytest.raises(GeometryError):
            validate_regions(disk, RegionSet(polys={"D0": [bowtie]}))

    def test_overlap_detected(self, disk):
        a = pg.rectangle(-0.3, -0.3, 0.1, 0.1)
        b = pg.rectangle(-0.1, -0.1, 0.3, 0.3)
        violations = validate_regions(
            disk, RegionSet(polys={"D0": [a], "Dinf": [b]}))
        assert any("overlap" in v for v in violations)

    def test_region_outside_domain(self, square):
        far = pg.rectangle(2.0, 2.0, 2.5, 2.5)
        violations = validate_regions(square, RegionSet(polys={"D0": [far]}))
        assert any("outside the domain" in v for v in violations)

    def test_removal_keeps_disjointness(self, disk):
        # dropping a polygon never introduces a new overlap violation
        a = pg.rectangle(-0.4, -0.4, -0.1, -0.1)
        b = pg.rectangle(0.1, 0.1, 0.4, 0.4)
        both = RegionSet(polys={"D0": [a], "DFplus": [b]})
        fewer = RegionSet(polys={"DFplus": [b]})
        v_both = [v for v in validate_regions(disk, both) if "overlap" in v]
        v_fewer = [v for v in validate_regions(disk, fewer) if "overlap" in v]
        assert len(v_fewer) <= len(v_both)


class TestTriangulate:
    def test_disk_areas(self, disk, disk_mesh):
        total = disk_mesh.triangle_areas().sum()
        assert abs(total - disk.area) / disk.area < 1e-10
        # reported polygonalization gap to the smooth disk stays small
        assert abs(disk.area - np.pi) < 1e-3

    def test_square_region_exact(self, square):
        regions = RegionSet(polys={"D0": [pg.rectangle(0.4, 0.4, 0.6, 0.6)]})
        mesh = triangulate(square, regions, target_h=0.06)
        assert abs(mesh.triangle_areas().sum() - 1.0) < 1e-10
        assert abs(region_area(mesh, "D0") - 0.04) < 1e-10 * 0.04 + 1e-14

    def test_disk_region_matches_polygon_area(self, disk):
        poly = pg.regular_polygon((0.1, -0.2), 0.25, 48)
        mesh = triangulate(disk, RegionSet(polys={"Dinf": [poly]}), target_h=0.08)
        assert np.isclose(region_area(mesh, "Dinf"), pg.polygon_area(poly),
                          rtol=1e-10)

    def test_target_h_enforced(self, disk_mesh):
        assert disk_mesh.h <= 0.1 + 1e-12

    def test_refinement_growth(self, disk, disk_mesh):
        fine = triangulate(disk, target_h=0.05)
        ratio = fine.num_vertices / disk_mesh.num_vertices
        assert 2.8 < ratio < 4.8

    def test_mesh_valid(self, disk_mesh):
        assert disk_mesh.validate(min_angle_floor=0.4) == []
        assert disk_mesh.min_angle_deg() > 5.0

    def test_unresolvable_region_diagnostic(self, disk):
        # region entirely outside the meshed domain: no triangle can get
        # its label, which is the too-coarse/unresolvable diagnostic path
        far = pg.rectangle(1.5, 1.5, 1.7, 1.7)
        with pytest.raises(MeshConformityError):
            triangulate(disk, RegionSet(polys={"D0": [far]}), target_h=0.2)

    def test_singular_point_pinned(self, disk):
        regions = RegionSet(polys={}, singular_points=[(0.123, -0.297)])
        mesh = triangulate(disk, regions, target_h=0.15)
        d = np.hypot(mesh.vertices[:, 0] - 0.123, mesh.vertices[:, 1] + 0.297)
        assert d.min() < 1e-9

    def test_gamma_endpoints_resolved(self):
        dom = build_domain("disk", (0.1, 0.6))
        mesh = triangulate(dom, target_h=0.15)
        for t in (0.1, 0.6):
            p = dom.boundary_point(t)
            d = np.hypot(*(mesh.vertices - p).T)
            assert d.min() < 1e-9
        frac = mesh.gamma_length() / sum(
            np.hypot(*(mesh.vertices[j] - mesh.vertices[i]))
            for i, j in mesh.boundary_edges)
        assert abs(frac - 0.5) < 0.01

    def test_text_roundtrip(self, disk, disk_mesh):
        text = disk_mesh.to_text()
        back = Mesh.from_text(text, disk)
        assert np.allclose(back.vertices, disk_mesh.vertices)
        assert np.array_equal(back.triangles, disk_mesh.triangles)
        assert np.array_equal(back.triangle_region, disk_mesh.triangle_region)
        assert np.array_equal(back.boundary_on_gamma, disk_mesh.boundary_on_gamma)

    def test_provenance_ignores_labels(self, disk_mesh):
        relabeled = disk_mesh.relabeled({"bg": "bg"})
        assert relabeled.provenance() == disk_mesh.provenance()


# sha256 of (vertices, triangles, triangle_region, boundary_edges,
# boundary_on_gamma) of each regression phantom meshed at h=0.1 with the
# 8x8 scan grid.  Any mesher change that moves a vertex, renumbers one or
# changes a label fails here.
GOLDEN_MESHES = {
    "insulating_disk": "263e9b87d18137cf2030bf22a9bc1c297aa0ba018bb33d4e92b074bc67dd7b23",
    "conducting_disk": "924228117c44ac2ceba13b820f5c8f74c15b35df899dc157efe16a12b79d8ed7",
    "two_blob_mixed": "2231b5e4b6a73631552c26be3a564bdb9659218afa6eb9e3c18ec076066b54f5",
    "weighted_annulus": "d5954583f3cf721dfeca6de5a80dacbbeb9f182619b5fb9169a232a794f68379",
    "plain_annulus": "21a8769ec9dc03990fb9919ee0ccc6fedd6914dab84886f55bd6241b501c1e69",
    "df_minus_square": "a48cc2fbb700ba4f1acefe7e41d5c1fa0e02c6d70e52f50e7020e61b36d36292",
    "df_plus_disk": "ef2b076ed99d4efad411ec6d5e2f0b18667131ad321e1360abf5630e3dd02ee9",
    "insulating_pair": "17240913a469859327c65c53b176122a60e77e00db5bb730f162a408743d0ce6",
    "singular_core": "a200b18dcff68b1462b9fbc6570a8c548217846d14c215947e17df1463bae68a",
    "off_center_mixed": "436813e382daa91ed1107b54c18ab6037d7a7661ba42f1179612a643c3f0049a",
    "quarter_blobs": "5629ff880e81556a641387fb7e95ff13f85bc5a72cf2d8323c34cb9adaa228a1",
}


def mesh_fingerprint(mesh):
    hasher = hashlib.sha256()
    for a in (mesh.vertices, mesh.triangles.astype(np.int64),
              mesh.triangle_region, mesh.boundary_edges.astype(np.int64),
              mesh.boundary_on_gamma):
        hasher.update(np.ascontiguousarray(a).tobytes())
    return hasher.hexdigest()


@pytest.mark.parametrize("name", phantoms.REGRESSION_PHANTOMS)
def test_golden_mesh(disk, family8, name):
    regions, _ = phantoms.build_phantom(name)
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    assert mesh_fingerprint(mesh) == GOLDEN_MESHES[name]


# Lattice coordinates make crossings, T-junctions, shared endpoints,
# collinear overlaps and extra points on segments common.
lattice = st.integers(-3, 3).map(lambda k: k / 3)
lattice_point = st.tuples(lattice, lattice)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(lattice_point, lattice_point), min_size=1, max_size=12),
       st.lists(st.one_of(lattice_point, st.tuples(st.floats(-1, 1), st.floats(-1, 1))),
                max_size=4))
def test_arrangement_matches_pairwise_reference(segments, extra):
    """Same points in the same registry order, and the same subsegments."""
    segments = [(np.array(a), np.array(b)) for a, b in segments]
    reg, subsegs = _arrange_segments(segments, extra)
    ref_reg, ref_subsegs = ref_arrange_segments(segments, extra)
    assert np.array_equal(reg.array(), ref_reg.array())
    assert subsegs == ref_subsegs


def assert_members_on_demand(fam):
    """``members`` is the whole window, then every cell's members with the
    cells in row order, equal in every field to members built on request."""
    n = fam.grid_n
    on_demand = [fam.whole_window()] + [m for i in range(n) for j in range(n)
                                        for m in fam.cell_members(i, j)]

    def fields(members):
        return [(m.id, [p.tolist() for p in m.parts], m.excluded_cell,
                 m.direction, m.admissible, m.reason) for m in members]

    assert fields(fam.members) == fields(on_demand)
    assert [m.id for m in fam.members] == ["all"] + [
        f"c{i}_{j}_{d}" for i in range(n) for j in range(n)
        for d in ("up", "down", "left", "right")]


class TestPixelFamily:
    def test_counts(self, family8):
        cells = family8.grid_n ** 2
        assert family8.grid_n == 8
        # whole window + per-cell directional members (present, maybe split)
        per_cell = [m for m in family8.members if m.excluded_cell is not None]
        assert len(per_cell) == 4 * cells
        assert family8.whole_window().id == "all"
        assert_members_on_demand(family8)
        with pytest.raises(GeometryError):
            family8.cell_members(8, 0)

    def test_grid2_square(self, square):
        fam = pixel_family(square, 2)
        assert len([m for m in fam.members if m.excluded_cell is not None]) == 16
        assert fam.cell_size == (0.4, 0.4)

    def test_members_admissible_and_simple(self, family8):
        for m in family8.members:
            assert m.admissible, m.reason
            for part in m.parts:
                assert pg.polygon_is_simple(part)

    def test_full_span_members_split(self, family8):
        m = [x for x in family8.cell_members(3, 0) if x.direction == "up"][0]
        assert len(m.parts) == 2

    def test_small_grid_rejected(self, disk):
        with pytest.raises(GeometryError):
            pixel_family(disk, 1)

    def test_boundary_touching_roi_flagged(self, square):
        fam = pixel_family(square, 4, roi=(0.0, 0.0, 1.0, 1.0))
        assert any(not m.admissible for m in fam.members)
        assert_members_on_demand(fam)

    def test_membership(self, family8):
        m = [x for x in family8.cell_members(3, 3) if x.direction == "up"][0]
        x0, y0, x1, y1 = family8.roi
        w, h = family8.cell_size
        inside_cell = np.array([[x0 + 3.5 * w, y0 + 3.5 * h]])
        far_corner = np.array([[x0 + 0.5 * w, y0 + 0.5 * h]])
        assert not m.contains(inside_cell)[0]
        assert m.contains(far_corner)[0]
