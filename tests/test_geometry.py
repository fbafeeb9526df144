import numpy as np
import pytest

from eitmono import polygons as pg
from eitmono.geometry import (GeometryError, Mesh, MeshConformityError,
                              RegionSet, build_domain, pixel_family,
                              triangulate, validate_regions)


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
        assert abs(mesh.region_area("D0") - 0.04) < 1e-10 * 0.04 + 1e-14

    def test_disk_region_matches_polygon_area(self, disk):
        poly = pg.regular_polygon((0.1, -0.2), 0.25, 48)
        mesh = triangulate(disk, RegionSet(polys={"Dinf": [poly]}), target_h=0.08)
        assert np.isclose(mesh.region_area("Dinf"), pg.polygon_area(poly),
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
