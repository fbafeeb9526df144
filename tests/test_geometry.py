import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from eitmono import geometry, phantoms
from eitmono import polygons as pg
from eitmono.geometry import (GeometryError, MeshConformityError,
                              RegionSet, _arrange_segments, _chop_to_length,
                              _edge_keys,
                              build_domain, connected_labels, edge_owners,
                              mesh_region_faults, pixel_family, triangulate,
                              validate_regions)

import reference_fem
import reference_predicates
from reference_family import contains
from reference_predicates import (RefPointRegistry, ref_arrange_segments,
                                  ref_chop_to_length, ref_edge_keys,
                                  ref_edge_owners, ref_probe_overlaps,
                                  ref_validate_regions, signed_area)


def region_area(mesh, label):
    mask = mesh.triangle_region == label
    return float(np.sum(mesh.triangle_areas()[mask]))


class TestDomain:
    def test_full_circle(self):
        dom = build_domain("disk", (0.0, 1.0))
        assert dom.gamma_fraction == 1.0
        assert np.isclose(abs(signed_area(dom.boundary_polygon)),
                          0.5 * 256 * np.sin(2 * np.pi / 256))

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
        assert validate_regions(disk, regions) == []
        mesh = triangulate(disk, regions, target_h=0.15)
        assert mesh_region_faults(mesh, regions) == [
            "complement of D0 not connected",
            "complement of D0+Ddeg+Dsing not connected"]

    def test_weighted_region_touching_union_boundary(self, disk):
        # Ddeg flush with the outer boundary of the labeled union
        df = pg.rectangle(-0.4, -0.4, 0.4, 0.4)
        ddeg = pg.rectangle(0.1, -0.2, 0.4, 0.2)   # shares x=0.4 edge
        regions = RegionSet(polys={"DFminus": [df, ddeg[::-1].copy()],
                                   "Ddeg": [ddeg]})
        assert validate_regions(disk, regions) == []
        mesh = triangulate(disk, regions, target_h=0.15)
        assert mesh_region_faults(mesh, regions) == [
            "Ddeg not compactly contained in the labeled union interior"]

    # a notch of background meets the square's bottom edge at one point,
    # halfway between two of 16 evenly spaced points per edge
    PINCH = [[-0.3, -0.3], [0.05625, -0.3], [0.10625, 0.0], [0.15625, -0.3],
             [0.5, -0.3], [0.5, 0.5], [-0.3, 0.5]]
    # a wedge of background meets the square at its corner (0, 0)
    CORNER = [[-0.3, -0.3], [-0.05, -0.3], [0.0, 0.0], [0.05, -0.3],
              [0.5, -0.3], [0.5, 0.5], [-0.3, 0.5]]

    @pytest.mark.parametrize("df, h", [(PINCH, 0.1), (PINCH, 0.08), (PINCH, 0.05),
                                       (CORNER, 0.1)],
                             ids=["pinch-0.1", "pinch-0.08", "pinch-0.05", "corner"])
    def test_weighted_square_touching_background_at_a_point(self, disk, df, h):
        ddeg = pg.rectangle(0.0, 0.0, 0.2, 0.2)
        regions = RegionSet(polys={"DFminus": [np.array(df), ddeg[::-1].copy()],
                                   "Ddeg": [ddeg]})
        assert validate_regions(disk, regions) == []
        mesh = triangulate(disk, regions, target_h=h)
        assert mesh_region_faults(mesh, regions) == [
            "Ddeg not compactly contained in the labeled union interior"]

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

    @pytest.mark.parametrize("polys, want", [
        ({"DFminus": [pg.rectangle(-0.5, -0.5, 0.5, 0.5)],
          "D0": [pg.rectangle(-0.25, -0.25, 0.25, 0.25)]},
         "regions D0 and DFminus overlap near ["),
        ({"DFminus": [pg.rectangle(-0.5, -0.5, 0.5, 0.5),
                      pg.rectangle(-0.4, -0.4, -0.2, -0.2)[::-1].copy()],
          "Ddeg": [pg.rectangle(0.2, 0.2, 0.4, 0.4)]},
         "regions Ddeg and DFminus overlap near ["),
        # the overlap configs of the CLI tests: nested squares, a ring in a
        # square (the ring's interior probe misses the square's inside, and
        # the square's lies in the ring's hole) and two polygons that share
        # an edge and overlap beside it
        ({"D0": [pg.rectangle(-0.5, -0.5, 0.5, 0.5)],
          "Dinf": [pg.rectangle(-0.2, -0.2, 0.2, 0.2)]},
         "regions D0 and Dinf overlap near ["),
        ({"DFminus": [pg.rectangle(-0.5, -0.5, 0.5, 0.5),
                      pg.rectangle(-0.45, -0.45, 0.45, 0.45)[::-1].copy()],
          "D0": [pg.rectangle(-0.6, -0.6, 0.6, 0.6)]},
         "regions D0 and DFminus overlap near ["),
        ({"Ddeg": [np.array([[0, 0.5], [0.5, 0.5], [0.5, 0.375], [0, 0.375]])],
          "D0": [np.array([[-0.125, 0.5], [0.125, 0.5], [0.125, 0.375], [-0.125, 0.375]])]},
         "regions D0 and Ddeg overlap near ["),
    ], ids=["nested", "beside_a_hole", "nested_squares", "ring_in_square", "shared_edge"])
    def test_overlap_reported_once_per_label_pair(self, disk, polys, want):
        # no edges cross, so the polygons pass, and the mesh's centroid
        # labels name the pair once, in REGION_LABELS order
        regions = RegionSet(polys=polys)
        assert validate_regions(disk, regions) == []
        with pytest.raises(GeometryError) as err:
            triangulate(disk, regions, target_h=0.1)
        assert str(err.value).startswith(want)
        assert type(err.value) is GeometryError

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


# Lattice polygons in and beyond the unit disk and the unit square:
# rectangles (solid, or holes when clockwise) nest, cross and share edges
# across and within labels; free triangles and quadrilaterals add slanted
# edges, repeated vertices and bowties.
def lattice_polys(offset):
    eighth = st.integers(-6, 5).map(lambda k: offset + k / 8)
    size = st.integers(1, 4).map(lambda k: k / 8)
    rect = st.builds(lambda x, y, w, h: pg.rectangle(x, y, x + w, y + h),
                     eighth, eighth, size, size)
    free = st.lists(st.tuples(eighth, eighth), min_size=3, max_size=4).map(np.array)
    oriented = st.builds(lambda p, ccw: p if ccw else p[::-1].copy(),
                         st.one_of(rect, rect, rect, free), st.booleans())
    return st.lists(st.tuples(st.sampled_from(["D0", "Dinf", "Ddeg", "DFminus"]),
                              oriented), min_size=1, max_size=5)


domains_and_polys = st.sampled_from([("disk", 0.0), ("square", 0.5)]).flatmap(
    lambda d: st.tuples(st.just(d[0]), lattice_polys(d[1])))
ring = pg.rectangle(-0.5, -0.5, 0.5, 0.5)
core = pg.rectangle(-0.25, -0.25, 0.25, 0.25)


@settings(max_examples=200, deadline=None)
@given(domains_and_polys)
@example(("disk", [("DFminus", ring), ("D0", core)]))
@example(("disk", [("DFminus", ring), ("DFminus", core[::-1].copy()), ("D0", core)]))
@example(("disk", [("DFminus", ring), ("DFminus", core[::-1].copy()),
                   ("Ddeg", pg.rectangle(0.3, -0.1, 0.45, 0.1))]))
def test_validate_regions_matches_pairwise_reference(drawn):
    """The same violations in the same order, or the same error; the
    examples nest one label in another, put a polygon in a same-label hole
    (clean) and in the ring around that hole (overlap)."""
    shape, labeled = drawn
    polys = {}
    for label, poly in labeled:
        polys.setdefault(label, []).append(poly)
    domain, regions = build_domain(shape), RegionSet(polys=polys)
    try:
        want = ref_validate_regions(domain, regions)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as got:
            validate_regions(domain, regions)
        assert str(got.value) == str(exc)
    else:
        assert validate_regions(domain, regions) == want


# Rectangles with corners on the 1/8 lattice, inside both domains: every
# 1/8 cell lies wholly inside or outside each, so two labels overlap with
# positive area exactly when a cell centre lies in both their regions.
lattice_rects = st.lists(
    st.tuples(st.sampled_from(["D0", "Dinf", "Ddeg", "DFminus"]),
              st.integers(-4, 1), st.integers(-4, 1), st.integers(1, 3), st.integers(1, 3),
              st.booleans()), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("disk", 0.0), ("square", 0.5)]), lattice_rects)
@example(("disk", 0.0), [("D0", -4, -4, 3, 3, True), ("Dinf", -3, -3, 1, 1, True)])
@example(("disk", 0.0), [("D0", -2, 0, 2, 1, True), ("Ddeg", 0, 0, 2, 1, False)])
def test_mesh_overlap_check_is_exact_on_lattice_rectangles(domain, rects):
    """A set that passes `validate_regions` meshes without a clash exactly
    when no 1/8-cell centre lies in two labels' regions."""
    shape, offset = domain
    polys = {}
    for label, i, j, w, h, ccw in rects:
        rect = pg.rectangle(offset + i / 8, offset + j / 8,
                            offset + (i + w) / 8, offset + (j + h) / 8)
        polys.setdefault(label, []).append(rect if ccw else rect[::-1].copy())
    domain, regions = build_domain(shape), RegionSet(polys=polys)
    if validate_regions(domain, regions):
        return
    k = np.arange(-4, 4) + 0.5
    centres = offset + np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2) / 8
    count = sum(pg.points_in_region(centres, plist).astype(int) for plist in polys.values())
    try:
        triangulate(domain, regions, target_h=0.1)
    except GeometryError as exc:
        clash = " overlap near [" in str(exc)
    else:
        clash = False
    assert clash == bool(np.any(count > 1))


@settings(max_examples=400, deadline=None)
@given(domains_and_polys)
@example(("disk", [("DFminus", ring), ("D0", core)]))
@example(("square", [("Ddeg", 0.5 + core), ("Dinf", 0.5 + ring[::-1].copy())]))
def test_mesh_overlap_check_never_less_strict_than_probes(drawn):
    """Whenever the interior-probe clause (`ref_probe_overlaps`) finds an
    overlap in a set that `validate_regions` passes, the mesher rejects the
    set."""
    shape, labeled = drawn
    polys = {}
    for label, poly in labeled:
        polys.setdefault(label, []).append(poly)
    domain, regions = build_domain(shape), RegionSet(polys=polys)
    try:
        if validate_regions(domain, regions) or not ref_probe_overlaps(regions):
            return
    except GeometryError:
        return
    with pytest.raises(GeometryError):
        triangulate(domain, regions, target_h=0.1)


class TestTriangulate:
    def test_disk_areas(self, disk, disk_mesh):
        total = disk_mesh.triangle_areas().sum()
        area = abs(signed_area(disk.boundary_polygon))
        assert abs(total - area) / area < 1e-10
        # reported polygonalization gap to the smooth disk stays small
        assert abs(area - np.pi) < 1e-3

    def test_square_region_exact(self, square):
        regions = RegionSet(polys={"D0": [pg.rectangle(0.4, 0.4, 0.6, 0.6)]})
        mesh = triangulate(square, regions, target_h=0.06)
        assert abs(mesh.triangle_areas().sum() - 1.0) < 1e-10
        assert abs(region_area(mesh, "D0") - 0.04) < 1e-10 * 0.04 + 1e-14

    def test_disk_region_matches_polygon_area(self, disk):
        poly = pg.regular_polygon((0.1, -0.2), 0.25, 48)
        mesh = triangulate(disk, RegionSet(polys={"Dinf": [poly]}), target_h=0.08)
        assert np.isclose(region_area(mesh, "Dinf"), abs(signed_area(poly)),
                          rtol=1e-10)

    def test_target_h_enforced(self, disk_mesh):
        assert disk_mesh.h <= 0.1 + 1e-12

    def test_refinement_growth(self, disk, disk_mesh):
        fine = triangulate(disk, target_h=0.05)
        ratio = fine.num_vertices / disk_mesh.num_vertices
        assert 2.8 < ratio < 4.8

    def test_mesh_valid(self, disk_mesh):
        assert reference_fem.mesh_problems(disk_mesh, min_angle_floor=0.4) == []
        assert disk_mesh.worst_triangle()[1] > 5.0

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

    def test_provenance_ignores_labels(self, disk_mesh):
        relabeled = reference_fem.relabeled(disk_mesh, {"bg": "bg"})
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


def full_fingerprint(mesh):
    """`mesh_fingerprint` that also covers the dtypes, the shapes and h."""
    hasher = hashlib.sha256(mesh_fingerprint(mesh).encode())
    for a in (mesh.vertices, mesh.triangles, mesh.triangle_region,
              mesh.boundary_edges, mesh.boundary_on_gamma):
        hasher.update(repr((a.dtype.str, a.shape)).encode())
    hasher.update(repr(mesh.h).encode())
    return hasher.hexdigest()


def workload_config(name):
    """The config of a benchmark workload's mesh with its geometry unturned:
    the `scan_mixed` scan, a `forward_fine` forward run on the insulating or
    conducting r=0.5 disk, and the `chain_weighted` chain."""
    base = {"domain": {"shape": "disk", "gamma_arc": [0.0, 1.0]},
            "coefficient": {"background": 1.0}}
    if name == "scan_mixed":
        regions, _ = phantoms.build_phantom("two_blob_mixed")
        cfg = dict(base, mesh={"target_h": 0.08}, scan={"grid_n": 8})
    elif name.startswith("forward_fine"):
        regions, _ = phantoms.concentric_disk(0.5, name.split("_")[-1], 128)
        cfg = dict(base, mesh={"target_h": 0.02})
    else:
        regions, _ = phantoms.build_phantom("weighted_annulus")
        weight = {"kind": "radial_power", "center": [0.0, 0.0],
                  "exponent": 0.5, "amplitude": 1.0 / 0.28 ** 0.5}
        cfg = dict(base, mesh={"target_h": 0.07}, scan={"grid_n": 8},
                   coefficient={"background": 1.0, "DFminus": 0.5, "Ddeg": weight,
                                "singular_points": [[0.0, 0.0]]})
    cfg["regions"] = {lab: [p.tolist() for p in polys]
                      for lab, polys in regions.polys.items()}
    return cfg


# `full_fingerprint` of the meshes that the CLI builds for the benchmark
# workloads at seed 0, recorded before the mesher's bookkeeping was cut.
GOLDEN_WORKLOAD_MESHES = {
    "scan_mixed": "2febf932a0d6d70464e2bd496e3ce0074d6fa53a93ebff1605cab32bf395fb83",
    "forward_fine_D0": "43a26cb27341618edeafcb55f33195f008d846a90379c58860d4e0cd22071369",
    "forward_fine_Dinf": "c1ccfbee15273f016fe79c9674e4b818d8a375315876547869df798e79156161",
    "chain_weighted": "82e5940a2fdddcd5a6a9c5d757795757e6691cbf79295fe9cf726f25d81ddde9",
}


@pytest.mark.parametrize("name", GOLDEN_WORKLOAD_MESHES)
def test_golden_workload_mesh(name):
    from eitmono.cli import Problem

    cfg = workload_config(name)
    mesh = Problem(cfg).build_mesh(with_grid="scan" in cfg)
    assert full_fingerprint(mesh) == GOLDEN_WORKLOAD_MESHES[name]


@pytest.mark.parametrize("name", sorted(phantoms.CATALOG))
def test_min_angle_and_hmax_match_per_angle_and_per_edge_reference(name):
    # the catalog meshes as the commands build them at h=0.1 with grid 8
    from eitmono.cli import Problem

    mesh = Problem({"domain": {"shape": "disk"}, "phantom": name,
                    "mesh": {"target_h": 0.1}, "scan": {"grid_n": 8}}).build_mesh()
    c = mesh.triangle_coords()
    angles, lengths = [], []
    for k in range(3):
        u = c[:, (k + 1) % 3] - c[:, k]
        v = c[:, (k + 2) % 3] - c[:, k]
        cosang = np.sum(u * v, axis=1) / (np.hypot(*u.T) * np.hypot(*v.T))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
        lengths.append(np.hypot(*u.T))
    worst, min_angle = mesh.worst_triangle()
    assert min_angle == float(np.min(angles)) == np.min(angles, axis=0)[worst]
    assert mesh.h == float(np.max(lengths))


def test_one_edge_key_pass_per_delaunay_build(monkeypatch, disk, family8):
    builds, passes = [], []

    def counted(log, real):
        def wrapper(*args, **kwargs):
            log.append(1)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geometry, "Delaunay", counted(builds, geometry.Delaunay))
    monkeypatch.setattr(geometry, "_edge_keys", counted(passes, geometry._edge_keys))
    regions, _ = phantoms.build_phantom("two_blob_mixed")
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    assert mesh_fingerprint(mesh) == GOLDEN_MESHES["two_blob_mixed"]
    assert len(builds) >= 4
    assert len(passes) == len(builds)


def test_qhull_options_keep_the_default_simplices(monkeypatch):
    # every Delaunay input of the catalog meshes at h=0.1 and 0.08 with
    # grid 8 and of the workload meshes, triangulated again with scipy's
    # default options as the direct path
    from eitmono.cli import Problem

    inputs = []

    def recording(points, **kwargs):
        inputs.append(np.array(points))
        return Delaunay(points, **kwargs)

    monkeypatch.setattr(geometry, "Delaunay", recording)
    for name in sorted(phantoms.CATALOG):
        for h in (0.1, 0.08):
            Problem({"domain": {"shape": "disk"}, "phantom": name,
                     "mesh": {"target_h": h}, "scan": {"grid_n": 8}}).build_mesh()
    for name in GOLDEN_WORKLOAD_MESHES:
        cfg = workload_config(name)
        Problem(cfg).build_mesh(with_grid="scan" in cfg)
    assert len(inputs) >= 4 * (2 * len(phantoms.CATALOG) + len(GOLDEN_WORKLOAD_MESHES))
    for arr in inputs:
        fast = Delaunay(arr, qhull_options=geometry.QHULL_OPTIONS).simplices
        direct = Delaunay(arr).simplices
        assert fast.dtype == direct.dtype and fast.shape == direct.shape
        assert np.array_equal(fast, direct)


# Few vertices, so that triangles share edges and repeat them; a repeated
# corner makes a degenerate edge (i, i).
triangle_arrays = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=30),
    st.sampled_from([np.int32, np.int64])))


@settings(max_examples=200, deadline=None)
@given(triangle_arrays)
def test_edge_keys_and_owners_match_sort_references(drawn):
    rows, dtype = drawn
    tris = np.array(rows, dtype=dtype)
    n = int(tris.max()) + 1
    for extra in (0, 5):
        got, want = _edge_keys(tris, n + extra), ref_edge_keys(tris, n + extra)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(edge_owners(tris), ref_edge_owners(tris)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


# Lattice coordinates make crossings, T-junctions, shared endpoints,
# collinear overlaps and extra points on segments common.
lattice = st.integers(-3, 3).map(lambda k: k / 3)
lattice_point = st.tuples(lattice, lattice)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(lattice_point, lattice_point), min_size=1, max_size=12),
       st.lists(st.one_of(lattice_point, st.tuples(st.floats(-1, 1), st.floats(-1, 1))),
                max_size=4),
       st.sampled_from([1 / 3, 0.25, 0.1, 2 / 3, 3.0]))
@example(segments=[((-1.0, 1 / 3), (1 / 3, 1 / 3))], extra=[(-4e-10, 2 / 3)],
         max_len=1 / 3)
def test_arrangement_matches_pairwise_reference(segments, extra, max_len):
    """Same points in the same registry order and the same subsegments,
    then the same chop points and pieces, in order: lattice lengths put
    chop points on existing vertices, and the example registers x = -4e-10
    and chops (-1, 1/3)-(1/3, 1/3) at x = -2.5e-10, both of which round
    to -0.0."""
    segments = [(np.array(a), np.array(b)) for a, b in segments]
    pts, subsegs = _arrange_segments(segments, extra)
    ref_reg, ref_subsegs = ref_arrange_segments(segments, extra)
    assert np.array_equal(pts, ref_reg.array())
    assert subsegs == ref_subsegs
    pts, pieces = _chop_to_length(pts, subsegs, max_len)
    ref_pieces = ref_chop_to_length(ref_reg, ref_subsegs, max_len)
    assert np.array_equal(pts, ref_reg.array()) and not np.any(np.signbit(pts) & (pts == 0))
    assert pieces == ref_pieces


# Registry points on a lattice a few SNAP_TOL apart: chop points snap onto
# their neighbours and onto each other, leaving degenerate pieces (i, i).
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=2,
                max_size=8, unique=True),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=8),
       st.sampled_from([0.7e-9, 1e-9, 1.5e-9, 2.5e-9]))
def test_chop_to_length_matches_loop_reference(lattice_points, pairs, max_len):
    ref_reg = RefPointRegistry()
    for p in lattice_points:
        ref_reg.add(np.array(p) * pg.SNAP_TOL)
    n = len(lattice_points)
    subsegs = sorted({(min(i % n, j % n), max(i % n, j % n)) for i, j in pairs})
    pts, pieces = _chop_to_length(ref_reg.array(), subsegs, max_len)
    ref_pieces = ref_chop_to_length(ref_reg, subsegs, max_len)
    assert np.array_equal(pts, ref_reg.array())
    assert pieces == ref_pieces


def test_register_wide_points_matches_reference():
    # keys spanning more than 2**63 lattice cells in all, and narrow ones;
    # repeats, snapped neighbours and -0.0 included
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, (40, 2))
    pts = np.concatenate([pts, pts[::3] + 3e-10, [[-1e-10, 4.0], [0.0, 4.0]],
                          [[-5e5, 5e5], [5e5, -5e5]]])
    for points in (pts, pts[:40] / 10):
        ref = RefPointRegistry()
        want = [ref.add(p) for p in points]
        reg, ids = geometry._register(points)
        assert ids.tolist() == want and np.array_equal(reg, ref.array())
        assert not np.any(np.signbit(reg) & (reg == 0))


@pytest.mark.parametrize("pin", [(float("nan"), 0.0), (float("inf"), 0.0), (0.0, 1e10)])
def test_unregistrable_pin_rejected(disk, pin):
    # a lattice key would wrap around int64: the mesher stops with an error
    regions = RegionSet(singular_points=[pin])
    with pytest.raises(GeometryError, match="mesh constraint points must be finite"):
        triangulate(disk, regions, target_h=0.2)


def assert_members_on_demand(fam):
    """``members`` is the whole window, then every cell's members with the
    cells in row order, equal in every field to members built on request."""
    n = fam.grid_n
    on_demand = [fam.whole_window()] + [m for i in range(n) for j in range(n)
                                        for m in fam.cell_members(i, j)]

    def fields(members):
        return [(m.id, m.cells, m.excluded_cell, m.direction, m.admissible,
                 m.reason) for m in members]

    assert fields(fam.members) == fields(on_demand)
    assert [m.id for m in fam.members] == ["all"] + [
        f"c{i}_{j}_{d}" for i in range(n) for j in range(n)
        for d in ("up", "down", "left", "right")]


def test_member_reason_lists_every_failed_clause(square):
    # cells: (0, 0) crosses y = 0 and has a corner on x = 0, (1, 0) only
    # crosses y = 0, (0, 1) only has corners on x = 0, (1, 1) is admissible
    fam = pixel_family(square, 2, roi=(0.0, -0.2, 0.4, 0.6))
    outside, touches = "{} extends outside the domain", "{} touches the domain boundary"
    assert fam.cell_faults == {(0, 0): (outside, touches), (1, 0): (outside,),
                               (0, 1): (touches,)}
    reasons = {m.id: m.reason for m in fam.members}
    for both in ("all", "c1_0_up", "c0_0_down"):
        assert reasons[both] == (f"{both} extends outside the domain; "
                                 f"{both} touches the domain boundary")
    assert reasons["c0_0_up"] == "c0_0_up extends outside the domain"
    assert reasons["c0_0_right"] == "c0_0_right touches the domain boundary"
    assert not any(m.admissible for m in fam.members)


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
        window = family8.whole_window().cells
        assert len(window) == 64
        for m in family8.members[1:]:
            assert m.admissible, m.reason
            assert m.cells < window and m.excluded_cell not in m.cells

    def test_full_span_members_split(self, family8):
        # a full-height strip leaves two column blocks, columns 0-2 and 4-7
        m = [x for x in family8.cell_members(3, 0) if x.direction == "up"][0]
        assert m.cells == {(i, j) for i in range(8) if i != 3 for j in range(8)}

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
        assert not contains(m, inside_cell)[0]
        assert contains(m, far_corner)[0]


@pytest.mark.parametrize("shape, roi", [
    ("disk", None), ("disk", (-2 ** -0.5, -2 ** -0.5, 2 ** -0.5, 2 ** -0.5)),
    ("square", None), ("square", (0.0, 0.0, 1.0, 1.0))])
def test_members_are_closed_cell_unions(shape, roi):
    # on the default and a boundary-touching window, grid 2-12: a member is
    # admissible exactly when none of its cells is indeterminate for the
    # scan (`cell_faults`, the cells `reconstruct` abstains on), and
    # `contains` is the closed union of its cells, grid lines included
    dom = build_domain(shape)
    for n in range(2, 13):
        fam = pixel_family(dom, n, roi=roi)
        xs, ys = fam.grid_lines()
        mx, my = (xs[:-1] + xs[1:]) / 2, (ys[:-1] + ys[1:]) / 2
        # grid nodes, midpoints of the grid-line pieces, and cell centres
        px, py = np.concatenate([np.stack(np.meshgrid(u, v, indexing="ij")).reshape(2, -1)
                                 for u, v in ((xs, ys), (mx, ys), (xs, my), (mx, my))],
                                axis=1)[:, :, None]
        i, j = np.divmod(np.arange(n * n), n)
        in_cell = ((xs[i] <= px) & (px <= xs[i + 1]) & (ys[j] <= py) & (py <= ys[j + 1]))
        for m in fam.members:
            assert m.admissible == m.cells.isdisjoint(fam.cell_faults)
            cells = np.zeros(n * n)
            cells[fam.flat(m.cells)] = 1.0
            assert np.array_equal(contains(m, np.column_stack([px, py])),
                                  in_cell @ cells > 0), m.id


def coo_connected_labels(n, pairs):
    """`connected_labels` as csgraph labels a COO graph: the reference for
    the directly built CSR."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                          shape=(n, n))
    return connected_components(graph, directed=False)[1]


random_graphs = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=80)))


@settings(max_examples=200, deadline=None)
@given(random_graphs)
def test_connected_labels_matches_coo_reference(graph):
    n, pairs = graph
    np.testing.assert_array_equal(connected_labels(n, pairs),
                                  coo_connected_labels(n, pairs))


@pytest.mark.parametrize("seed", range(4))
def test_connected_labels_on_fill_enclosed_grids(monkeypatch, seed):
    calls = []

    def checked(n, pairs):
        got = connected_labels(n, pairs)
        np.testing.assert_array_equal(got, coo_connected_labels(n, pairs))
        calls.append(n)
        return got

    monkeypatch.setattr(reference_predicates, "connected_labels", checked)
    rng = np.random.default_rng(seed)
    for n in (2, 5, 8, 16):
        reference_predicates.ref_fill_enclosed(rng.random((n, n)) < 0.6)
    assert calls == [4, 25, 64, 256]


def test_mesh_and_field_hashed_once(disk, monkeypatch):
    # each object hashes once; the hashed arrays turn read-only, so the
    # cached hash cannot go stale
    import hashlib

    from eitmono.coefficient import CoefficientField

    mesh = triangulate(disk, target_h=0.25)
    fld = CoefficientField(mesh=mesh, gamma0=1.0)
    hashers = []
    real = hashlib.sha256

    def counting(*args):
        hashers.append(1)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    assert fld.provenance() == fld.provenance()
    assert mesh.provenance() == mesh.provenance()
    assert len(hashers) == 2
    for arr in (mesh.vertices, mesh.triangles, mesh.boundary_on_gamma, mesh.triangle_region):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 0.0
