import pytest

from eitmono import phantoms
from eitmono.geometry import mesh_region_faults, triangulate, validate_regions

from reference_family import negative_only


def test_catalog_entries_valid(disk, family8):
    # the polygon clauses, then the mesh clauses on a mesh with the scan grid
    for name in phantoms.CATALOG:
        regions, spec = phantoms.build_phantom(name)
        assert validate_regions(disk, regions) == [], name
        mesh = triangulate(disk, regions, target_h=0.12,
                           extra_segments=family8.grid_segments())
        assert mesh_region_faults(mesh, regions) == [], name
        assert spec.get("background", 1.0) > 0


def test_regression_set_size():
    assert len(phantoms.REGRESSION_PHANTOMS) >= 10
    for name in phantoms.REGRESSION_PHANTOMS:
        assert name in phantoms.CATALOG


def test_negative_only_flags():
    assert negative_only("insulating_disk")
    assert negative_only("df_minus_square")
    assert negative_only("insulating_pair")
    assert not negative_only("conducting_disk")
    assert not negative_only("two_blob_mixed")


def test_unknown_phantom():
    with pytest.raises(KeyError):
        phantoms.build_phantom("nonexistent")
