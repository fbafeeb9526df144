import pytest

from eitmono import (CoefficientField, build_basis, build_domain,
                     homogeneous_field, nd_matrix, triangulate)
from eitmono.geometry import pixel_family


@pytest.fixture(scope="session")
def disk():
    return build_domain("disk")


@pytest.fixture(scope="session")
def square():
    return build_domain("square")


@pytest.fixture(scope="session")
def disk_mesh(disk):
    return triangulate(disk, target_h=0.1)


@pytest.fixture(scope="session")
def disk_field(disk_mesh):
    return homogeneous_field(disk_mesh)


@pytest.fixture(scope="session")
def basis8(disk_mesh):
    return build_basis(disk_mesh, 8)


@pytest.fixture(scope="session")
def nd_homogeneous(disk_field, basis8):
    return nd_matrix(disk_field, basis8)


@pytest.fixture(scope="session")
def family8(disk):
    return pixel_family(disk, 8)


def build_field(mesh, spec):
    """CoefficientField from a phantom coefficient spec."""
    finite = {k: v for k, v in spec.items() if k in ("DFminus", "DFplus")}
    weights = {k: v for k, v in spec.items() if k in ("Ddeg", "Dsing")}
    return CoefficientField(mesh=mesh, gamma0=spec.get("background", 1.0),
                            finite_values=finite, weights=weights).validate()


def dirichlet_energy(system, solution):
    """sigma-weighted Dirichlet energy of the solution (A-quadratic form)."""
    u = solution.u
    return float(u @ (system.matrix @ u))
