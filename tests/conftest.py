import numpy as np
import pytest

from eitmono import (CoefficientField, build_basis, build_domain, nd_matrix,
                     triangulate)
from eitmono.fem import PotentialSolution, SolverError
from eitmono.geometry import pixel_family

from reference_fem import homogeneous_field


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


def stiffness(system):
    """The stiffness block of a grounded system's bordered matrix."""
    return system.kmat[:system.n, :system.n]


def dirichlet_energy(system, solution):
    """sigma-weighted Dirichlet energy of the solution (A-quadratic form)."""
    u = solution.u
    return float(u @ (stiffness(system) @ u))


def energy(system, solution_or_vector, load):
    """Quadratic energy J(v) = v^T A v - 2 b^T v for a DOF vector."""
    v = solution_or_vector.u if isinstance(solution_or_vector, PotentialSolution) \
        else np.asarray(solution_or_vector, dtype=float)
    if v.shape != (system.n,):
        raise SolverError("energy: coefficient vector has wrong dimension")
    return float(v @ (stiffness(system) @ v) - 2.0 * float(load.b @ v))


def expand(dofmap, u_dof, fill=0.0):
    """Per-vertex values from DOF coefficients (removed vertices filled)."""
    out = np.full(len(dofmap.dof_of_vertex), fill, dtype=float)
    has = dofmap.dof_of_vertex >= 0
    out[has] = u_dof[dofmap.dof_of_vertex[has]]
    return out


def gram_distance(nd, ref):
    """Distance of two ND maps in the Gram geometry relative to ``ref``:
    max |lambda(nd - ref, G)| / ||ref||_G."""
    from scipy.linalg import eigh
    diff = eigh(nd.matrix - ref.matrix, ref.gram, eigvals_only=True)
    return float(np.max(np.abs(diff))) / ref.gnorm()
