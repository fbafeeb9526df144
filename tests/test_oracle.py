import math

import numpy as np
import pytest

from eitmono import phantoms
from eitmono.geometry import triangulate
from eitmono.ndmap import build_basis, nd_matrix
from eitmono.oracle import disk_nd_eigenvalue

from conftest import build_field
from reference_fem import brute_force_nd


class TestDiskEigenvalue:
    def test_homogeneous(self):
        for n in range(1, 6):
            assert np.isclose(disk_nd_eigenvalue(n, 0.0, 1.0), 1.0 / n)
        assert np.isclose(disk_nd_eigenvalue(1, 0.5, 1.0), 1.0)

    def test_insulating_reference(self):
        assert np.isclose(disk_nd_eigenvalue(1, 0.5, 0.0), 5.0 / 3.0)
        # general formula: (1 + rho^2n) / (n (1 - rho^2n))
        rho = 0.37
        for n in (1, 2, 5):
            x = rho ** (2 * n)
            assert np.isclose(disk_nd_eigenvalue(n, rho, 0.0),
                              (1 + x) / (n * (1 - x)))

    def test_conducting_reference(self):
        assert np.isclose(disk_nd_eigenvalue(1, 0.5, math.inf), 3.0 / 5.0)

    def test_background_scaling(self):
        assert np.isclose(disk_nd_eigenvalue(2, 0.4, 0.0, gamma0_const=2.0),
                          disk_nd_eigenvalue(2, 0.4, 0.0) / 2.0)

    def test_monotone_in_radius(self):
        rhos = np.linspace(0.0, 0.9, 25)
        ins = [disk_nd_eigenvalue(2, r, 0.2) for r in rhos]   # kappa < gamma0
        cond = [disk_nd_eigenvalue(2, r, 5.0) for r in rhos]  # kappa > gamma0
        assert np.all(np.diff(ins) > 0)
        assert np.all(np.diff(cond) < 0)

    def test_guards(self):
        with pytest.raises(ValueError):
            disk_nd_eigenvalue(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            disk_nd_eigenvalue(0, 0.5, 0.0)
        with pytest.raises(ValueError):
            disk_nd_eigenvalue(1, 0.5, -1.0)
        with pytest.raises(ValueError):
            disk_nd_eigenvalue(1, 0.5, 0.0, gamma0_const=0.0)


class TestBruteForce:
    def test_homogeneous_two_paths(self, disk_field, basis8, nd_homogeneous):
        brute = brute_force_nd(disk_field, basis8)
        rel = np.linalg.norm(brute.matrix - nd_homogeneous.matrix) \
            / np.linalg.norm(nd_homogeneous.matrix)
        assert rel < 1e-8

    def test_brute_matches_oracle_diagonal(self, disk_field, basis8):
        brute = brute_force_nd(disk_field, basis8)
        eigs = np.sort(brute.generalized_eigenvalues())[::-1]
        for n in (1, 2):
            assert abs(eigs[2 * n - 2] - 1.0 / n) * n < 0.02

    def test_weighted_two_paths(self, disk):
        regions, spec = phantoms.build_phantom("weighted_annulus")
        mesh = triangulate(disk, regions, target_h=0.1)
        fld = build_field(mesh, spec)
        basis = build_basis(mesh, 8)
        nd = nd_matrix(fld, basis)
        brute = brute_force_nd(fld, basis)
        rel = np.linalg.norm(brute.matrix - nd.matrix) / np.linalg.norm(nd.matrix)
        assert rel < 1e-6

    def test_extreme_two_paths(self, disk):
        regions, spec = phantoms.build_phantom("two_blob_mixed")
        mesh = triangulate(disk, regions, target_h=0.1)
        fld = build_field(mesh, spec)
        basis = build_basis(mesh, 8)
        nd = nd_matrix(fld, basis)
        brute = brute_force_nd(fld, basis)
        rel = np.linalg.norm(brute.matrix - nd.matrix) / np.linalg.norm(nd.matrix)
        assert rel < 1e-6

    def test_size_guard(self, disk):
        mesh = triangulate(disk, target_h=0.05)
        fld = build_field(mesh, {"background": 1.0})
        basis = build_basis(mesh, 4)
        with pytest.raises(ValueError):
            brute_force_nd(fld, basis, max_vertices=2000)
