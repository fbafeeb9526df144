import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from eitmono import phantoms
from eitmono.geometry import triangulate
from eitmono.ndmap import build_basis, nd_matrix
from eitmono.oracle import disk_nd_eigenvalue, power_core_nd_eigenvalue

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


class TestPowerCoreEigenvalue:
    def test_constant_core_is_the_disk(self):
        # at s = 0 a core of the ring's conductivity fills a disk of radius
        # rho2, and a ring of no width leaves the core's disk of radius rho1
        for n in (1, 2, 5):
            for kappa in (0.3, 4.0):
                assert np.isclose(power_core_nd_eigenvalue(n, 0.0, kappa, 0.2, kappa, 0.45),
                                  disk_nd_eigenvalue(n, 0.45, kappa), rtol=1e-13)
                assert np.isclose(power_core_nd_eigenvalue(n, 0.0, kappa, 0.3, 0.7, 0.3, 2.0),
                                  disk_nd_eigenvalue(n, 0.3, kappa, 2.0), rtol=1e-13)

    @pytest.mark.parametrize("s", [-1.9, -1.0, 0.5, 1.9])
    def test_solves_the_radial_equation(self, s):
        # the mode u(r) cos(n theta) with flux f = gamma u' solves
        # u' = f / gamma, f' = gamma n^2 u / r^2 - f / r; integrate it outward
        # from r^alpha near the centre, where the other solution decays
        a, rho1, kappa, rho2, n = 0.8, 0.3, 1.7, 0.6, 2
        alpha = (np.sqrt(s * s + 4 * n * n) - s) / 2
        r0 = 1e-4 * rho1
        y = [r0 ** alpha, a * (r0 / rho1) ** s * alpha * r0 ** (alpha - 1)]
        for gamma, lo, hi in ((lambda r: a * (r / rho1) ** s, r0, rho1),
                              (lambda r: kappa, rho1, rho2), (lambda r: 1.0, rho2, 1.0)):
            y = solve_ivp(lambda r, v, g=gamma: [v[1] / g(r), g(r) * n * n * v[0] / r ** 2
                                                 - v[1] / r],
                          (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-300).y[:, -1]
        assert np.isclose(power_core_nd_eigenvalue(n, s, a, rho1, kappa, rho2),
                          y[0] / y[1], rtol=1e-8)

    def test_guards(self):
        for args in ((1, 0.5, 1.0, 0.0, 1.0, 0.5), (1, 0.5, 1.0, 0.5, 1.0, 0.4),
                     (1, 0.5, 1.0, 0.2, 1.0, 1.0), (0, 0.5, 1.0, 0.2, 1.0, 0.5),
                     (1, 0.5, 0.0, 0.2, 1.0, 0.5), (1, 0.5, 1.0, 0.2, -1.0, 0.5)):
            with pytest.raises(ValueError):
                power_core_nd_eigenvalue(*args)


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
