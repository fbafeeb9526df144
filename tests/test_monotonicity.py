import numpy as np
import pytest

from eitmono import phantoms
from eitmono.coefficient import CoefficientField, bracket_coefficients
from eitmono.geometry import TestInclusion, triangulate
from eitmono.monotonicity import (ProvenanceError, bracketing_chain, psd_test,
                                  theorem_test)
from eitmono.ndmap import NDMatrix, build_basis, nd_extreme, nd_matrix

from conftest import build_field


def shifted(nd, amount):
    return NDMatrix(matrix=nd.matrix + amount * nd.gram, gram=nd.gram,
                    asymmetry=0.0, field_hash="x", mesh_hash=nd.mesh_hash,
                    basis_hash=nd.basis_hash)


class TestPsd:
    def test_identity(self, nd_homogeneous):
        lam, ok = psd_test(nd_homogeneous, nd_homogeneous)
        assert lam == 0.0 and ok

    def test_gram_shift(self, nd_homogeneous):
        lam, ok = psd_test(shifted(nd_homogeneous, 1.0), nd_homogeneous)
        assert np.isclose(lam, 1.0) and ok
        lam2, ok2 = psd_test(nd_homogeneous, shifted(nd_homogeneous, 1.0))
        assert np.isclose(lam2, -1.0) and not ok2

    def test_no_tau_skips_the_flag(self, nd_homogeneous, monkeypatch):
        calls = []
        monkeypatch.setattr(NDMatrix, "gnorm",
                            lambda self: calls.append(1) or 1.0)
        lam, ok = psd_test(nd_homogeneous, shifted(nd_homogeneous, 1.0),
                           tau=None)
        assert np.isclose(lam, -1.0) and ok is None and not calls
        assert psd_test(nd_homogeneous, nd_homogeneous)[1] and calls

    def test_transitivity(self, disk_mesh, basis8):
        tau = 1e-7
        nds = [nd_matrix(disk_mesh, CoefficientField(mesh=disk_mesh, gamma0=g),
                         basis8) for g in (0.5, 1.0, 2.0)]
        _, ab = psd_test(nds[0], nds[1], tau=tau)
        _, bc = psd_test(nds[1], nds[2], tau=tau)
        _, ac = psd_test(nds[0], nds[2], tau=2 * tau)
        assert ab and bc and ac

    def test_provenance_mismatch(self, disk, disk_mesh, disk_field, basis8,
                                 nd_homogeneous):
        coarse = triangulate(disk, target_h=0.2)
        basis_c = build_basis(disk, 8, mesh=coarse)
        nd_c = nd_matrix(coarse, CoefficientField(mesh=coarse, gamma0=1.0), basis_c)
        with pytest.raises(ProvenanceError):
            psd_test(nd_homogeneous, nd_c)


@pytest.fixture(scope="module")
def disk_phantom_setup(disk, family8):
    regions, spec = phantoms.build_phantom("insulating_disk")
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(disk, 8, mesh=mesh)
    nd = nd_matrix(mesh, fld, basis)
    return mesh, basis, nd


class TestTheoremTest:
    def test_pass_for_containing_window(self, disk_phantom_setup, family8):
        mesh, basis, nd = disk_phantom_setup
        verdict = theorem_test(nd, family8.whole_window(), mesh, 1.0, basis,
                               tau=1e-4, side="both")
        assert verdict.pass_both
        assert verdict.lambda_min_insulating > -1e-4
        assert verdict.lambda_min_conducting > -1e-4

    def test_background_passes_everywhere(self, disk, family8):
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(disk, 6, mesh=mesh)
        nd = nd_matrix(mesh, CoefficientField(mesh=mesh, gamma0=1.0), basis)
        for member in family8.cell_members(0, 0):
            v = theorem_test(nd, member, mesh, 1.0, basis, tau=1e-6)
            assert v.pass_both

    def test_insulating_side_fails_when_test_set_misses_d(
            self, disk_phantom_setup, family8):
        # a small test set far from covering the inclusion cannot dominate
        # the data on the insulating side
        mesh, basis, nd = disk_phantom_setup
        cell = TestInclusion(id="far", parts=(family8.cell_polygon(0, 0),))
        verdict = theorem_test(nd, cell, mesh, 1.0, basis, tau=1e-4)
        assert not verdict.pass_insulating
        assert verdict.pass_conducting   # data stays above the conducting map

    def test_side_variants(self, disk_phantom_setup, family8):
        mesh, basis, nd = disk_phantom_setup
        v = theorem_test(nd, family8.whole_window(), mesh, 1.0, basis,
                         side="lower_only")
        assert np.isnan(v.lambda_min_conducting)
        assert v.pass_conducting and v.pass_both == v.pass_insulating
        with pytest.raises(ValueError):
            theorem_test(nd, family8.whole_window(), mesh, 1.0, basis,
                         side="sideways")

    def test_log_line_format(self, disk_phantom_setup, family8):
        mesh, basis, nd = disk_phantom_setup
        v = theorem_test(nd, family8.whole_window(), mesh, 1.0, basis)
        parts = v.log_line().split()
        assert parts[0] == "all"
        float(parts[1]), float(parts[2])
        assert parts[3] in "01" and parts[4] in "01"

    def test_monotone_in_test_set(self, disk, family8):
        # growing the test set can only help both inequalities
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(disk, 6, mesh=mesh)
        small = TestInclusion(id="s", parts=(family8.cell_polygon(3, 3),))
        big = TestInclusion(id="b", parts=(family8.cell_polygon(3, 3),
                                           family8.cell_polygon(4, 3),
                                           family8.cell_polygon(3, 4)))
        tau = 1e-7
        nd0s = nd_extreme(mesh, small, "insulating", 1.0, basis)
        nd0b = nd_extreme(mesh, big, "insulating", 1.0, basis)
        lam, ok = psd_test(nd0b, nd0s, tau=tau)
        assert ok
        ndis = nd_extreme(mesh, small, "conducting", 1.0, basis)
        ndib = nd_extreme(mesh, big, "conducting", 1.0, basis)
        lam2, ok2 = psd_test(ndis, ndib, tau=tau)
        assert ok2


@pytest.fixture(scope="module")
def chain_setup(disk, family8):
    regions, spec = phantoms.build_phantom("weighted_annulus")
    mesh = triangulate(disk, regions, target_h=0.09,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(disk, 8, mesh=mesh)
    nd = nd_matrix(mesh, fld, basis)
    low, up = bracket_coefficients(fld)
    nd_low = nd_matrix(mesh, low, basis)
    nd_up = nd_matrix(mesh, up, basis)
    window = family8.whole_window()
    nd0 = nd_extreme(mesh, window, "insulating", 1.0, basis)
    ndinf = nd_extreme(mesh, window, "conducting", 1.0, basis)
    return nd, nd_low, nd_up, nd0, ndinf


class TestBracketingChain:
    def test_all_links_pass(self, chain_setup):
        nd, nd_low, nd_up, nd0, ndinf = chain_setup
        report = bracketing_chain(nd, nd_low, nd_up, nd0, ndinf, tau=1e-4)
        assert report.all_pass
        assert len(report.lambda_mins) == 4
        assert len(report.log_lines()) == 4

    def test_swapped_brackets_break_a_link(self, chain_setup):
        nd, nd_low, nd_up, nd0, ndinf = chain_setup
        report = bracketing_chain(nd, nd_up, nd_low, nd0, ndinf, tau=1e-4)
        assert not report.all_pass

    def test_degenerate_links_exactly_zero(self, disk, family8):
        regions, spec = phantoms.build_phantom("plain_annulus")
        mesh = triangulate(disk, regions, target_h=0.1,
                           extra_segments=family8.grid_segments())
        fld = build_field(mesh, spec)
        basis = build_basis(disk, 8, mesh=mesh)
        nd = nd_matrix(mesh, fld, basis)
        low, up = bracket_coefficients(fld)
        assert low is fld and up is fld
        window = family8.whole_window()
        nd0 = nd_extreme(mesh, window, "insulating", 1.0, basis)
        ndinf = nd_extreme(mesh, window, "conducting", 1.0, basis)
        report = bracketing_chain(nd, nd, nd, nd0, ndinf, tau=1e-4)
        assert report.lambda_mins[1] == 0.0
        assert report.lambda_mins[2] == 0.0
        assert report.all_pass
