import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitmono import phantoms
from eitmono.coefficient import CoefficientField, bracket_coefficients
from eitmono.geometry import TestInclusion, triangulate
from eitmono.monotonicity import (ProvenanceError, bracketing_chain, psd_test,
                                  theorem_test)
from eitmono.ndmap import NDMatrix, build_basis, nd_matrix, perturb_symmetric
from eitmono.reconstruction import grid_template

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

    @settings(max_examples=40, deadline=None)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=64),
           scale=st.floats(0.1, 10.0), noise=st.floats(1e-3, 0.3),
           seed=st.integers(0, 2 ** 16))
    def test_change_of_current_basis(self, nd_homogeneous, entries, scale, noise, seed):
        # lambda and |B|_G are those of (L - L', G) when both maps and the
        # Gram matrix take an invertible change of basis A (A^T L A, A^T G A);
        # A = scale * (I + E) with |E|_2 <= 1/2 has condition number <= 3
        e = np.array(entries).reshape(8, 8)
        a = scale * (np.eye(8) + 0.5 * e / max(np.linalg.norm(e, 2), 1.0))
        other = perturb_symmetric(nd_homogeneous, noise, seed)

        def moved(nd):
            return NDMatrix(matrix=a.T @ nd.matrix @ a, gram=a.T @ nd.gram @ a,
                            asymmetry=0.0, field_hash=nd.field_hash,
                            mesh_hash=nd.mesh_hash, basis_hash=nd.basis_hash)

        tol = 1e-12 * nd_homogeneous.gnorm()   # measured: at most 6.1e-16
        for x, y in ((other, nd_homogeneous), (nd_homogeneous, other)):
            lam, moved_lam = (psd_test(p, q, tau=None)[0] for p, q in
                              ((x, y), (moved(x), moved(y))))
            assert abs(moved_lam - lam) <= tol
            assert abs(moved(y).gnorm() - y.gnorm()) <= tol

    def test_transitivity(self, disk_mesh, basis8):
        tau = 1e-7
        nds = [nd_matrix(CoefficientField(mesh=disk_mesh, gamma0=g),
                         basis8) for g in (0.5, 1.0, 2.0)]
        _, ab = psd_test(nds[0], nds[1], tau=tau)
        _, bc = psd_test(nds[1], nds[2], tau=tau)
        _, ac = psd_test(nds[0], nds[2], tau=2 * tau)
        assert ab and bc and ac

    def test_provenance_mismatch(self, disk, disk_mesh, disk_field, basis8,
                                 nd_homogeneous):
        coarse = triangulate(disk, target_h=0.2)
        basis_c = build_basis(coarse, 8)
        nd_c = nd_matrix(CoefficientField(mesh=coarse, gamma0=1.0), basis_c)
        with pytest.raises(ProvenanceError):
            psd_test(nd_homogeneous, nd_c)


@pytest.fixture(scope="module")
def disk_phantom_setup(disk, family8):
    regions, spec = phantoms.build_phantom("insulating_disk")
    mesh = triangulate(disk, regions, target_h=0.1,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    nd = nd_matrix(fld, basis)
    return grid_template(mesh, family8, 1.0, basis), nd


class TestTheoremTest:
    def test_pass_for_containing_window(self, disk_phantom_setup, family8):
        template, nd = disk_phantom_setup
        verdict = theorem_test(nd, family8.whole_window(), template,
                               tau=1e-4, side="both")
        assert verdict.pass_both
        assert verdict.lambda_min_insulating > -1e-4
        assert verdict.lambda_min_conducting > -1e-4

    def test_background_passes_everywhere(self, disk, family8):
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(mesh, 6)
        nd = nd_matrix(CoefficientField(mesh=mesh, gamma0=1.0), basis)
        template = grid_template(mesh, family8, 1.0, basis)
        for member in family8.cell_members(0, 0):
            v = theorem_test(nd, member, template, tau=1e-6)
            assert v.pass_both

    def test_insulating_side_fails_when_test_set_misses_d(
            self, disk_phantom_setup, family8):
        # a small test set far from covering the inclusion cannot dominate
        # the data on the insulating side
        template, nd = disk_phantom_setup
        cell = TestInclusion(id="far", cells=frozenset({(0, 0)}), family=family8)
        verdict = theorem_test(nd, cell, template, tau=1e-4)
        assert not verdict.pass_insulating
        assert verdict.pass_conducting   # data stays above the conducting map

    def test_side_variants(self, disk_phantom_setup, family8):
        template, nd = disk_phantom_setup
        v = theorem_test(nd, family8.whole_window(), template, side="lower_only")
        assert np.isnan(v.lambda_min_conducting)
        assert v.pass_conducting and v.pass_both == v.pass_insulating
        with pytest.raises(ValueError):
            theorem_test(nd, family8.whole_window(), template, side="sideways")

    def test_log_line_format(self, disk_phantom_setup, family8):
        template, nd = disk_phantom_setup
        v = theorem_test(nd, family8.whole_window(), template)
        parts = v.log_line().split()
        assert parts[0] == "all"
        float(parts[1]), float(parts[2])
        assert parts[3] in "01" and parts[4] in "01"

    def test_monotone_in_test_set(self, disk, family8):
        # growing the test set can only help both inequalities
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        template = grid_template(mesh, family8, 1.0, build_basis(mesh, 6))
        small = family8.flat([(3, 3)])
        big = family8.flat([(3, 3), (4, 3), (3, 4)])
        tau = 1e-7
        nd0s = template.nd_map(small, [], 1e-10)
        nd0b = template.nd_map(big, [], 1e-10)
        lam, ok = psd_test(nd0b, nd0s, tau=tau)
        assert ok
        ndis = template.nd_map([], small, 1e-10)
        ndib = template.nd_map([], big, 1e-10)
        lam2, ok2 = psd_test(ndis, ndib, tau=tau)
        assert ok2


def window_maps(mesh, family, basis):
    """The whole window painted insulating, then conducting, on a grid
    template of the mesh, as `chain` paints it."""
    template = grid_template(mesh, family, 1.0, basis)
    every = range(family.grid_n ** 2)
    return template.nd_map(every, [], 1e-10), template.nd_map([], every, 1e-10)


@pytest.fixture(scope="module")
def chain_setup(disk, family8):
    regions, spec = phantoms.build_phantom("weighted_annulus")
    mesh = triangulate(disk, regions, target_h=0.09,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    nd = nd_matrix(fld, basis)
    low, up = bracket_coefficients(fld)
    nd_low = nd_matrix(low, basis)
    nd_up = nd_matrix(up, basis)
    nd0, ndinf = window_maps(mesh, family8, basis)
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

    @pytest.mark.parametrize("slot", range(5))
    def test_map_from_another_mesh_rejected(self, disk, chain_setup, slot):
        coarse = triangulate(disk, target_h=0.2)
        maps = list(chain_setup)
        maps[slot] = nd_matrix(CoefficientField(mesh=coarse, gamma0=1.0),
                               build_basis(coarse, 8))
        with pytest.raises(ProvenanceError):
            bracketing_chain(*maps, tau=1e-4)

    def test_degenerate_links_exactly_zero(self, disk, family8):
        regions, spec = phantoms.build_phantom("plain_annulus")
        mesh = triangulate(disk, regions, target_h=0.1,
                           extra_segments=family8.grid_segments())
        fld = build_field(mesh, spec)
        basis = build_basis(mesh, 8)
        nd = nd_matrix(fld, basis)
        low, up = bracket_coefficients(fld)
        assert low is fld and up is fld
        nd0, ndinf = window_maps(mesh, family8, basis)
        report = bracketing_chain(nd, nd, nd, nd0, ndinf, tau=1e-4)
        assert report.lambda_mins[1] == 0.0
        assert report.lambda_mins[2] == 0.0
        assert report.all_pass
