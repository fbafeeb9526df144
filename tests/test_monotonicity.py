import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError
from scipy.linalg import eigh

from eitmono import phantoms
from eitmono.coefficient import CoefficientField
from eitmono.geometry import TestInclusion, triangulate
from eitmono.monotonicity import ProvenanceError, bracketing_chain, psd_test
from eitmono.ndmap import (NDMatrix, bracketed_maps, build_basis, nd_matrix,
                           perturb_symmetric)
from eitmono.reconstruction import _Scanner, grid_template

from conftest import build_field
from reference_family import cover_verdict


def shifted(nd, amount):
    return NDMatrix(matrix=nd.matrix + amount * nd.gram, gram=nd.gram,
                    asymmetry=0.0, field_hash="x", mesh_hash=nd.mesh_hash,
                    basis_hash=nd.basis_hash)


def pencil_nd(a, g):
    return NDMatrix(matrix=a, gram=g, asymmetry=0.0, field_hash="x", mesh_hash="m",
                    basis_hash="b")


pencils = st.integers(1, 16).flatmap(lambda m: st.tuples(
    st.lists(st.floats(-1e3, 1e3), min_size=m * m, max_size=m * m),
    st.lists(st.floats(-1.0, 1.0), min_size=m * m, max_size=m * m),
    st.sampled_from(["definite", "not definite", "nan"]), st.integers(0, m * m - 1)))


class TestPsd:
    @settings(max_examples=80, deadline=None)
    @given(pencils)
    def test_eigentests_are_eigh(self, pencil):
        # psd_test and generalized_eigenvalues give eigh's eigenvalues of a
        # symmetric pencil (A, G) bit for bit, and raise what eigh raises on
        # a G that is not positive definite or a nan entry
        entries, factor, kind, at = pencil
        m = int(round(len(entries) ** 0.5))
        a = np.tril(np.reshape(entries, (m, m)))
        a = a + np.tril(a, -1).T
        b = np.reshape(factor, (m, m))
        g = b @ b.T + np.eye(m)
        if kind == "not definite":
            g = -g
        elif kind == "nan":
            a.flat[at] = np.nan
        nd, zero = pencil_nd(a, g), pencil_nd(np.zeros((m, m)), g)
        try:
            ref = eigh(a, g, eigvals_only=True)
        except (LinAlgError, ValueError) as exc:
            assert kind != "definite"
            for call in (nd.generalized_eigenvalues, lambda: psd_test(nd, zero)):
                with pytest.raises(type(exc)) as got:
                    call()
                assert str(got.value) == str(exc)
            return
        assert kind == "definite"
        assert np.array_equal(nd.generalized_eigenvalues(), ref)
        assert psd_test(nd, zero) == ref[0]

    def test_identity(self, nd_homogeneous):
        assert psd_test(nd_homogeneous, nd_homogeneous) == 0.0

    def test_gram_shift(self, nd_homogeneous):
        up = shifted(nd_homogeneous, 1.0)
        lam = psd_test(up, nd_homogeneous)
        assert np.isclose(lam, 1.0) and lam >= -1e-4 * nd_homogeneous.gnorm()
        lam2 = psd_test(nd_homogeneous, up)
        assert np.isclose(lam2, -1.0) and lam2 < -1e-4 * up.gnorm()

    def test_returns_lambda_only(self, nd_homogeneous, monkeypatch):
        calls = []
        monkeypatch.setattr(NDMatrix, "gnorm",
                            lambda self: calls.append(1) or 1.0)
        lam = psd_test(nd_homogeneous, shifted(nd_homogeneous, 1.0))
        assert type(lam) is float and np.isclose(lam, -1.0) and not calls

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
            lam, moved_lam = (psd_test(p, q) for p, q in
                              ((x, y), (moved(x), moved(y))))
            assert abs(moved_lam - lam) <= tol
            assert abs(moved(y).gnorm() - y.gnorm()) <= tol

    def test_transitivity(self, disk_mesh, basis8):
        tau = 1e-7
        nds = [nd_matrix(CoefficientField(mesh=disk_mesh, gamma0=g),
                         basis8) for g in (0.5, 1.0, 2.0)]
        assert psd_test(nds[0], nds[1]) >= -tau * nds[1].gnorm()
        assert psd_test(nds[1], nds[2]) >= -tau * nds[2].gnorm()
        assert psd_test(nds[0], nds[2]) >= -2 * tau * nds[2].gnorm()

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
    return _Scanner(nd_matrix(fld, basis), mesh, family8, 1.0, basis, 1e-10)


class TestTheoremTest:
    """The paper's pair of Loewner tests on one test set, with the cover
    maps of `_Scanner.cover_margin` (`reference_family.cover_verdict`)."""

    def test_pass_for_containing_window(self, disk_phantom_setup, family8):
        verdict = cover_verdict(disk_phantom_setup, family8.whole_window(), tau=1e-4)
        assert verdict.pass_insulating and verdict.pass_conducting
        assert verdict.lambda_min_insulating > -1e-4
        assert verdict.lambda_min_conducting > -1e-4

    def test_background_passes_everywhere(self, disk, family8):
        mesh = triangulate(disk, target_h=0.12,
                           extra_segments=family8.grid_segments())
        basis = build_basis(mesh, 6)
        nd = nd_matrix(CoefficientField(mesh=mesh, gamma0=1.0), basis)
        scanner = _Scanner(nd, mesh, family8, 1.0, basis, 1e-10)
        for member in family8.cell_members(0, 0):
            v = cover_verdict(scanner, member, tau=1e-6)
            assert v.pass_insulating and v.pass_conducting

    def test_insulating_side_fails_when_test_set_misses_d(
            self, disk_phantom_setup, family8):
        # a small test set far from covering the inclusion cannot dominate
        # the data on the insulating side
        cell = TestInclusion(id="far", cells=frozenset({(0, 0)}), family=family8)
        verdict = cover_verdict(disk_phantom_setup, cell, tau=1e-4)
        assert not verdict.pass_insulating
        assert verdict.pass_conducting   # data stays above the conducting map

    def test_log_line_format(self, disk_phantom_setup, family8):
        v = cover_verdict(disk_phantom_setup, family8.whole_window(), tau=1e-4)
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
        nd0s = template.solve(small, [], 1e-10).nd
        nd0b = template.solve(big, [], 1e-10).nd
        assert psd_test(nd0b, nd0s) >= -tau * nd0s.gnorm()
        ndis = template.solve([], small, 1e-10).nd
        ndib = template.solve([], big, 1e-10).nd
        assert psd_test(ndis, ndib) >= -tau * ndib.gnorm()


def window_maps(mesh, family, basis):
    """The whole window painted insulating, then conducting, on a grid
    template of the mesh, as `chain` paints it."""
    template = grid_template(mesh, family, 1.0, basis)
    every = range(family.grid_n ** 2)
    return template.solve(every, [], 1e-10).nd, template.solve([], every, 1e-10).nd


@pytest.fixture(scope="module")
def chain_setup(disk, family8):
    regions, spec = phantoms.build_phantom("weighted_annulus")
    mesh = triangulate(disk, regions, target_h=0.09,
                       extra_segments=family8.grid_segments())
    fld = build_field(mesh, spec)
    basis = build_basis(mesh, 8)
    (nd, nd_low, nd_up), _ = bracketed_maps(fld, basis)
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
        maps, _ = bracketed_maps(fld, basis)
        assert len(maps) == 1
        nd = maps[0]
        nd0, ndinf = window_maps(mesh, family8, basis)
        report = bracketing_chain(nd, nd, nd, nd0, ndinf, tau=1e-4)
        assert report.lambda_mins[1] == 0.0
        assert report.lambda_mins[2] == 0.0
        assert report.all_pass
