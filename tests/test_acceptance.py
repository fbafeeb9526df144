"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers at its pinned tolerance.

Reconstruction quality floors were recorded at first calibration on the
default configuration (h = 0.08, m = 16, grid 8, tau = 1e-5, tau_rel = 0.5)
and are frozen here: insulating disk 0.75, conducting disk 0.75, mixed
two-blob 1.00 (all above the 0.7 design target).
"""

import json
import time

import numpy as np
import pytest

from eitmono import cli, phantoms
from eitmono import polygons as pg
from eitmono.coefficient import CoefficientField, WeightSpec, graded_triangle_integrals
from eitmono.geometry import build_domain, pixel_family, triangulate
from eitmono.monotonicity import bracketing_chain, psd_test
from eitmono.ndmap import NDMatrix, bracketed_maps, build_basis, nd_matrix
from eitmono.oracle import disk_nd_eigenvalue, power_core_nd_eigenvalue
from eitmono.reconstruction import _Scanner, reconstruct

from conftest import build_field, dirichlet_energy, energy
import reference_fem
from reference_family import contains, cover_verdict, negative_only
from test_monotonicity import window_maps
from test_ndmap import ordered_field_pair


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def disk_dom():
    return build_domain("disk")


@pytest.fixture(scope="module")
def fam8(disk_dom):
    return pixel_family(disk_dom, 8)


def phantom_field(dom, name, h, extra_segments=()):
    regions, spec = phantoms.build_phantom(name)
    mesh = triangulate(dom, regions, target_h=h, extra_segments=extra_segments)
    return regions, mesh, build_field(mesh, spec)


def test_criterion_1_forward_oracle(disk_dom):
    t0 = time.perf_counter()
    mesh = triangulate(disk_dom, target_h=0.02)
    fld = CoefficientField(mesh=mesh, gamma0=1.0)
    basis = build_basis(mesh, 16)
    nd = nd_matrix(fld, basis)
    eigs = np.sort(nd.generalized_eigenvalues())[::-1]
    worst = 0.0
    for n in range(1, 7):
        pair = eigs[2 * n - 2:2 * n]
        worst = max(worst, float(np.max(np.abs(pair - 1.0 / n) * n)))
    # frequency-decay tail: within 5% up to half the basis size
    tail = 0.0
    for n in range(7, 9):
        pair = eigs[2 * n - 2:2 * n]
        tail = max(tail, float(np.max(np.abs(pair - 1.0 / n) * n)))
    elapsed = time.perf_counter() - t0
    report("1 forward-oracle",
           worst < 0.02 and tail < 0.05 and elapsed < 60.0,
           f"max rel err {worst:.2e} < 2e-2 (n<=6), tail {tail:.2e} < 5e-2 "
           f"(n<=8), runtime {elapsed:.1f}s < 60s")


def test_criterion_2_extreme_inclusions(disk_dom):
    worst = 0.0
    details = []
    for kind, kappa in (("D0", 0.0), ("Dinf", np.inf)):
        regions, _ = phantoms.concentric_disk(0.5, kind, 128)
        mesh = triangulate(disk_dom, regions, target_h=0.02)
        fld = build_field(mesh, {"background": 1.0})
        basis = build_basis(mesh, 16)
        nd = nd_matrix(fld, basis)
        eigs = np.sort(nd.generalized_eigenvalues())[::-1]
        for n in range(1, 5):
            lam = disk_nd_eigenvalue(n, 0.5, kappa)
            err = float(np.max(np.abs(eigs[2 * n - 2:2 * n] - lam) / lam))
            worst = max(worst, err)
        details.append(f"{kind}: eig1={eigs[0]:.4f}")
    report("2 extreme-inclusions", worst < 0.03,
           f"max rel err {worst:.2e} < 3e-2; {'; '.join(details)}")


def test_criterion_3_bracketing_chain(disk_dom, fam8):
    regions, mesh, fld = phantom_field(disk_dom, "weighted_annulus", 0.07,
                                       fam8.grid_segments())
    basis = build_basis(mesh, 16)
    (nd, nd_low, nd_up), _ = bracketed_maps(fld, basis)
    nd0, ndinf = window_maps(mesh, fam8, basis)
    rep = bracketing_chain(nd, nd_low, nd_up, nd0, ndinf, tau=1e-4)

    regions2, mesh2, fld2 = phantom_field(disk_dom, "plain_annulus", 0.07,
                                          fam8.grid_segments())
    basis2 = build_basis(mesh2, 16)
    maps2, _ = bracketed_maps(fld2, basis2)
    nd2 = maps2[0]
    nd02, ndinf2 = window_maps(mesh2, fam8, basis2)
    rep2 = bracketing_chain(nd2, nd2, nd2, nd02, ndinf2, tau=1e-4)

    degenerate_zero = rep2.lambda_mins[1] == 0.0 and rep2.lambda_mins[2] == 0.0
    report("3 bracketing-chain",
           rep.all_pass and len(maps2) == 1 and degenerate_zero and rep2.all_pass,
           f"links {[f'{l:+.1e}' for l in rep.lambda_mins]} all >= -1e-4*|L|; "
           f"degenerate middle links exactly {rep2.lambda_mins[1]:+g}/"
           f"{rep2.lambda_mins[2]:+g}")


def criterion_4_setup(disk_dom, fam8, name):
    """Data map, mesh, basis, scan side and tested members of a phantom for
    criterion 4: the whole window plus up to four admissible directional
    complements whose excluded strip avoids the phantom."""
    regions, mesh, fld = phantom_field(disk_dom, name, 0.09, fam8.grid_segments())
    basis = build_basis(mesh, 10)
    side = "lower_only" if negative_only(name) else "both"
    samples = np.vstack([np.asarray(p) for _, p in regions.all_polys()])
    members = [fam8.whole_window()]
    for m in fam8.members:
        if m.excluded_cell is None or not m.admissible:
            continue
        if not contains(m, samples).all():
            continue
        members.append(m)
        if len(members) >= 5:
            break
    return nd_matrix(fld, basis), mesh, basis, side, members


def test_criterion_4_containment_direction(disk_dom, fam8):
    failures = []
    for name in phantoms.REGRESSION_PHANTOMS:
        nd, mesh, basis, side, members = criterion_4_setup(disk_dom, fam8, name)
        scanner = _Scanner(nd, mesh, fam8, 1.0, basis, 1e-10)
        for member in members:
            verdict = cover_verdict(scanner, member, tau=1e-4, side=side)
            ok = verdict.pass_insulating and verdict.pass_conducting
            if not ok:
                failures.append((name, member.id, verdict.log_line()))
    report("4 containment-direction", not failures,
           f"{len(phantoms.REGRESSION_PHANTOMS)} phantoms x up-to-5 members"
           + (f"; failures: {failures}" if failures else ""))


@pytest.mark.parametrize("name", ["insulating_disk", "conducting_disk", "two_blob_mixed"])
def test_criterion_4_template_matches_direct_path(disk_dom, fam8, name):
    # the scanner's cover paintings of criterion 4's members give the
    # lambdas of the point-in-polygon paintings of the same cells within
    # 1e-12*|L|_G, and the same pass flags
    nd, mesh, basis, side, members = criterion_4_setup(disk_dom, fam8, name)
    scanner = _Scanner(nd, mesh, fam8, 1.0, basis, 1e-10)
    tol = 1e-12 * nd.gnorm()
    for member in members:
        got = cover_verdict(scanner, member, tau=1e-4)
        parts = reference_fem.cell_parts(fam8, member.cells)
        nd0 = reference_fem.nd_extreme(mesh, parts, "insulating", 1.0, basis)
        ndinf = reference_fem.nd_extreme(mesh, parts, "conducting", 1.0, basis)
        lam_ins, lam_cond = psd_test(nd0, nd), psd_test(nd, ndinf)
        ok_ins, ok_cond = lam_ins >= -1e-4 * nd.gnorm(), lam_cond >= -1e-4 * ndinf.gnorm()
        assert abs(got.lambda_min_insulating - lam_ins) <= tol, member.id
        assert abs(got.lambda_min_conducting - lam_cond) <= tol, member.id
        assert (got.pass_insulating, got.pass_conducting) == (ok_ins, ok_cond)


FROZEN_BASELINES = {"insulating_disk": 0.75, "conducting_disk": 0.75,
                    "two_blob_mixed": 1.00}


def test_criterion_5_reconstruction(disk_dom, fam8):
    details = []
    ok = True
    for name, floor in FROZEN_BASELINES.items():
        regions, mesh, fld = phantom_field(disk_dom, name, 0.08,
                                           fam8.grid_segments())
        basis = build_basis(mesh, 16)
        nd = nd_matrix(fld, basis)
        res = reconstruct(nd, mesh, fam8, 1.0, basis, tau=1e-5,
                          side="both", truth_regions=regions)
        details.append(f"{name}={res.jaccard:.3f}(floor {floor})")
        ok &= res.jaccard >= floor - 1e-9
        ok &= res.jaccard >= 0.7    # design target

    # partial-boundary variant: each component still gets marked
    half = build_domain("disk", (0.0, 0.5))
    fam_half = pixel_family(half, 8)
    for name, m in (("insulating_disk", 16), ("two_blob_mixed", 24)):
        regions, mesh, fld = phantom_field(half, name, 0.08,
                                           fam_half.grid_segments())
        basis = build_basis(mesh, m)
        nd = nd_matrix(fld, basis)
        res = reconstruct(nd, mesh, fam_half, 1.0, basis, tau=1e-5,
                          side="both", truth_regions=regions)
        from eitmono.polygons import points_in_polygon
        cx, cy = fam_half.cell_centers()
        for label, plist in regions.polys.items():
            for poly in plist:
                hit = any(res.inside[i, j]
                          and points_in_polygon((cx[i], cy[j]), poly)[0]
                          for i in range(8) for j in range(8))
                ok &= hit
                details.append(f"half:{name}:{label} hit={hit}")
    report("5 reconstruction", ok, "; ".join(details))


def test_criterion_6_two_path_equivalence(disk_dom):
    worst = 0.0
    for name in ("homogeneous", "insulating_disk", "conducting_disk",
                 "weighted_annulus", "two_blob_mixed"):
        regions, mesh, fld = phantom_field(disk_dom, name, 0.1)
        assert mesh.num_vertices <= 2000
        basis = build_basis(mesh, 8)
        nd = nd_matrix(fld, basis)
        brute = reference_fem.brute_force_nd(fld, basis)
        rel = float(np.linalg.norm(brute.matrix - nd.matrix)
                    / np.linalg.norm(nd.matrix))
        worst = max(worst, rel)
    report("6 two-path-equivalence", worst < 1e-6,
           f"max relative Frobenius discrepancy {worst:.2e} < 1e-6")


def test_criterion_7_discrete_monotonicity(disk_dom):
    from eitmono.geometry import RegionSet
    from eitmono import polygons as pg
    p1 = pg.rectangle(-0.45, -0.25, -0.05, 0.2)
    p2 = pg.regular_polygon((0.3, 0.0), 0.22, 24)
    regions = RegionSet(polys={"DFminus": [p1], "DFplus": [p2]})
    mesh = triangulate(disk_dom, regions, target_h=0.12)
    basis = build_basis(mesh, 6)
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(25):
        f1, f2 = ordered_field_pair(mesh, rng)
        nd1 = nd_matrix(f1, basis)
        nd2 = nd_matrix(f2, basis)
        lam = psd_test(nd1, nd2)
        ok = lam >= -1e-7 * nd2.gnorm()
        worst = min(worst, lam / nd2.gnorm())
        if not ok:
            break
    report("7 discrete-monotonicity", ok and worst > -1e-7,
           f"25 ordered pairs, worst normalized lambda_min {worst:+.2e} >= -1e-7")


def test_criterion_8_weighted_quadrature_convergence():
    worst = 0.0
    tri = np.array([[0.0, 0.0], [0.07, 0.0], [0.0, 0.07]])
    for s in (-1.5, -0.5, 0.5, 1.5):
        w = WeightSpec.radial_power((0.0, 0.0), s)
        v12 = graded_triangle_integrals(tri[None], w, depth=12)[0]
        v16 = graded_triangle_integrals(tri[None], w, depth=16)[0]
        worst = max(worst, abs(v12 - v16) / abs(v16))
    report("8 weighted-quadrature", worst < 1e-10,
           f"max relative change order 12 vs 16: {worst:.2e} < 1e-10")


def test_criterion_9_energy_identities(disk_dom):
    worst_identity = 0.0
    worst_minimiser = 0.0
    rng = np.random.default_rng(99)
    for name in ("homogeneous", "insulating_disk", "weighted_annulus"):
        regions, mesh, fld = phantom_field(disk_dom, name, 0.1)
        dofmap = reference_fem.build_dof_map(fld.mesh)
        system = reference_fem.assemble(fld, dofmap)
        basis = build_basis(mesh, 6)
        for k in range(basis.m):
            b = reference_fem.neumann_load(fld.mesh, dofmap, basis.density(k))
            u = reference_fem.solve_load(system, b)
            pairing = float(b @ u)
            identity_err = abs(dirichlet_energy(system, u) - pairing) \
                / abs(pairing)
            worst_identity = max(worst_identity, identity_err)
            j0 = energy(system, u, b)
            for _ in range(100 // basis.m + 1):
                wvec = rng.standard_normal(system.n)
                t = rng.choice([0.1, -0.1, 1.0, -1.0])
                gap = energy(system, u + t * wvec, b) - j0
                worst_minimiser = min(worst_minimiser, gap / abs(j0))
    report("9 energy-identities",
           worst_identity < 1e-8 and worst_minimiser > -1e-9,
           f"identity rel err {worst_identity:.2e} < 1e-8; "
           f"minimiser slack {worst_minimiser:+.2e} >= -1e-9")


def test_criterion_10_one_sided_variant(disk_dom, fam8):
    regions, mesh, fld = phantom_field(disk_dom, "insulating_pair", 0.09,
                                       fam8.grid_segments())
    assert negative_only("insulating_pair")
    basis = build_basis(mesh, 12)
    nd = nd_matrix(fld, basis)
    res_both = reconstruct(nd, mesh, fam8, 1.0, basis, tau=1e-5,
                           side="both", truth_regions=regions)
    res_lower = reconstruct(nd, mesh, fam8, 1.0, basis, tau=1e-5,
                            side="lower_only", truth_regions=regions)
    equal = np.array_equal(res_both.inside, res_lower.inside)
    report("10 one-sided-variant",
           equal and res_both.box_upper is None,
           f"cell-for-cell equality {equal}; upper box {res_both.box_upper}; "
           f"jaccard {res_both.jaccard:.3f}")


def test_criterion_11_power_core_oracle(tmp_path):
    # `forward` on a radial power core gamma = a (r/rho1)^s inside a ring of
    # conductivity a: degenerate (Ddeg in DFminus) for s > 0, singular (Dsing
    # in DFplus) for s < 0.  The core's own effect is how far its mode-1
    # eigenvalue lies from the ring's conductivity filling the core.
    rho1, rho2 = 0.25, 0.4
    core = pg.regular_polygon((0.0, 0.0), rho1, 128).tolist()
    ring = [pg.regular_polygon((0.0, 0.0), rho2, 128).tolist(), core[::-1]]
    ok, details = True, []
    for s in (0.5, -0.5, 1.0, -1.0, 1.9, -1.9):
        a, weighted, finite = (0.5, "Ddeg", "DFminus") if s > 0 else (2.0, "Dsing", "DFplus")
        cfg = {"domain": {"shape": "disk"}, "mesh": {"target_h": 0.04}, "basis": {"m": 16},
               "regions": {weighted: [core], finite: ring},
               "coefficient": {finite: a, weighted: {
                   "kind": "radial_power", "center": [0.0, 0.0], "exponent": s,
                   "amplitude": a / rho1 ** s}}}
        path = tmp_path / "power_core.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["forward", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        nd = NDMatrix.from_text((tmp_path / "o" / "nd_gamma.txt").read_text())
        eigs = np.sort(nd.generalized_eigenvalues())[::-1]
        lams = [power_core_nd_eigenvalue(n, s, a, rho1, a, rho2) for n in range(1, 5)]
        errs = [float(np.max(np.abs(eigs[2 * n:2 * n + 2] - lam)) / lam)
                for n, lam in enumerate(lams)]
        effect = abs(lams[0] - disk_nd_eigenvalue(1, rho2, a)) / lams[0]
        ok &= max(errs) < 3e-3 and errs[0] < effect / 10
        details.append(f"s={s:+g}: max rel err {max(errs):.1e} < 3e-3 (n<=4), "
                       f"mode 1 {errs[0]:.1e} < {effect:.1e}/10")
    report("11 power-core oracle", ok, "; ".join(details))
