"""Operator-inequality tests between ND matrices in the Loewner order.

All comparisons are generalized-eigenvalue problems against the shared basis
Gram matrix, so verdicts do not depend on the particular (non-orthonormal)
current basis spanning the measurement space.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

DEFAULT_TAU = 1e-4


class ProvenanceError(ValueError):
    pass


def _require_same_provenance(a, b):
    if not a.same_provenance(b):
        raise ProvenanceError(
            "ND matrices come from different meshes or bases "
            f"(mesh {a.mesh_hash}/{b.mesh_hash}, basis {a.basis_hash}/{b.basis_hash})")


def psd_test(nd_a, nd_b, tau=DEFAULT_TAU):
    """Smallest generalized eigenvalue of (A - B, G) and the pass flag
    lambda_min >= -tau * |B|_G; with ``tau=None`` the flag is None and
    |B|_G is not computed."""
    _require_same_provenance(nd_a, nd_b)
    diff = nd_a.matrix - nd_b.matrix
    lam_min = float(eigh(diff, nd_a.gram, eigvals_only=True)[0])
    if tau is None:
        return lam_min, None
    return lam_min, lam_min >= -tau * nd_b.gnorm()


@dataclass
class MonotonicityVerdict:
    """Outcome of the two-sided inclusion test for one test set."""

    test_id: str
    lambda_min_insulating: float
    lambda_min_conducting: float
    pass_insulating: bool
    pass_conducting: bool

    @property
    def pass_both(self):
        return self.pass_insulating and self.pass_conducting

    def log_line(self):
        return (f"{self.test_id} {self.lambda_min_insulating:.6e} "
                f"{self.lambda_min_conducting:.6e} "
                f"{int(self.pass_insulating)} {int(self.pass_conducting)}")


def theorem_test(nd_gamma, member, template, tau=DEFAULT_TAU, side="both",
                 rtol=1e-10):
    """Run the inclusion test for one family member on a
    `reconstruction.grid_template` of its family: the member's cells painted
    insulating, then conducting.

    side selects which operator inequalities are checked: ``lower_only``
    checks only the insulating map against the data (the right test when no
    part of the perturbation exceeds the background), ``upper_only`` only
    the conducting one, ``both`` checks the two-sided sandwich.
    """
    if side not in ("both", "lower_only", "upper_only"):
        raise ValueError(f"unknown side {side!r}")

    cells = member.family.flat(member.cells)
    lam_ins = lam_cond = np.nan
    ok_ins = ok_cond = True
    if side in ("both", "lower_only"):
        lam_ins, ok_ins = psd_test(template.nd_map(cells, [], rtol), nd_gamma, tau=tau)
    if side in ("both", "upper_only"):
        lam_cond, ok_cond = psd_test(nd_gamma, template.nd_map([], cells, rtol), tau=tau)
    return MonotonicityVerdict(
        test_id=member.id,
        lambda_min_insulating=float(lam_ins),
        lambda_min_conducting=float(lam_cond),
        pass_insulating=bool(ok_ins), pass_conducting=bool(ok_cond))


@dataclass
class ChainReport:
    """The four operator-inequality links reducing the weighted problem to
    the extreme-inclusion one: insulating test map over the lower bracket,
    lower bracket over the data, data over the upper bracket, upper bracket
    over the conducting test map."""

    lambda_mins: tuple
    passes: tuple
    scale: float

    @property
    def all_pass(self):
        return all(self.passes)

    def log_lines(self):
        names = ("ins_over_lower", "lower_over_data",
                 "data_over_upper", "upper_over_cond")
        return [f"{n} {lam:.6e} {int(p)}"
                for n, lam, p in zip(names, self.lambda_mins, self.passes)]


def bracketing_chain(nd_gamma, nd_gamma_low, nd_gamma_up, nd0_c, ndinf_c,
                     tau=DEFAULT_TAU):
    """Evaluate the four-link chain with a shared tolerance scaled by the
    data map's Gram-geometry norm.  Each link checks provenance, so the five
    maps must share one mesh and basis."""
    scale = nd_gamma.gnorm()
    lams = tuple(psd_test(a, b, tau=None)[0]
                 for a, b in ((nd0_c, nd_gamma_low), (nd_gamma_low, nd_gamma),
                              (nd_gamma, nd_gamma_up), (nd_gamma_up, ndinf_c)))
    return ChainReport(lambda_mins=lams,
                       passes=tuple(lam >= -tau * scale for lam in lams),
                       scale=scale)
