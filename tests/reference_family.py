"""Helpers of the tests for the scan family and its members.

`contains` is the closed point set of a `geometry.TestInclusion`;
`negative_only` tells which phantoms need only the insulating side;
`cover_verdict` runs the paper's pair of Loewner tests on one test set with
the cover maps that `reconstruction._Scanner.cover_margin` paints, and
returns them as a `MonotonicityVerdict`.
"""

from dataclasses import dataclass

import numpy as np

from eitmono import phantoms
from eitmono.monotonicity import psd_test

# Diagonal offsets that move a point within 1e-12 of a grid line or corner
# into each cell beside it.
_NUDGES = 1e-12 * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])


def contains(member, points):
    """Points in the closed union of the member's cells: a point on a grid
    line, or within 1e-12 of one, counts for every cell beside it."""
    pts = np.atleast_2d(points)
    family = member.family
    inside = np.zeros(family.grid_n ** 2 + 1, dtype=bool)
    inside[family.flat(member.cells)] = True
    return np.any([inside[family.cell_of(pts + d)] for d in _NUDGES], axis=0)


def negative_only(name):
    """True when the phantom has no part exceeding the background (the
    one-sided lower test suffices)."""
    regions, _ = phantoms.build_phantom(name)
    return not any(regions.label_polys(lab) for lab in ("Dinf", "Dsing", "DFplus"))


@dataclass
class MonotonicityVerdict:
    """Outcome of the two-sided inclusion test for one test set."""

    test_id: str
    lambda_min_insulating: float
    lambda_min_conducting: float
    pass_insulating: bool
    pass_conducting: bool

    def log_line(self):
        return (f"{self.test_id} {self.lambda_min_insulating:.6e} "
                f"{self.lambda_min_conducting:.6e} "
                f"{int(self.pass_insulating)} {int(self.pass_conducting)}")


def cover_verdict(scanner, member, tau, side="both"):
    """The member's cells painted insulating, then conducting, each compared
    with the scanner's data map.  The insulating test passes when
    lambda_min(ND_0 - ND) >= -tau*|ND|_G and the conducting one when
    lambda_min(ND - ND_inf) >= -tau*|ND_inf|_G; a side left out by ``side``
    (``lower_only`` or ``upper_only``) has lambda nan and passes."""
    nd = scanner.nd
    lam_ins = lam_cond = np.nan
    ok_ins = ok_cond = True
    if side in ("both", "lower_only"):
        nd0 = scanner.paint("lower", member.cells, set(), update=False)
        lam_ins = psd_test(nd0, nd)
        ok_ins = lam_ins >= -tau * nd.gnorm()
    if side in ("both", "upper_only"):
        ndinf = scanner.paint("upper", member.cells, set(), update=False)
        lam_cond = psd_test(nd, ndinf)
        ok_cond = lam_cond >= -tau * ndinf.gnorm()
    return MonotonicityVerdict(test_id=member.id, lambda_min_insulating=lam_ins,
                               lambda_min_conducting=lam_cond,
                               pass_insulating=bool(ok_ins), pass_conducting=bool(ok_cond))
