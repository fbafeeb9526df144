"""Operator-inequality tests between ND matrices in the Loewner order.

All comparisons are generalized-eigenvalue problems against the shared basis
Gram matrix, so verdicts do not depend on the particular (non-orthonormal)
current basis spanning the measurement space.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dsygvd


class ProvenanceError(ValueError):
    pass


def pencil_eigenvalues(a, g):
    """Eigenvalues, ascending, of the symmetric pencil (a, g), g positive
    definite: ``scipy.linalg.eigh(a, g, eigvals_only=True)``, bit for bit,
    through the LAPACK driver eigh picks for it (dsygvd) without eigh's
    argument handling.  A pencil that eigh rejects (a nan or inf entry, a g
    that is not positive definite) goes to eigh, which raises."""
    if np.isfinite(a).all() and np.isfinite(g).all():
        w, _, info = dsygvd(a, g, jobz="N")
        if not info:
            return w
    return eigh(a, g, eigvals_only=True)


def _require_same_provenance(a, b):
    if not a.same_provenance(b):
        raise ProvenanceError(
            "ND matrices come from different meshes or bases "
            f"(mesh {a.mesh_hash}/{b.mesh_hash}, basis {a.basis_hash}/{b.basis_hash})")


def psd_test(nd_a, nd_b):
    """Smallest generalized eigenvalue of (A - B, G): A is at least B in the
    Loewner order exactly when it is >= 0."""
    _require_same_provenance(nd_a, nd_b)
    return float(pencil_eigenvalues(nd_a.matrix - nd_b.matrix, nd_a.gram)[0])


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


def bracketing_chain(nd_gamma, nd_gamma_low, nd_gamma_up, nd0_c, ndinf_c, tau):
    """Evaluate the four-link chain with a shared tolerance scaled by the
    data map's Gram-geometry norm.  Each link checks provenance, so the five
    maps must share one mesh and basis."""
    scale = nd_gamma.gnorm()
    lams = tuple(psd_test(a, b)
                 for a, b in ((nd0_c, nd_gamma_low), (nd_gamma_low, nd_gamma),
                              (nd_gamma, nd_gamma_up), (nd_gamma_up, ndinf_c)))
    return ChainReport(lambda_mins=lams,
                       passes=tuple(lam >= -tau * scale for lam in lams),
                       scale=scale)
