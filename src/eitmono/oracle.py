"""Closed-form ND eigenvalues for validating the forward solver.

The concentric-disk eigenvalues come from separation of variables: with a
centered circular inclusion of radius rho and conductivity kappa in a unit
disk of background gamma0, the trigonometric mode of frequency n solves with
radial profile a*r^n inside and b*r^n + c*r^(-n) outside.  Matching the trace
and the flux at r = rho and applying the unit Neumann datum at r = 1 gives
the voltage-to-current ratio

    lambda_n = (1 + mu*rho^(2n)) / (gamma0 * n * (1 - mu*rho^(2n))),
    mu = (gamma0 - kappa) / (gamma0 + kappa),

with mu = 1 for an insulating inclusion (kappa = 0) and mu = -1 for a
perfectly conducting one (kappa = infinite).
"""

import math


def disk_nd_eigenvalue(n, rho, kappa, gamma0_const=1.0):
    """Generalized ND eigenvalue of frequency n for a concentric inclusion.

    ``kappa`` may be 0 (insulating), math.inf (conducting), or any positive
    conductivity; ``rho`` is the inclusion radius in [0, 1).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("inclusion radius must lie in [0, 1)")
    if n < 1:
        raise ValueError("frequency must be >= 1")
    if gamma0_const <= 0:
        raise ValueError("background conductivity must be positive")
    if math.isinf(kappa):
        mu = -1.0
    else:
        if kappa < 0:
            raise ValueError("inclusion conductivity must be nonnegative")
        mu = (gamma0_const - kappa) / (gamma0_const + kappa)
    x = mu * rho ** (2 * n)
    return (1.0 + x) / (gamma0_const * n * (1.0 - x))
