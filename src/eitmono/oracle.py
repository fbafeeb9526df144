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

The power-core eigenvalues extend this to an A2 weight inside the inclusion:
the mode's admittance gamma u_r / u is closed-form in the core and is
carried outward through each constant layer by the same matching.
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


def power_core_nd_eigenvalue(n, s, a, rho1, kappa, rho2, gamma0_const=1.0):
    """Generalized ND eigenvalue of frequency n for the core
    gamma = a * (r / rho1)^s on r < rho1, a ring of conductivity ``kappa``
    on rho1 < r < rho2 and the background on rho2 < r < 1.

    In the core the mode is r^alpha with alpha * (alpha + s) = n^2, so its
    admittance at rho1 is a * alpha / rho1.  In a layer of conductivity k
    the mode is r^n + R r^(-n), with R fixed by the admittance at the inner
    radius; lambda_n is the inverse admittance at r = 1.
    """
    if not (0.0 < rho1 <= rho2 < 1.0 and n >= 1 and min(a, kappa, gamma0_const) > 0):
        raise ValueError("need 0 < rho1 <= rho2 < 1, n >= 1 and positive conductivities")
    y = a * (math.sqrt(s * s + 4 * n * n) - s) / (2 * rho1)
    for k, r0, r1 in ((kappa, rho1, rho2), (gamma0_const, rho2, 1.0)):
        q = y * r0 / (k * n)
        x = (1 - q) / (1 + q) * (r0 / r1) ** (2 * n)
        y = k * n * (1 - x) / (r1 * (1 + x))
    return 1.0 / y
