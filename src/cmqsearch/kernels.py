"""Success-probability kernels.

All functions take raw floats.  ``phi`` may be anywhere in (0, 2*pi) here --
the (0, pi] normalization is a domain-type concern of the analytic layer, and
keeping the kernel unrestricted lets the phase-symmetry P(phi) = P(2*pi - phi)
be checked directly.
"""

import math


def delta_angle(phi: float, lam: float) -> float:
    """Per-iteration rotation angle delta with sin(delta/2) = sqrt(lam) * sin(phi/2).

    That is cos(delta) = 1 - 2*lam*sin^2(phi/2), evaluated through asin, which
    stays accurate as lam*sin^2(phi/2) -> 0 where arccos loses all precision.
    """
    return 2.0 * math.asin(math.sqrt(lam) * math.sin(0.5 * phi))


def p_success(k: int, phi: float, lam: float) -> float:
    """Success probability after k matched-phase iterations, clamped to [0, 1].

    Uses 1 - P = (1 - lam) * cos^2((2k+1) * asin(r)) / (1 - r^2) with
    r = sqrt(lam) * sin(phi/2), the identity the optimizer's guarantee
    certificate rests on.  The factor (1 - lam) carries the smallness of
    1 - P, so there is no cancellation as r^2 -> 1, and r = 0 gives P = lam.
    """
    r = math.sqrt(lam) * math.sin(0.5 * phi)
    x = r * r
    c = math.cos((2 * k + 1) * math.asin(r))
    p = 1.0 - (1.0 - lam) * c * c / (1.0 - x)
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


# No command calls it; perfbench/tracing.py times it beside the other kernels.
def p_derivative(k: int, phi: float, lam: float) -> float:
    """dP/dlam of the success probability (unclamped)."""
    c = math.cos(phi)
    u = lam * (1.0 - c)
    if u <= 0.0:
        return 1.0  # P == lam in the phi -> 0 limit
    cd = 1.0 - u
    d = 2.0 * math.asin(math.sqrt(0.5 * u))
    sd = math.sin(d)
    n = 2 * k + 1
    inner = (1.0 + c) * (1.0 + math.cos(n * d)) \
        - n * (c - cd) * (1.0 + cd) * (math.sin(n * d) / sd)
    return inner / ((1.0 + cd) * (1.0 + cd))
