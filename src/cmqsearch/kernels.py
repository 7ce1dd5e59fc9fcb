"""Success-probability kernels.

All functions take raw floats.  ``phi`` may be anywhere in (0, 2*pi) here --
the (0, pi] normalization is a domain-type concern of the analytic layer, and
keeping the kernel unrestricted lets the phase-symmetry P(phi) = P(2*pi - phi)
be checked directly.
"""

import math


def delta_angle(phi: float, lam: float) -> float:
    """Per-iteration rotation angle delta with cos(delta) = 1 - lam*(1 - cos(phi)).

    Evaluated as 2*asin(sqrt(u/2)) with u = lam*(1 - cos(phi)), which stays
    accurate as u -> 0 where arccos(1 - u) loses all precision.
    """
    u = lam * (1.0 - math.cos(phi))
    return 2.0 * math.asin(math.sqrt(0.5 * u))


def p_success(k: int, phi: float, lam: float) -> float:
    """Success probability after k matched-phase iterations, clamped to [0, 1].

    Uses 1 - P = (1 - lam) * cos^2((2k+1) * asin(sqrt(x))) / (1 - x) with
    x = lam*(1 - cos(phi))/2, the identity the optimizer's guarantee
    certificate rests on.  The factor (1 - lam) carries the smallness of
    1 - P, so there is no cancellation as lam*x -> 1, and x = 0 gives P = lam.
    """
    x = 0.5 * lam * (1.0 - math.cos(phi))
    c = math.cos((2 * k + 1) * math.asin(math.sqrt(x)))
    p = 1.0 - (1.0 - lam) * c * c / (1.0 - x)
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


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
