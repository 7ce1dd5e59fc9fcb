"""Closed-form success-probability layer for matched-phase amplitude amplification.

Everything here is a pure function of (k, phi, lambda).  The hot scalar
kernels live in :mod:`cmqsearch.kernels`; this module adds the domain types,
the extremum/range formulas, and the iteration count rules.
"""

from __future__ import annotations

import math
from collections import namedtuple

from cmqsearch.errors import DomainError

# Largest iteration count iterations_for accepts: it rejects lambda below
# about 6e-13, where band widths fall far below the solver's tolerances.
K_MAX = 10**6


class TargetFraction(namedtuple("TargetFraction", "lam theta")):
    """Fraction lam = M/N of marked items, with theta = arcsin(sqrt(lam)) cached."""

    __slots__ = ()

    def __new__(cls, lam: float):
        if not 0.0 < lam < 1.0:
            raise DomainError(f"lambda must be in (0, 1), got {lam}")
        return super().__new__(cls, lam, math.asin(math.sqrt(lam)))


class PhaseAngle(namedtuple("PhaseAngle", "phi")):
    """Matched phase phi, restricted to (0, pi] since P is symmetric about pi."""

    __slots__ = ()

    def __new__(cls, phi: float):
        if not 0.0 < phi <= math.pi:
            raise DomainError(f"phi must be in (0, pi], got {phi}")
        return super().__new__(cls, phi)


class IterationBand(namedtuple("IterationBand", "k lo hi")):
    """Lambda interval [lo, hi) on which exactly k iterations are optimal."""

    __slots__ = ()


def local_maxima(k: int, phi: PhaseAngle) -> list[float]:
    """All probability-1 points of the k-iteration curve inside (0, 1), ascending."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    denom = 1.0 - math.cos(phi.phi)
    points = []
    for j in range(1, k + 1):
        lam = (1.0 - math.cos((2 * j - 1) * math.pi / (2 * k + 1))) / denom
        if lam < 1.0:
            points.append(lam)
    return points


def phi_min(k: int) -> PhaseAngle:
    """Smallest usable phase on band k; below it the curve's peak leaves the band."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    num = 2.0 - 2.0 * math.cos(math.pi / (2 * k + 1))
    den = 1.0 - math.cos(math.pi / (2 * k - 1)) if k > 1 else 2.0
    return PhaseAngle(math.acos(1.0 - num / den))


def min_point_k1(phi: PhaseAngle) -> float:
    """Interior minimum point of the one-iteration curve on [1/4, 1)."""
    if phi.phi <= phi_min(1).phi:
        raise DomainError(f"phi={phi.phi} <= pi/3: no interior minimum in band 1")
    c = math.cos(phi.phi)
    return (5.0 - 4.0 * c) / (6.0 - 6.0 * c)


def iteration_band(k: int) -> IterationBand:
    """Band k = [sin^2(pi/(4k+2)), sin^2(pi/(4k-2))), with hi = 1 for k = 1."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    lo = math.sin(math.pi / (4 * k + 2)) ** 2
    hi = 1.0 if k == 1 else math.sin(math.pi / (4 * k - 2)) ** 2
    return IterationBand(k=k, lo=lo, hi=hi)


def _ci(x: float) -> int:
    """Closest integer, exact halves rounded down: CI(x) = k iff k-1/2 < x <= k+1/2."""
    k = math.floor(x + 0.5)
    if k == x + 0.5:
        k -= 1
    return int(k)


def iterations_for(lam: TargetFraction) -> int:
    """Iteration count of the multiphase algorithm: the k with lam in band k."""
    # Clamped before int(): the edge check moves k by one at most, so k > K_MAX past it.
    k = _ci(min(math.pi / (4.0 * lam.theta), K_MAX + 2.0))
    # Within a few ulps of an edge the closed form can name a neighbour; the
    # float edges of iteration_band decide, as they do for the plan tables.
    band = iteration_band(k)
    if lam.lam < band.lo:
        k += 1
    elif lam.lam >= band.hi:
        k -= 1
    if k > K_MAX:
        raise DomainError(f"lambda={lam.lam!r} needs more than K_MAX={K_MAX} iterations")
    return k


def grover_iterations(lam: TargetFraction) -> int:
    """Optimal Grover iteration count; zero for lam in [1/2, 1)."""
    return _ci(math.pi / (4.0 * lam.theta) - 0.5)
