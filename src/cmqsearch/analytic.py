"""Closed-form success-probability layer for matched-phase amplitude amplification.

Everything here is a pure function of (k, phi, lambda).  The hot scalar
kernels live in :mod:`cmqsearch.kernels`; this module adds lambda's domain
type, the extremum/range formulas, and the iteration count rules.  A phase is
a plain float: the CLI checks --phi, and ``make_plan`` each planned phase.
"""

from __future__ import annotations

import math
from collections import namedtuple

from cmqsearch.errors import DomainError

# Largest iteration count iterations_for accepts: it rejects lambda below
# about 6e-13, where bands are about 1.2e-18 wide and a table holds 10^6 of them.
K_MAX = 10**6


class TargetFraction(namedtuple("TargetFraction", "lam theta")):
    """Fraction lam = M/N of marked items, with theta = arcsin(sqrt(lam)) cached."""

    __slots__ = ()

    def __new__(cls, lam: float):
        if not 0.0 < lam < 1.0:
            raise DomainError(f"lambda must be in (0, 1), got {lam}")
        return super().__new__(cls, lam, math.asin(math.sqrt(lam)))


class IterationBand(namedtuple("IterationBand", "lo hi")):
    """Lambda interval [lo, hi) on which exactly k iterations are optimal (band k)."""

    __slots__ = ()


def peak(k: int, phi: float) -> float:
    """Leftmost probability-1 point; it lies inside band k iff phi > phi_min(k)."""
    return (math.sin(math.pi / (4 * k + 2)) / math.sin(0.5 * phi)) ** 2


def peak_phase(k: int, lam: float) -> float:
    """Inverse of ``peak``: the phase whose peak is lam, pi at band k's lower edge.

    DomainError when even phi = pi peaks right of lam by more than rounding.
    """
    r = math.sin(math.pi / (4 * k + 2)) / math.sqrt(lam)
    if r > 1.0 + 1e-12:
        raise DomainError(f"no phase puts the peak of band {k} at lambda={lam}")
    return 2.0 * math.asin(min(1.0, r))


def phi_min(k: int) -> float:
    """Smallest usable phase on band k; below it the curve's peak leaves the band."""
    return peak_phase(k, iteration_band(k).hi)


def min_point_k1(phi: float) -> float:
    """Interior minimum point 2/3 + 1/(12 sin^2(phi/2)) of the one-iteration curve on [1/4, 1)."""
    if phi <= peak_phase(1, 1.0):  # phi_min(1), as band 1 ends at 1
        raise DomainError(f"phi={phi} <= pi/3: no interior minimum in band 1")
    return 2.0 / 3.0 + 1.0 / (12.0 * math.sin(0.5 * phi) ** 2)


def iteration_band(k: int) -> IterationBand:
    """Band k = [sin^2(pi/(4k+2)), sin^2(pi/(4k-2))), with hi = 1 for k = 1."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    lo = math.sin(math.pi / (4 * k + 2)) ** 2
    hi = 1.0 if k == 1 else math.sin(math.pi / (4 * k - 2)) ** 2
    return IterationBand(lo=lo, hi=hi)


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
