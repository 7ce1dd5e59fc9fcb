"""Reference oracles that only the tests run.

The 2x2 evolution in the invariant subspace spanned by the marked / unmarked
superpositions (with its closed-form amplitude, global phase included), the
probability-1 points of a k-iteration curve, and the fixed-point crossover
P* = 1 - 4 exp(-pi) from the paper's abstract.  No CLI command runs them, so
they live beside the tests that check the package against them.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.kernels import delta_angle


def g_matrix(phi: PhaseAngle, theta: float) -> tuple[tuple[complex, complex], ...]:
    """Matched-phase iteration matrix on the (marked, unmarked) subspace, as rows."""
    if not 0.0 < theta < math.pi / 2.0:
        raise DomainError(f"theta must be in (0, pi/2), got {theta}")
    e = cmath.exp(1j * phi.phi)
    s, c = math.sin(theta), math.cos(theta)
    return ((-e * (e * s * s + c * c), (1.0 - e) * s * c),
            (e * (1.0 - e) * s * c, -e * c * c - s * s))


class TwoLevelState(namedtuple("TwoLevelState", "a b k")):
    __slots__ = ()

    @property
    def success_probability(self) -> float:
        return abs(self.a) ** 2


def evolve_two_level(k: int, phi: PhaseAngle, lam: TargetFraction) -> TwoLevelState:
    """Apply the 2x2 iteration k times to the equal-superposition start."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    (g00, g01), (g10, g11) = g_matrix(phi, lam.theta)
    a, b = complex(math.sin(lam.theta)), complex(math.cos(lam.theta))
    for _ in range(k):
        a, b = g00 * a + g01 * b, g10 * a + g11 * b
    return TwoLevelState(a=a, b=b, k=k)


def two_level_closed_form(k: int, phi: PhaseAngle, lam: TargetFraction) -> complex:
    """Closed-form marked amplitude after k iterations, global phase included."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    d = delta_angle(phi.phi, lam.lam)
    e = cmath.exp(1j * phi.phi)
    pref = (math.sin(lam.theta) / math.sin(d)) * (-1.0) ** k * cmath.exp(1j * (k - 1) * phi.phi)
    return pref * (e * math.sin((k + 1) * d) - math.sin(k * d))


def local_maxima(k: int, phi: PhaseAngle) -> list[float]:
    """All probability-1 points of the k-iteration curve inside (0, 1), ascending."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    h = math.sin(0.5 * phi.phi)
    points = []
    for j in range(1, k + 1):
        lam = (math.sin((2 * j - 1) * math.pi / (4 * k + 2)) / h) ** 2
        if lam < 1.0:
            points.append(lam)
    return points


def crossover_pcri() -> float:
    """Threshold above which the fixed-point bound exceeds pi/(4*sqrt(lambda)).

    Equality log(2/delta)/2 = pi/4 gives delta = 2*exp(-pi/2), i.e.
    P* = 1 - 4*exp(-pi) ~ 0.8271.
    """
    return 1.0 - 4.0 * math.exp(-math.pi)
