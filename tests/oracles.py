"""Reference oracles that only the tests run.

The 2x2 evolution in the invariant subspace spanned by the marked / unmarked
superpositions (with its closed-form amplitude, global phase included), the
probability-1 points of a k-iteration curve, and the fixed-point crossover
P* = 1 - 4 exp(-pi) from the paper's abstract, and the pinned digests of the
statevector's readings.  No CLI command runs them, so they live beside the
tests that check the package against them.  Nothing here imports numpy, so a
bare interpreter can check the digests:
``PYTHONPATH=src:tests python -c "import oracles; ..."``.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from collections import namedtuple

from cmqsearch.analytic import TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.kernels import delta_angle
from cmqsearch.simulator import statevector_run

# trajectory_sha256(n, m, phi) for five (n, M, phi): registers of 2 to 10
# qubits, M from one item to half the register, the Grover phase and three others
TRAJECTORY_SHA256 = {
    (2, 1, math.pi): "634f224a6df1a0dea2ca039974b62dfa6029e2bee550946bd284c7a8e2e77678",
    (4, 3, 2.432): "67fdd301e1175737b2ac7f7fdab77d3d3faaf13f65e097826b80ca74bc1a1a25",
    (6, 16, 1.465): "8a45ef88543f6b9867e52a42a1510b333989b8296d7a5ff7245542f8fd28e67e",
    (10, 1, 0.7): "a8f8551280e099dc99b176e62a576fdf88737a9a0df2fd683a19ba9afc2b5741",
    (10, 512, 2.0): "da76f966d115e05ed040792cb9dc28a212ee39da6a744431aa7e41243a3232ca",
}


def trajectory_sha256(n: int, m: int, phi: float) -> str:
    """sha256 of the repr of the statevector's readings after 0..12 iterations."""
    readings = [statevector_run(n, m, k, phi) for k in range(13)]
    return hashlib.sha256(repr(readings).encode()).hexdigest()


def g_matrix(phi: float, theta: float) -> tuple[tuple[complex, complex], ...]:
    """Matched-phase iteration matrix on the (marked, unmarked) subspace, as rows."""
    if not 0.0 < theta < math.pi / 2.0:
        raise DomainError(f"theta must be in (0, pi/2), got {theta}")
    e = cmath.exp(1j * phi)
    s, c = math.sin(theta), math.cos(theta)
    return ((-e * (e * s * s + c * c), (1.0 - e) * s * c),
            (e * (1.0 - e) * s * c, -e * c * c - s * s))


class TwoLevelState(namedtuple("TwoLevelState", "a b k")):
    __slots__ = ()

    @property
    def success_probability(self) -> float:
        return abs(self.a) ** 2


def evolve_two_level(k: int, phi: float, lam: TargetFraction) -> TwoLevelState:
    """Apply the 2x2 iteration k times to the equal-superposition start."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    (g00, g01), (g10, g11) = g_matrix(phi, lam.theta)
    a, b = complex(math.sin(lam.theta)), complex(math.cos(lam.theta))
    for _ in range(k):
        a, b = g00 * a + g01 * b, g10 * a + g11 * b
    return TwoLevelState(a=a, b=b, k=k)


def two_level_closed_form(k: int, phi: float, lam: TargetFraction) -> complex:
    """Closed-form marked amplitude after k iterations, global phase included."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    d = delta_angle(phi, lam.lam)
    e = cmath.exp(1j * phi)
    pref = (math.sin(lam.theta) / math.sin(d)) * (-1.0) ** k * cmath.exp(1j * (k - 1) * phi)
    return pref * (e * math.sin((k + 1) * d) - math.sin(k * d))


def local_maxima(k: int, phi: float) -> list[float]:
    """All probability-1 points of the k-iteration curve inside (0, 1), ascending."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    h = math.sin(0.5 * phi)
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
