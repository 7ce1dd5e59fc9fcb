"""Exact statevector and two-level oracles for the analytic layer.

Two independent realizations of the same dynamics:

* a 2x2 evolution in the invariant subspace spanned by the marked / unmarked
  superpositions, and
* a full 2^n-amplitude statevector with an explicit marked set, where the
  phase oracle and the zero-state reflection are applied as diagonal /
  rank-one updates (O(N) per iteration, no gate decomposition).

Both are pure Python (``cmath`` and lists); a 2x2 matrix is a nested tuple.
Global phase is kept (including the leading minus sign of the iteration) so
the closed-form amplitude can be checked verbatim.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.kernels import delta_angle
from cmqsearch.planner import baseline_long

MAX_QUBITS = 14


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


class Statevector:
    """2^n complex amplitudes plus the marked basis-index set."""

    def __init__(self, n_qubits: int, amps: list[complex], marked: frozenset[int]):
        self.n_qubits = n_qubits
        self.amps = amps
        self.marked = marked

    @classmethod
    def uniform(cls, n_qubits: int, marked) -> "Statevector":
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise DomainError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
        n = 1 << n_qubits
        marked = frozenset(int(x) for x in marked)
        if not marked or len(marked) >= n:
            raise DomainError("marked set must be nonempty and proper")
        if any(not 0 <= x < n for x in marked):
            raise DomainError("marked index out of range")
        return cls(n_qubits=n_qubits, amps=[complex(1.0 / math.sqrt(n))] * n, marked=marked)

    @property
    def lam(self) -> float:
        return len(self.marked) / len(self.amps)

    def marked_probability(self) -> float:
        return sum(abs(self.amps[i]) ** 2 for i in self.marked)

    def apply_iteration(self, phi: PhaseAngle) -> None:
        """One matched-phase iteration G = -(I - (1-e^{i phi})|psi><psi|) S_f^phi."""
        e = cmath.exp(1j * phi.phi)
        amps = self.amps
        for i in self.marked:                         # phase oracle on marked items
            amps[i] *= e
        shift = (1.0 - e) * sum(amps) / len(amps)     # (1-e) <psi|v> / sqrt(N)
        self.amps = [shift - a for a in amps]         # reflection about |psi>, times -1


def statevector_run(n_qubits: int, marked, k: int, phi: PhaseAngle) -> float:
    """Marked-set probability after k exact iterations from the uniform state."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    state = Statevector.uniform(n_qubits, marked)
    for _ in range(k):
        state.apply_iteration(phi)
    return state.marked_probability()


def run_long_exact(n_qubits: int, marked) -> float:
    """Run the exact-search baseline (its own k and phase) on the statevector."""
    state = Statevector.uniform(n_qubits, marked)
    k, phi = baseline_long(TargetFraction(state.lam))
    return statevector_run(n_qubits, state.marked, k, PhaseAngle(phi))
