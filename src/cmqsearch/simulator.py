"""Exact statevector oracle for the analytic layer, run by ``verify``.

A full 2^n-amplitude statevector with an explicit marked set, where the
phase oracle and the zero-state reflection are applied as diagonal /
rank-one updates (O(N) per iteration, no gate decomposition), in pure Python
(``cmath`` and lists).  Global phase is kept, including the leading minus
sign of the iteration.  The 2x2 invariant-subspace evolution that the tests
check it against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import cmath
import math

from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.planner import baseline_long

MAX_QUBITS = 14


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
