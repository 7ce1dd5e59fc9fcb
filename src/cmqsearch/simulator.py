"""Exact statevector oracle for the analytic layer, and the ``verify`` suites that run it.

A full 2^n-amplitude statevector with an explicit marked set, where the
phase oracle and the zero-state reflection are applied as diagonal /
rank-one updates (O(N) per iteration, no gate decomposition), in pure Python
(``cmath`` and lists).  Global phase is kept, including the leading minus
sign of the iteration.  The 2x2 evolution that the tests check it against lives
in ``tests/oracles.py``.  Only ``verify`` imports this module, passing in its table
loader: under ``python -m``, importing ``cmqsearch.cli`` would run it a second time.
``verify`` forks once to run part of the oracle; it leaves freezing the heap before
that fork to the process entry, ``cli.run``.
"""

from __future__ import annotations

import cmath
import math
import os
import random
import sys

from cmqsearch import optimizer
from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import CmqsearchError, DomainError, VerificationError
from cmqsearch.kernels import p_success
from cmqsearch.planner import baseline_long

MAX_QUBITS = 14


def _register(n_qubits: int, marked) -> tuple[int, frozenset[int]]:
    """N = 2^n and the marked set, checked to be a nonempty proper set of indices < N."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise DomainError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    n = 1 << n_qubits
    marked = frozenset(int(x) for x in marked)
    if not marked or len(marked) >= n:
        raise DomainError("marked set must be nonempty and proper")
    if any(not 0 <= x < n for x in marked):
        raise DomainError("marked index out of range")
    return n, marked


class Statevector:
    """2^n complex amplitudes plus the marked basis-index set."""

    def __init__(self, amps: list[complex], marked: frozenset[int]):
        self.amps = amps
        self.marked = marked

    @classmethod
    def uniform(cls, n_qubits: int, marked) -> "Statevector":
        n, marked = _register(n_qubits, marked)
        return cls(amps=[complex(1.0 / math.sqrt(n))] * n, marked=marked)

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
    n, marked = _register(n_qubits, marked)
    k, phi = baseline_long(TargetFraction(len(marked) / n))
    return statevector_run(n_qubits, marked, k, PhaseAngle(phi))


# ----------------------------------------------------------------- verification

# One trajectory per (n, M, phi), read after k = 0, 3, 6, 9, 12 iterations, in the
# order the oracle suite reports them; n ascends, so the costliest come last.
ORACLE_CASES = [(n, m, phi) for n in (2, 4, 6, 8, 10) for m in sorted({1, 3, 2**n // 4, 2**n // 2})
                for phi in (math.pi, 2.432, 1.465, 0.7)]
# verify forks a child that evolves the tail ORACLE_CASES[ORACLE_SPLIT:], the longest
# one holding at most 60 % of the oracle's amplitude updates (2^n per iteration; it is
# 12 of the n = 10 trajectories, 56 %), while the parent evolves the head and runs the
# other three suites: measured in fresh processes, the two sides then take about as long.
_COSTS = [1 << n for n, _, _ in ORACLE_CASES]
ORACLE_SPLIT = min(i for i in range(len(_COSTS)) if sum(_COSTS[i:]) <= 0.6 * sum(_COSTS))


def _run_oracle(cases) -> float:
    """Worst |statevector - kernel| over the cases; each reading is bit-identical to a
    fresh statevector_run(n, M, k, phi).  Raises at the first case out of tolerance."""
    worst = 0.0
    for n, m, phi in cases:
        angle = PhaseAngle(phi)
        state = Statevector.uniform(n, range(m))
        for k in range(13):
            if k:
                state.apply_iteration(angle)
            if k % 3:
                continue
            got = state.marked_probability()
            want = p_success(k, phi, m / (1 << n))
            err = abs(got - want)
            if err >= 1e-10:
                raise VerificationError(f"oracle mismatch at n={n} M={m} k={k} phi={phi}: "
                                        f"|{got} - {want}| >= 1e-10")
            worst = max(worst, err)
    return worst


def _outcome(suite):
    """The suite's result, or the CmqsearchError it raised."""
    try:
        return suite()
    except CmqsearchError as exc:
        return exc


def _start_oracle(cases):
    """Run ``_run_oracle(cases)`` in a forked child, or in-process where ``os.fork`` is
    missing or fails.  Returns a function that waits for the child, reaps it and
    returns its outcome: the worst error, or the error that stopped it (a
    ``CmqsearchError`` naming how the child ended if it sent nothing).  The process
    entry, ``cli.run``, froze the start-up heap, so neither process's collections
    scan it or copy the pages the two share; a library caller's heap stays unfrozen."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):   # no os.fork here, or no process to be had
        os.close(read_fd)
        os.close(write_fd)
        return lambda: _outcome(lambda: _run_oracle(cases))
    if pid == 0:   # the child writes only to the pipe and leaves only through _exit
        try:
            worst = _outcome(lambda: _run_oracle(cases))   # a float's str round-trips
            os.write(write_fd, f"{'P' if isinstance(worst, float) else 'F'}{worst}".encode())
            os._exit(0)
        finally:
            os._exit(1)   # reached only if the child raised
    os.close(write_fd)

    def wait():
        with os.fdopen(read_fd, "rb") as pipe:
            reply = pipe.read().decode()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if reply:
            return float(reply[1:]) if reply[0] == "P" else VerificationError(reply[1:])
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return CmqsearchError(f"oracle worker {how} before sending its result")
    return wait


def _suite_equal_level(cfg, load_table) -> str:
    table = load_table(cfg)
    limit = 10.0 * cfg.solver.level_tol
    worst = max(table.plans, key=lambda p: p.level_residual)
    if worst.level_residual >= limit:
        raise VerificationError(
            f"max residual {worst.level_residual:.3e} on band {worst.k} >= {limit:g}"
        )
    low = min(table.plans, key=lambda p: p.q_k_pi)
    if low.q_k_pi < cfg.p_cri:
        raise VerificationError(f"band {low.k} level {low.q_k_pi} below p_cri={cfg.p_cri}")
    return f"max residual {worst.level_residual:.1e} < {limit:g}"


def _suite_monotonicity(solver: optimizer.SolverConfig) -> str:
    least = math.inf
    for k in (1, 2, 3):
        prev = 0.0
        for n in (1, 2, 3):
            q, _, _ = optimizer.largest_min_success(k, n, solver)
            if q <= prev + 1e-6:
                raise VerificationError(
                    f"Q({k}, n={n})={q} not above Q({k}, n={n - 1})={prev}"
                )
            least = min(least, q - prev)
            prev = q
    return f"min Q(k, n) - Q(k, n-1) {least:.1e} > 1e-06"


def _suite_long_certainty(seed: int) -> str:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(20):
        n = rng.randrange(2, 11)
        m = rng.randrange(1, 1 << n)
        err = abs(run_long_exact(n, range(m)) - 1.0)
        if err >= 1e-9:
            raise VerificationError(f"exact-search run at n={n} M={m} gave |P - 1| = {err}")
        worst = max(worst, err)
    return f"max |P - 1| {worst:.1e} < 1e-09"


def verify(cfg, load_table) -> int:
    """Run each suite and print ``<suite>: PASS (<worst value against its limit>)``
    or ``<suite>: FAIL (<reason>)``, then raise the first failing suite's own error;
    the equal-level suite calls ``load_table(cfg)``, so a failed build fails it alone.
    A forked child evolves the oracle's tail cases while this process runs the rest;
    the lines print, in this order, once both are done."""
    wait = _start_oracle(ORACLE_CASES[ORACLE_SPLIT:])
    try:
        outcomes = [_outcome(suite) for suite in (
            lambda: _run_oracle(ORACLE_CASES[:ORACLE_SPLIT]),
            lambda: _suite_equal_level(cfg, load_table),
            lambda: _suite_monotonicity(cfg.solver),
            lambda: _suite_long_certainty(cfg.seed))]
    finally:
        theirs = wait()
    # the head's cases come first, so a failure there is the one a single pass reports
    if not isinstance(outcomes[0], CmqsearchError):
        outcomes[0] = theirs if isinstance(theirs, CmqsearchError) else (
            f"max |statevector - kernel| {max(outcomes[0], theirs):.1e} < 1e-10")
    errors = [outcome for outcome in outcomes if isinstance(outcome, CmqsearchError)]
    for name, outcome in zip(("oracle_equivalence", "equal_level", "monotonicity",
                              "long_certainty"), outcomes):
        status = "FAIL" if isinstance(outcome, CmqsearchError) else "PASS"
        sys.stdout.write(f"{name}: {status} ({outcome})\n")
    if errors:
        raise errors[0]
    return 0
