"""Exact statevector oracle for the analytic layer, and the ``verify`` suites that run it.

A plain list of 2^n amplitudes on at most ``MAX_QUBITS`` qubits, whose first M
items are marked, where the phase oracle and the zero-state reflection are
applied as diagonal / rank-one updates (O(N) per iteration, no gate
decomposition), in pure Python (``cmath`` and lists).  Which M items are marked
changes no reading: the uniform start and the reflection about it are invariant
under every permutation of the items, so P depends on the marked set only
through lambda = M/N, and the first M stand for any M.  Global phase is kept,
including the leading minus sign of the iteration.  The 2x2 evolution that the
tests check it against lives in ``tests/oracles.py``.  Only ``verify`` imports
this module, passing in its table loader: under ``python -m``, importing
``cmqsearch.cli`` would run it a second time.  ``verify`` runs in one process.
Its oracle suite runs the table's own plans, one dyadic lambda per segment that
a register of at most ``MAX_QUBITS`` qubits reaches, through ``statevector_run``;
the fixed (n, M, k, phi) grid is acceptance criterion 4's, in the tests.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

from cmqsearch import optimizer
from cmqsearch.analytic import TargetFraction
from cmqsearch.errors import CmqsearchError, DomainError, VerificationError
from cmqsearch.kernels import p_success
from cmqsearch.planner import baseline_long

MAX_QUBITS = 10


def _register(n_qubits: int, m: int) -> int:
    """N = 2^n, checked with the marked count m to be 1 <= n <= MAX_QUBITS, 0 < m < N."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise DomainError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    n = 1 << n_qubits
    if not 0 < m < n:
        raise DomainError(f"marked count must be in (0, {n}), got {m}")
    return n


def evolve(n_qubits: int, m: int, k: int, phi: float) -> list[complex]:
    """The 2^n amplitudes after k matched-phase iterations
    G = -(I - (1-e^{i phi})|psi><psi|) S_f^phi from the uniform state, with the
    first m items marked."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    n = _register(n_qubits, m)
    amps = [complex(1.0 / math.sqrt(n))] * n
    e = cmath.exp(1j * phi)
    for _ in range(k):
        amps[:m] = [a * e for a in amps[:m]]    # phase oracle on the marked items
        shift = (1.0 - e) * sum(amps) / n       # (1-e) <psi|v> / sqrt(N)
        amps = [shift - a for a in amps]        # reflection about |psi>, times -1
    return amps


def statevector_run(n_qubits: int, m: int, k: int, phi: float) -> float:
    """Probability of the first m items after k exact iterations from the uniform
    state.  A left fold, not sum(): since Python 3.12, sum() of floats is
    compensated, and the readings would change bits with the interpreter."""
    p = 0.0
    for a in evolve(n_qubits, m, k, phi)[:m]:
        p += abs(a) ** 2
    return p


def run_long_exact(n_qubits: int, m: int) -> float:
    """Run the exact-search baseline (its own k and phase) on the statevector,
    whose ``evolve`` checks the register."""
    k, phi = baseline_long(TargetFraction(m / 2 ** n_qubits))
    return statevector_run(n_qubits, m, k, phi)


# ----------------------------------------------------------------- verification

def _outcome(suite):
    """The suite's result, or the CmqsearchError it raised."""
    try:
        return suite()
    except CmqsearchError as exc:
        return exc


def _suite_oracle(table) -> str:
    """Run the table's plans on the statevector, one point per segment: the dyadic
    lambda = M/2^n in the segment on the smallest register (n <= MAX_QUBITS) that holds one,
    with the plan's own k and phase.  That register holds only one, since of two
    adjacent dyadics at n one is a dyadic at n - 1.  A segment no such register
    reaches is counted, not run.  Each reading must match the kernel and reach
    p_cri, both to the oracle's float tolerance of 1e-10."""
    worst, least, reached = 0.0, math.inf, 0
    for plan in table.plans:
        if plan.boundaries[-1] <= 2.0 ** -MAX_QUBITS:
            break   # this band and all after it lie below the least dyadic, 2^-MAX_QUBITS
        for phi, lo, hi in zip(plan.phases, plan.boundaries, plan.boundaries[1:]):
            for n in range(1, MAX_QUBITS + 1):
                m = math.ceil(lo * (1 << n))   # exact: scaling by 2^n rounds nothing
                if m < hi * (1 << n):
                    break
            else:
                continue
            reached += 1
            got = statevector_run(n, m, plan.k, phi)
            want = p_success(plan.k, phi, m / (1 << n))
            err, margin = abs(got - want), got - table.p_cri
            at = f"n={n} M={m} k={plan.k} phi={phi}"
            if err >= 1e-10:
                raise VerificationError(f"oracle mismatch at {at}: |{got} - {want}| >= 1e-10")
            if margin < -1e-10:
                raise VerificationError(f"P at {at} is {got}: P - p_cri {margin:.1e} < -1e-10")
            worst, least = max(worst, err), min(least, margin)
    return (f"max |statevector - kernel| {worst:.1e} < 1e-10, "
            f"min P - p_cri {least:.1e} >= -1e-10, "
            f"{reached}/{sum(plan.n_k for plan in table.plans)} segments reached")


def _suite_equal_level(table) -> str:
    """The largest equal-level residual over the table's plans, below 10*LEVEL_TOL.
    That each level q_k_pi reaches p_cri is ``make_plan``'s to prove, for every
    plan that a table holds, fresh or loaded: it raises unless the level is the
    certified minimum, which is at least p_cri."""
    limit = 10.0 * optimizer.LEVEL_TOL
    worst = max(table.plans, key=lambda p: p.level_residual)
    if worst.level_residual >= limit:
        raise VerificationError(
            f"max residual {worst.level_residual:.3e} on band {worst.k} >= {limit:g}"
        )
    return f"max residual {worst.level_residual:.1e} < {limit:g}"


def _suite_monotonicity(max_nk: int) -> str:
    least = math.inf
    for k in (1, 2, 3):
        prev = 0.0
        for n in range(1, min(3, max_nk) + 1):
            q, _, _ = optimizer.largest_min_success(k, n, max_nk)
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
        n = rng.randrange(2, MAX_QUBITS + 1)
        m = rng.randrange(1, 1 << n)
        err = abs(run_long_exact(n, m) - 1.0)
        if err >= 1e-9:
            raise VerificationError(f"exact-search run at n={n} M={m} gave |P - 1| = {err}")
        worst = max(worst, err)
    return f"max |P - 1| {worst:.1e} < 1e-09"


def verify(cfg, seed: int, load_table) -> int:
    """Run each suite and print ``<suite>: PASS (<worst value against its limit>)``
    or ``<suite>: FAIL (<reason>)``, then raise the first failing suite's own error.
    The oracle and equal-level suites read the table of ``load_table(cfg)``, loaded
    once, so a failed build fails those two alone, with its own error; ``seed``
    seeds the exact-search suite's registers."""
    table = _outcome(lambda: load_table(cfg))
    outcomes = [table if isinstance(table, CmqsearchError) else _outcome(lambda: suite(table))
                for suite in (_suite_oracle, _suite_equal_level)]
    outcomes += [_outcome(lambda: _suite_monotonicity(cfg.max_nk)),
                 _outcome(lambda: _suite_long_certainty(seed))]
    for name, outcome in zip(("oracle_equivalence", "equal_level", "monotonicity",
                              "long_certainty"), outcomes):
        status = "FAIL" if isinstance(outcome, CmqsearchError) else "PASS"
        sys.stdout.write(f"{name}: {status} ({outcome})\n")
    for outcome in outcomes:
        if isinstance(outcome, CmqsearchError):
            raise outcome
    return 0
