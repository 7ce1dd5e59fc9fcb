"""Acceptance gate: one test per top-level criterion, one PASS/FAIL line each.

Every criterion is checked at its stated tolerance; timed criteria assert the
stated runtime budget as well.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines on the terminal.
"""

import math
import time
from contextlib import contextmanager

import pytest

from cmqsearch.analytic import (
    TargetFraction,
    grover_iterations,
    iterations_for,
    phi_min,
)
from cmqsearch.cli import _log_grid
from cmqsearch.kernels import p_success
from cmqsearch.optimizer import largest_min_success
from cmqsearch.planner import (
    baseline_yoder_bound,
    build_table,
    plan_for,
)
from cmqsearch.simulator import run_long_exact, statevector_run
from oracles import crossover_pcri, local_maxima

PI = math.pi


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def sig4(x):
    return float(f"{x:.4g}")


# Published reference table for P_cri = 0.90, lambda0 = 1e-2 (4 significant
# figures for bounds; phases to +-5e-3; common levels to +-1e-3).
TABLE_BOUNDS = [(0.25, 1.0), (0.09549, 0.25), (0.04952, 0.09549),
                (0.03015, 0.04952), (0.02025, 0.03015), (0.01453, 0.02025),
                (0.01093, 0.01453), (0.008513, 0.01093)]
TABLE_PHASES = [[2.134, 1.465], [2.163, 1.536], [1.984], [2.137],
                [2.243], [2.322], [2.383], [2.432]]
TABLE_Q = [0.9593, 0.9654, 0.9354, 0.9625, 0.9757, 0.9830, 0.9875, 0.9904]


def test_criterion_1_reference_table_reproduction():
    with criterion("criterion-1 reference-table"):
        t0 = time.monotonic()
        table = build_table(0.90, 1e-2)
        assert len(table.plans) == 8
        for plan, (lo, hi), phases, q in zip(table.plans, TABLE_BOUNDS,
                                             TABLE_PHASES, TABLE_Q):
            assert sig4(plan.boundaries[0]) == lo, plan.k
            assert sig4(plan.boundaries[-1]) == hi, plan.k
            assert plan.phases == pytest.approx(phases, abs=5e-3), plan.k
            assert plan.q_k_pi == pytest.approx(q, abs=1e-3), plan.k
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_guarantee_on_log_grid(table90):
    with criterion("criterion-2 guarantee-property"):
        t0 = time.monotonic()
        grid = _log_grid(1e-2, 10_000)
        ours_min, grover_min = 1.0, 1.0
        for lam in grid:
            t = TargetFraction(lam)
            k, phi = plan_for(t, table90)
            ours_min = min(ours_min, p_success(k, phi, lam))
            kg = grover_iterations(t)
            p_g = p_success(kg, PI, lam) if kg > 0 else lam
            grover_min = min(grover_min, p_g)
        assert ours_min >= 0.90 - 1e-6
        assert grover_min <= 0.51  # raw Grover dips to ~1/2 at band edges
        assert time.monotonic() - t0 < 5.0


def test_criterion_3_iteration_parity():
    with criterion("criterion-3 iteration-parity"):
        t0 = time.monotonic()
        for lam in _log_grid(1e-2, 10_000):
            t = TargetFraction(lam)
            k = iterations_for(t)
            gap = k - grover_iterations(t)
            assert gap in (0, 1), lam
            in_plus_one = lam >= math.sin(PI / (4 * k)) ** 2
            assert (gap == 1) == in_plus_one, lam
        assert time.monotonic() - t0 < 1.0


def test_criterion_4_oracle_equivalence():
    with criterion("criterion-4 oracle-equivalence"):
        t0 = time.monotonic()
        worst = 0.0
        for n in range(2, 11):
            big = 1 << n
            for m in sorted({1, 3, big // 4, big // 2}):
                for k in range(13):
                    for phi in (PI, 2.432, 1.465, 0.7):
                        got = statevector_run(n, m, k, phi)
                        want = p_success(k, phi, m / big)
                        worst = max(worst, abs(got - want))
        assert worst < 1e-10
        assert time.monotonic() - t0 < 30.0


def test_criterion_5_local_maxima_are_exact():
    with criterion("criterion-5 local-maxima"):
        for k in range(1, 9):
            for phi in (PI, 2.5, 2.0, 1.6):
                if phi <= phi_min(k):
                    continue
                for lam in local_maxima(k, phi):
                    assert abs(p_success(k, phi, lam) - 1.0) < 1e-10, (k, phi, lam)


def test_criterion_6_exact_search_certainty():
    with criterion("criterion-6 exact-search"):
        # every register of 2..10 qubits with 0 < M < 2^n: 2,035 of them
        for n in range(2, 11):
            for m in range(1, 1 << n):
                assert abs(run_long_exact(n, m) - 1.0) < 1e-9, (n, m)


def test_criterion_7_crossover_and_halving():
    with criterion("criterion-7 crossover"):
        assert crossover_pcri() == pytest.approx(0.8271, abs=5e-5)
        for lam in (1e-2, 1e-4):
            t = TargetFraction(lam)
            ratio = baseline_yoder_bound(0.9925, t) / iterations_for(t)
            assert 1.8 <= ratio <= 2.2, lam


def test_criterion_8_level_monotonicity(march_at):
    with criterion("criterion-8 level-monotonicity"):
        for k in (1, 2, 3, 4):
            prev = 0.0
            for n in range(1, 6):
                q, _, _ = largest_min_success(k, n)
                assert q > prev, (k, n)
                prev = q
        # the one-iteration band reaches a 99.9% floor within the phase cap
        _, phases, _, gap = march_at(1, 0.999)
        assert gap >= 0.0 and len(phases) <= 64


def test_criterion_9_equal_level_residual(table90):
    with criterion("criterion-9 equal-level-residual"):
        for plan in table90.plans:
            assert plan.level_residual < 1e-8, plan.k
