"""Equal-level solver: level marching, Q_k, phase counts, plans."""

import math
import random
import sys
from bisect import bisect_left
from math import asin, cos, sqrt

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from cmqsearch import optimizer
from cmqsearch.analytic import K_MAX, iteration_band, min_point_k1, phi_min
from cmqsearch.cli import main
from cmqsearch.errors import ConfigError, DomainError, VerificationError
from cmqsearch.kernels import p_derivative, p_success
from cmqsearch.optimizer import (
    LEVEL_TOL,
    MAX_NK,
    _check_guarantee,
    _falls_after_peak,
    _root,
    build_plan,
    largest_min_success,
    make_plan,
    march_level,
    optimal_phase_count,
)
from cmqsearch.planner import build_table

PI = math.pi


# ----------------------------------------------------------------------- config

def test_config_rejects_bad_values(tmp_path, capfd):
    # the phase cap is the solver's one setting.  Below 1 it is a ConfigError from
    # the library, and exit 4 from every command before any table is built
    cache = tmp_path / "plans.json"
    for max_nk in (0, -3):
        with pytest.raises(ConfigError, match="^max_nk must be >= 1$"):
            build_plan(1, 0.90, max_nk)
        with pytest.raises(ConfigError, match="^max_nk must be >= 1$"):
            largest_min_success(1, 1, max_nk)
        for argv in (["table"], ["plan", "--lambda", "0.5"], ["sweep"], ["verify"],
                     ["compare", "--lambda", "0.5"]):
            assert main([*argv, "--max-nk", str(max_nk), "--cache", str(cache)]) == 4, argv
            assert capfd.readouterr() == ("", "error: max_nk must be >= 1\n"), argv
    assert not cache.exists()


# ------------------------------------------------------------------ root-finder

# A 1-D solve stops on an exact zero or when no float is left between the
# bracket's ends, so where it lands does not depend on where it started.
def test_root_runs_to_float_resolution():
    c = 1.0 / 3.0

    def f(x):
        return c - x

    a = _root(f, 0.0, 1.0, f(0.0), f(1.0))
    assert _root(f, 0.3, 0.4, f(0.3), f(0.4)) == a
    assert f(a) >= 0.0 and f(math.nextafter(a, 1.0)) < 0.0


# Each boundary and each phase above the floor is the P >= q end of a solve
# with no float left past it.  Brackets stopped at an absolute 1e-12 left
# errors that band 4's 28-phase march at P_cri = 0.99995 amplified to 7e-11 rad.
@pytest.mark.parametrize("p_cri,lambda0", [(0.99, 1e-3), (0.99995, 1e-2)])
def test_plan_solves_run_to_float_resolution(p_cri, lambda0):
    for plan in build_table(p_cri, lambda0).plans:
        k, q = plan.k, plan.q_k_pi
        floor = phi_min(k) + 1e-12
        for prev, phi, a in zip(plan.phases, plan.phases[1:], plan.boundaries[1:]):
            assert p_success(k, prev, a) >= q, (k, a)
            assert p_success(k, prev, a) == q or p_success(k, prev, math.nextafter(a, 1.0)) < q
            if phi != floor:
                assert p_success(k, phi, a) >= q, (k, phi)
                assert (p_success(k, phi, a) == q
                        or p_success(k, math.nextafter(phi, 0.0), a) < q), (k, phi)


# --------------------------------------------------------------------- marching

def test_march_examples(march_at):
    _, phases, bounds, gap = march_at(1, 0.90)
    assert gap >= 0.0 and len(phases) <= 2
    _, phases, bounds, gap = march_at(3, 0.93)
    assert gap >= 0.0 and len(phases) == 1
    assert bounds[0] == iteration_band(3).lo
    assert bounds[-1] == iteration_band(3).hi


def test_march_feasible_count_monotone_in_level(march_at):
    counts = []
    for q in (0.5, 0.8, 0.9, 0.96, 0.99, 0.999, 0.9999):
        _, phases, _, gap = march_at(1, q)
        assert gap >= 0.0
        counts.append(len(phases))
    assert counts == sorted(counts)
    assert counts == [1, 1, 2, 3, 5, 14, 45]  # frozen


def test_march_phases_strictly_decreasing(march_at):
    _, phases, _, _ = march_at(2, 0.99)
    assert len(phases) > 2
    assert all(a > b for a, b in zip(phases, phases[1:]))
    assert phases[-1] > phi_min(2)


# Phase pi peaks on the band's lower edge, where it sets the level to 1: the
# level search's uncovered bracket end, a march that stops after one phase.
@pytest.mark.parametrize("k", [*range(1, 31), 100, 1000, 7854])
def test_march_at_level_one_is_uncovered(k):
    band = iteration_band(k)
    for max_nk in (1, 2, 64):
        q, phases, bounds, gap = march_level(k, PI, max_nk)
        assert (q, phases, bounds) == (1.0, [PI], [band.lo]) and gap < 0.0, (k, max_nk)


def test_march_rejects_nan_level():
    with pytest.raises(DomainError, match="level q must be in"):
        march_level(1, math.nan, MAX_NK)


# The fact the level search's bracket end rests on: P(band.lo; pi) is exactly
# 1 and P(tail; pi) < 1, so the march at pi never covers its band.
def test_phase_pi_has_level_one_and_misses_the_tail():
    for k in [*range(1, 20001), K_MAX]:
        band = iteration_band(k)
        tail = min_point_k1(PI) if k == 1 else band.hi
        assert p_success(k, PI, band.lo) == 1.0, k
        assert p_success(k, PI, tail) < 1.0, k


def test_march_infeasible_at_cap(march_at):
    _, phases, bounds, gap = march_at(1, 0.999, 2)
    assert gap < 0.0 and len(phases) == 2
    # it stops at its cap: no boundary after the last phase, only the lower
    # edges of its segments, as the uncapped march has them
    _, full_phases, full_bounds, _ = march_at(1, 0.999)
    assert (phases, bounds) == (full_phases[:2], full_bounds[:2])


# ----------------------------------------------------- largest minimum success

# Q_k^pi(n) oracle values, frozen from the level search at LEVEL_TOL = 1e-9 and
# cross-checked against the published common levels where available.
Q1 = [0.862245, 0.959261, 0.980739, 0.988797, 0.992675, 0.994837]
Q2 = [0.87061681, 0.96539064, 0.98441819, 0.99119527, 0.99435307]
Q3 = [0.93540685, 0.9833435, 0.99255403, 0.9958031, 0.99731145]
Q4 = [0.96252222, 0.99046506, 0.9957484, 0.99760574, 0.99846686]


@pytest.mark.parametrize("k,expected", [(1, Q1), (2, Q2), (3, Q3), (4, Q4)])
def test_largest_min_success_frozen(k, expected):
    for n, want in enumerate(expected, start=1):
        q, phases, _ = largest_min_success(k, n)
        assert q == pytest.approx(want, abs=1e-6), (k, n)
        assert len(phases) == n


def test_largest_min_success_table_rows():
    q, phases, _ = largest_min_success(1, 2)
    assert q == pytest.approx(0.9593, abs=1e-3)
    assert phases == pytest.approx([2.134, 1.465], abs=5e-3)
    q, phases, _ = largest_min_success(2, 2)
    assert q == pytest.approx(0.9654, abs=1e-3)
    assert phases == pytest.approx([2.163, 1.536], abs=5e-3)
    q, phases, _ = largest_min_success(5, 1)
    assert q == pytest.approx(0.9757, abs=1e-3)
    assert phases == pytest.approx([2.243], abs=5e-3)


def test_largest_min_success_monotone():
    for k in (1, 2, 3, 4):
        prev = 0.0
        for n in range(1, 6):
            q, _, _ = largest_min_success(k, n)
            assert q > prev + 1e-6, (k, n)
            prev = q


def test_largest_min_success_rejects_bad_n():
    with pytest.raises(ConfigError):
        largest_min_success(1, 0)
    with pytest.raises(ConfigError):
        largest_min_success(1, 65)


# ---------------------------------------------------------------- phase counts

def test_optimal_phase_count_examples():
    assert optimal_phase_count(1, 0.90) == 2
    assert optimal_phase_count(4, 0.90) == 1
    assert optimal_phase_count(3, 0.95) >= 2


def _increment_loop_phase_count(k, p_cri):
    """Reference: the least n whose largest minimum level reaches p_cri."""
    for n in range(1, MAX_NK + 1):
        if largest_min_success(k, n)[0] >= p_cri:
            return n
    raise ConfigError(f"p_cri={p_cri} not reachable on band {k}")


@pytest.mark.parametrize("p_cri", [0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_optimal_phase_count_matches_increment_loop(p_cri):
    for k in range(1, 26):
        want = _increment_loop_phase_count(k, p_cri)
        assert optimal_phase_count(k, p_cri) == want, (k, p_cri)


def test_optimal_phase_count_unreachable():
    with pytest.raises(ConfigError):
        optimal_phase_count(1, 0.90, 1)


@pytest.mark.parametrize("p_cri", [0.0, 1.0, math.nan])
def test_phase_count_rejects_pcri_outside_unit_interval(p_cri):
    with pytest.raises(DomainError, match=r"^p_cri must be in \(0, 1\)"):
        largest_min_success(1, None, floor=p_cri)


# With n_k None the floor probe's march gives the phase count and is the
# covered end of the bracket, so the search is the one an explicit n_k runs.
@pytest.mark.parametrize("p_cri", [0.90, 0.9999])
def test_floor_probe_count_matches_explicit_n_k(p_cri, march_at):
    for k in range(1, 6):
        n_k = optimal_phase_count(k, p_cri)
        assert n_k == len(march_at(k, p_cri)[1])
        got = largest_min_success(k, None, floor=p_cri)
        assert got == largest_min_success(k, n_k, floor=p_cri), (k, p_cri)


# ------------------------------------------------- deep bands and high P_cri

# Q_k(1) tends to 1 as k grows (0.99994 at k = 100), so deep bands need one
# phase for any P_cri up to 0.9999.
@pytest.mark.parametrize("k", [100, 1000, 7854])
def test_deep_bands_have_one_phase(k):
    plan = build_plan(k, 0.9999)
    assert plan.n_k == 1
    assert plan.q_k_pi >= 0.9999


# Band 7854, the deepest of a lambda0 = 1e-8 table, is 2.5e-12 wide: narrower
# than the lambda_tol = 1e-12 that schemas 1 to 7 stopped at was to resolve a
# boundary in it.  Solves now run to float resolution, and the band still needs
# one phase at every P_cri.
@pytest.mark.parametrize("p_cri", [0.9, 0.99, 0.9999])
def test_band_near_lambda_tol_has_one_phase(p_cri):
    band = iteration_band(7854)
    assert 0.0 < band.hi - band.lo < 1e-11
    plan = build_plan(7854, p_cri)
    assert plan.n_k == 1
    assert plan.q_k_pi >= p_cri


# Band 2 takes up to 40 ms a plan at P_cri = 0.9999 (38 phases), but most
# draws need a few phases: 100 examples of two plans take 0.3-0.5 s.
@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=2, max_value=6),
       p_cri=st.lists(st.floats(min_value=0.5, max_value=0.9999), min_size=2, max_size=2))
@example(k=2, p_cri=[0.9999, 0.5])
def test_plans_certify_up_to_high_pcri(k, p_cri):
    low, high = (build_plan(k, p) for p in sorted(p_cri))
    for p, plan in zip(sorted(p_cri), (low, high)):  # build_plan certifies, or raises
        assert plan.q_k_pi >= p
        assert plan.level_residual < 10.0 * LEVEL_TOL
    assert low.n_k <= high.n_k


# ------------------------------------------------------------------------ plans

@pytest.mark.parametrize("k,phi,q", [(6, 2.322, 0.9830), (7, 2.383, 0.9875),
                                     (8, 2.432, 0.9904)])
def test_build_plan_single_phase_rows(k, phi, q):
    plan = build_plan(k, 0.90)
    assert plan.n_k == 1
    assert plan.phases == pytest.approx([phi], abs=5e-3)
    assert plan.q_k_pi == pytest.approx(q, abs=1e-3)


def test_plan_invariants(table90):
    for plan in table90.plans:
        band = iteration_band(plan.k)
        bounds = plan.boundaries
        assert bounds[0] == band.lo
        assert bounds[-1] == band.hi
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert plan.n_k == len(plan.phases) == len(bounds) - 1
        phases = plan.phases
        assert all(a > b for a, b in zip(phases, phases[1:]))
        assert all(phi_min(plan.k) < p <= PI for p in phases)
        assert plan.q_k_pi >= table90.p_cri
        assert plan.level_residual < 1e-8


# The level search must stop on the march's tail gap, not on the width of its
# bracket: the gap moves about 50x faster than the level when n_k is 38-45, so
# a stop on the width in the level left residuals up to 2.6e-8 at P_cri = 0.9999.
@pytest.mark.parametrize("p_cri,lambda0", [(0.90, 1e-2), (0.99, 1e-2), (0.999, 1e-2),
                                           (0.9999, 1e-2), (0.99, 1e-3)])
def test_level_residual_within_level_tol(p_cri, lambda0):
    for plan in build_table(p_cri, lambda0).plans:
        assert plan.level_residual <= LEVEL_TOL, (p_cri, plan.k, plan.n_k)


# The first phase sets the level on the band's lower edge, so the level is
# exactly P there, not the level that the phase was solved for.
@pytest.mark.parametrize("p_cri,lambda0", [(0.90, 1e-2), (0.99, 1e-3), (0.9999, 1e-2)])
def test_level_is_exact_at_the_lower_edge(p_cri, lambda0):
    for plan in build_table(p_cri, lambda0).plans:
        assert plan.q_k_pi == p_success(plan.k, plan.phases[0], plan.boundaries[0]), plan.k


# The solver's work as counts: the optimizer module's kernel calls and the
# marches of one table build.  Re-pin these only when the solver changes on
# purpose, and quote the values before and after in CHANGES.md.
@pytest.mark.parametrize("p_cri,lambda0,kernel_calls,marches", [
    pytest.param(0.90, 1e-2, 621, 78, id="0.9-0.01"),
    pytest.param(0.99, 1e-3, 3608, 246, id="0.99-0.001"),
])
def test_solver_work_is_pinned(p_cri, lambda0, kernel_calls, marches,
                               monkeypatch):
    calls = {"p_success": 0, "march_level": 0}

    def counted(name):
        fn = getattr(optimizer, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(optimizer, name, counted(name))
    build_table(p_cri, lambda0)
    assert calls == {"p_success": kernel_calls, "march_level": marches}


def test_solver_calls_the_kernel_only_below_lambda_1(monkeypatch):
    # the kernel's domain is 0 <= lam < 1 (at lam = 1 and phi = pi it divides by
    # zero); the certificate takes P = 1 at band 1's upper edge without a call
    kernel = optimizer.p_success

    def checked(k, phi, lam):
        assert lam < 1.0, (k, phi, lam)
        return kernel(k, phi, lam)

    monkeypatch.setattr(optimizer, "p_success", checked)
    build_table(0.90, 1e-2)
    for p_cri in (0.5, 0.9, 0.99, 0.9999):
        build_plan(1, p_cri)


def test_plan_probability_at(table90):
    plan = table90.plan(1)
    assert plan.probability_at(0.25) >= 0.90
    assert plan.probability_at(0.999) >= 0.90
    with pytest.raises(DomainError):
        plan.probability_at(0.1)


# ------------------------------------------------------------------ plan contract

def test_make_plan_derives_the_level_and_residual(table90):
    for plan in table90.plans:
        assert make_plan(plan.k, table90.p_cri, list(plan.phases), list(plan.boundaries)) == plan


def test_make_plan_rejects_a_level_below_pcri():
    # P_cri just above the plan's level: the certificate has no slack, so the
    # level, P at band.lo, is a point it finds below P_cri
    plan = build_plan(1, 0.90)
    p_cri = plan.q_k_pi + 0.5 * LEVEL_TOL
    with pytest.raises(VerificationError, match=rf"dips to {plan.q_k_pi} < p_cri"):
        make_plan(1, p_cri, list(plan.phases), list(plan.boundaries))


def test_make_plan_rejects_a_level_above_the_certified_minimum():
    # a later phase nudged down: its segment's minimum falls about 1e-6 below
    # the level set by the first phase, and stays above P_cri
    plan = build_plan(1, 0.90)
    phases = [plan.phases[0], plan.phases[1] - 1e-5]
    worst, q, _ = _check_guarantee(1, 0.90, phases, plan.boundaries)
    assert q == plan.q_k_pi and 1e-7 < q - worst < 1e-5 and worst > 0.90
    with pytest.raises(DomainError, match="above the certified"):
        make_plan(1, 0.90, phases, list(plan.boundaries))


@pytest.mark.parametrize("p_cri", [0.0, 1.0, -0.5, math.nan])
def test_make_plan_rejects_pcri_outside_unit_interval(p_cri, table90):
    plan = table90.plan(3)
    with pytest.raises(DomainError, match=r"^p_cri must be in \(0, 1\)"):
        make_plan(3, p_cri, list(plan.phases), list(plan.boundaries))


# The solver's phases on band k lie in (phi_min(k), pi]; at or below phi_min
# the certificate's peak and interior-minimum forms leave the band or overflow.
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("phi", ["phi_min", 1e-300, 0.0, -0.0, math.nan, 4.0])
def test_make_plan_rejects_phase_outside_its_domain(k, phi, table90):
    plan = table90.plan(k)
    phases = list(plan.phases)
    phases[-1] = phi_min(k) if phi == "phi_min" else phi
    with pytest.raises(DomainError, match="phi must be in"):
        make_plan(k, 0.90, phases, list(plan.boundaries))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_make_plan_rejects_a_non_finite_interior_boundary(bad, table90):
    plan = table90.plan(1)
    bounds = list(plan.boundaries)
    bounds[1] = bad
    with pytest.raises(DomainError, match="do not strictly increase"):
        make_plan(1, 0.90, list(plan.phases), bounds)


# ------------------------------------------------------------- guarantee check

def test_guarantee_takes_p_one_at_band_one_upper_edge():
    # P(1, pi, 1.0) divides 0 by 0 in the kernel; P is 1 at lambda = 1 for any
    # phase, so the certificate takes that value and rejects the plan for its
    # dip at the interior minimum 0.75, where P(1, pi) is 0 up to rounding
    with pytest.raises(VerificationError, match="dips"):
        _check_guarantee(1, 0.90, (PI,), (iteration_band(1).lo, 1.0))


@pytest.mark.parametrize("m", [0, 1])
def test_guarantee_rejects_dip(m):
    plan = build_plan(1, 0.90)
    assert plan.n_k == 2
    _check_guarantee(1, 0.90, plan.phases, plan.boundaries)
    phases = list(plan.phases)
    phases[m] -= 0.3
    with pytest.raises(VerificationError, match="dips"):
        _check_guarantee(1, 0.90, phases, plan.boundaries)


def test_guarantee_rejects_short_cover():
    plan = build_plan(3, 0.90)
    band = iteration_band(3)
    short = band.hi - 0.01 * (band.hi - band.lo)
    with pytest.raises(DomainError):
        _check_guarantee(3, 0.90, plan.phases, plan.boundaries[:-1] + (short,))


def test_guarantee_rejects_early_start():
    # a first segment that starts below band.lo is not clipped to the band
    plan = build_plan(3, 0.90)
    band = iteration_band(3)
    early = band.lo - 0.01 * (band.hi - band.lo)
    with pytest.raises(DomainError, match="boundaries span"):
        _check_guarantee(3, 0.90, plan.phases, (early,) + plan.boundaries[1:])


# The certificate rests on 1 - P = (1 - lam) cos^2(n delta/2) / cos^2(delta/2),
# n = 2k + 1, s = (1 - cos phi)/2, delta = 2 asin(sqrt(lam s)); for k = 1 this is
# the cubic (1 - lam)(1 - 4 lam s)^2.  Both sides round like eps / (1 - lam s):
# cos^2(delta/2) = 1 - lam s here, and 2 - u = 2 (1 - lam s) in the kernel.
@settings(max_examples=300)
@given(k=st.integers(min_value=1, max_value=200),
       phi=st.floats(min_value=1e-3, max_value=PI),
       lam=st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_certificate_identity(k, phi, lam):
    n = 2 * k + 1
    s = 0.5 * (1.0 - math.cos(phi))
    delta = 2.0 * math.asin(math.sqrt(lam * s))
    tol = 1e-12 + 8.0 * sys.float_info.epsilon / (1.0 - lam * s)
    one_minus_p = 1.0 - p_success(k, phi, lam)
    identity = (1.0 - lam) * math.cos(n * delta / 2) ** 2 / math.cos(delta / 2) ** 2
    assert one_minus_p == pytest.approx(identity, abs=tol)
    if k == 1:
        assert one_minus_p == pytest.approx((1.0 - lam) * (1.0 - 4.0 * lam * s) ** 2, abs=tol)


@settings(max_examples=200)
@given(k=st.integers(min_value=2, max_value=50), phi=st.floats(min_value=0.5, max_value=PI),
       t=st.floats(min_value=0.01, max_value=0.99))
def test_fall_condition_implies_falling(k, phi, t):
    # lam between the peak (n delta/2 = pi/2) and the next minimum (n delta/2 = pi)
    n = 2 * k + 1
    s = 0.5 * (1.0 - math.cos(phi))
    lam = math.sin(0.5 * PI * (1.0 + t) / n) ** 2 / s
    assume(lam < 1.0)
    if _falls_after_peak(k, phi, lam):
        assert p_derivative(k, phi, lam) < 0.0
    else:
        assert lam > iteration_band(k).hi  # only past the band's upper edge


def _dense_scan_min(plan, points=100_000):
    """Minimum of the planned probability, clamped to [0, 1], on the uniform grid
    lo + i*step over the band.  The grid ascends, so each segment takes one run
    of it, from where the last segment stopped to its first point at or past the
    segment's upper edge."""
    band = iteration_band(plan.k)
    lo, step, n = band.lo, (band.hi - band.lo) / points, 2 * plan.k + 1
    lowest, start = math.inf, 0
    for phi, hi in zip(plan.phases, plan.boundaries[1:]):
        stop = bisect_left(range(points), hi, lo=start, key=lambda i: lo + i * step)
        c = cos(phi)
        for i in range(start, stop):
            lam = lo + i * step
            u = lam * (1.0 - c)
            delta = 2.0 * asin(sqrt(0.5 * u))
            p = (lam - 1.0) / (2.0 - u) * cos(n * delta) + (1.0 + lam * c) / (2.0 - u)
            if p < lowest:
                lowest = p
        start = stop
    return min(max(lowest, 0.0), 1.0)


def test_certificate_agrees_with_a_dense_scan(table90):
    # Bend one phase of a plan by up to 0.5 rad: the certificate must reject
    # exactly the plans a 10^5-point scan rejects, and its minimum must not
    # lie above any scanned point.
    plans = ([(table90.p_cri, plan) for plan in table90.plans]
             + [(0.99, build_plan(k, 0.99)) for k in (1, 2, 5, 25)])
    rng = random.Random(5)
    rejected = 0
    for _ in range(100):
        p_cri, plan = rng.choice(plans)
        m = rng.randrange(plan.n_k)
        phases = list(plan.phases)
        phases[m] = min(PI, phases[m] + rng.uniform(-0.5, 0.5))
        bent = plan._replace(phases=tuple(phases))
        scan_min = _dense_scan_min(bent)
        if scan_min < p_cri:
            with pytest.raises(VerificationError, match="dips"):
                _check_guarantee(plan.k, p_cri, phases, plan.boundaries)
            rejected += 1
        else:
            assert _check_guarantee(plan.k, p_cri, phases, plan.boundaries)[0] <= scan_min + 1e-12
    assert 20 < rejected < 80


@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=1, max_value=8000),
       p_cri=st.floats(min_value=0.5, max_value=0.995),
       fracs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5))
@example(k=1, p_cri=0.995, fracs=[0.5])
@example(k=8000, p_cri=0.995, fracs=[0.5])
def test_plan_guarantee_holds_down_to_small_lambda(k, p_cri, fracs):
    try:
        plan = build_plan(k, p_cri)
    except ConfigError:
        reject()
    assert _check_guarantee(k, p_cri, plan.phases, plan.boundaries)[0] >= p_cri
    floor = p_cri - LEVEL_TOL
    for phi, lo, hi in zip(plan.phases, plan.boundaries, plan.boundaries[1:]):
        points = [lo, hi] + [lo + f * (hi - lo) for f in fracs]
        assert all(p_success(k, phi, lam) >= floor for lam in points), (k, p_cri)
