"""Range classification, plan lookup, and baseline comparisons."""

import math
import random
import re

import pytest

from cmqsearch.analytic import PhaseAngle, TargetFraction, iterations_for
from cmqsearch.errors import AmbiguityError, DomainError, RangeError
from cmqsearch.kernels import p_success
from cmqsearch.planner import (
    KigrQuery,
    baseline_fixed_phase,
    baseline_long,
    baseline_yoder_bound,
    build_table,
    classify,
    compare,
    plan_for,
    success_after,
)
from oracles import crossover_pcri

PI = math.pi


# ------------------------------------------------------------------ plan tables

def test_table_shape(table90):
    assert len(table90.plans) == 8
    assert table90.plans[0].k == 1 and table90.plans[-1].k == 8
    assert table90.coverage_lo < 1e-2
    with pytest.raises(RangeError):
        table90.plan(9)
    with pytest.raises(AttributeError):  # slotted: no instance dict
        table90.extra = 1


def test_build_table_rejects_bad_lambda0():
    with pytest.raises(DomainError):
        build_table(0.90, 0.0)


# --------------------------------------------------------------------- queries

def test_query_validation():
    with pytest.raises(DomainError):
        KigrQuery()
    with pytest.raises(DomainError):
        KigrQuery(exact_lambda=0.3, range=(0.2, 0.4))
    with pytest.raises(DomainError):
        KigrQuery(range=(0.4, 0.2))


def test_query_is_frozen():
    with pytest.raises(DomainError, match=r"^lambda must be in \(0, 1\), got 1.0$"):
        KigrQuery(exact_lambda=1.0)
    with pytest.raises(DomainError, match=r"^need 0 < lo < hi <= 1, got \[0.4, 0.2\)$"):
        KigrQuery(None, (0.4, 0.2))
    query = KigrQuery(range=(0.2, 0.3))
    for name in ("exact_lambda", "range", "extra"):
        with pytest.raises(AttributeError):
            setattr(query, name, 0.5)
    assert query == KigrQuery(None, (0.2, 0.3))
    assert hash(query) == hash(KigrQuery(range=(0.2, 0.3)))
    assert repr(query) == "KigrQuery(exact_lambda=None, range=(0.2, 0.3))"


def test_classify_exact(table90):
    k, m = classify(KigrQuery(exact_lambda=0.2), table90)
    assert k == 2
    bounds = table90.plan(k).boundaries
    assert bounds[m - 1] <= 0.2 < bounds[m]


def test_classify_range_inside_one_segment(table90):
    # [0.3, 0.4) sits inside the first segment of band 1 ([0.25, ~0.412))
    k, m = classify(KigrQuery(range=(0.3, 0.4)), table90)
    assert (k, m) == (1, 1)


def test_classify_range_straddling_band_edge(table90):
    with pytest.raises(AmbiguityError):
        classify(KigrQuery(range=(0.2, 0.3)), table90)


def test_classify_below_coverage(table90):
    with pytest.raises(RangeError):
        classify(KigrQuery(exact_lambda=1e-4), table90)


def test_classify_total_on_coverage(table90):
    lam = table90.coverage_lo
    while lam < 1.0:
        k, m = classify(KigrQuery(exact_lambda=lam), table90)
        bounds = table90.plan(k).boundaries
        assert bounds[m - 1] <= lam < bounds[m]
        lam += 0.0013


@pytest.fixture(scope="module", params=[(0.90, 1e-2), (0.99, 1e-3), (0.99, 1e-5)],
                ids=lambda setting: "-".join(map(str, setting)))
def lookup_table(request):
    return build_table(*request.param)


def _scan(table, lam):
    """(k, m) of the one segment holding lam, by a linear scan over every plan."""
    hits = [(plan.k, m) for plan in table.plans
            for m, (lo, hi) in enumerate(zip(plan.boundaries, plan.boundaries[1:]), start=1)
            if lo <= lam < hi]
    assert len(hits) == 1, (lam, hits)
    return hits[0]


def test_lookup_agrees_with_a_linear_scan(lookup_table):
    # band by iterations_for, then segment by one bisect in that band's plan
    table = lookup_table
    cov = table.coverage_lo
    rng = random.Random(14)
    lams = [cov ** (1.0 - rng.random()) for _ in range(1000)]  # log-uniform on [cov, 1)
    for plan in table.plans:
        for edge in plan.boundaries:
            lams += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    lams = [lam for lam in lams if cov <= lam < 1.0]
    for lam in lams:
        k, m = _scan(table, lam)
        assert classify(KigrQuery(exact_lambda=lam), table) == (k, m)
        assert plan_for(TargetFraction(lam), table) == (k, PhaseAngle(table.plan(k).phases[m - 1]))
    below = math.nextafter(cov, 0.0)
    message = re.escape(f"lambda={below} below table coverage [{cov}, 1)")
    with pytest.raises(RangeError, match=f"^{message}$"):
        classify(KigrQuery(exact_lambda=below), table)
    with pytest.raises(RangeError, match=f"^{message}$"):
        plan_for(TargetFraction(below), table)


def test_range_lookup_per_segment(lookup_table):
    # a segment's own range resolves to it; one ulp more straddles the next
    for plan in lookup_table.plans:
        for m, (lo, hi) in enumerate(zip(plan.boundaries, plan.boundaries[1:]), start=1):
            assert classify(KigrQuery(range=(lo, hi)), lookup_table) == (plan.k, m)
            if hi < 1.0:
                with pytest.raises(AmbiguityError, match=f"segment \\(k={plan.k}, m={m}\\)"):
                    classify(KigrQuery(range=(lo, math.nextafter(hi, 1.0))), lookup_table)


# --------------------------------------------------------------------- plan_for

def test_plan_for_examples(table90):
    k, phi = plan_for(TargetFraction(0.01), table90)
    assert k == 8 and phi.phi == pytest.approx(2.432, abs=5e-3)
    k, phi = plan_for(TargetFraction(0.03), table90)
    assert k == 5 and phi.phi == pytest.approx(2.243, abs=5e-3)
    k, phi = plan_for(TargetFraction(0.5), table90)
    assert k == 1 and phi.phi == pytest.approx(1.465, abs=5e-3)


# -------------------------------------------------------------------- baselines

def test_baseline_fixed_phase_examples():
    assert baseline_fixed_phase(PhaseAngle(PI), TargetFraction(0.25)) == 1
    assert baseline_fixed_phase(PhaseAngle(0.1 * PI), TargetFraction(0.25)) == 10
    assert baseline_fixed_phase(PhaseAngle(PI), TargetFraction(1 - 1e-12)) == 0


def test_baseline_long_examples():
    k, phi = baseline_long(TargetFraction(0.25))
    assert k == 1 and phi == pytest.approx(PI, abs=1e-7)  # arcsin near 1
    k, phi = baseline_long(TargetFraction(0.5))
    assert k == 1 and phi == pytest.approx(PI / 2, abs=1e-12)
    k, phi = baseline_long(TargetFraction(0.01))
    assert k == 8
    assert phi == pytest.approx(2.3499676097565314, abs=1e-12)  # frozen
    # sanity: this (k, phi) is exact -- probability 1 in closed form
    assert p_success(k, phi, 0.01) == pytest.approx(1.0, abs=1e-12)


def test_baseline_yoder_examples():
    assert baseline_yoder_bound(0.90, TargetFraction(0.01)) == 9
    assert baseline_yoder_bound(0.9925, TargetFraction(0.01)) == 16
    with pytest.raises(DomainError):
        baseline_yoder_bound(1.0, TargetFraction(0.01))


def test_crossover():
    p_star = crossover_pcri()
    assert p_star == pytest.approx(0.8271, abs=5e-5)
    # defining equality: log(2/delta)/2 == pi/4 at the crossover
    delta = math.sqrt(1.0 - p_star)
    assert math.log(2.0 / delta) / 2.0 == pytest.approx(PI / 4.0, abs=1e-12)


def test_bound_exceeds_ours_above_crossover():
    # just above the crossover the pre-rounding bound exceeds pi/(4*sqrt(lam));
    # the integer counts can still tie there, so compare the real quantities
    delta = math.sqrt(1.0 - 0.83)
    assert math.log(2.0 / delta) / 2.0 > PI / 4.0
    # further above the crossover the rounded counts separate as well
    for lam in (1e-2, 1e-4):
        t = TargetFraction(lam)
        assert baseline_yoder_bound(0.90, t) > iterations_for(t)


# ---------------------------------------------------------------------- compare

def test_compare_record(table90):
    rec = compare(TargetFraction(0.25), table90, 0.90, PhaseAngle(0.1 * PI))
    assert rec.k_ours == 1 and rec.k_grover == 1 and rec.k_fixed == 10
    assert rec.k_long == 1 and rec.phi_long == pytest.approx(PI, abs=1e-7)
    assert rec.p_ours >= 0.90
    assert rec.p_grover == pytest.approx(1.0, abs=1e-12)
    assert rec.k_ours - rec.k_grover in (0, 1)


@pytest.mark.parametrize("phi", [1e-9, 1e-12, 1e-100])
def test_compare_fixed_phase_reaches_one_at_small_phi(table90, phi):
    # 1 - cos(phi) is 0.0 in floats below phi ~ 1e-8: a probability formed
    # from it fell back to lambda, though the count from sin(phi/2) was right.
    rec = compare(TargetFraction(0.5), table90, 0.90, PhaseAngle(phi))
    assert rec.k_fixed > 1e8
    assert rec.p_fixed > 0.99


def test_compare_zero_grover_iterations(table90):
    rec = compare(TargetFraction(0.6), table90, 0.90, PhaseAngle(0.1 * PI))
    assert rec.k_grover == 0 and rec.k_ours == 1
    assert rec.p_grover == 0.6  # no iterations: probability is lambda itself


def test_success_after():
    assert success_after(0, PI, 0.6) == 0.6
    assert success_after(1, 0.3, 0.6) == p_success(1, 0.3, 0.6)
    assert success_after(3, PI, 0.01) == p_success(3, PI, 0.01)
