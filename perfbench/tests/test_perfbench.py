"""Tests of the benchmark itself: its output checks, its inputs and its tracer.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import itertools
import json
import math
import random

import pytest

import checks
import workloads
from checks import CheckError
from harness import Result, validate
from run import tail
from workloads import Op


@pytest.fixture(scope="module")
def table_text():
    from cmqsearch.cli import serialize_table
    from cmqsearch.planner import build_table
    return serialize_table(build_table(0.90, 1e-2))


@pytest.fixture
def ctx(table_text, tmp_path):
    (tmp_path / "headline.json").write_text(table_text)
    return {"dir": tmp_path, "docs": {"headline.json": json.loads(table_text)}, "tables": {}}


def doctored(text, edit):
    doc = json.loads(text)
    edit(doc["plans"])
    return json.dumps(doc)


def test_table_check_accepts_real_table(table_text):
    assert len(checks.check_table_doc(table_text, 0.90, 1e-2)["plans"]) == 8


@pytest.mark.parametrize("edit", [
    lambda plans: plans[0]["phases"].reverse(),                       # phases ascending
    lambda plans: plans[1]["boundaries"].__setitem__(0, "0.1"),       # band edge moved
    lambda plans: plans[2].__setitem__("q_k_pi", "0.89"),             # level below P_cri
    lambda plans: plans[3].__setitem__("level_residual", "1e-7"),     # not equal-level
    lambda plans: plans.pop(),                                        # coverage cut short
    lambda plans: plans[0].__setitem__("n_k", 3),                     # count mismatch
])
def test_table_check_rejects_doctored_document(table_text, edit):
    with pytest.raises(CheckError):
        checks.check_table_doc(doctored(table_text, edit), 0.90, 1e-2)


def test_table_check_rejects_other_config(table_text):
    with pytest.raises(CheckError):
        checks.check_table_doc(table_text, 0.95, 1e-2)


def plan_op(lam):
    return Op("query", "plan", 0.90, 1e-2, "headline.json", ("--lambda", repr(lam)), lam=lam)


def plan_answer(doc, lam, neighbour=False):
    k, m, lo, hi, phi = checks.find_segment(doc, lam)
    if neighbour:
        k, m, lo, hi, phi = checks.find_segment(doc, hi)
    return json.dumps({"k": k, "m": m, "phi": repr(phi), "segment": [repr(lo), repr(hi)],
                       "guaranteed_p": doc["plans"][k - 1]["q_k_pi"]})


def test_plan_check_accepts_right_segment_and_rejects_wrong_one(ctx):
    doc = ctx["docs"]["headline.json"]
    for lam in (0.01, 0.05, 0.3):
        checks.check(plan_op(lam), 0, plan_answer(doc, lam), "", ctx)
        wrong = plan_answer(doc, lam, neighbour=True)
        with pytest.raises(CheckError):
            checks.check(plan_op(lam), 0, wrong, "", ctx)


def test_unexpected_exit_code_is_a_failure(ctx):
    below = Op("query", "plan", 0.90, 1e-2, "headline.json", ("--lambda", "0.001"),
               expect=3, lam=0.001)
    checks.check(below, 3, "", "error: below coverage\n", ctx)
    for code in (0, 1, 2):
        with pytest.raises(CheckError):
            checks.check(below, code, "", "error: below coverage\n", ctx)
    straddle = Op("query", "plan", 0.90, 1e-2, "headline.json", ("--range", "0.2..0.3"),
                  expect=None, range_=(0.2, 0.3))
    assert checks.expected_exit(straddle, ctx["docs"]) == 2
    doc = ctx["docs"]["headline.json"]
    with pytest.raises(CheckError):
        checks.check(plan_op(0.3), 3, plan_answer(doc, 0.3), "", ctx)
    failures = validate([Result(plan_op(0.3), 2, 0.1, "", "error: x")], ctx)
    assert len(failures) == 1 and "exit 2, want 0" in failures[0]


def test_verify_check_needs_four_pass_lines(ctx):
    op = Op("verify", "verify", 0.90, 1e-2, "headline.json")
    lines = [f"{name}: PASS" for name in checks.VERIFY_SUITES]
    checks.check(op, 0, "\n".join(lines) + "\n", "", ctx)
    with pytest.raises(CheckError):
        checks.check(op, 0, "\n".join(lines[:3]) + "\n", "", ctx)


def first_blocks(workload, seed, n=3):
    return list(itertools.islice(workloads.blocks(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert first_blocks(workload, 7) == first_blocks(workload, 7)
    assert first_blocks(workload, 7) != first_blocks(workload, 8)


def test_cold_build_mix_and_ranges():
    ops = [op for block in first_blocks("cold-build", 3, n=20) for op in block]
    tables = [op for op in ops if op.cls == "table" and op.rebuild_of is None]
    assert len(tables) == 80
    assert sum(op.cls == "cap" for op in ops) == sum(op.rebuild_of is not None for op in ops) == 10
    assert all(1e-3 <= op.lambda0 < 1e-2 and 0.90 <= op.p_cri < 0.99 for op in tables)
    # the sequence fills the square evenly: every quarter of each axis gets its share
    for key, lo, hi in ((lambda op: math.log10(op.lambda0), -3, -2), (lambda op: op.p_cri, 0.9, 0.99)):
        quarters = [int(4 * (key(op) - lo) / (hi - lo)) for op in tables]
        assert all(18 <= quarters.count(q) <= 22 for q in range(4))


def test_closed_forms_match_package():
    from cmqsearch.analytic import TargetFraction, iterations_for
    from cmqsearch.kernels import p_success
    rng = random.Random(0)
    for _ in range(2000):
        lam = 10.0 ** rng.uniform(-4, -1e-9)
        k = checks.band_index(lam)
        assert k == iterations_for(TargetFraction(lam))
        phi = rng.uniform(0.3, math.pi)
        assert checks.success_p(k, phi, lam) == pytest.approx(p_success(k, phi, lam), abs=1e-10)


def test_tail_has_ten_samples_above_it():
    xs = [float(i) for i in range(40)]
    value, pct = tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0
    assert tail(xs[:15])[0] == 7.0  # too few samples: falls back to the median


def test_tracer_counts_consumer_bindings_and_restores_them(ctx):
    import tracing
    from cmqsearch import cli, optimizer, planner, simulator
    patched = [(mod, "p_success") for mod in (cli, planner, optimizer)] + [
        (planner, "build_plan"), (optimizer, "largest_min_success"), (cli, "write_table"),
        (cli, "load_or_build_table"), (simulator, "statevector_run"),
        (optimizer.PhasePlan, "probability_at")]
    before = {(owner, name): getattr(owner, name) for owner, name in patched}
    tracer = tracing.Tracer()
    tracer.install(cli, planner, optimizer, simulator, count_kernels=True)
    try:
        main = tracer.span("cli.main", cli.main)
        results = tracing._run_pass(main, [plan_op(0.3)], ctx["dir"])
    finally:
        tracer.restore()
    assert all(getattr(owner, name) is fn for (owner, name), fn in before.items())
    assert results[0].exit == 0
    m = {name: value for name, (value, _) in tracer.metrics().items()}
    assert m["planner.classify.calls"] == 1 and m["cli.cache_hit_ratio"] == 1
    assert m["optimizer.march_level.calls"] == 0
    assert m["cli.cache_bytes"] == (ctx["dir"] / "headline.json").stat().st_size


def test_timing_passes_leave_the_kernels_unwrapped():
    import tracing
    from cmqsearch import cli, optimizer, planner, simulator
    kernels = [(mod, "p_success") for mod in (cli, planner, optimizer)] + [
        (optimizer.PhasePlan, "probability_at")]
    before = {(owner, name): getattr(owner, name) for owner, name in kernels}
    build_plan = planner.build_plan
    tracer = tracing.Tracer()
    tracer.install(cli, planner, optimizer, simulator, count_kernels=False)
    try:
        assert all(getattr(owner, name) is fn for (owner, name), fn in before.items())
        assert planner.build_plan is not build_plan
    finally:
        tracer.restore()
    assert planner.build_plan is build_plan
