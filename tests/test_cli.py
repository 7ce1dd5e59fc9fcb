"""Command-line surface: determinism, caching, exit codes, output formats."""

import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmqsearch import cli
from cmqsearch.analytic import TargetFraction, iterations_for
from cmqsearch.cli import doc_to_table, main, serialize_table
from cmqsearch.errors import CmqsearchError, DomainError
from cmqsearch.kernels import p_success
from cmqsearch.optimizer import PhasePlan, SolverConfig, _check_guarantee
from cmqsearch.planner import build_table, plan_for


def run(args, capfd):
    code = main(args)
    out = capfd.readouterr()
    return code, out.out, out.err


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "plans.json")


# ----------------------------------------------------------------- determinism

def test_table_json_stdout_is_the_cache_file(cache, capfd, tmp_path):
    code, out, _ = run(["table", "--pcri", "0.99", "--lambda0", "1e-3", "--cache", cache], capfd)
    assert code == 0
    assert out.encode() == (tmp_path / "plans.json").read_bytes()


def test_table_rebuild_is_byte_identical(cache, capfd, tmp_path):
    assert main(["table", "--cache", cache]) == 0
    first = (tmp_path / "plans.json").read_bytes()
    assert main(["table", "--cache", cache]) == 0
    assert (tmp_path / "plans.json").read_bytes() == first
    capfd.readouterr()


# sha256 and size of the serialized table, pinned so that a solver change that
# moves any cached bit shows up here (and calls for a new SCHEMA_VERSION).  The
# plans' own sha256 is pinned apart; it last moved with schema version 7.
@pytest.mark.parametrize("p_cri,lambda0,size,digest,plans_digest", [
    pytest.param(0.90, 1e-2, 3133,
                 "da726f2ef6c81d450f8ecda381ea88a2b04b0306f803477564cb5dc8be6c3e47",
                 "209a1051606b502a22b43a86a064252e72cd2f18daaf9fe6ad941d66dffc3480",
                 id="0.9-0.01"),
    pytest.param(0.99, 1e-3, 9968,
                 "2e360976e4678e822deba018b61bd0eef99517025de864127df484207060b10e",
                 "c9599ce6f985389f0e38b150b880288b9330d164f44b6a7d83162c23a645b019",
                 id="0.99-0.001"),
])
def test_cache_bytes_pinned(p_cri, lambda0, size, digest, plans_digest):
    table = build_table(p_cri, lambda0)
    data = serialize_table(table).encode()
    assert cli.SCHEMA_VERSION == 7
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
    plans = json.dumps(cli.table_to_doc(table)["plans"], indent=2, sort_keys=True).encode()
    assert hashlib.sha256(plans).hexdigest() == plans_digest


def test_document_round_trip(table90):
    text = serialize_table(table90)
    rebuilt = doc_to_table(json.loads(text))
    assert serialize_table(rebuilt) == text
    for a, b in zip(table90.plans, rebuilt.plans):
        assert a == b  # dataclass equality: every float bit-exact


def test_plan_from_cache_matches_fresh(cache, capfd, tmp_path):
    main(["table", "--cache", cache])
    capfd.readouterr()
    code, cached, _ = run(["plan", "--lambda", "0.01", "--cache", cache], capfd)
    assert code == 0
    fresh_cache = str(tmp_path / "fresh.json")
    code, fresh, _ = run(["plan", "--lambda", "0.01", "--cache", fresh_cache], capfd)
    assert code == 0
    assert cached == fresh


def test_plan_output_fields(cache, capfd):
    code, out, _ = run(["plan", "--lambda", "0.01", "--cache", cache], capfd)
    assert code == 0
    rec = json.loads(out)
    assert rec["k"] == 8 and rec["m"] == 1
    assert float(rec["phi"]) == pytest.approx(2.432, abs=5e-3)
    assert float(rec["guaranteed_p"]) >= 0.90


# sin^2(pi/10), one ulp below band 2's lower edge: band 3 holds it, though the
# closed form CI(pi/(4 theta)) names band 2
EDGE_LAMBDA = "0.09549150281252626"


def test_plan_and_compare_at_a_band_edge(cache, capfd):
    code, out, err = run(["plan", "--lambda", EDGE_LAMBDA, "--cache", cache], capfd)
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert (rec["k"], rec["m"]) == (3, 1)
    lo, hi = (float(x) for x in rec["segment"])
    assert lo <= float(EDGE_LAMBDA) < hi
    code, out, err = run(["compare", "--lambda", EDGE_LAMBDA, "--cache", cache], capfd)
    assert (code, err) == (0, "")
    assert json.loads(out)["k_ours"] == 3


def test_sweep_from_a_band_edge_lambda0(cache, capfd):
    # the table built for this lambda0 must cover lambda0, the first grid point
    code, out, err = run(["sweep", "--lambda0", EDGE_LAMBDA, "--grid", "10",
                          "--cache", cache], capfd)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1].split(",")[:3] == [EDGE_LAMBDA, "ours", "3"]
    assert len(lines) == 1 + 10 * 2


@pytest.mark.parametrize("lambda0", [None, EDGE_LAMBDA, "segment edge"])
def test_sweep_rows_match_plan_for(cache, capfd, table90, lambda0):
    # the sweep walks the table's segments with one cursor; plan_for looks each
    # lambda up on its own, and both must name the same (k, phi) at every point
    if lambda0 == "segment edge":  # grid point 0 starts band 2's second segment
        lambda0 = repr(table90.plan(2).boundaries[1])
    flags = [] if lambda0 is None else ["--lambda0", lambda0]
    code, out, err = run(["sweep", "--grid", "2000", "--algorithms", "ours", *flags,
                          "--cache", cache], capfd)
    assert (code, err) == (0, "")
    with open(cache) as fh:
        table = doc_to_table(json.load(fh))
    grid = list(cli._log_grid(table.lambda0, 2000))
    rows = out.splitlines()
    assert len(rows) == 1 + len(grid)
    for row, lam in zip(rows[1:], grid):
        k, phi = plan_for(TargetFraction(lam), table)
        assert row == f"{lam!r},ours,{k},{p_success(k, phi.phi, lam)!r}"


def test_log_grid_is_lazy_and_log_spaced():
    grid = cli._log_grid(1e-3, 7)
    assert not isinstance(grid, (list, tuple)) and iter(grid) is grid
    r = math.nextafter(1.0, 0.0) / 1e-3
    assert list(grid) == [1e-3 * r ** (i / 7) for i in range(7)]


def test_table_level_reaches_pcri_just_above_a_level(cache, capfd):
    # Q_8(1) + 1e-12: the march at P_cri covers band 8 with one phase, so the
    # level search starts there and cannot return a level below P_cri
    p_cri = 0.9904114249724051
    code, out, _ = run(["table", "--pcri", repr(p_cri), "--cache", cache], capfd)
    assert code == 0
    plans = json.loads(out)["plans"]
    assert plans[7]["n_k"] == 1
    assert all(float(plan["q_k_pi"]) >= p_cri for plan in plans)


def test_closed_stdout_is_not_a_traceback(tmp_path):
    # the sweep writes far more than a pipe holds, so the writes fail once the
    # reader has gone
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-m", "cmqsearch.cli", "sweep", "--grid", "20000",
                             "--cache", str(tmp_path / "plans.json")],
                            cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"lambda,algorithm,k,p\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


# ------------------------------------------------------------------- exit codes

def test_exit_code_ambiguous_range(cache, capfd):
    code, _, err = run(["plan", "--range", "0.2..0.3", "--cache", cache], capfd)
    assert code == 2
    assert "straddles" in err


def test_exit_code_below_coverage(cache, capfd):
    code, _, err = run(["plan", "--lambda", "1e-4", "--cache", cache], capfd)
    assert code == 3
    assert "coverage" in err


def test_exit_code_solver_config(cache, capfd):
    code, out, err = run(["table", "--max-nk", "1", "--cache", cache], capfd)
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["error: p_cri=0.9 not reachable on band 1 within max_nk=1"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--lambda-tol", "--phase-tol", "--level-tol"])
def test_non_finite_tolerance_is_a_config_error(cache, capfd, flag, value):
    # a NaN tolerance compares false everywhere and would wave through a plan
    # that dips below P_cri; inf accepts any residual
    code, out, err = run(["table", flag, value, "--cache", cache], capfd)
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["error: tolerances must be positive and finite"]
    assert not Path(cache).exists()


def test_negative_seed_is_a_domain_error(cache, capfd):
    code, out, err = run(["verify", "--seed", "-1", "--cache", cache], capfd)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: seed must be >= 0, got -1"]


def test_run_config_is_frozen():
    with pytest.raises(DomainError, match=r"^p_cri must be in \(0, 1\), got 1.0$"):
        cli.RunConfig(p_cri=1.0)
    with pytest.raises(DomainError, match=r"^lambda0 must be in \(0, 1\), got 0.0$"):
        cli.RunConfig(0.9, 0.0)
    with pytest.raises(DomainError, match="^seed must be >= 0, got -2$"):
        cli.RunConfig(seed=-2)
    cfg = cli.RunConfig()
    assert cfg.solver == SolverConfig() and (cfg.p_cri, cfg.lambda0, cfg.seed) == (0.9, 1e-2, 0)
    for name in ("p_cri", "solver", "extra"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 0.5)
    assert cfg == cli.RunConfig() and hash(cfg) == hash(cli.RunConfig())


@pytest.mark.parametrize("argv", [
    ["plan", "--lambda", "abc"],
    ["plan", "--max-nk", "x"],
    ["plan", "--lambda", "0.2", "--bogus"],
    ["plan", "--format", "xml", "--lambda", "0.2"],
    ["nosuch"],
])
def test_usage_error_exits_1(cache, capfd, argv):
    # exit 2 is reserved for a range query that straddles two segments
    code, out, err = run([*argv, "--cache", cache], capfd)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    code, _, err = run(["plan", "--range", "0.2..0.3", "--cache", cache], capfd)
    assert code == 2
    assert "straddles" in err


def test_tiny_lambda0_names_lambda_and_cap(cache, capfd):
    code, out, err = run(["table", "--lambda0", "1e-300", "--cache", cache], capfd)
    assert (code, out) == (1, "")
    assert err == "error: lambda=1e-300 needs more than K_MAX=1000000 iterations\n"


# ------------------------------------------------------------------ flag parsing

@pytest.fixture(scope="module")
def argparser():
    # One parse before the first example, so that argparse's lazy imports and
    # first-use setup are not timed against Hypothesis's deadline.
    parser = cli.build_parser()
    parser.parse_args(["compare", "--lambda", "0.5"])
    return parser


def _value(spec):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is float:
        return st.floats(min_value=0.0, allow_nan=False).map(repr)
    if spec.get("type") is int:
        return st.integers(min_value=0, max_value=10**6).map(str)
    return st.text(max_size=8).map(lambda text: text.lstrip("-"))


# command -> (flag list strategy, required flags, {flag: value strategy}), built
# once: making the strategies on every draw trips Hypothesis's too_slow check
_ARGV_PARTS = {command: (st.lists(st.sampled_from(list(flags)), max_size=12),
                         [flag for flag, spec in flags.items() if spec.get("required")],
                         {flag: _value(spec) for flag, spec in flags.items()})
               for command, (_, flags) in cli._flag_table().items()}


@st.composite
def _valid_argv(draw):
    command = draw(st.sampled_from(list(_ARGV_PARTS)))
    flag_lists, required, values = _ARGV_PARTS[command]
    pairs = draw(flag_lists)
    for flag in required:
        pairs.insert(draw(st.integers(0, len(pairs))), flag)
    argv = [command]
    for flag in pairs:  # repeated flags included: the last one wins
        argv += [flag, draw(values[flag])]
    return argv


@pytest.mark.parametrize("command", list(cli._flag_table()))
def test_flag_defaults_are_run_config_defaults(command, monkeypatch):
    monkeypatch.delenv("CMQSEARCH_CACHE", raising=False)
    required = ["--lambda", "0.5"] if command == "compare" else []  # compare's one required flag
    args = cli._parse([command, *required])
    defaults = cli.RunConfig._field_defaults
    assert (args["pcri"], args["lambda0"], args["format"], args["cache"], args["seed"]) == (
        defaults["p_cri"], defaults["lambda0"], defaults["fmt"], defaults["cache"],
        defaults["seed"])
    assert SolverConfig(*[args[name] for name in SolverConfig._fields]) == defaults["solver"]


@settings(max_examples=150)
@given(argv=_valid_argv())
def test_fast_parse_agrees_with_argparse(argparser, argv):
    args = cli._parse(argv)
    assert args is not None
    assert args == vars(argparser.parse_args(argv))


_TOKENS = sorted({flag for _, flags in cli._flag_table().values() for flag in flags}
                 | {"--lam", "--pc", "--lambda=0.1", "--cache=x", "--format=csv", "-1", "--",
                    "-h", "--help", "0.5", "7", "json", "xml", "0.1..0.2", "junk", "", "plan"})


@settings(max_examples=300)
@given(command=st.sampled_from([*cli._flag_table(), "nosuch", "--pcri", "-h"]),
       tokens=st.lists(st.sampled_from(_TOKENS), max_size=8))
@example(command="plan", tokens=["--lam", "0.1"])
@example(command="plan", tokens=["--seed", "-1"])
@example(command="compare", tokens=["--phi", "0.5"])
def test_fast_parse_accepts_only_what_argparse_reads_alike(argparser, command, tokens):
    # whatever the fast path accepts, argparse accepts with the same result;
    # the rest (help, abbreviations, --flag=value, usage errors) is argparse's
    argv = [command, *tokens]
    args = cli._parse(argv)
    if args is not None:
        assert args == vars(argparser.parse_args(argv))


def test_query_commands_leave_argparse_unloaded(tmp_path):
    # in a python -S process, with no site hook to preload modules, a warm plan
    # and compare load no argparse (with gettext and locale), pathlib, tempfile
    # or random; --help then builds the parser
    cache = str(tmp_path / "plans.json")
    assert main(["table", "--cache", cache]) == 0
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import contextlib, io, sys, cmqsearch.cli\n"
            f"query = ['--lambda', '0.02', '--cache', {cache!r}]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cmqsearch.cli.main(['plan', *query]) == 0\n"
            "    assert cmqsearch.cli.main(['compare', *query]) == 0\n"
            "print(sorted(m for m in ('argparse', 'gettext', 'locale', 'pathlib', 'tempfile',\n"
            "                         'random') if m in sys.modules))\n"
            "try:\n"
            "    cmqsearch.cli.main(['plan', '--help'])\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=src, capture_output=True,
                          text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1].startswith("usage: cmqsearch plan ")
    assert lines[-1] == "exit 0"
    assert proc.stderr == ""


def test_help_still_exits_0(capfd):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--help"])
    assert exc.value.code == 0
    assert capfd.readouterr().out.startswith("usage: cmqsearch plan ")


def test_verify_passes_at_high_pcri_with_margins(cache, capfd):
    code, out, _ = run(["verify", "--pcri", "0.9999", "--lambda0", "1e-2", "--cache", cache],
                       capfd)
    assert code == 0
    lines = out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "oracle_equivalence", "equal_level", "monotonicity", "long_certainty"]
    assert all(line.split(": ")[1].startswith("PASS (") for line in lines)
    match = re.fullmatch(r"equal_level: PASS \(max residual (\S+) < (\S+)\)", lines[1])
    assert match, lines[1]
    assert float(match[2]) == 1e-8
    assert float(match[1]) <= 1e-9  # level_tol, well inside the suite's limit


def test_exit_code_verification_negative_control(cache, capfd):
    # an absurdly tight level tolerance must make the equal-level suite fail
    code, out, _ = run(["verify", "--level-tol", "1e-30", "--cache", cache], capfd)
    assert code == 5
    assert "equal_level: FAIL" in out


# ------------------------------------------------------------- unreadable cache

def _plan_rebuilds_bad_cache(cache, capfd, text, lam="0.01"):
    Path(cache).write_text(text)
    code, out, err = run(["plan", "--lambda", lam, "--cache", cache], capfd)
    assert code == 0
    rec = json.loads(out)
    assert rec["k"] == iterations_for(TargetFraction(float(lam)))
    assert float(rec["guaranteed_p"]) >= 0.90
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and cache in warnings[0]
    assert "Traceback" not in err
    # the cache was rewritten with a readable table
    assert doc_to_table(json.loads(Path(cache).read_text())).p_cri == 0.90
    return warnings[0]


def test_truncated_cache_is_rebuilt(cache, capfd):
    main(["table", "--cache", cache])
    capfd.readouterr()
    text = Path(cache).read_text()
    warning = _plan_rebuilds_bad_cache(cache, capfd, text[: len(text) // 2])
    assert "JSONDecodeError" in warning


def test_cache_missing_phases_is_rebuilt(cache, capfd):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    del doc["plans"][0]["phases"]
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert "KeyError" in warning


# Schema 1 held grid_points among the tolerances; schemas 2 to 6 have the
# layout of schema 7, and only the solver that wrote the plans differs.
@pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 5, 6])
def test_cache_other_version_is_rebuilt(cache, capfd, version):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    doc["version"] = version
    if version == 1:
        doc["tolerances"]["grid_points"] = 10000
    with pytest.raises(DomainError):
        doc_to_table(doc)  # direct callers still get the typed error
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert f"version {version}" in warning
    assert json.loads(Path(cache).read_text())["version"] == cli.SCHEMA_VERSION == 7


def _damage_plans(doc, damage):
    if damage == "no_plans":
        doc["plans"] = []
    elif damage == "first_3_plans":
        del doc["plans"][3:]
    elif damage == "no_phases":
        doc["plans"][-1]["phases"] = []
    else:  # "reversed_boundaries"
        doc["plans"][-1]["boundaries"].reverse()


@pytest.mark.parametrize("damage", ["no_plans", "first_3_plans", "no_phases",
                                    "reversed_boundaries"])
def test_cache_damaged_plans_are_rebuilt(cache, capfd, damage):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    _damage_plans(doc, damage)
    with pytest.raises(DomainError):
        doc_to_table(doc)
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert "DomainError" in warning


def _bend_plans(plans, edit):
    if edit == "late_start":  # coverage would start at 0.009, not band 8's 0.00851
        plans[-1]["boundaries"][0] = "0.009"
    elif edit == "early_start":  # band 8's first segment would reach into band 9
        plans[-1]["boundaries"][0] = "0.0085"
    elif edit == "low_level":
        plans[-1]["q_k_pi"] = "0.5"
    elif edit == "level_above_minimum":
        plans[-1]["q_k_pi"] = "0.999"
    elif edit == "phase_above_pi":
        plans[-1]["phases"][0] = "4.0"
    elif edit == "zero_residual":  # verify would report band 2's 3.2e-11 as 0
        plans[1]["level_residual"] = "0.0"
    elif edit == "large_residual":  # verify would fail a sound table with exit 5
        plans[-1]["level_residual"] = "0.5"
    elif edit == "moved_band":  # the band no longer spans the plan's boundaries
        plans[-1]["band"][0] = "0.009"
    else:  # "dipping_phase": band 1's first segment then dips below 0.90
        plans[0]["phases"][0] = repr(float(plans[0]["phases"][0]) - 0.3)


@pytest.mark.parametrize("edit,message", [("late_start", "boundaries span"),
                                          ("early_start", "boundaries span"),
                                          ("low_level", "stored q_k_pi 0.5 "),
                                          ("level_above_minimum", "stored q_k_pi 0.999 "),
                                          ("phase_above_pi", "phi must be in"),
                                          ("zero_residual", "stored level_residual 0.0 "),
                                          ("large_residual", "stored level_residual 0.5 "),
                                          ("moved_band", "stored band"),
                                          ("dipping_phase", "dips")])
def test_cache_uncertified_plan_is_rebuilt(cache, capfd, edit, message):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    _bend_plans(doc["plans"], edit)
    with pytest.raises(DomainError, match=message):
        doc_to_table(doc)
    # 0.0086 lies in band 8 below 0.009: served from the damaged cache it was
    # "below table coverage" (exit 3), and a low level was served as guaranteed_p
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc), lam="0.0086")
    assert "DomainError" in warning


# Damaged caches that parse, each a miss: make_plan holds each phase to
# (phi_min(k), pi], p_cri to (0, 1) and NaN out of the boundaries, and derives
# the level.  Each comment says what trusting that cache would do.
def _unsound_cache(doc, case):
    plans = doc["plans"]
    if case == "band1_pi":  # the kernel's P(1, pi, 1.0) is 0/0: ZeroDivisionError
        bounds = plans[0]["boundaries"]
        plans[0].update(n_k=1, phases=[repr(math.pi)], boundaries=[bounds[0], bounds[-1]])
    elif case == "tiny_phase":  # peak(3, 1e-300) overflows: OverflowError
        plans[2]["phases"][0] = "1e-300"
    elif case == "nan_level":  # served as "guaranteed_p": "nan"
        plans[0]["q_k_pi"] = "nan"
    elif case == "nan_boundary":  # with its residual: phi 1.465 served at 0.3, P 0.850
        plans[0]["boundaries"][1] = "nan"
        plan = PhasePlan(1, 0.90, tuple(float(x) for x in plans[0]["phases"]),
                         tuple(float(x) for x in plans[0]["boundaries"]), None, None)
        plans[0]["level_residual"] = repr(_check_guarantee(plan, SolverConfig())[-1])
    elif case == "nan_pcri":  # loaded, then rebuilt as another setting with no warning
        doc["p_cri"] = "nan"
    elif case == "huge_pcri":  # float(10**400): OverflowError
        doc["p_cri"] = 10**400
    elif case == "huge_phase":  # float(10**400): OverflowError
        plans[1]["phases"][0] = 10**400
    else:  # "infinite_max_nk": int(inf) raises OverflowError
        doc["tolerances"]["max_nk"] = math.inf


@pytest.mark.parametrize("case", ["band1_pi", "tiny_phase", "nan_level", "nan_boundary",
                                  "nan_pcri", "huge_pcri", "huge_phase", "infinite_max_nk"])
def test_cache_unsound_plan_is_a_miss(cache, capfd, case):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    _unsound_cache(doc, case)
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc), lam="0.3")
    assert "Error" in warning


# What load_or_build_table catches: anything else would end in a traceback.
CACHE_MISS = (OSError, CmqsearchError, ValueError, LookupError, TypeError, AttributeError)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, path + (key,))]


_float_strings = st.sampled_from(["nan", "inf", "-0.0", "1e-300", "3.141592653589793"]) \
    | st.floats().map(repr)
# Integers past 2**1024 are JSON numbers that no float holds.
_leaf_values = _float_strings | st.integers(-2**64, 2**64) | st.floats() | st.none() \
    | st.integers(2**1024, 10**400) | st.integers(-10**400, -2**1024) \
    | st.lists(st.floats(), max_size=2) | st.dictionaries(st.text(max_size=3), st.floats(),
                                                          max_size=2)


# One to three leaves of the headline cache replaced: the document is either
# not a table, with an error the loader catches, or it is a sound one.
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_damaged_cache_is_a_miss_or_sound(table90, data):
    doc = cli.table_to_doc(table90)
    paths = data.draw(st.lists(st.sampled_from(_leaf_paths(doc)), min_size=1, max_size=3,
                               unique=True))
    for path in paths:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(_leaf_values)
    try:
        table = doc_to_table(doc)
    except CACHE_MISS:
        return
    floor = table.p_cri - table.cfg.level_tol
    for plan in table.plans:
        bounds = plan.boundaries
        assert all(math.isfinite(b) for b in bounds)
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
        assert math.isfinite(plan.q_k_pi) and plan.q_k_pi >= table.p_cri
        for phi, lo, hi in zip(plan.phases, bounds, bounds[1:]):
            assert p_success(plan.k, phi, lo) >= floor
            if hi < 1.0:
                assert p_success(plan.k, phi, hi) >= floor


def test_solver_flags_round_trip_through_the_cache(cache, capfd, monkeypatch):
    flags = {"lambda_tol": 1e-11, "phase_tol": 2e-12, "level_tol": 1e-8, "max_nk": 32}
    argv = [f"--{name.replace('_', '-')}={value!r}" for name, value in flags.items()]
    assert main(["table", "--cache", cache, *argv]) == 0
    doc = json.loads(Path(cache).read_text())
    assert doc["tolerances"] == {"lambda_tol": "1e-11", "phase_tol": "2e-12",
                                 "level_tol": "1e-08", "max_nk": 32}
    assert doc_to_table(doc).cfg == SolverConfig(**flags)
    # the same flags find the cached table instead of building another
    monkeypatch.setattr(cli.planner, "build_table", None)
    assert main(["plan", "--lambda", "0.01", "--cache", cache, *argv]) == 0
    capfd.readouterr()


def test_unreadable_cache_path_is_an_error_line(tmp_path):
    # a directory as the cache: reading it fails (a miss), then so does the write
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "cmqsearch.cli", "plan", "--lambda", "0.01",
                           "--cache", str(cache_dir)],
                          cwd=src, capture_output=True, text=True)
    assert proc.returncode == 1
    assert len([line for line in proc.stderr.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_cache_mode_follows_umask(cache, capfd, umask):
    # a cache shared through CMQSEARCH_CACHE is readable as any other file the
    # user writes, not 0600
    old = os.umask(umask)
    try:
        assert main(["table", "--cache", cache]) == 0
    finally:
        os.umask(old)
    capfd.readouterr()
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o666 & ~umask


def test_failed_cache_write_leaves_no_temp_file(tmp_path, capfd):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    code, _, err = run(["table", "--cache", str(cache_dir)], capfd)
    assert code == 1
    assert "cannot write plan table" in err
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------- formats

def test_table_csv_header(cache, capfd):
    code, out, _ = run(["table", "--format", "csv", "--cache", cache], capfd)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,band_lo,band_hi,n_k,phases,q_k_pi"
    assert len(lines) == 9  # header + 8 bands


def test_sweep_csv(cache, capfd):
    code, out, _ = run(["sweep", "--grid", "50", "--algorithms", "ours,grover,long",
                        "--cache", cache], capfd)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,algorithm,k,p"
    assert len(lines) == 1 + 50 * 3
    for line in lines[1:]:
        lam, alg, k, p = line.split(",")
        float(lam), int(k)
        if alg == "ours":
            assert float(p) >= 0.90 - 1e-9


def test_sweep_rejects_unknown_algorithm(cache, capfd):
    code, _, err = run(["sweep", "--algorithms", "nope", "--cache", cache], capfd)
    assert code == 1
    assert "unknown algorithms" in err


def test_compare_record(cache, capfd):
    code, out, _ = run(["compare", "--lambda", "0.01", "--pcri", "0.9925",
                        "--cache", cache], capfd)
    assert code == 0
    rec = json.loads(out)
    assert rec["k_ours"] == 8 and rec["k_yoder_lb"] == 16
    assert float(rec["yoder_ratio"]) == pytest.approx(2.0, abs=0.15)


@pytest.mark.parametrize("command", [["compare", "--lambda", "0.5"],
                                     ["sweep", "--algorithms", "fixed", "--grid", "3"]])
# At phi = 2.2e-308 the count k is finite, but 2k + 1 is past the largest float.
@pytest.mark.parametrize("phi", ["5e-324", "1e-310", "2.2e-308"])
def test_phi_with_no_finite_fixed_count_is_one_error_line(cache, capfd, command, phi):
    # a failing sweep row fails at grid point 0, before the CSV header is written
    code, out, err = run([*command, "--phi", phi, "--cache", cache], capfd)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no finite fixed-phase count" in err


# ------------------------------------------------------------------ environment

def test_cli_import_leaves_numpy_out(tmp_path):
    # run from the package's parent directory so the tree under test is imported,
    # under -S so that no site hook preloads modules; no command may load numpy,
    # or dataclasses and the inspect and typing modules it pulls in, and only
    # verify may load the simulator
    src = Path(cli.__file__).resolve().parents[1]
    cache = ["--cache", str(tmp_path / "plans.json")]
    commands = [
        ["table", *cache],
        ["plan", "--lambda", "0.02", *cache],
        ["compare", "--lambda", "0.02", *cache],
        ["sweep", "--grid", "50", "--algorithms", "ours,grover,fixed,long,yoder_bound", *cache],
        ["verify", *cache],
    ]
    code = ("import contextlib, io, sys, cmqsearch.cli\n"
            "def loaded(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cmqsearch.cli.main(argv) == 0\n"
            "    return sorted(m for m in ('numpy', 'cmqsearch.simulator', 'dataclasses',\n"
            "                              'inspect', 'typing') if m in sys.modules)\n"
            f"print(*[loaded(argv) for argv in {commands!r}])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=src, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[] [] [] [] ['cmqsearch.simulator']"


def test_cache_env_override(tmp_path, capfd, monkeypatch):
    target = tmp_path / "env-cache.json"
    monkeypatch.setenv("CMQSEARCH_CACHE", str(target))
    assert main(["table"]) == 0
    capfd.readouterr()
    assert target.exists()


def test_plan_requires_exactly_one_selector(cache, capfd):
    code, _, err = run(["plan", "--cache", cache], capfd)
    assert code == 1
    assert "exactly one" in err
