"""Command-line surface: determinism, caching, exit codes, output formats."""

import ast
import errno
import hashlib
import inspect
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmqsearch import cli, simulator
from cmqsearch.analytic import TargetFraction, iterations_for
from cmqsearch.cli import doc_to_table, main, serialize_table
from cmqsearch.errors import CmqsearchError, DomainError, VerificationError
from cmqsearch.kernels import p_success
from cmqsearch.optimizer import _check_guarantee, make_plan, march_level
from cmqsearch.planner import build_table, plan_for
from cmqsearch.simulator import MAX_QUBITS, statevector_run


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
# plans' own sha256 is pinned apart: it last moved with schema version 10,
# whose format writes each float as a JSON number, not a repr string.  The
# document's moved again with schema 11, which drops the phase cap "max_nk":
# the format moved, not the plans, whose every float is the one schema 9 held.
@pytest.mark.parametrize("p_cri,lambda0,size,digest,plans_digest", [
    pytest.param(0.90, 1e-2, 2890,
                 "3c214bcef20ddf52ee7204628ef01f07851fa2d1c7d6ca7ceae7134208c8eb35",
                 "1b3aec7aa8bcf1c2386b886ea61b70dbe41c2b3b2ffa118fd1ebbfc51a511f7f",
                 id="0.9-0.01"),
    pytest.param(0.99, 1e-3, 9463,
                 "fd5098a550c79c2e01d97252d707eea004b84b6df776f194b380f7ff567dfebf",
                 "971a6903b29b5ffc5687fe3ee2cf20c267f1afc4b626e4109d05da0a3db72cc6",
                 id="0.99-0.001"),
])
def test_cache_bytes_pinned(p_cri, lambda0, size, digest, plans_digest):
    table = build_table(p_cri, lambda0)
    data = serialize_table(table).encode()
    assert cli.SCHEMA_VERSION == 11
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
        assert row == f"{lam!r},ours,{k},{p_success(k, phi, lam)!r}"


# sha256 of `sweep --grid 1000` over all five algorithms, pinned from the sweep
# that wrote one grid point per write, so that writing in blocks moves no byte.
@pytest.mark.parametrize("p_cri,lambda0,digest", [
    pytest.param("0.90", "1e-2",
                 "a721179f6e707d2b7fefffba8afee2e37938ca2c9ef305533298764a507bcd12",
                 id="0.9-0.01"),
    pytest.param("0.99", "1e-3",
                 "2ce0b18cfca4973664be585f9f07e3601eb31e64522e83604dc19f3cf102c28b",
                 id="0.99-0.001"),
])
def test_sweep_bytes_pinned(cache, capfd, p_cri, lambda0, digest):
    code, out, err = run(["sweep", "--grid", "1000", "--algorithms",
                          "ours,grover,fixed,long,yoder_bound", "--pcri", p_cri,
                          "--lambda0", lambda0, "--cache", cache], capfd)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_writes_in_blocks(cache, monkeypatch):
    # the header and grid point 0's rows in the first write, then one write per
    # 1,024 points, and the rest at the end
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["sweep", "--grid", "2050", "--algorithms", "grover", "--cache", cache]) == 0
    assert [text.count("\n") for text in writes] == [2, 1024, 1024, 1]


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


def _entry(script: bool) -> list[str]:
    """Interpreter arguments that start the CLI: ``-m cmqsearch.cli``, or the installed
    ``cmqsearch`` command's target, called as the wrapper that pip writes calls it."""
    if not script:
        return ["-m", "cmqsearch.cli"]
    # read without tomllib, which Python 3.10 lacks
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^cmqsearch = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


@pytest.mark.parametrize("script,argv", [
    pytest.param(False, ["plan", "--lambda", "0.02"], id="plan"),
    pytest.param(False, ["compare", "--lambda", "0.02"], id="compare"),
    pytest.param(False, ["table"], id="table"),
    pytest.param(False, ["verify"], id="verify"),
    pytest.param(False, ["sweep", "--grid", "20000"], id="sweep"),
    pytest.param(False, ["plan", "--help"], id="plan-help"),
    pytest.param(True, ["plan", "--lambda", "0.02"], id="script-plan"),
])
def test_closed_stdout_is_not_a_traceback(tmp_path, script, argv):
    # stdout is a pipe whose reader has gone before the start, and it is buffered:
    # the sweep's writes fail on the way, the others' output fits in the buffer
    # and first meets the closed pipe at the flush on the way out
    src = Path(cli.__file__).resolve().parents[1]
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = subprocess.run([sys.executable, *_entry(script), *argv,
                               "--cache", str(tmp_path / "plans.json")],
                              cwd=src, env=env, stdout=write_fd, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (1, b"")


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
    # the seed is verify's own flag, checked by verify (test_negative_seed_is_a_domain_error)
    with pytest.raises(TypeError):
        cli.RunConfig(seed=-2)
    cfg = cli.RunConfig()
    assert cfg == (0.9, 1e-2, 64, "cmqsearch-plans.json")
    for name in ("p_cri", "max_nk", "extra"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 0.5)
    assert cfg == cli.RunConfig() and hash(cfg) == hash(cli.RunConfig())


@pytest.mark.parametrize("argv", [
    ["plan", "--lambda", "abc"],
    ["plan", "--max-nk", "x"],
    ["plan", "--lambda", "0.2", "--bogus"],
    ["plan", "--format", "xml", "--lambda", "0.2"],
    ["nosuch"],
    # the bracket widths that schema 8 dropped: each 1-D solve runs to float resolution
    ["table", "--lambda-tol", "1e-12"],
    ["table", "--phase-tol", "1e-12"],
    # the level search's stop, a constant since schema 9
    ["table", "--level-tol", "nan"],
    ["table", "--level-tol", "inf"],
    # a command takes only the flags it reads: --seed is verify's, and --format is
    # read by table, plan and compare
    ["table", "--seed", "1"],
    ["plan", "--seed", "1", "--lambda", "0.3"],
    ["sweep", "--seed", "1"],
    ["compare", "--lambda", "0.3", "--seed", "1"],
    ["sweep", "--format", "csv"],
    ["verify", "--format", "csv"],
])
def test_usage_error_exits_1(cache, capfd, argv):
    # exit 2 is reserved for a range query that straddles two segments
    code, out, err = run([*argv, "--cache", cache], capfd)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err and not Path(cache).exists()
    code, _, err = run(["plan", "--range", "0.2..0.3", "--cache", cache], capfd)
    assert code == 2
    assert "straddles" in err


# Each command checks every value it reads before any cache read, in one order:
# compare checks lambda, then phi; sweep checks the grid, the algorithms, phi,
# then that 1/lambda0 is finite; plan checks the range's form, exactly one of
# --lambda and --range, lambda, then the range.  RunConfig's checks come first.
# The two cases after the range's form each hold two bad values.
_PHI_MESSAGE = "phi must be in (0, pi], got {}"
_COMPARE, _SWEEP = ["compare", "--lambda", "0.3"], ["sweep", "--grid", "2", "--algorithms", "fixed"]
_SUBNORMAL_SWEEP = ["sweep", "--grid", "3", "--lambda0", "3e-309", "--algorithms", "grover"]


@pytest.mark.parametrize("argv,code,error,cached", [
    *[([*command, "--phi", phi], 1, _PHI_MESSAGE.format(shown), cached)
      for command, cached in ((_COMPARE, False), (_SWEEP, False))
      for phi, shown in (("0", "0.0"), ("-0.0", "-0.0"), ("nan", "nan"), ("inf", "inf"),
                         ("4", "4.0"), (repr(math.nextafter(math.pi, 4.0)),) * 2)],
    ([*_COMPARE, "--phi", repr(math.pi)], 0, None, True),
    ([*_SWEEP, "--phi", repr(math.pi)], 0, None, False),
    (["plan"], 1, "provide exactly one of an exact lambda or a range", False),
    (["plan", "--lambda", "0.3", "--range", "0.2..0.4"], 1,
     "provide exactly one of an exact lambda or a range", False),
    (["plan", "--lambda", "0"], 1, "lambda must be in (0, 1), got 0.0", False),
    (["plan", "--lambda", "1"], 1, "lambda must be in (0, 1), got 1.0", False),
    (["plan", "--lambda", "nan"], 1, "lambda must be in (0, 1), got nan", False),
    (["plan", "--range", "0.4..0.2"], 1, "need 0 < lo < hi <= 1, got [0.4, 0.2)", False),
    (["plan", "--range", "0.3..0.3"], 1, "need 0 < lo < hi <= 1, got [0.3, 0.3)", False),
    (["plan", "--range", "0.5..1.5"], 1, "need 0 < lo < hi <= 1, got [0.5, 1.5)", False),
    (["plan", "--range", "nan..0.3"], 1, "need 0 < lo < hi <= 1, got [nan, 0.3)", False),
    (["plan", "--range", "0.3-0.4"], 1, "range must look like LO..HI, got '0.3-0.4'", False),
    (["plan", "--pcri", "2", "--lambda", "2"], 1, "p_cri must be in (0, 1), got 2.0", False),
    (["compare", "--lambda", "2", "--phi", "4"], 1, "lambda must be in (0, 1), got 2.0", False),
    # below about 5.6e-309 the grid's ratio overflows: the sweep writes no row
    (_SUBNORMAL_SWEEP, 1, "lambda0=3e-309 is too small to sweep: 1/lambda0 overflows", False),
    (["sweep", "--grid", "3", "--lambda0", "3e-309"], 1,
     "lambda0=3e-309 is too small to sweep: 1/lambda0 overflows", False),
])
def test_user_values_are_checked_where_they_enter(cache, capfd, argv, code, error, cached):
    got, out, err = run([*argv, "--cache", cache], capfd)
    assert got == code
    if error is None:
        assert out and err == ""
    else:
        assert (out, err) == ("", f"error: {error}\n")
    assert Path(cache).exists() == cached


# Exit-1 command lines, value errors and usage errors; but for "nosuch", each
# names a command that reads or writes the cache when its values are sound.
# ours is sweep's default algorithm, and sweep checks --phi without fixed too.
_REJECTED = [
    ["compare", "--lambda", "2"],
    ["compare", "--lambda", "0.3", "--phi", "4"],
    ["compare", "--lambda", "2", "--phi", "4"],
    ["compare", "--lambda", "0.3", "--pcri", "0"],
    ["sweep", "--algorithms", "ours,fixed", "--phi", "4"],
    ["sweep", "--phi", "4"],
    ["sweep", "--grid", "1"],
    ["sweep", "--algorithms", "ours,nope"],
    ["sweep", "--algorithms", "ours,ours"],
    ["sweep", "--grid", "3", "--lambda0", "3e-309"],
    _SUBNORMAL_SWEEP,
    ["verify", "--seed", "-1"],
    ["plan"],
    ["plan", "--lambda", "0"],
    ["plan", "--range", "0.4..0.2"],
    ["plan", "--range", "0.3-0.4"],
    ["plan", "--pcri", "2", "--lambda", "0.3"],
    ["table", "--lambda0", "1"],
    ["plan", "--lambda", "abc"],
    ["table", "--level-tol", "1e-9"],
    ["sweep", "--format", "csv"],
    ["compare", "--lambda", "0.3", "--seed", "1"],
    # a lambda0 past K_MAX, and a fixed phase with no finite count at the
    # command's smallest lambda, are found before the cache is read
    ["plan", "--lambda", "0.3", "--lambda0", "1e-13"],
    ["compare", "--lambda", "0.3", "--lambda0", "1e-13"],
    ["sweep", "--lambda0", "1e-13"],
    ["compare", "--lambda", "0.5", "--phi", "5e-324"],
    ["sweep", "--algorithms", "ours,fixed", "--phi", "1e-310", "--grid", "3"],
    ["nosuch"],
]


@pytest.fixture(scope="module")
def damaged_headline() -> str:
    """The headline cache with a key in band 1 that ``table_to_doc`` does not
    write, so that a command that reads it warns, and rebuilds and rewrites it."""
    doc = cli.table_to_doc(build_table(0.90, 1e-2))
    doc["plans"][0]["solver"] = "illinois"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_damaged_headline_is_a_miss(cache, capfd, damaged_headline):
    # the control for the next test: an accepted command reads the damaged cache
    Path(cache).write_text(damaged_headline)
    code, _, err = run(["plan", "--lambda", "0.3", "--cache", cache], capfd)
    assert code == 0 and err.startswith("warning: rebuilding unreadable plan cache ")
    assert Path(cache).read_text() == serialize_table(build_table(0.90, 1e-2))


@pytest.mark.parametrize("argv", _REJECTED, ids=" ".join)
def test_rejected_command_line_leaves_the_cache_alone(cache, capfd, damaged_headline, argv):
    # a command checks every value it reads before it reads, builds or writes the
    # cache, so a rejected command line neither warns about it nor rewrites it
    Path(cache).write_text(damaged_headline)
    code, out, err = run([*argv, "--cache", cache], capfd)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert Path(cache).read_text() == damaged_headline


def test_tiny_lambda0_names_lambda_and_cap(cache, capfd):
    code, out, err = run(["table", "--lambda0", "1e-300", "--cache", cache], capfd)
    assert (code, out) == (1, "")
    assert err == "error: lambda=1e-300 needs more than K_MAX=1000000 iterations\n"


@pytest.mark.parametrize("argv", [["plan", "--lambda", "0.3"], ["compare", "--lambda", "0.3"],
                                  ["sweep", "--algorithms", "ours"], ["verify"]], ids=" ".join)
def test_lambda0_past_k_max_is_an_error_before_the_cache_is_read(cache, capfd,
                                                                 damaged_headline, argv):
    # the damaged cache would warn were it read; only a table read needs k(lambda0)
    Path(cache).write_text(damaged_headline)
    code, out, err = run([*argv, "--lambda0", "1e-13", "--cache", cache], capfd)
    assert code == 1
    assert err == "error: lambda=1e-13 needs more than K_MAX=1000000 iterations\n"
    assert (out == "") == (argv != ["verify"])
    assert Path(cache).read_text() == damaged_headline
    # a sweep that reads no table takes that lambda0
    code, out, err = run(["sweep", "--lambda0", "1e-13", "--algorithms", "grover",
                          "--grid", "3", "--cache", cache], capfd)
    assert (code, len(out.splitlines()), err) == (0, 4, "")


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
               for command, (_, flags, _) in cli._flag_table().items()}


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
    # RunConfig holds what names and locates a table, and each command takes the
    # dest of every other flag that it has as a keyword, so the flag table and the
    # command's signature cannot disagree without failing every call
    monkeypatch.delenv("CMQSEARCH_CACHE", raising=False)
    assert cli.RunConfig._fields == ("p_cri", "lambda0", "max_nk", "cache")
    required = ["--lambda", "0.5"] if command == "compare" else []  # compare's one required flag
    args = cli._parse([command, *required])
    assert {name: args[name] for name in cli.RunConfig._fields} == cli.RunConfig._field_defaults
    first, *own = inspect.signature(cli._flag_table()[command][2]).parameters
    assert first == "cfg"
    assert sorted(own) == sorted(args.keys() - {"command", *cli.RunConfig._fields})


def test_main_names_no_command():
    # the flag table is the one list of commands, each with the flags it reads
    # and the function that runs it; main looks the command up there
    tree = ast.parse(inspect.getsource(cli.main))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not strings & set(cli._flag_table())
    assert sum(len(flags) for _, flags, _ in cli._flag_table().values()) == 31


# No deadline: an example's time is mostly argparse's and the VM's, and a slow
# one failed this property under the default 200 ms deadline.
@settings(max_examples=150, deadline=None)
@given(argv=_valid_argv())
def test_fast_parse_agrees_with_argparse(argparser, argv):
    args = cli._parse(argv)
    assert args is not None
    assert args == vars(argparser.parse_args(argv))


_TOKENS = sorted({flag for _, flags, _ in cli._flag_table().values() for flag in flags}
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
    if argv == ["plan", "--seed", "-1"]:  # --seed is verify's alone: both paths reject it
        assert args is None
        with pytest.raises(DomainError, match="^unrecognized arguments: --seed -1$"):
            argparser.parse_args(argv)


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


def _plan_points(table) -> list[tuple[int, int, int, float]]:
    """(n, M, k, phi) of each segment's oracle point, by brute force: the first
    dyadic lambda = M/2^n in the segment on the smallest register n <= MAX_QUBITS that
    has one."""
    points = []
    for plan in table.plans:
        for phi, lo, hi in zip(plan.phases, plan.boundaries, plan.boundaries[1:]):
            for n in range(1, MAX_QUBITS + 1):
                inside = [m for m in range(1, 1 << n) if lo <= m / (1 << n) < hi]
                if inside:
                    points.append((n, inside[0], plan.k, phi))
                    break
    return points


def _oracle_line(line: str) -> tuple[float, float, str]:
    match = re.fullmatch(r"oracle_equivalence: PASS \(max \|statevector - kernel\| (\S+) "
                         r"< 1e-10, min P - p_cri (\S+) >= -1e-10, (\d+/\d+) segments "
                         r"reached\)", line)
    assert match, line
    return float(match[1]), float(match[2]), match[3]


def test_verify_passes_at_high_pcri_with_margins(cache, capfd):
    code, out, _ = run(["verify", "--pcri", "0.9999", "--lambda0", "1e-2", "--cache", cache],
                       capfd)
    assert code == 0
    lines = out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "oracle_equivalence", "equal_level", "monotonicity", "long_certainty"]
    assert all(line.split(": ")[1].startswith("PASS (") for line in lines)
    err, margin, segments = _oracle_line(lines[0])
    assert err < 1e-12 and margin > 0.0 and segments == "150/181"
    match = re.fullmatch(r"equal_level: PASS \(max residual (\S+) < (\S+)\)", lines[1])
    assert match, lines[1]
    assert float(match[2]) == 1e-8
    assert float(match[1]) <= 1e-9  # LEVEL_TOL, well inside the suite's limit


def _band1_remarched(table):
    """The table with band 1 re-marched, with its own n_k, from 1e-6 rad below its
    first phase: at (0.99, 1e-3) a certified plan at level 0.99268 whose equal-level
    residual, 3.4e-7, is far above the limit 10 * LEVEL_TOL."""
    plan = table.plan(1)
    _, phases, bounds, _ = march_level(1, plan.phases[0] - 1e-6, plan.n_k)
    return table._replace(plans=(make_plan(1, table.p_cri, phases, bounds), *table.plans[1:]))


@pytest.mark.parametrize("flags,cache_name,edit,exit_code,error", [
    (["--max-nk", "1"], "plans.json", None, 4,
     "error: p_cri=0.9 not reachable on band 1 within max_nk=1"),
    (["--pcri", "0.99998"], "plans.json", None, 4,
     "error: p_cri=0.99998 not reachable on band 1 within max_nk=64"),
    ([], "missing/plans.json", None, 1, "error: cannot write plan table to "),
    # the negative control: a sound table served with one band off the equal level
    (["--pcri", "0.99", "--lambda0", "1e-3"], "plans.json", _band1_remarched, 5,
     "error: max residual "),
], ids=["max_nk", "over_cap", "missing_dir", "level_tol"])
def test_verify_exits_with_the_failing_suites_code(tmp_path, capfd, monkeypatch, flags,
                                                   cache_name, edit, exit_code, error):
    # every suite prints its line; then verify exits as the first failing suite's
    # own error would, so a table that cannot be built or written is not exit 5.
    # The oracle and equal-level suites share one table load, and its failure.
    if edit:
        load = cli.load_or_build_table
        monkeypatch.setattr(cli, "load_or_build_table", lambda cfg: edit(load(cfg)))
    code, out, err = run(["verify", *flags, "--cache", str(tmp_path / cache_name)], capfd)
    assert code == exit_code
    lines = out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "oracle_equivalence", "equal_level", "monotonicity", "long_certainty"]
    assert lines[1].startswith("equal_level: FAIL (")
    # the table-free suites pass; at max_nk 1, monotonicity compares Q(k, 1) alone
    assert [line.split(" (")[0] for line in lines[2:]] == [
        "monotonicity: PASS", "long_certainty: PASS"]
    assert err.count("\n") == 1 and err.startswith(error)
    if exit_code == 5:
        assert _oracle_line(lines[0])[2] == "28/38"
    else:
        assert lines[0] == f"oracle_equivalence: FAIL ({err[len('error: '):-1]})"


@pytest.mark.parametrize("max_nk,p_cri", [(1, 0.5), (2, 0.8)])
def test_verify_passes_under_a_phase_cap_below_3(cache, capfd, max_nk, p_cri):
    # a table that builds within the cap passes every suite: monotonicity compares
    # Q(k, n) only at the phase counts n <= max_nk, not at n = 3 whatever the cap
    code, out, err = run(["verify", "--max-nk", str(max_nk), "--pcri", str(p_cri),
                          "--cache", cache], capfd)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        "oracle_equivalence: PASS", "equal_level: PASS", "monotonicity: PASS",
        "long_certainty: PASS"]
    assert re.fullmatch(r"monotonicity: PASS \(min Q\(k, n\) - Q\(k, n-1\) \S+ > 1e-06\)",
                        lines[2])


@pytest.mark.parametrize("which", [[0], [-1], [-1, 0]], ids=["first", "last", "both"])
def test_verify_fails_on_a_plan_point_mismatch(monkeypatch, cache, capfd, table90, which):
    # the oracle suite's negative control: a kernel off by 1e-9 at a plan point fails
    # it with exit 5, naming that point (with two off, the first in the suite's order);
    # the same run on the kernel passes
    points = _plan_points(table90)
    off = {(k, phi, m / (1 << n)) for n, m, k, phi in (points[i] for i in which)}
    monkeypatch.setattr(simulator, "p_success", lambda k, phi, lam: p_success(k, phi, lam)
                        + (1e-9 if (k, phi, lam) in off else 0.0))
    n, m, k, phi = points[which[-1]]
    code, out, err = run(["verify", "--cache", cache], capfd)
    assert code == 5
    lines = out.splitlines()
    reason = re.fullmatch(r"oracle_equivalence: FAIL \((.*)\)", lines[0])[1]
    assert re.fullmatch(rf"oracle mismatch at n={n} M={m} k={k} phi={phi}: "
                        r"\|\S+ - \S+\| >= 1e-10", reason)
    assert [line.split(" (")[0] for line in lines[1:]] == [
        "equal_level: PASS", "monotonicity: PASS", "long_certainty: PASS"]
    assert err == f"error: {reason}\n"
    monkeypatch.undo()
    code, out, _ = run(["verify", "--cache", cache], capfd)
    assert code == 0 and _oracle_line(out.splitlines()[0])[2] == "10/10"


def test_verify_fails_on_a_plan_below_pcri(capfd, table90):
    # a table the loader would reject, fed past it: one phase nudged until the
    # statevector's P at its segment's plan point falls below P_cri
    n, m, k, phi = _plan_points(table90)[0]
    while statevector_run(n, m, k, phi) >= table90.p_cri:
        phi -= 0.01
    plans = list(table90.plans)
    plan = plans[k - 1]
    plans[k - 1] = plan._replace(phases=(phi,) + plan.phases[1:])
    assert plan.phases[0] - phi < 0.5
    with pytest.raises(VerificationError) as exc:
        simulator.verify(cli.RunConfig(), 0, lambda cfg: table90._replace(plans=tuple(plans)))
    got = statevector_run(n, m, k, phi)
    reason = (f"P at n={n} M={m} k={k} phi={phi} is {got}: "
              f"P - p_cri {got - table90.p_cri:.1e} < -1e-10")
    assert str(exc.value) == reason
    lines = capfd.readouterr().out.splitlines()
    assert lines[0] == f"oracle_equivalence: FAIL ({reason})"
    assert [line.split(" (")[0] for line in lines[1:]] == [
        "equal_level: PASS", "monotonicity: PASS", "long_certainty: PASS"]


def _suite_lines(out: str) -> list[str]:
    return [line.split(" (")[0] for line in out.splitlines()]


def test_verify_fails_on_a_level_that_does_not_rise(monkeypatch, cache, capfd):
    # the monotonicity suite's negative control: a level search whose level does
    # not rise with n fails it with exit 5; the table is cached first, so that no
    # build runs the faulty search
    assert main(["table", "--cache", cache]) == 0
    capfd.readouterr()
    monkeypatch.setattr(simulator.optimizer, "largest_min_success",
                        lambda k, n_k, max_nk: (0.9, [], []))
    code, out, err = run(["verify", "--cache", cache], capfd)
    reason = "Q(1, n=2)=0.9 not above Q(1, n=1)=0.9"
    assert (code, err) == (5, f"error: {reason}\n")
    assert out.splitlines()[2] == f"monotonicity: FAIL ({reason})"
    assert _suite_lines(out) == ["oracle_equivalence: PASS", "equal_level: PASS",
                                 "monotonicity: FAIL", "long_certainty: PASS"]


def test_verify_fails_on_an_inexact_long_search(monkeypatch, cache, capfd):
    # the long_certainty suite's negative control: an exact-search run that gives
    # P = 0.5 fails it with exit 5, at the first register that the seed draws
    monkeypatch.setattr(simulator, "run_long_exact", lambda n, m: 0.5)
    rng = random.Random(0)
    n = rng.randrange(2, MAX_QUBITS + 1)
    m = rng.randrange(1, 1 << n)
    code, out, err = run(["verify", "--cache", cache], capfd)
    reason = f"exact-search run at n={n} M={m} gave |P - 1| = 0.5"
    assert (code, err) == (5, f"error: {reason}\n")
    assert out.splitlines()[3] == f"long_certainty: FAIL ({reason})"
    assert _suite_lines(out) == ["oracle_equivalence: PASS", "equal_level: PASS",
                                 "monotonicity: PASS", "long_certainty: FAIL"]


def _as_main(tmp_path, argv: list[str], report: str) -> str:
    """Run the CLI as ``python -m`` does, as ``__main__``, in a ``-S`` subprocess
    started from the package's parent directory; print the exit code and the
    expression ``report``, evaluated once the command is done.  ``report`` may
    read ``frozen``, the freeze count taken before the CLI runs."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import contextlib, gc, io, runpy, sys\n"
            f"sys.argv = ['cmqsearch', *{argv!r}, '--cache', {str(tmp_path / 'plans.json')!r}]\n"
            "frozen = gc.get_freeze_count()\n"
            "try:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        runpy.run_module('cmqsearch.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            f"    print(exc.code, {report})\n")
    return subprocess.run([sys.executable, "-S", "-c", code], cwd=src, capture_output=True,
                          text=True, check=True).stdout


def test_verify_as_main_loads_no_second_cli_module(tmp_path):
    # under python -m the CLI runs as __main__; were the suites' module to import
    # cmqsearch.cli, the CLI's source would compile and run a second time
    report = "sorted(m for m in ('cmqsearch.cli', 'cmqsearch.simulator') if m in sys.modules)"
    assert _as_main(tmp_path, ["verify"], report) == "0 ['cmqsearch.simulator']\n"


# -------------------------------------------------------------------- phase cap

# At (0.99, 1e-3) the table's largest n_k is 5, on band 1.
_STRESS = ["--pcri", "0.99", "--lambda0", "1e-3"]
_CACHED_QUERIES = [["plan", "--lambda", "0.002"], ["compare", "--lambda", "0.002"],
                   ["sweep", "--grid", "50", "--algorithms", "ours,grover,fixed,long,yoder_bound"],
                   ["verify"]]


@pytest.mark.parametrize("cap", ["5", "6", "64", "200"])
def test_cache_is_served_to_every_cap_that_its_plans_fit(cache, capfd, monkeypatch, cap):
    # the cap limits a run, not a table: a cache written at the default cap is
    # served, with no write, to a run under any cap at or above its largest n_k,
    # and each command prints what it prints at the default cap
    assert main(["table", *_STRESS, "--cache", cache]) == 0
    capfd.readouterr()
    text = Path(cache).read_text()
    want = [run([*argv, *_STRESS, "--cache", cache], capfd) for argv in _CACHED_QUERIES]
    writes = []
    monkeypatch.setattr(cli, "write_table", lambda text, path: writes.append(path))
    for argv, (_, out, _) in zip(_CACHED_QUERIES, want):
        assert run([*argv, *_STRESS, "--max-nk", cap, "--cache", cache], capfd) == (0, out, "")
    assert writes == [] and Path(cache).read_text() == text


def test_cap_below_the_cached_plans_fails_as_a_build(cache, capfd):
    # under a cap below its largest n_k the cache is not served; the rebuild
    # fails on band 1, as a build under that cap does, before it writes
    assert main(["table", *_STRESS, "--cache", cache]) == 0
    capfd.readouterr()
    text = Path(cache).read_text()
    for argv in _CACHED_QUERIES:
        code, out, err = run([*argv, *_STRESS, "--max-nk", "4", "--cache", cache], capfd)
        assert (code, err) == (4, "error: p_cri=0.99 not reachable on band 1 within max_nk=4\n")
        assert (out == "") == (argv != ["verify"])
    assert Path(cache).read_text() == text


def test_table_is_the_same_under_every_cap_that_it_fits(tmp_path, capfd):
    outs = set()
    for cap in ("5", "6", "64", "200"):
        path = tmp_path / f"{cap}.json"
        code, out, _ = run(["table", *_STRESS, "--max-nk", cap, "--cache", str(path)], capfd)
        assert code == 0 and out.encode() == path.read_bytes()
        outs.add(out)
    assert len(outs) == 1


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
    # nested deeper than the parser recurses: a RecursionError, once a traceback
    warning = _plan_rebuilds_bad_cache(cache, capfd, "[" * 100_000 + "]" * 100_000)
    assert "RecursionError" in warning


def test_cache_missing_phases_is_rebuilt(cache, capfd):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    del doc["plans"][0]["phases"]
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert "KeyError" in warning


def _repr_floats(node):
    if isinstance(node, dict):
        return {key: _repr_floats(child) for key, child in node.items()}
    if isinstance(node, list):
        return [_repr_floats(child) for child in node]
    return repr(node) if isinstance(node, float) else node


# Schemas up to 9 stored every float as its repr string.  Schemas 9 and 10
# held the phase cap as a top-level max_nk, and schemas up to 8 held it among
# the solver's settings as "tolerances": level_tol and max_nk in schema 8,
# lambda_tol and phase_tol too in schemas 1 to 7, and grid_points too in
# schema 1.  Otherwise schemas 2 to 10 have the layout of schema 11, and only
# the solver that wrote the plans differs.
@pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_cache_other_version_is_rebuilt(cache, capfd, version):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    if version <= 9:
        doc = _repr_floats(doc)
    doc["version"] = version
    if version <= 8:
        doc["tolerances"] = {"level_tol": "1e-09", "max_nk": 64}
    else:
        doc["max_nk"] = 64
    if 1 <= version <= 7:
        doc["tolerances"].update(lambda_tol="1e-12", phase_tol="1e-12")
    if version == 1:
        doc["tolerances"]["grid_points"] = 10000
    with pytest.raises(DomainError):
        doc_to_table(doc)  # direct callers still get the typed error
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert f"version {version}" in warning
    rewritten = json.loads(Path(cache).read_text())
    assert rewritten["version"] == cli.SCHEMA_VERSION == 11
    assert rewritten["p_cri"] == 0.90
    assert "max_nk" not in rewritten and "tolerances" not in rewritten


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
        plans[-1]["boundaries"][0] = 0.009
    elif edit == "early_start":  # band 8's first segment would reach into band 9
        plans[-1]["boundaries"][0] = 0.0085
    elif edit == "low_level":
        plans[-1]["q_k_pi"] = 0.5
    elif edit == "level_above_minimum":
        plans[-1]["q_k_pi"] = 0.999
    elif edit == "phase_above_pi":
        plans[-1]["phases"][0] = 4.0
    elif edit == "zero_residual":  # verify would report band 2's 3.2e-11 as 0
        plans[1]["level_residual"] = 0.0
    elif edit == "large_residual":  # verify would fail a sound table with exit 5
        plans[-1]["level_residual"] = 0.5
    elif edit == "moved_band":  # the band no longer spans the plan's boundaries
        plans[-1]["band"][0] = 0.009
    elif edit == "extra_key":  # a field that no schema-10 reader knows
        plans[-1]["solver"] = "illinois"
    else:  # "dipping_phase": band 1's first segment then dips below 0.90
        plans[0]["phases"][0] -= 0.3


# The stored fields that a plan derives, and any key that table_to_doc does not
# write, are held to one rule: the document must be the one its plans write.
NOT_ITS_OWN = "is not what its own certified plans write"


@pytest.mark.parametrize("edit,message", [("late_start", "boundaries span"),
                                          ("early_start", "boundaries span"),
                                          ("low_level", "stored q_k_pi 0.5 "),
                                          ("level_above_minimum", "stored q_k_pi 0.999 "),
                                          ("phase_above_pi", "phi must be in"),
                                          ("zero_residual", "stored level_residual 0.0 "),
                                          ("large_residual", "stored level_residual 0.5 "),
                                          ("moved_band", "stored band"),
                                          ("extra_key", "stored solver"),
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
    assert (NOT_ITS_OWN in warning) == message.startswith("stored ")


@pytest.mark.parametrize("where", ["version", "k", "n_k", "edge"])
def test_cache_value_of_another_json_type_is_rebuilt(cache, capfd, where):
    # each stored value equals its canonical form under ==, but has another JSON
    # type, so the cache is not what table writes
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    if where == "version":
        doc["version"] = float(doc["version"])
    elif where == "k":
        doc["plans"][2]["k"] = 3.0
    elif where == "n_k":  # band 3 has one phase
        assert doc["plans"][2]["n_k"] == 1
        doc["plans"][2]["n_k"] = True
    else:  # band 1's upper edge, 1.0, stored as the integer 1
        doc["plans"][0]["boundaries"][-1] = doc["plans"][0]["band"][1] = 1
    with pytest.raises(DomainError, match=NOT_ITS_OWN):
        doc_to_table(doc)
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert NOT_ITS_OWN in warning


@pytest.mark.parametrize("where", ["p_cri", "phase"])
def test_cache_float_stored_as_a_string_is_rebuilt(cache, capfd, where):
    # schema 10 stores every float as a JSON number; its repr string, the form of
    # schemas up to 9, is a value that table_to_doc does not write
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    if where == "p_cri":
        doc["p_cri"] = repr(doc["p_cri"])
    else:
        doc["plans"][2]["phases"][0] = repr(doc["plans"][2]["phases"][0])
    with pytest.raises(DomainError, match=NOT_ITS_OWN):
        doc_to_table(doc)
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc))
    assert NOT_ITS_OWN in warning


# Damaged caches that parse, each a miss: make_plan holds each phase to
# (phi_min(k), pi], p_cri to (0, 1) and NaN out of the boundaries, and derives
# the level.  Each comment says what trusting that cache would do.
def _unsound_cache(doc, case):
    plans = doc["plans"]
    if case == "band1_pi":  # the kernel's P(1, pi, 1.0) is 0/0: ZeroDivisionError
        bounds = plans[0]["boundaries"]
        plans[0].update(n_k=1, phases=[math.pi], boundaries=[bounds[0], bounds[-1]])
    elif case == "tiny_phase":  # peak(3, 1e-300) overflows: OverflowError
        plans[2]["phases"][0] = 1e-300
    elif case == "nan_level":  # served as "guaranteed_p": "nan"
        plans[0]["q_k_pi"] = math.nan
    elif case == "nan_boundary":  # with its residual: phi 1.465 served at 0.3, P 0.850
        plans[0]["boundaries"][1] = math.nan
        plans[0]["level_residual"] = _check_guarantee(
            1, 0.90, plans[0]["phases"], plans[0]["boundaries"])[-1]
    elif case == "nan_pcri":  # loaded, then rebuilt as another setting with no warning
        doc["p_cri"] = math.nan
    elif case == "huge_pcri":  # float(10**400): OverflowError
        doc["p_cri"] = 10**400
    elif case == "huge_phase":  # float(10**400): OverflowError
        plans[1]["phases"][0] = 10**400
    else:  # "max_nk_key": schema 10's cap, once served only to a run with that cap
        doc["max_nk"] = 64


@pytest.mark.parametrize("case", ["band1_pi", "tiny_phase", "nan_level", "nan_boundary",
                                  "nan_pcri", "huge_pcri", "huge_phase", "max_nk_key"])
def test_cache_unsound_plan_is_a_miss(cache, capfd, case):
    main(["table", "--cache", cache])
    capfd.readouterr()
    doc = json.loads(Path(cache).read_text())
    _unsound_cache(doc, case)
    warning = _plan_rebuilds_bad_cache(cache, capfd, json.dumps(doc), lam="0.3")
    assert "Error" in warning
    if case == "max_nk_key":
        assert f"stored max_nk 64 {NOT_ITS_OWN}" in warning


# What load_or_build_table catches: anything else would end in a traceback.
CACHE_MISS = (OSError, CmqsearchError, ValueError, LookupError, TypeError, AttributeError,
              RecursionError)


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
    floor = table.p_cri
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
    # the cap limits a run and is not stored: a table built under one cap is the
    # cache that a run under any cap at or above its largest n_k, 2, is served
    assert main(["table", "--cache", cache, "--max-nk=32"]) == 0
    doc = json.loads(Path(cache).read_text())
    assert "max_nk" not in doc and "tolerances" not in doc
    assert serialize_table(doc_to_table(doc)) == serialize_table(build_table(0.90, 1e-2))
    monkeypatch.setattr(cli.planner, "build_table", None)
    for cap in ("2", "32", "64"):
        assert main(["plan", "--lambda", "0.01", "--cache", cache, "--max-nk", cap]) == 0
    capfd.readouterr()


@pytest.mark.parametrize("kind", ["directory", "fifo", "empty"])
def test_non_regular_cache_path_is_an_error_line(tmp_path, kind):
    # A cache path that exists and is not a regular file, or an empty one, is one
    # error line before any read or build: table building is disabled in the
    # child, so reaching it is a traceback.  Each command line runs in a
    # subprocess with a timeout, since opening a FIFO to read it blocks.
    cache = {"directory": tmp_path / "cache", "fifo": tmp_path / "fifo", "empty": ""}[kind]
    if kind == "directory":
        cache.mkdir()
    elif kind == "fifo":
        os.mkfifo(cache)
    src = Path(cli.__file__).resolve().parents[1]
    error = f"plan cache {str(cache)!r} is not a regular file"
    for argv in (["plan", "--lambda", "0.01"], ["table"], ["verify"]):
        code = ("import sys\nfrom cmqsearch import cli\ncli.planner.build_table = None\n"
                f"sys.exit(cli.main({[*argv, '--cache', str(cache)]!r}))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                              text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (1, f"error: {error}\n"), argv
        if argv == ["verify"]:  # the suites that read the table fail with that error
            assert proc.stdout.startswith(f"oracle_equivalence: FAIL ({error})\n"
                                          f"equal_level: FAIL ({error})\n")
        else:
            assert proc.stdout == "", argv
    assert list(tmp_path.iterdir()) == ([] if kind == "empty" else [cache])


def test_symlinked_cache_is_written_through(tmp_path, capfd, monkeypatch):
    # the table goes to the link's target, and the link stays a link
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    link.symlink_to(real)
    assert main(["plan", "--lambda", "0.01", "--pcri", "0.95", "--cache", str(link)]) == 0
    assert link.is_symlink() and real.is_file()
    capfd.readouterr()
    assert main(["table", "--pcri", "0.99", "--cache", str(link)]) == 0
    assert link.is_symlink() and capfd.readouterr().out.encode() == real.read_bytes()
    # the target is the cache that a later query reads
    monkeypatch.setattr(cli.planner, "build_table", None)
    assert main(["plan", "--lambda", "0.01", "--pcri", "0.99", "--cache", str(link)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]
    capfd.readouterr()


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


def test_failed_cache_write_leaves_no_temp_file(cache, tmp_path, capfd, monkeypatch):
    # the rename fails after the temp file is written, as it would over a directory
    def replace(src, dst):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), dst)
    monkeypatch.setattr(os, "replace", replace)
    code, _, err = run(["table", "--cache", cache], capfd)
    assert code == 1
    assert "cannot write plan table" in err
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_cache_write_names_the_target(tmp_path, capfd):
    # the error names the cache path and the OS's reason, not the random temp file
    cache = str(tmp_path / "missing" / "plans.json")
    errs = [run(["table", "--cache", cache], capfd)[2] for _ in range(2)]
    assert errs[0] == errs[1] == f"error: cannot write plan table to {cache}: {os.strerror(2)}\n"
    assert ".tmp" not in errs[0]


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
    code, out, err = run(["sweep", "--algorithms", "nope", "--cache", cache], capfd)
    assert (code, out) == (1, "")
    assert "unknown algorithms" in err
    # a list that names no algorithm, or one twice, is as bad: one error line, no rows
    for algorithms in ("", ",", " , ", "ours,ours", "grover, fixed,grover"):
        code, out, err = run(["sweep", "--algorithms", algorithms, "--grid", "3",
                              "--cache", cache], capfd)
        assert (code, out) == (1, "")
        assert err == ("error: algorithms must name one or more distinct algorithms, "
                       f"got {algorithms!r}\n")
    assert not Path(cache).exists()


def test_compare_record(cache, capfd):
    code, out, _ = run(["compare", "--lambda", "0.01", "--pcri", "0.9925",
                        "--cache", cache], capfd)
    assert code == 0
    rec = json.loads(out)
    assert rec["k_ours"] == 8 and rec["k_yoder_lb"] == 16
    assert float(rec["yoder_ratio"]) == pytest.approx(2.0, abs=0.15)


@pytest.mark.parametrize("argv,header", [
    (["compare", "--lambda", "0.01", "--pcri", "0.9925"],
     "lambda,k_ours,k_grover,k_fixed,k_long,phi_long,k_yoder_lb,yoder_ratio,p_ours,p_grover,p_fixed"),
    (["plan", "--lambda", "0.01"], "k,m,phi,guaranteed_p")], ids=["compare", "plan"])
def test_csv_record_layout(cache, capfd, argv, header):
    # the CSV header is the record's fields in order, and each cell is the JSON
    # record's value: an int as a number, a float as the repr string JSON holds
    code, out, _ = run([*argv, "--format", "csv", "--cache", cache], capfd)
    assert code == 0
    head, row = out.splitlines()
    assert head == header
    code, out, _ = run([*argv, "--cache", cache], capfd)
    rec = json.loads(out)
    for name, cell in zip(head.split(","), row.split(","), strict=True):
        if isinstance(rec[name], int):
            assert cell == str(rec[name]), name
        else:
            assert cell == rec[name] == repr(float(cell)), name


@pytest.mark.parametrize("command", [["compare", "--lambda", "0.5"],
                                     ["sweep", "--algorithms", "fixed", "--grid", "3"],
                                     ["sweep", "--algorithms", "ours,fixed", "--grid", "3"]])
# At phi = 2.2e-308 the count k is finite, but 2k + 1 is past the largest float.
@pytest.mark.parametrize("phi", ["5e-324", "1e-310", "2.2e-308"])
def test_phi_with_no_finite_fixed_count_is_one_error_line(cache, capfd, command, phi):
    # the count is checked at the command's smallest lambda (a sweep's grid point
    # 0), where it fails first, before the cache is read, built or written
    code, out, err = run([*command, "--phi", phi, "--cache", cache], capfd)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no finite fixed-phase count" in err
    assert not Path(cache).exists()


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
    # the freeze count is taken against the one before the first main: an
    # interpreter may freeze its own start-up heap (3.12 does, 375 objects)
    code = ("import contextlib, gc, io, sys, cmqsearch.cli\n"
            "frozen = gc.get_freeze_count()\n"
            "def loaded(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cmqsearch.cli.main(argv) == 0\n"
            "    return sorted(m for m in ('numpy', 'cmqsearch.simulator', 'dataclasses',\n"
            "                              'inspect', 'typing') if m in sys.modules), \\\n"
            "        gc.get_freeze_count() - frozen\n"
            f"print(*[loaded(argv) for argv in {commands!r}])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=src, capture_output=True,
                          text=True, check=True)
    # main is a library call: it leaves its caller's heap unfrozen, verify's included
    assert proc.stdout.strip() == "([], 0) ([], 0) ([], 0) ([], 0) (['cmqsearch.simulator'], 0)"


def test_process_entry_freezes_the_heap(tmp_path):
    # under python -m the CLI runs as __main__, through cli.run, which freezes the
    # heap before the command runs; the count is taken against the one before the
    # CLI runs, since an interpreter may freeze its own start-up heap (3.12 does)
    report = "gc.get_freeze_count() > frozen"
    assert _as_main(tmp_path, ["plan", "--lambda", "0.02"], report) == "0 True\n"


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
