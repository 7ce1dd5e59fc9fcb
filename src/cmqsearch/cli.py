"""Command-line surface: table / plan / sweep / verify / compare.

Exit codes: 0 success, 1 bad input (a malformed flag included), 2 ambiguous
range query, 3 below coverage, 4 solver-config failure, 5 verification failure.

Only ``verify`` imports the simulator, so the other commands start without
it; no command imports numpy or ``dataclasses`` (the record types are
namedtuples: importing ``dataclasses`` pulls in ``inspect``, ``ast`` and
``dis``).  Only ``--help`` and malformed flags import ``argparse``, and no
command imports ``pathlib``, ``tempfile`` or ``random`` at start-up.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections import namedtuple

from cmqsearch import analytic, planner
from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import CmqsearchError, DomainError, VerificationError
from cmqsearch.kernels import p_success
from cmqsearch.optimizer import SolverConfig, largest_min_success, make_plan
from cmqsearch.planner import KigrQuery, PlanTable

SCHEMA_VERSION = 4
DEFAULT_CACHE = "cmqsearch-plans.json"


class RunConfig(namedtuple("RunConfig", "p_cri lambda0 solver fmt cache seed",
                           defaults=(0.90, 1e-2, SolverConfig(), "json", DEFAULT_CACHE, 0))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.p_cri < 1.0:
            raise DomainError(f"p_cri must be in (0, 1), got {self.p_cri}")
        if not 0.0 < self.lambda0 < 1.0:
            raise DomainError(f"lambda0 must be in (0, 1), got {self.lambda0}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        return self


# ---------------------------------------------------------------- plan-table IO

def table_to_doc(table: PlanTable) -> dict:
    """Versioned plan-table document; floats stored as repr strings so the
    serialization is byte-stable and round-trips exactly."""
    return {
        "version": SCHEMA_VERSION,
        "p_cri": repr(table.p_cri),
        "lambda0": repr(table.lambda0),
        "tolerances": {name: repr(value) if isinstance(value, float) else value
                       for name, value in table.cfg._asdict().items()},
        "plans": [
            {
                "k": p.k,
                "band": [repr(p.boundaries[0]), repr(p.boundaries[-1])],
                "n_k": p.n_k,
                "phases": [repr(x) for x in p.phases],
                "boundaries": [repr(x) for x in p.boundaries],
                "q_k_pi": repr(p.q_k_pi),
                "level_residual": repr(p.level_residual),
            }
            for p in table.plans
        ],
    }


def doc_to_table(doc: dict) -> PlanTable:
    """Inverse of ``table_to_doc``.

    Raises DomainError unless the plans are bands 1..k(lambda0), each with an
    n_k field that counts its phases and a plan that ``make_plan`` accepts.
    """
    if doc.get("version") != SCHEMA_VERSION:
        raise DomainError(f"unsupported plan-table version {doc.get('version')}")
    tol = doc["tolerances"]
    cfg = SolverConfig(**{name: type(default)(tol[name])
                          for name, default in SolverConfig._field_defaults.items()})
    p_cri = float(doc["p_cri"])
    lambda0 = float(doc["lambda0"])
    k_max = analytic.iterations_for(TargetFraction(lambda0))
    if [rec["k"] for rec in doc["plans"]] != list(range(1, k_max + 1)):
        raise DomainError(f"plans do not hold bands 1..{k_max} for lambda0={lambda0}")
    plans = []
    for k, rec in enumerate(doc["plans"], start=1):
        phases = [float(x) for x in rec["phases"]]
        if int(rec["n_k"]) != len(phases):
            raise DomainError(f"band {k}: n_k={rec['n_k']} with {len(phases)} phases")
        try:
            plans.append(make_plan(k, p_cri, phases, [float(x) for x in rec["boundaries"]],
                                   float(rec["q_k_pi"]), float(rec["level_residual"]), cfg))
        except VerificationError as exc:
            raise DomainError(f"band {k}: {exc}") from exc
    return PlanTable(p_cri=p_cri, lambda0=lambda0, plans=tuple(plans), cfg=cfg)


def serialize_table(table: PlanTable) -> str:
    return json.dumps(table_to_doc(table), indent=2, sort_keys=True) + "\n"


def write_table(table: PlanTable, path: str) -> None:
    """Atomic write: temp file (mode 0o666 less the umask) next to the target, then rename.

    On failure the temp file is removed, so no partial table is left behind.
    """
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(serialize_table(table))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CmqsearchError(f"cannot write plan table to {path}: {exc}") from exc


def load_or_build_table(cfg: RunConfig) -> PlanTable:
    """Use the cached table when it matches the run config, else rebuild it.

    A cache that cannot be read as a table (an OS error on read, truncated,
    missing keys, another schema version, a damaged plan list) is a miss: one warning on stderr, then rebuild.
    """
    path = cfg.cache
    if os.path.exists(path):
        try:
            with open(path) as fh:
                table = doc_to_table(json.load(fh))
        except (OSError, CmqsearchError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            print(f"warning: rebuilding unreadable plan cache {path} "
                  f"({type(exc).__name__}: {exc})", file=sys.stderr)
        else:
            if (table.p_cri == cfg.p_cri and table.lambda0 == cfg.lambda0
                    and table.cfg == cfg.solver):
                return table
    table = planner.build_table(cfg.p_cri, cfg.lambda0, cfg.solver)
    write_table(table, cfg.cache)
    return table


# ---------------------------------------------------------------------- commands

def cmd_table(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    table = planner.build_table(cfg.p_cri, cfg.lambda0, cfg.solver)
    write_table(table, cfg.cache)
    if cfg.fmt == "json":
        out.write(serialize_table(table))
    else:
        out.write("k,band_lo,band_hi,n_k,phases,q_k_pi\n")
        for p in table.plans:
            phases = ";".join(repr(x) for x in p.phases)
            out.write(f"{p.k},{p.boundaries[0]!r},{p.boundaries[-1]!r},"
                      f"{p.n_k},{phases},{p.q_k_pi!r}\n")
    return 0


def cmd_plan(cfg: RunConfig, query: KigrQuery, out=None) -> int:
    out = out or sys.stdout
    table = load_or_build_table(cfg)
    k, m = planner.classify(query, table)
    plan = table.plan(k)
    phi = plan.phases[m - 1]
    record = {
        "k": k,
        "m": m,
        "phi": repr(phi),
        "guaranteed_p": repr(plan.q_k_pi),
        "segment": [repr(x) for x in plan.boundaries[m - 1:m + 1]],
    }
    if cfg.fmt == "json":
        out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        out.write("k,m,phi,guaranteed_p\n")
        out.write(f"{k},{m},{phi!r},{plan.q_k_pi!r}\n")
    return 0


def _log_grid(lambda0: float, n: int) -> list[float]:
    # Log-spaced over [lambda0, 1): small-lambda bands are geometrically thin.
    r = math.nextafter(1.0, 0.0) / lambda0
    return [lambda0 * r ** (i / n) for i in range(n)]


def cmd_sweep(cfg: RunConfig, algorithms: list[str], grid: int,
              fixed_phi: float, out=None) -> int:
    out = out or sys.stdout
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid}")
    known = {"ours", "grover", "fixed", "yoder_bound", "long"}
    bad = set(algorithms) - known
    if bad:
        raise DomainError(f"unknown algorithms: {sorted(bad)} (choose from {sorted(known)})")
    table = load_or_build_table(cfg) if "ours" in algorithms else None
    phi_f = PhaseAngle(fixed_phi)
    out.write("lambda,algorithm,k,p\n")
    for lam_val in _log_grid(cfg.lambda0, grid):
        lam = TargetFraction(lam_val)
        for alg in algorithms:
            if alg == "ours":
                k, phi = planner.plan_for(lam, table)
                p = repr(p_success(k, phi.phi, lam_val))
            elif alg == "grover":
                k = analytic.grover_iterations(lam)
                p = repr(p_success(k, math.pi, lam_val) if k > 0 else lam_val)
            elif alg == "fixed":
                k = planner.baseline_fixed_phase(phi_f, lam)
                p = repr(p_success(k, phi_f.phi, lam_val) if k > 0 else lam_val)
            elif alg == "long":
                k, phi_l = planner.baseline_long(lam)
                p = repr(p_success(k, phi_l, lam_val))
            else:  # yoder_bound: iteration lower bound only, no probability curve
                k = planner.baseline_yoder_bound(cfg.p_cri, lam)
                p = ""
            out.write(f"{lam_val!r},{alg},{k},{p}\n")
    return 0


def cmd_compare(cfg: RunConfig, lam_val: float, fixed_phi: float, out=None) -> int:
    out = out or sys.stdout
    table = load_or_build_table(cfg)
    rec = planner.compare(TargetFraction(lam_val), table, cfg.p_cri, PhaseAngle(fixed_phi))
    doc = {
        "lambda": repr(rec.lam),
        "k_ours": rec.k_ours,
        "k_grover": rec.k_grover,
        "k_fixed": rec.k_fixed,
        "k_long": rec.k_long,
        "phi_long": repr(rec.phi_long),
        "k_yoder_lb": rec.k_yoder_lb,
        "yoder_ratio": repr(rec.k_yoder_lb / rec.k_ours),
        "p_ours": repr(rec.p_ours),
        "p_grover": repr(rec.p_grover),
        "p_fixed": repr(rec.p_fixed),
    }
    if cfg.fmt == "json":
        out.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        keys = list(doc)
        out.write(",".join(keys) + "\n")
        out.write(",".join(str(doc[x]) for x in keys) + "\n")
    return 0


# ----------------------------------------------------------------- verification

def _suite_oracle(cfg: RunConfig) -> str:
    from cmqsearch.simulator import Statevector

    # One trajectory per (n, M, phi), read after k = 0, 3, 6, 9, 12 iterations:
    # each reading is bit-identical to a fresh statevector_run(n, M, k, phi).
    worst = 0.0
    for n in (2, 4, 6, 8, 10):
        big = 1 << n
        for m in sorted({1, 3, big // 4, big // 2}):
            for phi in (math.pi, 2.432, 1.465, 0.7):
                state = Statevector.uniform(n, range(m))
                for k in range(13):
                    if k:
                        state.apply_iteration(PhaseAngle(phi))
                    if k % 3:
                        continue
                    got = state.marked_probability()
                    want = p_success(k, phi, m / big)
                    err = abs(got - want)
                    if err >= 1e-10:
                        raise VerificationError(
                            f"oracle mismatch at n={n} M={m} k={k} phi={phi}: "
                            f"|{got} - {want}| >= 1e-10"
                        )
                    worst = max(worst, err)
    return f"max |statevector - kernel| {worst:.1e} < 1e-10"


def _suite_equal_level(cfg: RunConfig) -> str:
    table = load_or_build_table(cfg)
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


def _suite_monotonicity(cfg: RunConfig) -> str:
    least = math.inf
    for k in (1, 2, 3):
        prev = 0.0
        for n in (1, 2, 3):
            q, _, _ = largest_min_success(k, n, cfg.solver)
            if q <= prev + 1e-6:
                raise VerificationError(
                    f"Q({k}, n={n})={q} not above Q({k}, n={n - 1})={prev}"
                )
            least = min(least, q - prev)
            prev = q
    return f"min Q(k, n) - Q(k, n-1) {least:.1e} > 1e-06"


def _suite_long_certainty(cfg: RunConfig) -> str:
    import random

    from cmqsearch import simulator

    rng = random.Random(cfg.seed)
    worst = 0.0
    for _ in range(20):
        n = rng.randrange(2, 11)
        m = rng.randrange(1, 1 << n)
        err = abs(simulator.run_long_exact(n, range(m)) - 1.0)
        if err >= 1e-9:
            raise VerificationError(f"exact-search run at n={n} M={m} gave |P - 1| = {err}")
        worst = max(worst, err)
    return f"max |P - 1| {worst:.1e} < 1e-09"


def cmd_verify(cfg: RunConfig, out=None) -> int:
    """Run each suite and print ``<suite>: PASS (<worst value against its limit>)``
    or ``<suite>: FAIL (<reason>)``; any failure raises VerificationError."""
    out = out or sys.stdout
    suites = [
        ("oracle_equivalence", _suite_oracle),
        ("equal_level", _suite_equal_level),
        ("monotonicity", _suite_monotonicity),
        ("long_certainty", _suite_long_certainty),
    ]
    failed = None
    for name, suite in suites:
        try:
            margin = suite(cfg)
        except CmqsearchError as exc:
            out.write(f"{name}: FAIL ({exc})\n")
            failed = failed or exc
        else:
            out.write(f"{name}: PASS ({margin})\n")
    if failed is not None:
        raise VerificationError(str(failed))
    return 0


# ------------------------------------------------------------------ entry point

def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split("..")
        return float(lo), float(hi)
    except ValueError as exc:
        raise DomainError(f"range must look like LO..HI, got {text!r}") from exc


def _flag_table() -> dict:
    """command -> (help, {long flag: add_argument keywords}), flags in --help order;
    built per call, since the --cache default reads CMQSEARCH_CACHE."""
    cache = os.environ.get("CMQSEARCH_CACHE", DEFAULT_CACHE)
    common = {"--pcri": dict(dest="pcri", type=float, default=0.90),
              "--lambda0": dict(dest="lambda0", type=float, default=1e-2),
              "--format": dict(dest="format", choices=("json", "csv"), default="json"),
              "--cache": dict(dest="cache", default=cache),
              "--seed": dict(dest="seed", type=int, default=0),
              **{"--" + name.replace("_", "-"): dict(dest=name, type=type(default), default=default)
                 for name, default in SolverConfig._field_defaults.items()}}
    lam, phi = dict(dest="lam", type=float), dict(dest="phi", type=float, default=0.1 * math.pi)
    algorithms = dict(dest="algorithms", default="ours,grover",
                      help="comma list: ours,grover,fixed,yoder_bound,long")
    return {"table": ("build the plan table and write it to the cache", common),
            "plan": ("look up (k, m, phi) for a lambda or range",
                     {**common, "--lambda": lam, "--range": dict(dest="range_", metavar="LO..HI")}),
            "sweep": ("emit per-lambda CSV over a log grid",
                      {**common, "--algorithms": algorithms,
                       "--grid": dict(dest="grid", type=int, default=1000),
                       "--phi": dict(phi, help="phase for the fixed-phase baseline")}),
            "verify": ("run the verification suites", common),
            "compare": ("baseline comparison at one lambda",
                        {**common, "--lambda": dict(lam, required=True), "--phi": phi})}


def _parse(argv: list[str]) -> dict | None:
    """``<command> (--flag value)*`` with exact long flags, values that do not start
    with "-" and convert, and the required flags, read as argparse reads it; None
    for anything else (--help, abbreviations, --flag=value, usage errors)."""
    table = _flag_table()
    if not argv or argv[0] not in table or len(argv) % 2 == 0:
        return None
    flags = table[argv[0]][1]
    args = {"command": argv[0], **{spec["dest"]: spec.get("default") for spec in flags.values()}}
    for flag, value in zip(argv[1::2], argv[2::2]):
        spec = flags.get(flag)
        if spec is None or value.startswith("-"):
            return None
        try:
            args[spec["dest"]] = value = spec.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
    if any(spec.get("required") and args[spec["dest"]] is None for spec in flags.values()):
        return None
    return args


def build_parser():
    """The argparse parser for the flag table; a usage error raises DomainError."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # exit 1, not 2 (an ambiguous range); subparsers inherit it via parser_class
        def error(self, message):
            raise DomainError(message)

    ap = Parser(prog="cmqsearch", allow_abbrev=False,
                description="Complementary-multiphase search planner")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _flag_table().items():
        parser = sub.add_parser(command, help=text)
        for flag, spec in flags.items():
            parser.add_argument(flag, **spec)
    return ap


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parse(argv) or vars(build_parser().parse_args(argv))
        solver = SolverConfig(*[args[name] for name in SolverConfig._fields])
        cfg = RunConfig(p_cri=args["pcri"], lambda0=args["lambda0"], solver=solver,
                        fmt=args["format"], cache=args["cache"], seed=args["seed"])
        command = args["command"]
        if command == "table":
            return cmd_table(cfg)
        if command == "plan":
            range_ = args["range_"]
            query = KigrQuery(exact_lambda=args["lam"],
                              range=None if range_ is None else _parse_range(range_))
            return cmd_plan(cfg, query)
        if command == "sweep":
            algorithms = [a.strip() for a in args["algorithms"].split(",") if a.strip()]
            return cmd_sweep(cfg, algorithms, args["grid"], args["phi"])
        if command == "verify":
            return cmd_verify(cfg)
        if command == "compare":
            return cmd_compare(cfg, args["lam"], args["phi"])
        raise AssertionError(command)  # pragma: no cover
    except CmqsearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`); send what is still
        # buffered to devnull so that flushing it at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
