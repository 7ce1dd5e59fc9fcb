"""Command-line surface: table / plan / sweep / verify / compare.

Exit codes: 0 success, 1 bad input (a malformed flag included), 2 ambiguous
range query, 3 below coverage, 4 solver-config failure, 5 verification failure.

One flag table, ``_flag_table``, lists the commands: each with its help, only
the flags that it reads (so ``--seed`` is verify's alone, and sweep and verify
take no ``--format``) and the function that runs it.  A command checks every
value that it reads before it reads, builds or writes the cache, or writes a
byte, so a rejected command line has no side effects.  The phase cap
``--max-nk`` limits a run, not a table: the cache holds no cap, and it is served
to any run whose cap is at least its largest n_k.

``verify``'s suites live in ``simulator``, beside the statevector they run, so
the other commands neither import nor compile them.  No command imports numpy
or ``dataclasses`` (the record types are namedtuples; ``dataclasses`` imports
``inspect``, ``ast`` and ``dis``).  Only ``--help`` and malformed flags import
``argparse``, and none imports ``pathlib``, ``tempfile`` or ``random`` at start-up.
"""

from __future__ import annotations

import contextlib
import gc
import json
import marshal
import math
import os
import sys
from collections import namedtuple

from cmqsearch import analytic, planner
from cmqsearch.analytic import TargetFraction
from cmqsearch.errors import CmqsearchError, ConfigError, DomainError, VerificationError
# perfbench/tracing.py patches cli's own p_success and largest_min_success; nothing calls them.
from cmqsearch.kernels import p_success
from cmqsearch.optimizer import MAX_NK, largest_min_success, make_plan
from cmqsearch.planner import PlanTable

SCHEMA_VERSION = 11

# sweep's algorithms, in --help order
ALGORITHMS = ("ours", "grover", "fixed", "yoder_bound", "long")


class RunConfig(namedtuple("RunConfig", "p_cri lambda0 max_nk cache",
                           defaults=(0.90, 1e-2, MAX_NK, "cmqsearch-plans.json"))):
    """What names and locates a plan table, the settings it is built for and its
    cache, and the run's phase cap, which limits a build but is not part of a table."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_nk < 1:
            raise ConfigError("max_nk must be >= 1")
        if not 0.0 < self.p_cri < 1.0:
            raise DomainError(f"p_cri must be in (0, 1), got {self.p_cri}")
        if not 0.0 < self.lambda0 < 1.0:
            raise DomainError(f"lambda0 must be in (0, 1), got {self.lambda0}")
        return self


# ---------------------------------------------------------------- plan-table IO

def _plan_record(plan) -> dict:
    k, phases, boundaries, q_k_pi, level_residual = plan
    return {"k": k, "band": [boundaries[0], boundaries[-1]], "n_k": len(phases),
            "phases": list(phases), "boundaries": list(boundaries), "q_k_pi": q_k_pi,
            "level_residual": level_residual}


def table_to_doc(table: PlanTable) -> dict:
    """Versioned plan-table document.  ``json`` writes each float as its repr, so
    the serialization is byte-stable and round-trips exactly."""
    return {"version": SCHEMA_VERSION, "p_cri": table.p_cri, "lambda0": table.lambda0,
            "plans": [_plan_record(p) for p in table.plans]}


def _float(x) -> float:
    # Anything but a parsed float is read through str, so that an integer beyond
    # float range is inf, not an OverflowError.
    return x if type(x) is float else float(str(x))


def _differs(stored, own) -> bool:
    """Whether two JSON values differ in value or in type: ``==`` holds between 1,
    1.0 and true, and their bytes in marshal's format 2 differ (format 3 adds
    references, which depend on reference counts)."""
    return stored != own or marshal.dumps(stored, 2) != marshal.dumps(own, 2)


def _require_own(stored: dict, own: dict, where: str = "") -> None:
    """Raise DomainError unless a stored document, or one plan's record, is the one
    that ``table_to_doc`` writes, each value of the JSON type that it writes; the
    error names the first key that differs."""
    if stored.keys() != own.keys() or _differs(list(map(stored.get, own)), list(own.values())):
        key = min(key for key in stored.keys() | own.keys()
                  if key not in stored or key not in own or _differs(stored[key], own[key]))
        raise DomainError(f"{where}stored {key} {stored.get(key)!r} is not what "
                          f"its own certified plans write")


def doc_to_table(doc: dict) -> PlanTable:
    """Inverse of ``table_to_doc``.

    Raises DomainError unless there is one plan for each band 1..k(lambda0),
    ``make_plan`` accepts each, and the document is ``table_to_doc`` of the
    table so built: no extra key (schema 10's phase cap ``max_nk`` included,
    since a table does not depend on the cap), each value of the JSON
    type that it writes (no float stored as a string or an integer, no integer
    as a float or a boolean), and each n_k, band, q_k_pi and level_residual
    the one that its plan derives.  That equality is checked record by record,
    then for the top level, so that no second copy of the document is held.
    """
    if doc.get("version") != SCHEMA_VERSION:
        raise DomainError(f"unsupported plan-table version {doc.get('version')}")
    p_cri = _float(doc["p_cri"])
    lambda0 = _float(doc["lambda0"])
    k_max = analytic.iterations_for(TargetFraction(lambda0))
    if len(doc["plans"]) != k_max:
        raise DomainError(f"{len(doc['plans'])} plans for the {k_max} bands of lambda0={lambda0}")
    plans = []
    for k, rec in enumerate(doc["plans"], start=1):
        try:
            plans.append(make_plan(k, p_cri, list(map(_float, rec["phases"])),
                                   list(map(_float, rec["boundaries"]))))
        except VerificationError as exc:
            raise DomainError(f"band {k}: {exc}") from exc
        _require_own(rec, _plan_record(plans[-1]), f"band {k}: ")
    _require_own({**doc, "plans": []}, table_to_doc(PlanTable(p_cri, lambda0, ())))
    return PlanTable(p_cri=p_cri, lambda0=lambda0, plans=tuple(plans))


def serialize_table(table: PlanTable) -> str:
    return json.dumps(table_to_doc(table), indent=2, sort_keys=True) + "\n"


def write_table(text: str, path: str) -> None:
    """Atomic write of a serialized table: temp file (mode 0o666 less the umask)
    next to the target, then rename.

    On failure the temp file is removed, so no partial table is left behind,
    and the error names the target path, never the temp file's random name.
    """
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CmqsearchError(f"cannot write plan table to {path}: {exc.strerror}") from exc


def _cache_file(path: str) -> str:
    """The file that a --cache path names, a symlink resolved so that the table is
    written through it.  An empty path, or one that exists and is not a regular
    file (a directory, a FIFO, a device), is a CmqsearchError, raised before any
    read or build."""
    if not path or os.path.exists(path) and not os.path.isfile(path):
        raise CmqsearchError(f"plan cache {path!r} is not a regular file")
    return os.path.realpath(path) if os.path.islink(path) else path


def load_or_build_table(cfg: RunConfig) -> PlanTable:
    """Use the cached table when it is the run's, else rebuild it under the run's cap.

    The cached table is the run's when its P_cri and lambda0 are the run's and
    its largest n_k is at most the run's cap ``max_nk``: a build under that cap
    gives the same plans.  Under a smaller cap the build raises the ConfigError
    that names the first band past the cap, before it writes.  A lambda0 past
    K_MAX is an error before the cache is read.  A cache that cannot be read as
    a table (an OS error on read, text that is not JSON or is nested too deep
    to parse, a document that ``doc_to_table`` rejects) is a miss: one warning
    on stderr, then rebuild.
    """
    path = _cache_file(cfg.cache)
    analytic.iterations_for(TargetFraction(cfg.lambda0))
    if os.path.exists(path):
        try:
            with open(path) as fh:
                table = doc_to_table(json.load(fh))
        except (OSError, CmqsearchError, ValueError, LookupError, TypeError,
                AttributeError, RecursionError) as exc:
            print(f"warning: rebuilding unreadable plan cache {cfg.cache} "
                  f"({type(exc).__name__}: {exc})", file=sys.stderr)
        else:
            if (table.p_cri == cfg.p_cri and table.lambda0 == cfg.lambda0
                    and max(plan.n_k for plan in table.plans) <= cfg.max_nk):
                return table
    table = planner.build_table(cfg.p_cri, cfg.lambda0, cfg.max_nk)
    write_table(serialize_table(table), path)
    return table


# ---------------------------------------------------------------------- commands

def cmd_table(cfg: RunConfig, fmt: str) -> int:
    path = _cache_file(cfg.cache)
    table = planner.build_table(cfg.p_cri, cfg.lambda0, cfg.max_nk)
    text = serialize_table(table)
    write_table(text, path)
    if fmt == "json":
        sys.stdout.write(text)
    else:
        sys.stdout.write("k,band_lo,band_hi,n_k,phases,q_k_pi\n")
        for p in table.plans:
            phases = ";".join(repr(x) for x in p.phases)
            sys.stdout.write(f"{p.k},{p.boundaries[0]!r},{p.boundaries[-1]!r},"
                             f"{p.n_k},{phases},{p.q_k_pi!r}\n")
    return 0


def _write_record(fmt: str, record: dict, **json_only) -> None:
    """One record on stdout: a JSON object with sorted keys, or a CSV header
    and row of the record's fields in order; ``json_only`` fields join JSON alone.
    The CLI's one float rule: a float is written as its repr, which round-trips
    exactly, and an int as a number."""
    record = {name: repr(x) if isinstance(x, float) else x for name, x in record.items()}
    if fmt == "json":
        sys.stdout.write(json.dumps({**record, **json_only}, sort_keys=True) + "\n")
    else:
        sys.stdout.write(",".join(record) + "\n" + ",".join(map(str, record.values())) + "\n")


def _phase(phi: float) -> float:
    """A --phi value, which must lie in (0, pi]: P is symmetric about pi."""
    if not 0.0 < phi <= math.pi:
        raise DomainError(f"phi must be in (0, pi], got {phi}")
    return phi


def cmd_plan(cfg: RunConfig, fmt: str, lam: float | None, range_: str | None) -> int:
    if range_ is not None:
        try:
            lo, hi = map(float, range_.split(".."))
        except ValueError as exc:
            raise DomainError(f"range must look like LO..HI, got {range_!r}") from exc
    if (lam is None) == (range_ is None):
        raise DomainError("provide exactly one of an exact lambda or a range")
    if lam is not None:
        lo = hi = TargetFraction(lam).lam
    elif not 0.0 < lo < hi <= 1.0:
        raise DomainError(f"need 0 < lo < hi <= 1, got [{lo}, {hi})")
    table = load_or_build_table(cfg)
    k, m = planner.classify(table, lo, hi)
    plan = table.plan(k)
    _write_record(fmt, {"k": k, "m": m, "phi": plan.phases[m - 1], "guaranteed_p": plan.q_k_pi},
                  segment=[repr(x) for x in plan.boundaries[m - 1:m + 1]])
    return 0


def _log_grid(lambda0: float, n: int):
    # Yields n points log-spaced over [lambda0, 1): small-lambda bands are
    # geometrically thin.  Lazy, so that a sweep holds only the block of rows it
    # writes; the ratio is checked at the call, before any row.
    r = math.nextafter(1.0, 0.0) / lambda0
    if r == math.inf:
        raise DomainError(f"lambda0={lambda0!r} is too small to sweep: 1/lambda0 overflows")
    return (lambda0 * r ** (i / n) for i in range(n))


def cmd_sweep(cfg: RunConfig, grid: int, algorithms: str, phi: float) -> int:
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid}")
    chosen = [a.strip() for a in algorithms.split(",") if a.strip()]
    if bad := set(chosen) - set(ALGORITHMS):
        raise DomainError(f"unknown algorithms: {sorted(bad)} (choose from {sorted(ALGORITHMS)})")
    if not chosen or len(set(chosen)) < len(chosen):
        raise DomainError(f"algorithms must name one or more distinct algorithms, "
                          f"got {algorithms!r}")
    _phase(phi)
    points = _log_grid(cfg.lambda0, grid)
    if "fixed" in chosen:
        # the fixed-phase half-angle grows with lambda, so a count that can fail
        # fails at grid point 0, lambda0
        planner.baseline_fixed_phase(phi, TargetFraction(cfg.lambda0))
    # The grid ascends from lambda0, which the table covers, so one cursor walks
    # the table's segments up from band k_max; only "ours" reads the table.
    segments = ((plan.k, *seg) for plan in reversed(load_or_build_table(cfg).plans)
                for seg in zip(plan.phases, plan.boundaries[1:])) if "ours" in chosen else None
    seg_hi = 0.0
    rows = ["lambda,algorithm,k,p\n"]
    for i, lam_val in enumerate(points):
        lam, lam_text = TargetFraction(lam_val), repr(lam_val)
        for alg in chosen:
            if alg == "ours":
                while lam_val >= seg_hi:
                    k_ours, phi_ours, seg_hi = next(segments)
                k, phase = k_ours, phi_ours
            elif alg == "grover":
                k, phase = analytic.grover_iterations(lam), math.pi
            elif alg == "fixed":
                k, phase = planner.baseline_fixed_phase(phi, lam), phi
            elif alg == "long":
                k, phase = planner.baseline_long(lam)
            else:  # yoder_bound: iteration lower bound only, no probability curve
                rows.append(f"{lam_text},{alg},{planner.baseline_yoder_bound(cfg.p_cri, lam)},\n")
                continue
            rows.append(f"{lam_text},{alg},{k},{planner.success_after(k, phase, lam_val)!r}\n")
        if i % 1024 == 0:   # point 0's rows, then each 1,024 points' rows, in one write
            sys.stdout.write("".join(rows))
            rows.clear()
    sys.stdout.write("".join(rows))
    return 0


def cmd_verify(cfg: RunConfig, seed: int) -> int:
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    from cmqsearch import simulator
    return simulator.verify(cfg, seed, load_or_build_table)


def cmd_compare(cfg: RunConfig, fmt: str, lam: float, phi: float) -> int:
    lam, phi = TargetFraction(lam), _phase(phi)
    planner.baseline_fixed_phase(phi, lam)
    _write_record(fmt, planner.compare(lam, load_or_build_table(cfg), cfg.p_cri, phi))
    return 0


# ------------------------------------------------------------------ entry point

def _flag_table() -> dict:
    """command -> (help, {long flag: add_argument keywords}, run), flags in --help order.
    A command takes only the flags that it reads: the four shared flags build its
    RunConfig, and ``run(cfg, **rest)`` takes the rest as keywords named by their
    dest, so a flag that its command does not take fails every call of it.  The
    shared defaults are RunConfig's, and the table is built per call, since the
    --cache default reads CMQSEARCH_CACHE."""
    cfg = RunConfig._field_defaults
    shared = {"--pcri": dict(dest="p_cri", metavar="PCRI", type=float, default=cfg["p_cri"]),
              "--lambda0": dict(dest="lambda0", type=float, default=cfg["lambda0"]),
              "--cache": dict(dest="cache", default=os.environ.get("CMQSEARCH_CACHE",
                                                                    cfg["cache"])),
              "--max-nk": dict(dest="max_nk", type=int, default=cfg["max_nk"])}
    formats = {**shared, "--format": dict(dest="fmt", choices=("json", "csv"), default="json")}
    lam, phi = dict(dest="lam", type=float), dict(dest="phi", type=float, default=0.1 * math.pi)
    algorithms = dict(dest="algorithms", default="ours,grover",
                      help="comma list: " + ",".join(ALGORITHMS))
    return {"table": ("build the plan table and write it to the cache", formats, cmd_table),
            "plan": ("look up (k, m, phi) for a lambda or range",
                     {**formats, "--lambda": lam,
                      "--range": dict(dest="range_", metavar="LO..HI")}, cmd_plan),
            "sweep": ("emit per-lambda CSV over a log grid",
                      {**shared, "--algorithms": algorithms,
                       "--grid": dict(dest="grid", type=int, default=1000),
                       "--phi": dict(phi, help="phase for the fixed-phase baseline")}, cmd_sweep),
            "verify": ("run the verification suites",
                       {**shared, "--seed": dict(dest="seed", type=int, default=0)},
                       cmd_verify),
            "compare": ("baseline comparison at one lambda",
                        {**formats, "--lambda": dict(lam, required=True), "--phi": phi},
                        cmd_compare)}


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
    for command, (text, flags, _) in _flag_table().items():
        parser = sub.add_parser(command, help=text)
        for flag, spec in flags.items():
            parser.add_argument(flag, **spec)
    return ap


def main(argv=None) -> int:
    """Run one command line and return its exit code; a ``CmqsearchError`` becomes
    its one ``error:`` line on stderr and its code.  A library call: the heap, stdout
    and a ``BrokenPipeError`` are left to the caller, which is ``run`` in a process."""
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parse(argv) or vars(build_parser().parse_args(argv))
        cmd = _flag_table()[args.pop("command")][2]
        return cmd(RunConfig(*map(args.pop, RunConfig._fields)), **args)
    except CmqsearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> int:
    """The process entry, ``python -m cmqsearch.cli`` and the installed ``cmqsearch``:
    ``main`` with the process-wide policy that a library call leaves to its caller.

    It freezes the start-up heap, so that no later collection scans it, those
    at exit included, and flushes stdout before it returns, ``--help``'s
    ``SystemExit`` included.  A closed stdout (``| head``), whether a write or
    that flush finds it, exits 1.
    """
    gc.freeze()
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered to devnull, so that flushing it at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(run())
