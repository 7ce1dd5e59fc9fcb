"""Output checks for every CLI invocation the benchmark makes.

Nothing here imports cmqsearch: the band edges, band index and success
probability are recomputed from the paper's closed forms, so a wrong answer
from the package cannot also fool its own check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

LEVEL_TOL = 1e-9          # the CLI default the benchmark runs with
VERIFY_SUITES = ("oracle_equivalence", "equal_level", "monotonicity", "long_certainty")


# ---------------------------------------------------------------- closed forms

def band_edges(k: int) -> tuple[float, float]:
    """Band k = [sin^2(pi/(4k+2)), sin^2(pi/(4k-2))), with hi = 1 for k = 1."""
    lo = math.sin(math.pi / (4 * k + 2)) ** 2
    hi = 1.0 if k == 1 else math.sin(math.pi / (4 * k - 2)) ** 2
    return lo, hi


def band_index(lam: float) -> int:
    """The k whose band holds lam (0 < lam < 1)."""
    theta = math.asin(math.sqrt(lam))
    k = max(1, math.ceil(math.pi / (4.0 * theta) - 0.5))
    while lam < band_edges(k)[0]:
        k += 1
    while k > 1 and lam >= band_edges(k)[1]:
        k -= 1
    return k


def coverage_lo(lambda0: float) -> float:
    """Lowest lambda a table built for lambda0 covers: the lower edge of its last band."""
    return band_edges(band_index(lambda0))[0]


def success_p(k: int, phi: float, lam: float) -> float:
    """P = |a_k|^2 from the marked amplitude
    a_k ~ (sin(theta)/sin(d)) (e^{i phi} sin((k+1)d) - sin(kd)), cos d = 1 - lam (1 - cos phi).

    This is the amplitude form, not the A cos((2k+1)d) + B form the package's
    kernel evaluates, so the two agree only if both are right.
    """
    d = 2.0 * math.asin(math.sqrt(0.5 * lam * (1.0 - math.cos(phi))))
    s1, s0 = math.sin((k + 1) * d), math.sin(k * d)
    return lam * (s1 * s1 + s0 * s0 - 2.0 * s0 * s1 * math.cos(phi)) / math.sin(d) ** 2


def grover_k(lam: float) -> int:
    """Closest integer to pi/(4 theta) - 1/2, exact halves rounded down."""
    x = math.pi / (4.0 * math.asin(math.sqrt(lam))) - 0.5
    k = math.floor(x + 0.5)
    return k - 1 if k == x + 0.5 else k


# --------------------------------------------------------------- table document

class CheckError(Exception):
    """An output that does not match what the inputs require."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def check_table_doc(text: str, p_cri: float, lambda0: float) -> dict:
    """Validate a plan-table document and return it parsed."""
    try:
        doc = json.loads(text)
        _require(float(doc["p_cri"]) == p_cri, f"p_cri {doc['p_cri']} != {p_cri!r}")
        _require(float(doc["lambda0"]) == lambda0, f"lambda0 {doc['lambda0']} != {lambda0!r}")
        plans = doc["plans"]
        n_bands = band_index(lambda0)
        _require(len(plans) == n_bands, f"{len(plans)} plans, want {n_bands}")
        for k, plan in enumerate(plans, start=1):
            _check_plan(plan, k, p_cri)
            if k > 1:
                _require(plan["boundaries"][-1] == plans[k - 2]["boundaries"][0],
                         f"band {k} does not end where band {k - 1} starts")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed table document: {exc!r}") from exc
    return doc


def _check_plan(plan: dict, k: int, p_cri: float) -> None:
    _require(plan["k"] == k, f"plan {plan['k']} in position {k}")
    bounds = [float(x) for x in plan["boundaries"]]
    phases = [float(x) for x in plan["phases"]]
    lo, hi = band_edges(k)
    _require(math.isclose(bounds[0], lo, rel_tol=1e-12)
             and math.isclose(bounds[-1], hi, rel_tol=1e-12),
             f"band {k} spans [{bounds[0]}, {bounds[-1]}), want [{lo}, {hi})")
    _require([float(x) for x in plan["band"]] == [bounds[0], bounds[-1]],
             f"band {k}: 'band' disagrees with its boundaries")
    _require(all(a < b for a, b in zip(bounds, bounds[1:])),
             f"band {k}: boundaries not strictly ascending")
    _require(plan["n_k"] == len(phases) == len(bounds) - 1 >= 1,
             f"band {k}: n_k={plan['n_k']} with {len(phases)} phases, {len(bounds)} boundaries")
    _require(all(a > b for a, b in zip(phases, phases[1:])),
             f"band {k}: phases not strictly descending")
    _require(0.0 < phases[-1] and phases[0] <= math.pi, f"band {k}: phase outside (0, pi]")
    _require(float(plan["q_k_pi"]) >= p_cri, f"band {k}: level {plan['q_k_pi']} < {p_cri}")
    _require(float(plan["level_residual"]) < 10.0 * LEVEL_TOL,
             f"band {k}: residual {plan['level_residual']} >= {10.0 * LEVEL_TOL}")
    for phi, edge in zip(phases, bounds):
        p = success_p(k, phi, edge)
        _require(p >= p_cri - LEVEL_TOL, f"band {k}: P({edge})={p} below floor")


def find_segment(doc: dict, lam: float) -> tuple[int, int, float, float, float]:
    """(k, m, lo, hi, phi) of the table segment holding lam."""
    k = band_index(lam)
    plan = doc["plans"][k - 1]
    bounds = [float(x) for x in plan["boundaries"]]
    for m in range(1, len(bounds)):
        if bounds[m - 1] <= lam < bounds[m]:
            return k, m, bounds[m - 1], bounds[m], float(plan["phases"][m - 1])
    raise CheckError(f"lambda={lam} in no segment of band {k}")


# ------------------------------------------------------------ per-command checks

def expected_exit(op, docs: dict[str, dict]) -> int:
    """Exit code the op must return; plan ranges are resolved against the table."""
    if op.expect is not None:
        return op.expect
    lo, hi = op.range_
    if lo < coverage_lo(op.lambda0):
        return 3
    return 0 if hi <= find_segment(docs[op.cache], lo)[3] else 2


def check(op, exit_code: int, out: str, err: str, ctx: dict) -> None:
    """Raise CheckError unless one invocation's exit code and output are right.

    ``ctx`` holds ``docs`` (cache name -> parsed table), ``tables`` (cache
    name -> table stdout, for the rebuild check) and ``dir`` (run directory).
    """
    try:
        _check(op, exit_code, out, err, ctx)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckError(f"malformed {op.command} output: {exc!r}") from exc


def _check(op, exit_code: int, out: str, err: str, ctx: dict) -> None:
    want = expected_exit(op, ctx["docs"])
    if exit_code != want:
        raise CheckError(f"exit {exit_code}, want {want}: {err.strip()[:200]}")
    if want != 0:
        _require(out == "" and err.startswith("error:"),
                 f"exit {want} should print only an error line, got {err[:200]!r}")
        return
    if op.command == "table":
        _check_table_output(op, out, ctx)
    elif op.command == "plan":
        _check_plan_output(op, json.loads(out), ctx["docs"][op.cache])
    elif op.command == "compare":
        _check_compare_output(op, json.loads(out), ctx["docs"][op.cache])
    elif op.command == "sweep":
        _check_sweep_output(op, out, ctx["docs"][op.cache])
    elif op.command == "verify":
        lines = out.splitlines()
        _require(len(lines) == len(VERIFY_SUITES)
                 and all(line.startswith(f"{name}: PASS")
                         for name, line in zip(VERIFY_SUITES, lines)),
                 f"verify printed {out!r}")
    else:
        raise CheckError(f"no check for command {op.command}")


def _check_table_output(op, out: str, ctx: dict) -> None:
    doc = check_table_doc(out, op.p_cri, op.lambda0)
    cached = (Path(ctx["dir"]) / op.cache).read_text()
    _require(cached == out, f"cache file {op.cache} differs from the printed table")
    if op.rebuild_of is not None:
        _require(out == ctx["tables"][op.rebuild_of],
                 f"rebuild into {op.cache} is not byte-identical to {op.rebuild_of}")
    ctx["tables"][op.cache] = out
    ctx["docs"][op.cache] = doc


def _check_plan_output(op, rec: dict, doc: dict) -> None:
    lo, hi = op.range_ if op.range_ else (op.lam, op.lam)
    k, m, seg_lo, seg_hi, phi = find_segment(doc, lo)
    _require(rec["k"] == k, f"k={rec['k']}, want {k}")
    _require(rec["m"] == m, f"m={rec['m']}, want {m}")
    got_lo, got_hi = (float(x) for x in rec["segment"])
    holds = got_lo <= lo and hi <= got_hi if op.range_ else got_lo <= lo < got_hi
    _require(holds, f"segment [{got_lo}, {got_hi}) does not hold [{lo}, {hi}]")
    _require((got_lo, got_hi, float(rec["phi"])) == (seg_lo, seg_hi, phi),
             "answer disagrees with the cached table")
    _require(float(rec["guaranteed_p"]) >= op.p_cri, f"guaranteed_p {rec['guaranteed_p']} < p_cri")
    for lam in (lo, hi) if hi < got_hi else (lo,):
        p = success_p(k, phi, lam)
        _require(p >= op.p_cri - LEVEL_TOL, f"P({lam})={p} below floor {op.p_cri}")


def _check_compare_output(op, rec: dict, doc: dict) -> None:
    k, _, _, _, phi = find_segment(doc, op.lam)
    _require(float(rec["lambda"]) == op.lam, f"lambda {rec['lambda']} != {op.lam!r}")
    _require(rec["k_ours"] == k, f"k_ours={rec['k_ours']}, want {k}")
    _require(rec["k_grover"] == grover_k(op.lam), f"k_grover={rec['k_grover']}")
    p = success_p(k, phi, op.lam)
    _require(math.isclose(float(rec["p_ours"]), p, abs_tol=1e-12),
             f"p_ours={rec['p_ours']}, closed form gives {p}")
    _require(p >= op.p_cri - LEVEL_TOL, f"p_ours={p} below floor {op.p_cri}")


def _check_sweep_output(op, out: str, doc: dict) -> None:
    grid = int(op.args[op.args.index("--grid") + 1])
    algs = op.args[op.args.index("--algorithms") + 1].split(",")
    lines = out.splitlines()
    _require(lines[0] == "lambda,algorithm,k,p", f"sweep header {lines[0]!r}")
    _require(len(lines) == 1 + grid * len(algs),
             f"sweep has {len(lines) - 1} rows, want {grid * len(algs)}")
    floor = op.p_cri - LEVEL_TOL
    prev = 0.0
    for i in range(grid):
        rows = [line.split(",") for line in lines[1 + i * len(algs): 1 + (i + 1) * len(algs)]]
        lam = float(rows[0][0])
        _require(prev < lam < 1.0 and [r[1] for r in rows] == algs and all(
            float(r[0]) == lam for r in rows), f"sweep rows for grid point {i} malformed")
        prev = lam
        ours = rows[algs.index("ours")]
        k, _, _, _, phi = find_segment(doc, lam)
        p = success_p(k, phi, lam)
        _require(int(ours[2]) == k, f"sweep ours k={ours[2]} at lambda={lam}, want {k}")
        _require(float(ours[3]) >= floor and p >= floor and abs(float(ours[3]) - p) < 1e-9,
                 f"sweep ours p={ours[3]} at lambda={lam}: closed form {p}, floor {floor}")
    _require(math.isclose(float(lines[1].split(",")[0]), op.lambda0, rel_tol=1e-12),
             "sweep does not start at lambda0")
