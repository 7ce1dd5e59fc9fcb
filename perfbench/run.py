"""End-to-end benchmark of the cmqsearch CLI, run on this working tree.

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 20 --trace 0

One closed-loop client runs ``python -m cmqsearch.cli ...`` invocations one
after another, checks every output (``checks.py``) and prints, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1`` it
replays the first two blocks of the same inputs in-process through ``cli.main`` with
per-layer wrappers instead (``tracing.py``). The line before the result holds
the environment and the metrics under the names of the README.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import ROOT, SRC, Result, child_env, invoke, probe, validate
from workloads import MAIN_CLASS, WORKLOADS, blocks, setup_ops

# Set-ups per run: one before the window, the rest spread evenly across it, so
# their median sees the same machine state as the timed commands. A run makes
# at least MIN_SETUPS, and more while they fill no more than SETUP_SHARE of the
# window: a short set-up is a noisy sample of the machine and needs more.
MIN_SETUPS = 5
SETUP_SHARE = 0.2


def set_up(workload: str, run_dir: Path, env: dict[str, str]) -> tuple[float, dict, list[str]]:
    """Prepare the workload in a fresh ``run_dir``: (seconds, check context, failures)."""
    run_dir.mkdir()
    t0 = time.perf_counter()
    results = [invoke(op, run_dir, env) for op in setup_ops(workload)]
    took = time.perf_counter() - t0
    ctx = {"dir": run_dir, "docs": {}, "tables": {}}
    return took, ctx, validate(results, ctx)


def timed_phase(workload: str, seed: int, seconds: float, base: Path, env: dict[str, str]
                ) -> tuple[list[float], list[Result], float, dict, list[str]]:
    """Set up, then run whole blocks on that set-up, with the other set-up reps
    spread between them, until the next block and the set-ups still due would end
    past ``seconds`` by over half a block.

    Returns (set-up times, results, seconds spent in blocks, check context, failures).
    """
    took, ctx, failures = set_up(workload, base / "setup0", env)
    setup_s = [took]
    reps = max(MIN_SETUPS, int(SETUP_SHARE * seconds / took))

    def another_setup() -> None:
        run_dir = base / f"setup{len(setup_s)}"
        took, _, problems = set_up(workload, run_dir, env)
        setup_s.append(took)
        failures.extend(problems)
        shutil.rmtree(run_dir)

    results, block_s = [], []
    t0 = time.perf_counter()
    for block in blocks(workload, seed):
        b0 = time.perf_counter()
        results += [invoke(op, ctx["dir"], env) for op in block]
        block_s.append(time.perf_counter() - b0)
        if time.perf_counter() - t0 >= seconds * len(setup_s) / reps:
            another_setup()
        due = (reps - len(setup_s)) * statistics.fmean(setup_s)
        if time.perf_counter() - t0 + due + 0.5 * statistics.fmean(block_s) >= seconds:
            break
    while len(setup_s) < reps:
        another_setup()
    return setup_s, results, sum(block_s), ctx, failures


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it,
    never below the median."""
    xs = sorted(samples)
    i = max(len(xs) - 11, len(xs) // 2)
    return xs[i], 100.0 * (i + 1) / len(xs)


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def end_to_end(workload: str, setup_s: list[float], results: list[Result], block_s: float,
               failed: int) -> tuple[dict, dict]:
    """(gated metrics, the same under the README's per-workload names)."""
    main = [r.wall_s for r in results if r.op.cls == MAIN_CLASS[workload]]
    p50 = statistics.median(main)
    t, pct = tail(main)
    # The median and ops_per_s are reported, not gated: on a shared VM the
    # invocations of a run fall into a fast and a slow machine state in shares
    # that drift from run to run. The median and the mean rate follow the shares,
    # while the tail stays in the slow state, which every run has.
    gated = {
        "cmd_s.tail": metric(t, "s"),
        "peak_rss_mb": metric(max(r.maxrss_kb for r in results) / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
    }
    prefix = f"{MAIN_CLASS[workload]}_s"
    named = {f"{prefix}.p50": metric(p50, "s", samples=len(main)),
             f"{prefix}.tail": metric(t, "s", percentile=round(pct, 1), samples=len(main)),
             "ops_per_s": metric(len(results) / block_s, "1/s"),
             "peak_rss_mb": gated["peak_rss_mb"],
             "setup_s": metric(gated["setup_s"]["value"], "s", samples=len(setup_s)),
             "error_rate": metric(failed / len(results), "ratio")}
    for cls in ("sweep", "cap"):
        walls = [r.wall_s for r in results if r.op.cls == cls]
        if walls:
            named[f"{cls}_s.p50"] = metric(statistics.median(walls), "s", samples=len(walls))
    return gated, named


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cmqsearch" / "cli.py").is_file():
        print(f"error: no cmqsearch sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    base = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / "perfbench"))
    try:
        info = probe(env, base)
        if args.trace:
            import tracing
            _, ctx, failures = set_up(args.workload, base / "setup0", env)
            # two blocks, so that cold-build traces a rebuild and a cap hit
            ops = [op for block in itertools.islice(blocks(args.workload, args.seed), 2)
                   for op in block]
            layers, attempted, failed, problems = tracing.traced_run(
                args.workload, args.seed, ops, args.seconds, ctx["dir"], ctx, env)
            failures += problems
            metrics = named = {name: metric(value, unit) for name, (value, unit) in layers.items()}
        else:
            setup_s, results, block_s, ctx, failures = timed_phase(
                args.workload, args.seed, args.seconds, base, env)
            problems = validate(results, ctx)
            attempted, failed = len(results), len(problems)
            failures += problems
            metrics, named = end_to_end(args.workload, setup_s, results, block_s, failed)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": info, "metrics": named, "failures": len(failures)}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
