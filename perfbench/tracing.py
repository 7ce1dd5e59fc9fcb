"""Traced run: per-layer counts and times from in-process ``cli.main`` calls.

The package is not changed. Wrappers are patched over the public functions
of each layer for the traced passes only, and removed afterwards. Names that
a module bound with ``from ... import`` are patched in that consumer module,
because patching the defining module would not reach them:

    cli        p_success, largest_min_success, load_or_build_table, write_table
    planner    p_success, build_plan, build_table, classify, plan_for, compare
    optimizer  p_success, optimal_phase_count, largest_min_success, march_level,
               PhasePlan.probability_at
    simulator  statevector_run, run_long_exact

Spans (timed, with self time = own time minus wrapped children) sit at layer
boundaries; the kernels are only counted, so their time stays in the caller.
A counter costs far more than the scalar kernel it counts, and the guarantee
scan goes through two of them per point where a march goes through one, so
counting would distort the split of time between spans. Times therefore come
from passes with spans only, and kernel counts from separate counting passes.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import harness

KERNEL_CALLS = 20_000
KERNEL_REPS = 5
IMPORT_REPS = 9


class Tracer:
    """Call counts, inclusive and self times per span name."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.amp_updates = 0
        self.cache_hits = 0
        self.cache_bytes: list[int] = []
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name, fn):
        calls, incl, self_s, stack = self.calls, self.incl, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self, cli, planner, optimizer, simulator, count_kernels: bool) -> None:
        if count_kernels:
            for mod in (cli, planner, optimizer):
                name = mod.__name__.rsplit(".", 1)[1]
                self.patch(mod, "p_success",
                           lambda f, n=name: self.counter(f"kernels.p_success.calls.{n}", f))
            self.patch(optimizer.PhasePlan, "probability_at",
                       lambda f: self.counter("optimizer.probability_at", f))
        for owner, attr, name in (
                (planner, "build_plan", "optimizer.build_plan"),
                (optimizer, "optimal_phase_count", "optimizer.optimal_phase_count"),
                (optimizer, "largest_min_success", "optimizer.largest_min_success"),
                (cli, "largest_min_success", "optimizer.largest_min_success"),
                (optimizer, "march_level", "optimizer.march_level"),
                (planner, "build_table", "planner.build_table"),
                (planner, "classify", "planner.classify"),
                (planner, "plan_for", "planner.plan_for"),
                (planner, "compare", "planner.compare"),
                (cli, "write_table", "cli.cache_write"),
                (simulator, "run_long_exact", "simulator.run_long_exact")):
            self.patch(owner, attr, lambda f, n=name: self.span(n, f))

        def load(f):
            timed = self.span("cli.cache_load", f)

            def wrapper(cfg):
                builds = self.calls["planner.build_table"]
                table = timed(cfg)
                self.cache_hits += self.calls["planner.build_table"] == builds
                self.cache_bytes.append(os.path.getsize(cfg.cache))
                return table
            return wrapper

        def write(f):
            def wrapper(table, path):
                f(table, path)
                self.cache_bytes.append(os.path.getsize(path))
            return wrapper

        def statevector(f):
            timed = self.span("simulator.statevector_run", f)

            def wrapper(n_qubits, marked, k, phi):
                self.amp_updates += k * (1 << n_qubits)
                return timed(n_qubits, marked, k, phi)
            return wrapper

        self.patch(cli, "load_or_build_table", load)
        self.patch(cli, "write_table", write)
        self.patch(simulator, "statevector_run", statevector)

    def counts(self) -> dict:
        """Everything that must repeat exactly for the same inputs."""
        return {**self.calls, "amp_updates": self.amp_updates,
                "cache_hits": self.cache_hits, "cache_bytes": sum(self.cache_bytes)}

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, incl, self_s = self.calls, self.incl, self.self_s

        def per_call(name: str, scale: float = 1.0, times=incl) -> float:
            return scale * times[name] / c[name] if c[name] else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        bands = c["optimizer.build_plan"]
        loads = c["cli.cache_load"]
        sv_s = incl["simulator.statevector_run"]
        return {
            "optimizer.build_plan.calls": (bands, "count"),
            "optimizer.optimal_phase_count_s": (incl["optimizer.optimal_phase_count"], "s"),
            "optimizer.largest_min_success.calls": (c["optimizer.largest_min_success"], "count"),
            "optimizer.largest_min_success_s": (incl["optimizer.largest_min_success"], "s"),
            "optimizer.march_level.calls": (c["optimizer.march_level"], "count"),
            "optimizer.march_level_s": (incl["optimizer.march_level"], "s"),
            "optimizer.marches_per_band": (ratio(c["optimizer.march_level"], bands), "1/band"),
            "optimizer.probability_at.calls": (c["optimizer.probability_at"], "count"),
            "optimizer.guarantee_scan_s": (self_s["optimizer.build_plan"], "s"),
            "optimizer.guarantee_scan_share": (
                ratio(self_s["optimizer.build_plan"], incl["optimizer.build_plan"]), "ratio"),
            "kernels.p_success.calls.optimizer": (c["kernels.p_success.calls.optimizer"], "count"),
            "kernels.p_success.calls.planner": (c["kernels.p_success.calls.planner"], "count"),
            "kernels.p_success.calls.cli": (c["kernels.p_success.calls.cli"], "count"),
            "kernels.evals_per_band": (
                ratio(c["kernels.p_success.calls.optimizer"], bands), "1/band"),
            "planner.build_table.calls": (c["planner.build_table"], "count"),
            "planner.build_table_s": (incl["planner.build_table"], "s"),
            "planner.classify.calls": (c["planner.classify"], "count"),
            "planner.classify_us": (per_call("planner.classify", 1e6), "us"),
            "planner.plan_for.calls": (c["planner.plan_for"], "count"),
            "planner.plan_for_us": (per_call("planner.plan_for", 1e6), "us"),
            "planner.compare.calls": (c["planner.compare"], "count"),
            "planner.compare_us": (per_call("planner.compare", 1e6), "us"),
            "cli.cache_load.calls": (loads, "count"),
            "cli.cache_load_s": (per_call("cli.cache_load", times=self_s), "s"),
            "cli.cache_hit_ratio": (ratio(self.cache_hits, loads), "ratio"),
            "cli.cache_write.calls": (c["cli.cache_write"], "count"),
            "cli.cache_write_s": (per_call("cli.cache_write"), "s"),
            "cli.cache_bytes": (statistics.fmean(self.cache_bytes) if self.cache_bytes else 0,
                                "bytes"),
            "cli.self_s": (self_s["cli.main"], "s"),
            "simulator.statevector_run.calls": (c["simulator.statevector_run"], "count"),
            "simulator.statevector_run_s": (sv_s, "s"),
            "simulator.amp_updates": (self.amp_updates, "count.computed"),
            "simulator.amp_updates_per_s": (ratio(self.amp_updates, sv_s), "1/s"),
            "simulator.run_long_exact.calls": (c["simulator.run_long_exact"], "count"),
        }


def _import_package():
    sys.path.insert(0, str(harness.SRC))
    from cmqsearch import cli, kernels, optimizer, planner, simulator
    if not Path(cli.__file__).resolve().is_relative_to(harness.ROOT):
        raise SystemExit(f"cmqsearch resolves to {cli.__file__}, outside {harness.ROOT}")
    return cli, kernels, optimizer, planner, simulator


def _run_pass(main, ops, cache_dir: Path) -> list[harness.Result]:
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv(str(cache_dir)))
        results.append(harness.Result(op, code, time.perf_counter() - t0,
                                    out.getvalue(), err.getvalue()))
    return results


def kernel_ns(kernels, seed: int) -> dict[str, tuple[float, str]]:
    """Median ns per call, loop included, over seeded (k, phi, lambda) at band-k scale."""
    rng = random.Random(seed)
    args = [(rng.randint(1, 25), rng.uniform(0.5, math.pi), 10.0 ** rng.uniform(-3.0, 0.0))
            for _ in range(KERNEL_CALLS)]
    pairs = [(phi, lam) for _, phi, lam in args]
    out = {}
    for name in ("p_success", "p_derivative", "delta_angle"):
        fn = getattr(kernels, name)
        reps = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            if name == "delta_angle":
                for phi, lam in pairs:
                    fn(phi, lam)
            else:
                for k, phi, lam in args:
                    fn(k, phi, lam)
            reps.append(time.perf_counter() - t0)
        out[f"kernels.{name}_ns"] = (1e9 * statistics.median(reps) / KERNEL_CALLS, "ns")
    return out


def import_times(env: dict[str, str], cwd: Path) -> dict[str, tuple[float, str]]:
    """Fresh-interpreter import cost of cli and planner, net of bare start-up."""
    codes = {"interp": "pass", "cli": "import cmqsearch.cli", "planner": "import cmqsearch.planner"}
    samples: dict[str, list[float]] = {name: [] for name in codes}
    for _ in range(IMPORT_REPS):
        for name, code in codes.items():
            t0 = time.perf_counter()
            # no timeout: with one, subprocess polls for the exit in sleeps of up to 50 ms
            subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True)
            samples[name].append(time.perf_counter() - t0)
    interp = statistics.median(samples["interp"])
    return {"cli.interp_s": (interp, "s"),
            "cli.import_s": (statistics.median(samples["cli"]) - interp, "s"),
            "planner.import_s": (statistics.median(samples["planner"]) - interp, "s")}


def self_checks(workload: str, m: dict[str, tuple[float, str]]) -> list[str]:
    """Wrappers that missed their target read 0; these catch that."""
    v = {name: value for name, (value, _) in m.items()}
    need = {"cold-build": [("kernels.p_success.calls.optimizer > 0",
                            v["kernels.p_success.calls.optimizer"] > 0)],
            "warm-query": [("optimizer.march_level.calls == 0",
                            v["optimizer.march_level.calls"] == 0),
                           ("cli.cache_hit_ratio == 1", v["cli.cache_hit_ratio"] == 1)],
            "verify": [("simulator.statevector_run.calls > 0",
                        v["simulator.statevector_run.calls"] > 0)]}[workload]
    return [f"trace self-check failed: {text}" for text, ok in need if not ok]


def traced_run(workload: str, seed: int, ops, seconds: float, setup_dir: Path, ctx: dict,
               env: dict[str, str]):
    """Rotate untraced, timing (spans only) and counting (spans and kernel
    counters) in-process passes over ``ops``: at least two of each, more while
    ``seconds`` last. Returns (metrics, attempted, failed, failures)."""
    imports = import_times(env, setup_dir)
    cli, kernels, optimizer, planner, simulator = _import_package()
    failures: list[str] = []
    kinds = ("untraced", "timing", "counting")
    walls: dict[str, list[float]] = {kind: [] for kind in kinds}
    tracers: dict[str, list[Tracer]] = {kind: [] for kind in kinds}
    attempted = failed = 0
    t_start = time.perf_counter()
    n = 0
    while min(map(len, walls.values())) < 2 or time.perf_counter() - t_start < seconds:
        kind = kinds[n % 3]
        cache_dir = setup_dir.parent / f"pass{n}"
        shutil.copytree(setup_dir, cache_dir)
        tracer = Tracer()
        main = cli.main
        if kind != "untraced":
            tracer.install(cli, planner, optimizer, simulator, count_kernels=kind == "counting")
            main = tracer.span("cli.main", cli.main)
        t0 = time.perf_counter()
        try:
            results = _run_pass(main, ops, cache_dir)
        finally:
            tracer.restore()
        walls[kind].append(time.perf_counter() - t0)
        tracers[kind].append(tracer)
        pass_ctx = {**ctx, "dir": cache_dir, "docs": dict(ctx["docs"]), "tables": {}}
        problems = harness.validate(results, pass_ctx)
        attempted += len(results)
        failed += len(problems)
        failures += problems
        shutil.rmtree(cache_dir)
        n += 1

    counts = tracers["counting"][0].counts()
    if any(t.counts() != counts for t in tracers["counting"]) or any(
            counts.get(name) != value for t in tracers["timing"]
            for name, value in t.counts().items()):
        failures.append("trace counts differ between passes over the same inputs")
    per_pass = []
    for t in tracers["timing"]:
        t.calls = tracers["counting"][0].calls      # the same spans, plus the kernel counts
        per_pass.append(t.metrics())
    metrics = {name: (statistics.median_low(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    failures += self_checks(workload, metrics)
    metrics.update(kernel_ns(kernels, seed))
    metrics.update(imports)
    untraced = statistics.median(walls["untraced"])
    metrics["trace.overhead_ratio"] = (statistics.median(walls["timing"]) / untraced, "ratio")
    metrics["trace.counting_overhead_ratio"] = (
        statistics.median(walls["counting"]) / untraced, "ratio")
    return metrics, attempted, failed, failures
