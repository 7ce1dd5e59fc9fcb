"""Seeded CLI inputs for the three workloads.

A workload is an endless sequence of blocks. Each block is a small, balanced
sample of the workload's input space (stratified where the cost depends on the
input), so a run that stops after any whole block has the same mix as a long
run. Block ``i`` for a given workload and seed is always the same list of ops.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

from checks import band_edges, band_index, coverage_lo

WORKLOADS = ("cold-build", "warm-query", "verify")

# The two settings of the ROADMAP: headline and stress.
SETTINGS = {"headline": (0.90, 1e-2), "stress": (0.99, 1e-3)}

SWEEP_ARGS = ("--grid", "20000", "--algorithms", "ours,grover,fixed,long,yoder_bound")

# Band 1 holds at most Q_1(1) ~ 0.862 with one phase, so a cap of one phase
# cannot reach any P_cri in [0.90, 0.99]: the table build must exit 4.
CAP_HIT_ARGS = ("--max-nk", "1")

# The class whose wall time is the workload's headline latency.
MAIN_CLASS = {"cold-build": "table", "warm-query": "query", "verify": "verify"}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``cmqsearch <command> --pcri --lambda0 --cache <args>``."""

    cls: str                  # table | cap | query | sweep | verify
    command: str
    p_cri: float
    lambda0: float
    cache: str                # file name inside the run directory
    args: tuple[str, ...] = ()
    expect: int | None = 0    # None: resolve a range query against the table
    lam: float | None = None
    range_: tuple[float, float] | None = None
    rebuild_of: str | None = None

    def argv(self, cache_dir: str) -> list[str]:
        return [self.command, "--pcri", repr(self.p_cri), "--lambda0", repr(self.lambda0),
                "--cache", f"{cache_dir}/{self.cache}", *self.args]


def setup_ops(workload: str) -> list[Op]:
    """Warm caches plus one warm-up call of each command the workload times."""
    if workload == "cold-build":
        p_cri, lambda0 = SETTINGS["headline"]
        return [Op("table", "table", p_cri, lambda0, "warmup.json"),
                Op("cap", "table", p_cri, lambda0, "warmup-cap.json", CAP_HIT_ARGS, expect=4)]
    ops = [Op("table", "table", p_cri, lambda0, f"{setting}.json")
           for setting, (p_cri, lambda0) in SETTINGS.items()]
    p_cri, lambda0 = SETTINGS["headline"]
    if workload == "warm-query":
        ops += [Op("query", "plan", p_cri, lambda0, "headline.json", ("--lambda", "0.5"), lam=0.5),
                Op("query", "compare", p_cri, lambda0, "headline.json", ("--lambda", "0.5"), lam=0.5),
                Op("sweep", "sweep", p_cri, lambda0, "headline.json",
                   ("--grid", "1000") + SWEEP_ARGS[2:])]
    else:
        ops.append(Op("verify", "verify", p_cri, lambda0, "headline.json", ("--seed", "0")))
    return ops


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    make = {"cold-build": _cold_blocks(rng), "warm-query": _query_block, "verify": _verify_block}[
        workload]
    for i in itertools.count():
        yield make(rng, i)


def _cold_blocks(rng: random.Random):
    """4 tables per block at the next points of a randomly shifted R2 sequence
    over lambda0 in [1e-3, 1e-2] (log) x P_cri in [0.90, 0.99], then a rebuild of
    one of them (even blocks) or a cap-hit build (odd blocks).

    Each point is uniform on the square, and every prefix of the sequence
    covers it evenly, so a run that stops after any block has a balanced mix.
    """
    shift = (rng.random(), rng.random())

    def make(rng: random.Random, i: int) -> list[Op]:
        ops = []
        for j in range(4):
            n = 4 * i + j
            x, y = ((s + n * a) % 1.0 for s, a in zip(shift, _R2))
            ops.append(Op("table", "table", 0.90 + 0.09 * y, 10.0 ** (-3.0 + x),
                          f"b{i}-t{j}.json"))
        if i % 2:
            ops.append(Op("cap", "table", 0.90 + 0.09 * rng.random(),
                          10.0 ** (-3.0 + rng.random()), f"b{i}-cap.json", CAP_HIT_ARGS,
                          expect=4))
        rng.shuffle(ops)
        if i % 2 == 0:
            first = ops[0]
            ops.insert(rng.randint(1, len(ops)),
                       replace(first, cache=f"b{i}-rebuild.json", rebuild_of=first.cache))
        return ops
    return make


# Additive recurrence with the plastic number g: (1/g, 1/g^2) (Roberts' R2).
_R2 = (1.0 / 1.324717957244746, 1.0 / 1.324717957244746 ** 2)


def _query_block(rng: random.Random, i: int) -> list[Op]:
    """Per setting: 2 plan --lambda, 1 below coverage, 1 range inside a segment,
    1 range straddling a band edge, 2 compare and 1 large sweep."""
    ops = []
    for setting, (p_cri, lambda0) in SETTINGS.items():
        cov = coverage_lo(lambda0)
        cache = f"{setting}.json"

        def covered(top: float = 1.0) -> float:
            # log-uniform in [cov, top); the exponent is never 0, so lam < top
            return top * (cov / top) ** (1.0 - rng.random())

        def plan(lam: float, expect: int) -> Op:
            return Op("query", "plan", p_cri, lambda0, cache, ("--lambda", repr(lam)),
                      expect=expect, lam=lam)

        def plan_range(lo: float, hi: float, expect: int | None) -> Op:
            return Op("query", "plan", p_cri, lambda0, cache, ("--range", f"{lo!r}..{hi!r}"),
                      expect=expect, range_=(lo, hi))

        lam = covered(0.99)
        edge = band_edges(rng.randint(2, band_index(lambda0)))[1]
        ops += [plan(covered(), 0), plan(covered(), 0),
                plan(cov * 10.0 ** -rng.random() * (1.0 - 1e-9), 3),
                plan_range(lam, lam * (1.0 + 1e-6), None),
                plan_range(edge * (1.0 - 1e-6), edge * (1.0 + 1e-6), 2)]
        for _ in range(2):
            lam = covered()
            ops.append(Op("query", "compare", p_cri, lambda0, cache, ("--lambda", repr(lam)),
                          lam=lam))
        ops.append(Op("sweep", "sweep", p_cri, lambda0, cache, SWEEP_ARGS))
    rng.shuffle(ops)
    return ops


def _verify_block(rng: random.Random, i: int) -> list[Op]:
    ops = [Op("verify", "verify", p_cri, lambda0, f"{setting}.json",
              ("--seed", str(rng.randrange(2**31))))
           for setting, (p_cri, lambda0) in SETTINGS.items()]
    rng.shuffle(ops)
    return ops

