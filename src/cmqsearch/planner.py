"""Range classification, plan lookup, and baseline algorithm comparisons."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

from cmqsearch.analytic import TargetFraction, grover_iterations, iterations_for, peak_phase
from cmqsearch.errors import AmbiguityError, DomainError, RangeError
from cmqsearch.kernels import delta_angle, p_success
from cmqsearch.optimizer import MAX_NK, PhasePlan, build_plan


class PlanTable(namedtuple("PlanTable", "p_cri lambda0 plans")):
    """Plans for every band intersecting [lambda0, 1), indexed by k = 1..k_max.

    The phase cap is not part of a table: a build under any cap at or above
    its largest n_k gives the same plans, and under a smaller cap it fails."""

    __slots__ = ()

    @property
    def coverage_lo(self) -> float:
        return self.plans[-1].boundaries[0]

    def plan(self, k: int) -> PhasePlan:
        if not 1 <= k <= len(self.plans):
            raise RangeError(f"no plan for band {k} (table holds 1..{len(self.plans)})")
        return self.plans[k - 1]


def build_table(p_cri: float, lambda0: float, max_nk: int = MAX_NK) -> PlanTable:
    if not 0.0 < lambda0 < 1.0:
        raise DomainError(f"lambda0 must be in (0, 1), got {lambda0}")
    k_max = iterations_for(TargetFraction(lambda0))
    plans = tuple(build_plan(k, p_cri, max_nk) for k in range(1, k_max + 1))
    return PlanTable(p_cri=p_cri, lambda0=lambda0, plans=plans)


def _segment_of(table: PlanTable, lam: float) -> tuple[int, int]:
    # make_plan holds plan k to band k's float edges, which tile [coverage_lo, 1).
    if lam < table.coverage_lo:
        raise RangeError(f"lambda={lam} below table coverage [{table.coverage_lo}, 1)")
    k = iterations_for(TargetFraction(lam))
    return k, bisect_right(table.plan(k).boundaries, lam)


def classify(table: PlanTable, lo: float, hi: float) -> tuple[int, int]:
    """The (band, segment) whose segment holds the range [lo, hi) known to
    contain lambda; an exact lambda is the range lo == hi.

    The range must sit wholly inside one segment; straddling ranges are
    outside the identifiable-range regime and fail loudly.
    """
    k, m = _segment_of(table, lo)
    seg_lo, seg_hi = table.plan(k).boundaries[m - 1:m + 1]
    if hi <= seg_hi:
        return k, m
    k2, m2 = _segment_of(table, min(hi, math.nextafter(1.0, 0.0)))
    raise AmbiguityError(
        f"range [{lo}, {hi}) straddles segment (k={k}, m={m}) "
        f"[{seg_lo}, {seg_hi}) and segment (k={k2}, m={m2})"
    )


def plan_for(lam: TargetFraction, table: PlanTable) -> tuple[int, float]:
    """Iteration count and phase guaranteeing P >= p_cri at this lambda."""
    k, m = _segment_of(table, lam.lam)
    return k, table.plan(k).phases[m - 1]


def baseline_fixed_phase(phi: float, lam: TargetFraction) -> int:
    """Optimal iteration count for a phase fixed ahead of time; DomainError unless finite."""
    delta = delta_angle(phi, lam.lam)
    turns = math.pi / delta if delta > 0.0 else math.inf  # about 2k + 1
    if turns == math.inf:  # 2k + 1 would not be a finite float
        raise DomainError(f"phi={phi!r} too small: no finite fixed-phase count "
                          f"at lambda={lam.lam!r}")
    return math.floor(0.5 * turns)


def baseline_long(lam: TargetFraction) -> tuple[int, float]:
    """Minimal exact-search iteration count and its certainty phase."""
    k = math.ceil(math.pi / (4.0 * lam.theta) - 0.5)
    return k, peak_phase(k, lam.lam)


def baseline_yoder_bound(p_cri: float, lam: TargetFraction) -> int:
    """Iteration lower bound of the optimal fixed-point algorithm for P >= p_cri."""
    if not 0.0 < p_cri < 1.0:
        raise DomainError(f"p_cri must be in (0, 1), got {p_cri}")
    delta = math.sqrt(1.0 - p_cri)
    return math.ceil(math.log(2.0 / delta) / (2.0 * math.sqrt(lam.lam)) - 0.5)


def success_after(k: int, phi: float, lam: float) -> float:
    """Success probability after k iterations at phase phi; lam itself when k = 0."""
    return p_success(k, phi, lam) if k > 0 else lam


def compare(lam: TargetFraction, table: PlanTable, p_cri: float, fixed_phi: float) -> dict:
    """Per-lambda iteration and probability report across all baselines: the row
    that the ``compare`` command prints, in its CSV column order."""
    k_ours, phi = plan_for(lam, table)
    k_g = grover_iterations(lam)
    k_f = baseline_fixed_phase(fixed_phi, lam)
    k_l, phi_l = baseline_long(lam)
    k_y = baseline_yoder_bound(p_cri, lam)
    return {"lambda": lam.lam, "k_ours": k_ours, "k_grover": k_g, "k_fixed": k_f, "k_long": k_l,
            "phi_long": phi_l, "k_yoder_lb": k_y, "yoder_ratio": k_y / k_ours,
            "p_ours": success_after(k_ours, phi, lam.lam),
            "p_grover": success_after(k_g, math.pi, lam.lam),
            "p_fixed": success_after(k_f, fixed_phi, lam.lam)}
