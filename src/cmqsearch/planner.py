"""Range classification, plan lookup, and baseline algorithm comparisons."""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

from cmqsearch.analytic import (PhaseAngle, TargetFraction, grover_iterations, iterations_for,
                                peak_phase)
from cmqsearch.errors import AmbiguityError, DomainError, RangeError
from cmqsearch.kernels import delta_angle, p_success
from cmqsearch.optimizer import PhasePlan, SolverConfig, build_plan


class PlanTable(namedtuple("PlanTable", "p_cri lambda0 plans cfg")):
    """Plans for every band intersecting [lambda0, 1), indexed by k = 1..k_max."""

    __slots__ = ()

    @property
    def coverage_lo(self) -> float:
        return self.plans[-1].boundaries[0]

    def plan(self, k: int) -> PhasePlan:
        if not 1 <= k <= len(self.plans):
            raise RangeError(f"no plan for band {k} (table holds 1..{len(self.plans)})")
        return self.plans[k - 1]


def build_table(p_cri: float, lambda0: float, cfg: SolverConfig | None = None) -> PlanTable:
    if not 0.0 < lambda0 < 1.0:
        raise DomainError(f"lambda0 must be in (0, 1), got {lambda0}")
    cfg = cfg or SolverConfig()
    k_max = iterations_for(TargetFraction(lambda0))
    plans = tuple(build_plan(k, p_cri, cfg) for k in range(1, k_max + 1))
    return PlanTable(p_cri=p_cri, lambda0=lambda0, plans=plans, cfg=cfg)


class KigrQuery(namedtuple("KigrQuery", "exact_lambda range", defaults=(None, None))):
    """Either an exact lambda or a half-open range [lo, hi) that is known to
    contain it."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.exact_lambda is None) == (self.range is None):
            raise DomainError("provide exactly one of an exact lambda or a range")
        if self.exact_lambda is not None and not 0.0 < self.exact_lambda < 1.0:
            raise DomainError(f"lambda must be in (0, 1), got {self.exact_lambda}")
        if self.range is not None:
            lo, hi = self.range
            if not 0.0 < lo < hi <= 1.0:
                raise DomainError(f"need 0 < lo < hi <= 1, got [{lo}, {hi})")
        return self


def _segment_of(table: PlanTable, lam: float) -> tuple[int, int]:
    # make_plan holds plan k to band k's float edges, which tile [coverage_lo, 1).
    if lam < table.coverage_lo:
        raise RangeError(f"lambda={lam} below table coverage [{table.coverage_lo}, 1)")
    k = iterations_for(TargetFraction(lam))
    return k, bisect_right(table.plan(k).boundaries, lam)


def classify(query: KigrQuery, table: PlanTable) -> tuple[int, int]:
    """Resolve a query to the unique (band, segment) containing it.

    A range query must sit wholly inside one segment; straddling queries are
    outside the identifiable-range regime and fail loudly.
    """
    if query.exact_lambda is not None:
        return _segment_of(table, query.exact_lambda)
    lo, hi = query.range
    k, m = _segment_of(table, lo)
    seg_lo, seg_hi = table.plan(k).boundaries[m - 1:m + 1]
    if hi <= seg_hi:
        return k, m
    k2, m2 = _segment_of(table, min(hi, math.nextafter(1.0, 0.0)))
    raise AmbiguityError(
        f"range [{lo}, {hi}) straddles segment (k={k}, m={m}) "
        f"[{seg_lo}, {seg_hi}) and segment (k={k2}, m={m2})"
    )


def plan_for(lam: TargetFraction, table: PlanTable) -> tuple[int, PhaseAngle]:
    """Iteration count and phase guaranteeing P >= p_cri at this lambda."""
    k, m = _segment_of(table, lam.lam)
    return k, PhaseAngle(table.plan(k).phases[m - 1])


def baseline_fixed_phase(phi: PhaseAngle, lam: TargetFraction) -> int:
    """Optimal iteration count for a phase fixed ahead of time; DomainError unless finite."""
    delta = delta_angle(phi.phi, lam.lam)
    turns = math.pi / delta if delta > 0.0 else math.inf  # about 2k + 1
    if turns == math.inf:  # 2k + 1 would not be a finite float
        raise DomainError(f"phi={phi.phi!r} too small: no finite fixed-phase count "
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


BaselineComparison = namedtuple(
    "BaselineComparison",
    "lam k_ours k_grover k_fixed k_long phi_long k_yoder_lb p_ours p_grover p_fixed")


def compare(lam: TargetFraction, table: PlanTable, p_cri: float,
            fixed_phi: PhaseAngle) -> BaselineComparison:
    """Per-lambda iteration and probability report across all baselines."""
    k_ours, phi = plan_for(lam, table)
    k_g = grover_iterations(lam)
    k_f = baseline_fixed_phase(fixed_phi, lam)
    k_l, phi_l = baseline_long(lam)
    return BaselineComparison(
        lam=lam.lam,
        k_ours=k_ours,
        k_grover=k_g,
        k_fixed=k_f,
        k_long=k_l,
        phi_long=phi_l,
        k_yoder_lb=baseline_yoder_bound(p_cri, lam),
        p_ours=success_after(k_ours, phi.phi, lam.lam),
        p_grover=success_after(k_g, math.pi, lam.lam),
        p_fixed=success_after(k_f, fixed_phi.phi, lam.lam),
    )
