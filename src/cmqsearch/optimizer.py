"""Equal-level multiphase optimization on a single iteration band.

The optimal-phase condition is a coupled system: all segment-boundary success
probabilities and the tail value must share one common level.  The first
phase alone fixes that level on the band's lower edge, q = P(band.lo; phi_1),
so we solve it by marching from phi_1: segments are constructed left to right
with two 1-D root solves each (the next boundary, where P falls back to q past
the peak, then the phase that starts there at q).  The common level Q_k(n_k)
is the root over phi_1 of the tail gap of the march capped at n_k phases,
which is nonnegative exactly when that march covers the band.  One level
search gives both n_k and Q_k(n_k): its floor probe, the greedy march from the
phase at level P_cri, uses the least number of phases that reaches P_cri, so
its length is n_k, and it is the covered end of the search's bracket.  All the
solves share one bracketed root-finder, ``_root``.

``make_plan`` is the one constructor of a ``PhasePlan``, for fresh builds and
for plans read back from a cache alike.  It enforces the plan contract: each
phase lies in (phi_min(k), pi], the segments tile the band exactly, the level
reaches P_cri, and the guarantee P >= P_cri is certified segment by segment
in closed form (``_check_guarantee``), not sampled on a grid.  The
certificate's points also give the plan's level, P(band.lo; phi_1), and its
equal-level residual, so neither is taken on trust.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

from cmqsearch.analytic import (PhaseAngle, iteration_band, min_point_k1, peak, peak_phase,
                                phi_min)
from cmqsearch.errors import BracketError, ConfigError, DomainError, VerificationError
from cmqsearch.kernels import p_success


class SolverConfig(namedtuple("SolverConfig", "lambda_tol phase_tol level_tol max_nk",
                                defaults=(1e-12, 1e-12, 1e-9, 64))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(0.0 < t < math.inf for t in (self.lambda_tol, self.phase_tol, self.level_tol)):
            raise ConfigError("tolerances must be positive and finite")
        if self.max_nk < 1:
            raise ConfigError("max_nk must be >= 1")
        return self


class PhasePlan(namedtuple("PhasePlan", "k p_cri phases boundaries q_k_pi level_residual")):
    """Phase m (1-based) is used on [boundaries[m-1], boundaries[m])."""

    __slots__ = ()

    @property
    def n_k(self) -> int:
        return len(self.phases)

    # No command calls it; perfbench/tracing.py patches it to count its calls.
    def probability_at(self, lam: float) -> float:
        """Planned piecewise success probability (half-open segment membership)."""
        bounds = self.boundaries
        if not bounds[0] <= lam < bounds[-1]:
            raise DomainError(f"lambda {lam} outside band {self.k}")
        i = bisect_right(bounds, lam) - 1
        return p_success(self.k, self.phases[i], lam)


def _root(f, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float,
          ftol: float = 0.0) -> float:
    """The f >= 0 end of a bracket shrunk around a sign change of f.

    Illinois regula falsi (Dowell & Jarratt 1971), bisecting when the secant
    point is not strictly inside the bracket.  Stops when the bracket is at
    most xtol wide, when the exact f at its f >= 0 end is at most ftol, or
    when no float is left between the ends.
    """
    # a is the f >= 0 end and b the f < 0 end; wa and wb are their secant
    # weights, and the Illinois step halves the weight of an end that stays.
    a, fa, b, wb = (lo, f_lo, hi, f_hi) if f_lo >= 0.0 else (hi, f_hi, lo, f_lo)
    wa = fa
    moved = 0  # +1 when a moved last, -1 when b did
    while abs(b - a) > xtol and fa > ftol:
        x = a - wa * (b - a) / (wb - wa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
            if x == a or x == b:
                break
        fx = f(x)
        if fx >= 0.0:
            a, fa, wa = x, fx, fx
            if moved > 0:
                wb *= 0.5
            moved = 1
        else:
            b, wb = x, fx
            if moved < 0:
                wa *= 0.5
            moved = -1
    return a


def _solve_phase(k: int, a: float, q: float, cfg: SolverConfig) -> float:
    """Smallest phase with P(a) = q on the branch where a is left of the peak.

    P(a; phi) grows from its value at lo, just above phi_min(k), up to 1 at
    peak_phase(k, a), where the peak sits exactly on a.  If it never drops
    below q, the constraint is inactive and lo, the deepest phase, is returned.
    """
    lo = phi_min(k).phi + 1e-12
    hi = peak_phase(k, a)
    f_lo = p_success(k, lo, a) - q
    if f_lo >= 0.0:
        return lo
    f_hi = p_success(k, hi, a) - q
    if f_hi < 0.0:
        raise BracketError(
            f"no sign change solving phase on band {k} at lambda={a}, level={q}"
        )
    # The >= q side, so the boundary value never undershoots q.
    return _root(lambda phi: p_success(k, phi, a) - q, lo, hi, f_lo, f_hi, cfg.phase_tol)


def march_level(k: int, phi: float, cfg: SolverConfig
                ) -> tuple[float, list[float], list[float], float]:
    """Greedy left-to-right segment construction from first phase phi.

    The first phase sets the common level q = P(band.lo; phi), and each later
    phase starts its segment at q.  Returns (q, phases, boundaries, gap), where
    gap = P(tail; phi_last) - q at the tail point (the interior minimum for
    k = 1, the band's upper edge for k >= 2): the march covers the band exactly
    when gap >= 0.  ``boundaries`` always starts at the band's lower edge.  It
    ends at the band's upper edge when covered, and holds only the segments'
    lower edges when the phase cap came first.  Level 1 is reached only at a
    peak, where no later segment can start, so a march at q = 1 (phi = pi on
    band.lo) stops after its first phase, uncovered, under any cap.  A level
    outside (0, 1], NaN included, is a DomainError.
    """
    band = iteration_band(k)
    a = band.lo
    q = p_success(k, phi, a)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"level q must be in (0, 1], got {q}")
    phases: list[float] = [phi]
    boundaries: list[float] = [a]
    while True:
        tail = min_point_k1(PhaseAngle(phi)) if k == 1 else band.hi
        gap = p_success(k, phi, tail) - q
        if gap >= 0.0:
            boundaries.append(band.hi)
            return q, phases, boundaries, gap
        # At q = 1 the curve meets the level only at its peak: no boundary past it.
        if len(phases) == cfg.max_nk or q == 1.0:
            return q, phases, boundaries, gap
        # P is 1 at the peak and below q at the tail: the next boundary is
        # where it falls back to q in between.
        a = _root(lambda lam: p_success(k, phi, lam) - q, peak(k, phi), tail, 1.0 - q, gap,
                  cfg.lambda_tol)
        boundaries.append(a)
        phi = _solve_phase(k, a, q, cfg)
        if phi >= phases[-1]:
            raise BracketError(
                f"phase ordering violated on band {k}: {phi} >= {phases[-1]}"
            )
        phases.append(phi)


def largest_min_success(k: int, n_k: int | None, cfg: SolverConfig, floor: float = 0.5
                        ) -> tuple[float, list[float], list[float]]:
    """Largest level achievable with exactly n_k phases on band k.

    The level is P(band.lo; phi_1), which rises with the first phase phi_1, so
    the search runs over phi_1: it is the root of the tail gap of the march
    from phi_1 capped at n_k phases, which is >= 0 exactly when that march
    covers the band, and covering is monotone decreasing in phi_1.  The
    bracket runs from the phase at level ``floor``, which that march is known
    to cover (BracketError if it does not), to pi, whose level is 1 and whose
    march never covers (P(tail; pi) < 1), and the search keeps the covered
    end, so the level it returns is at least ``floor``.  It stops on
    0 <= gap <= level_tol / 2, not on the width of the bracket, because the
    gap moves many times faster than the level when n_k is large.

    With n_k None, the floor probe also gives the phase count: its march runs
    under cfg.max_nk, and from each left boundary takes the deepest phase that
    still starts at the floor, whose curve stays at or above it furthest to
    the right, so it covers the band with the fewest phases that can.  n_k is
    that march's length (one phase when even the deepest phase starts above
    the floor), the least count whose largest level reaches the floor, and
    the probe is the search's covered bracket end.  A floor outside (0, 1) is
    a DomainError, and a band that march leaves uncovered is a ConfigError.
    """
    if n_k is None:
        if not 0.0 < floor < 1.0:
            raise DomainError(f"p_cri must be in (0, 1), got {floor}")
    elif not 1 <= n_k <= cfg.max_nk:
        raise ConfigError(f"n_k={n_k} outside [1, max_nk={cfg.max_nk}]")
    lo = iteration_band(k).lo
    phi_lo = _solve_phase(k, lo, floor, cfg)
    # The march is greedy, so capping it at n_k phases only cuts short the
    # probes that would need more; covered means covered with <= n_k phases,
    # and a covered floor probe is the same march under the cap.
    # _replace skips SolverConfig's checks, which n_k has just passed.
    probe = march_level(k, phi_lo, cfg._replace(max_nk=n_k or cfg.max_nk))
    if probe[3] < 0.0:
        if n_k is None:
            raise ConfigError(f"p_cri={floor} not reachable on band {k} within max_nk={cfg.max_nk}")
        raise BracketError(f"level {floor} not covered on band {k} with n_k={n_k}")
    capped = cfg._replace(max_nk=n_k or len(probe[1]))
    marches = {phi_lo: probe}

    def gap(phi: float) -> float:
        marches[phi] = march_level(k, phi, capped)
        return marches[phi][3]

    phi = _root(gap, phi_lo, math.pi, probe[3], gap(math.pi), 0.0, 0.5 * cfg.level_tol)
    q, phases, boundaries, _ = marches[phi]
    # The march may cover the band with fewer phases than allowed only when
    # the level is far below Q_k(n_k); at the supremum it uses all of them.
    return q, phases, boundaries


# No command calls it; perfbench/tracing.py patches it to time its calls.
def optimal_phase_count(k: int, p_cri: float, cfg: SolverConfig) -> int:
    """Least phase count whose largest minimum level reaches p_cri.

    The level search's floor probe gives it (see ``largest_min_success``),
    and at the supremum the search uses all n_k phases.
    """
    return len(largest_min_success(k, None, cfg, floor=p_cri)[1])


def build_plan(k: int, p_cri: float, cfg: SolverConfig | None = None) -> PhasePlan:
    """Full plan for one band: one level search, whose floor probe at p_cri
    gives the phase count, then the certified plan of its phases."""
    cfg = cfg or SolverConfig()
    _, phases, boundaries = largest_min_success(k, None, cfg, floor=p_cri)
    return make_plan(k, p_cri, phases, boundaries, cfg)


def make_plan(k: int, p_cri: float, phases: list[float], boundaries: list[float],
              cfg: SolverConfig) -> PhasePlan:
    """The one constructor of a PhasePlan, for fresh builds and cache loads.

    Raises DomainError unless p_cri is in (0, 1), there are n_k >= 1 phases,
    each in (phi_min(k), pi] (the solver's phases on band k, on which the
    certificate's closed forms stay finite), and n_k + 1 strictly increasing
    boundaries from band k's lower edge to its upper edge (that last is
    checked by ``_check_guarantee``), and the level is at least p_cri and at
    most the certified minimum plus level_tol.  Raises VerificationError when
    ``_check_guarantee`` cannot certify P >= p_cri - level_tol over the band.
    The plan's level q_k_pi = P(band.lo; phi_1) and its level_residual are
    the ones the certificate derives, never taken on trust.
    """
    if not 0.0 < p_cri < 1.0:
        raise DomainError(f"p_cri must be in (0, 1), got {p_cri}")
    if not 1 <= len(phases) == len(boundaries) - 1:
        raise DomainError(f"band {k}: {len(phases)} phases and {len(boundaries)} boundaries")
    if not all(lo < hi for lo, hi in zip(boundaries, boundaries[1:])):
        raise DomainError(f"band {k}: boundaries do not strictly increase")
    deepest = phi_min(k).phi
    for phi in phases:
        if not deepest < phi <= math.pi:
            raise DomainError(f"band {k}: phi must be in ({deepest}, pi], got {phi}")
    plan = PhasePlan(k, p_cri, tuple(phases), tuple(boundaries), None, None)
    worst, q, residual = _check_guarantee(plan, cfg)
    if q < p_cri:
        raise DomainError(f"band {k}: level {q} below p_cri={p_cri}")
    if q > worst + cfg.level_tol:
        raise DomainError(f"band {k}: level {q} above the certified minimum {worst}")
    return plan._replace(q_k_pi=q, level_residual=residual)


def _falls_after_peak(k: int, phi: float, lam: float) -> bool:
    """Sufficient condition at lam for P to fall on [peak, lam] (k >= 2, band k)."""
    n = 2 * k + 1
    s = math.sin(0.5 * phi) ** 2
    x = lam * s
    half = n * math.asin(math.sqrt(x))  # n * delta / 2
    lhs = n * abs(math.tan(half)) * math.sqrt(s / (lam * (1.0 - x)))
    return lhs >= (1.0 - s) / ((1.0 - lam) * (1.0 - x))


def _check_guarantee(plan: PhasePlan, cfg: SolverConfig) -> tuple[float, float, float]:
    """Certified minimum of the planned success probability over band k, the
    plan's level P(band.lo; phi_1) and its equal-level residual.

    Raises DomainError unless the boundaries run from band.lo to band.hi, and
    VerificationError when the minimum is below p_cri - level_tol.  The
    residual is max - min of P at each segment's lower end and at the tail
    point: the last segment's minimum right of its lower end, which is P at
    band.hi for k >= 2 and at the interior minimum min_point_k1 for k = 1.
    P is 1 at band 1's upper edge, lam = 1, for every phase, so that value is
    taken there rather than computed.

    With n = 2k+1, s = sin^2(phi/2) and delta = 2*asin(sqrt(lam*s)), the
    kernel's A/B form gives

        1 - P = (1 - lam) * cos^2(n*delta/2) / cos^2(delta/2).

    k = 1: cos(3x)/cos(x) = 1 - 4 sin^2(x), so 1 - P = (1 - lam)(1 - 4 lam s)^2,
    a cubic whose only critical points are the peak 1/(4s) and min_point_k1.
    The minimum over a segment is P at its ends, or at min_point_k1 when that
    lies inside.

    k >= 2: on the band n*delta/2 < pi and lam*s < 1/4.  Left of the peak
    (n*delta/2 < pi/2) both (1 - lam)/(1 - lam*s) and cos^2(n*delta/2) fall,
    so P rises.  Right of it P falls where

        n |tan(n*delta/2)| delta'(lam) > (1 - s) / ((1 - lam)(1 - lam*s)),

    with delta' = sqrt(s / (lam (1 - lam*s))).  On [max(lo, peak), hi] the left
    side is smallest at hi (|tan| falls on (pi/2, pi) and lam(1 - lam*s) rises
    while lam*s < 1/2) and the right side is largest at hi, so the inequality
    at hi covers the whole segment and the minimum is at an endpoint.  A
    segment where it fails cannot be certified and raises VerificationError.
    """
    k = plan.k
    band = iteration_band(k)
    bounds = plan.boundaries
    if (bounds[0], bounds[-1]) != (band.lo, band.hi):
        raise DomainError(f"band {k}: segments do not tile [{band.lo}, {band.hi}] "
                          f"(boundaries span [{bounds[0]}, {bounds[-1]}])")
    worst = 1.0
    levels = []
    for phi, lo, hi in zip(plan.phases, bounds, bounds[1:]):
        levels.append(p_success(k, phi, lo))
        tail = 1.0 if hi == 1.0 else p_success(k, phi, hi)
        if k == 1:
            if phi > phi_min(1).phi:  # else the interior minimum is at or past 1
                m = min_point_k1(PhaseAngle(phi))
                if lo < m < hi:
                    tail = min(tail, p_success(1, phi, m))
        elif peak(k, phi) < hi and not _falls_after_peak(k, phi, hi):
            raise VerificationError(
                f"cannot certify plan for band {k} on [{lo}, {hi}] with phase {phi}"
            )
        worst = min(worst, levels[-1], tail)
    if worst < plan.p_cri - cfg.level_tol:
        raise VerificationError(
            f"plan for band {k} dips to {worst} < p_cri - level_tol"
        )
    levels.append(tail)
    return worst, levels[0], max(levels) - min(levels)
