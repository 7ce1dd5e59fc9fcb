"""Closed-form layer: rotation angle, probability, extrema, bands, counts."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmqsearch import kernels
from cmqsearch.analytic import (
    K_MAX,
    PhaseAngle,
    TargetFraction,
    grover_iterations,
    iteration_band,
    iterations_for,
    min_point_k1,
    peak,
    peak_phase,
    phi_min,
)
from cmqsearch.errors import DomainError
from oracles import local_maxima

PI = math.pi


# ------------------------------------------------------------------ type guards

@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5])
def test_target_fraction_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        TargetFraction(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, PI + 1e-9])
def test_phase_angle_rejects_out_of_range(bad):
    with pytest.raises(DomainError):
        PhaseAngle(bad)


def test_target_fraction_is_frozen():
    with pytest.raises(DomainError, match=r"^lambda must be in \(0, 1\), got 1.5$"):
        TargetFraction(1.5)
    lam = TargetFraction(0.25)
    for name in ("lam", "theta", "extra"):
        with pytest.raises(AttributeError):
            setattr(lam, name, 0.5)
    assert lam == TargetFraction(lam=0.25) and hash(lam) == hash(TargetFraction(0.25))
    assert repr(lam) == f"TargetFraction(lam=0.25, theta={lam.theta!r})"


def test_phase_angle_is_frozen():
    with pytest.raises(DomainError, match=r"^phi must be in \(0, pi\], got -1.0$"):
        PhaseAngle(-1.0)
    phi = PhaseAngle(1.0)
    for name in ("phi", "extra"):
        with pytest.raises(AttributeError):
            setattr(phi, name, 0.5)
    assert phi == PhaseAngle(phi=1.0) and hash(phi) == hash(PhaseAngle(1.0))
    assert repr(phi) == "PhaseAngle(phi=1.0)"


def test_theta_cached():
    lam = TargetFraction(0.25)
    assert lam.theta == pytest.approx(PI / 6.0, abs=1e-15)


# -------------------------------------------------------------- rotation angle

def test_rotation_angle_examples():
    assert kernels.delta_angle(PI, 0.25) == pytest.approx(PI / 3, abs=1e-14)
    assert kernels.delta_angle(PI, 0.75) == pytest.approx(2 * PI / 3, abs=1e-14)
    # continuity: delta -> 0+ as lambda -> 0+
    assert 0.0 < kernels.delta_angle(PI, 1e-12) < 1e-5


@settings(max_examples=200)
@given(lam=st.floats(min_value=1e-9, max_value=1 - 1e-9),
       phi=st.floats(min_value=1e-6, max_value=PI))
def test_rotation_angle_defining_identity(lam, phi):
    d = kernels.delta_angle(phi, lam)
    assert math.cos(d) == pytest.approx(1.0 - lam * (1.0 - math.cos(phi)), abs=1e-12)


# --------------------------------------------------------- success probability

def test_success_probability_examples():
    assert kernels.p_success(1, PI, 0.25) == pytest.approx(1.0, abs=1e-12)
    assert kernels.p_success(1, PI, 0.75) == pytest.approx(0.0, abs=1e-12)
    assert kernels.p_success(1, 2.134, 0.25) == pytest.approx(0.9593, abs=1e-3)


def test_success_probability_frozen_value():
    # independently cross-checked against the exact statevector simulator
    assert kernels.p_success(1, 2.134, 0.25) == pytest.approx(
        0.9592653878673654, abs=1e-12)


def test_coefficients_reconstruct_probability():
    # P = A*cos((2k+1)*delta) + B with A, B in the sin^2(theta)/sin^2(delta)
    # form, which the kernel rewrites without the division by sin^2(delta).
    for k, phi, lam in ((3, 2.0, 0.15), (1, PI, 0.25), (8, 2.432, 0.01)):
        s2t, c2t = lam, 1.0 - lam  # sin^2(theta), cos^2(theta)
        d = math.acos(1.0 - lam * (1.0 - math.cos(phi)))
        s2d = math.sin(d) ** 2
        a = -s2t * c2t * (1.0 - math.cos(phi)) / s2d
        b = s2t * (1.0 - math.cos(phi)) * (1.0 + s2t * math.cos(phi)) / s2d
        p = a * math.cos((2 * k + 1) * d) + b
        assert kernels.p_success(k, phi, lam) == pytest.approx(p, abs=1e-12), (k, phi, lam)


# ------------------------------------------------------------------- derivative

def test_derivative_zero_at_extrema():
    assert kernels.p_derivative(1, PI, 0.25) == pytest.approx(0.0, abs=1e-9)
    assert kernels.p_derivative(1, PI, 0.75) == pytest.approx(0.0, abs=1e-9)


def test_derivative_matches_finite_difference_example():
    lam = 0.15
    h = 1e-6
    fd = (kernels.p_success(2, PI, lam + h) - kernels.p_success(2, PI, lam - h)) / (2 * h)
    d = kernels.p_derivative(2, PI, lam)
    assert abs(d - fd) < 1e-5 * abs(fd)


@settings(max_examples=100)
@given(k=st.integers(min_value=1, max_value=6),
       phi=st.floats(min_value=0.5, max_value=PI),
       lam=st.floats(min_value=0.01, max_value=0.95))
def test_derivative_consistency_random(k, phi, lam):
    h = 1e-7
    fd = (kernels.p_success(k, phi, lam + h) - kernels.p_success(k, phi, lam - h)) / (2 * h)
    d = kernels.p_derivative(k, phi, lam)
    assert abs(d - fd) < 1e-4 * max(1.0, abs(fd))


# ---------------------------------------------------------------------- extrema

def test_local_maxima_examples():
    assert local_maxima(1, PhaseAngle(PI)) == pytest.approx([0.25], abs=1e-14)
    assert local_maxima(2, PhaseAngle(PI)) == pytest.approx(
        [(1 - math.cos(PI / 5)) / 2, (1 - math.cos(3 * PI / 5)) / 2], abs=1e-14)
    assert local_maxima(1, PhaseAngle(PI / 2)) == pytest.approx([0.5], abs=1e-14)


def test_local_maxima_are_unit_probability():
    for k in range(1, 9):
        for phi in (PI, 2.5, 2.0, 1.6):
            if phi <= phi_min(k).phi:
                continue
            for lam in local_maxima(k, PhaseAngle(phi)):
                p = kernels.p_success(k, phi, lam)
                assert abs(p - 1.0) < 1e-10, (k, phi, lam, p)


def test_local_maxima_strictly_increasing_and_filtered():
    pts = local_maxima(4, PhaseAngle(1.2))
    assert all(x < y for x, y in zip(pts, pts[1:]))
    assert all(p < 1.0 for p in pts)
    assert len(pts) <= 4


def test_first_max_point_examples():
    assert peak(1, PI) == pytest.approx(0.25, abs=1e-14)
    assert peak(1, 2 * PI / 3) == pytest.approx(1 / 3, abs=1e-14)
    # peak_phase inverts peak on every band, from its lower edge (phi = pi) up
    for k in (1, 2, 7, 100, 7854):
        band = iteration_band(k)
        assert peak_phase(k, band.lo) == pytest.approx(PI, abs=1e-7)
        for lam in (band.lo, 0.5 * (band.lo + band.hi), band.hi, min(1.0, 4 * band.hi)):
            assert peak(k, peak_phase(k, lam)) == pytest.approx(lam, rel=1e-12)
    with pytest.raises(DomainError):  # even phi = pi peaks right of band 2's lower edge
        peak_phase(2, 0.99 * iteration_band(2).lo)


def test_min_point_k1_examples():
    assert min_point_k1(PhaseAngle(PI)) == pytest.approx(0.75, abs=1e-14)
    assert min_point_k1(PhaseAngle(2 * PI / 3)) == pytest.approx(7 / 9, abs=1e-14)
    with pytest.raises(DomainError):
        min_point_k1(PhaseAngle(PI / 3))


def test_phi_min_examples():
    assert phi_min(1).phi == pytest.approx(PI / 3, abs=1e-12)
    assert phi_min(2).phi == pytest.approx(1.3324, abs=1e-3)
    assert phi_min(2).phi == pytest.approx(1.3324788649850305, abs=1e-12)  # frozen
    vals = [phi_min(k).phi for k in range(1, 40)]
    assert all(0.0 < v < PI for v in vals)
    for k in range(1, 41):  # the peak of phi_min(k) is band k's upper edge
        assert phi_min(k).phi == peak_phase(k, iteration_band(k).hi)


def test_extremum_count_on_bands():
    # exactly one descending sign change of dP/dlam on each band for k >= 2;
    # for k = 1 one maximum plus one minimum, the latter at min_point_k1.
    for k in range(2, 9):
        for phi in (PI, 0.5 * (phi_min(k).phi + PI)):
            band = iteration_band(k)
            n = 10_000
            xs = [band.lo + (band.hi - band.lo) * i / n for i in range(n + 1)]
            signs = [kernels.p_derivative(k, phi, x) > 0 for x in xs]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            assert changes == 1, (k, phi, changes)
            assert signs[0] and not signs[-1]
    phi = 2.5
    band = iteration_band(1)
    n = 10_000
    xs = [band.lo + (band.hi - band.lo) * i / n for i in range(n)]
    signs = [kernels.p_derivative(1, phi, x) > 0 for x in xs]
    flips = [i for i in range(n - 1) if signs[i] != signs[i + 1]]
    assert len(flips) == 2
    lam_min = min_point_k1(PhaseAngle(phi))
    assert abs(xs[flips[1]] - lam_min) < (band.hi - band.lo) / n + 1e-6


# ------------------------------------------------------------------------ bands

def test_iteration_band_examples():
    b1 = iteration_band(1)
    assert b1.lo == pytest.approx(0.25, abs=1e-15)
    assert b1.hi == 1.0
    b2 = iteration_band(2)
    assert b2.lo == pytest.approx((3 - math.sqrt(5)) / 8, abs=1e-15)
    assert b2.hi == pytest.approx(0.25, abs=1e-15)
    b8 = iteration_band(8)
    assert b8.lo == pytest.approx(0.008513, abs=5e-7)
    assert b8.hi == pytest.approx(0.010926, abs=5e-7)


def test_bands_tile_exactly():
    for k in range(1, 200):
        assert iteration_band(k + 1).hi == iteration_band(k).lo


# -------------------------------------------------------------- iteration counts

def test_iterations_for_examples():
    assert iterations_for(TargetFraction(0.5)) == 1
    assert iterations_for(TargetFraction(0.01)) == 8
    assert iterations_for(TargetFraction(0.25)) == 1  # exact half rounds down


def test_iterations_for_cap():
    with pytest.raises(DomainError):
        iterations_for(TargetFraction(1e-15))


@pytest.mark.parametrize("lam", [math.nextafter(iteration_band(K_MAX).lo, 0.0), 1e-15, 1e-300,
                                 5e-324])
def test_iterations_for_cap_names_lambda_and_cap(lam):
    # the message names lambda and the cap, not k, which has 150 digits at 1e-300
    assert iterations_for(TargetFraction(iteration_band(K_MAX).lo)) == K_MAX
    with pytest.raises(DomainError) as exc:
        iterations_for(TargetFraction(lam))
    assert str(exc.value) == f"lambda={lam!r} needs more than K_MAX={K_MAX} iterations"


def test_grover_iterations_examples():
    assert grover_iterations(TargetFraction(0.5)) == 0
    assert grover_iterations(TargetFraction(0.25)) == 1
    assert grover_iterations(TargetFraction(0.01)) == 7


@settings(max_examples=300)
@given(lam=st.floats(min_value=1e-4, max_value=1 - 1e-9))
@example(lam=0.09549150281252626)  # one ulp below band 2's lower edge
@example(lam=0.04951556604879043)  # one ulp below band 3's lower edge
def test_count_matches_band_membership(lam):
    k = iterations_for(TargetFraction(lam))
    band = iteration_band(k)
    assert band.lo <= lam < band.hi


def test_count_matches_band_membership_at_edges():
    # within 2 ulps of an edge the closed form alone misses about 1 point in 8
    for k in range(1, 20_001):
        edge = iteration_band(k).lo
        below = math.nextafter(edge, 0.0)
        above = math.nextafter(edge, 1.0)
        for lam in (math.nextafter(below, 0.0), below, edge, above, math.nextafter(above, 1.0)):
            got = iterations_for(TargetFraction(lam))
            assert got == (k if lam >= edge else k + 1), (k, lam)


@settings(max_examples=300)
@given(lam=st.floats(min_value=1e-4, max_value=1 - 1e-9))
def test_count_vs_grover_gap(lam):
    # one more iteration than Grover exactly on the upper part of band k
    t = TargetFraction(lam)
    k = iterations_for(t)
    gap = k - grover_iterations(t)
    assert gap in (0, 1)
    assert (gap == 1) == (lam >= math.sin(PI / (4 * k)) ** 2)
