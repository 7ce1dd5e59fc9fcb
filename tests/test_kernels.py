"""Properties of the success-probability kernel."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmqsearch import kernels

lam_st = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
phi_st = st.floats(min_value=1e-6, max_value=math.pi)
k_st = st.integers(min_value=0, max_value=50)


@settings(max_examples=300)
@given(k=k_st, phi=phi_st, lam=lam_st)
def test_probability_in_unit_interval(k, phi, lam):
    p = kernels.p_success(k, phi, lam)
    assert 0.0 <= p <= 1.0


@settings(max_examples=300)
@given(k=st.integers(min_value=1, max_value=20), phi=phi_st, lam=lam_st)
def test_phase_symmetry(k, phi, lam):
    # P(phi) == P(2*pi - phi), checked on the raw kernel before normalization.
    assert kernels.p_success(k, phi, lam) == pytest.approx(
        kernels.p_success(k, 2.0 * math.pi - phi, lam), abs=1e-12)


# Reference values of 1 - (1-lam) cos^2((2k+1) asin(sqrt(x))) / (1-x), with
# x = lam (1 - cos phi)/2, evaluated with mpmath at 60 digits on the exact
# binary inputs and frozen to 40.  Near lam*x = 1 the form A cos((2k+1) delta)
# + B cancels: it is off by 5.3e-5 and 5.4e-12 at these two points.
@pytest.mark.parametrize("k,phi,lam,want", [
    (1, 3.1415926271933143, 0.9999999999989542,
     0.9999999999905875291972541774763436079423),
    (1, 3.140625, 0.99999, 0.9999100024561642937221890005422729148005),
])
def test_probability_accurate_near_certainty(k, phi, lam, want):
    assert kernels.p_success(k, phi, lam) == pytest.approx(want, abs=2e-15)


def test_probability_at_zero_phase_is_lambda():
    assert kernels.p_success(3, 0.0, 0.37) == pytest.approx(0.37, abs=1e-16)
