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
