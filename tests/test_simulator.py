"""Exact simulators: 2x2 subspace model and full statevector oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmqsearch.analytic import TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.kernels import p_success
from cmqsearch.simulator import evolve, run_long_exact, statevector_run
from oracles import (TRAJECTORY_SHA256, evolve_two_level, g_matrix, trajectory_sha256,
                     two_level_closed_form)

PI = math.pi


# --------------------------------------------------------------------- g matrix

def _max_deviation(g, want):
    """Largest |g_ij - want_ij| over two 2x2 matrices given as rows."""
    return max(abs(x - y) for row, want_row in zip(g, want) for x, y in zip(row, want_row))


def test_g_matrix_grover_case():
    g = g_matrix(PI, PI / 6)
    want = ((0.5, math.sqrt(3) / 2), (-math.sqrt(3) / 2, 0.5))
    assert _max_deviation(g, want) <= 1e-14
    assert max(abs(x.imag) for row in g for x in row) < 1e-14


def test_g_matrix_small_phase_limit():
    g = g_matrix(1e-9, 0.7)
    assert _max_deviation(g, ((-1.0, 0.0), (0.0, -1.0))) <= 1e-8


@settings(max_examples=100)
@given(phi=st.floats(min_value=1e-6, max_value=PI),
       theta=st.floats(min_value=1e-3, max_value=PI / 2 - 1e-3))
def test_g_matrix_unitary(phi, theta):
    g = g_matrix(phi, theta)
    gh_g = tuple(tuple(sum(g[r][i].conjugate() * g[r][j] for r in range(2)) for j in range(2))
                 for i in range(2))
    assert _max_deviation(gh_g, ((1.0, 0.0), (0.0, 1.0))) < 1e-12


def test_g_matrix_rejects_bad_theta():
    with pytest.raises(DomainError):
        g_matrix(PI, 0.0)


# ----------------------------------------------------------- two-level evolution

def test_evolve_examples():
    assert evolve_two_level(1, PI, TargetFraction(0.25)).success_probability \
        == pytest.approx(1.0, abs=1e-12)
    assert evolve_two_level(0, 1.7, TargetFraction(0.37)).success_probability \
        == pytest.approx(0.37, abs=1e-14)
    assert evolve_two_level(1, 2.134, TargetFraction(0.25)).success_probability \
        == pytest.approx(0.9593, abs=1e-3)


@settings(max_examples=150)
@given(k=st.integers(min_value=0, max_value=15),
       phi=st.floats(min_value=0.1, max_value=PI),
       lam=st.floats(min_value=0.01, max_value=0.99))
def test_evolve_matches_analytic_and_closed_form(k, phi, lam):
    state = evolve_two_level(k, phi, TargetFraction(lam))
    assert abs(state.a) ** 2 + abs(state.b) ** 2 == pytest.approx(1.0, abs=1e-12)
    if k >= 1:
        want = p_success(k, phi, lam)
        assert state.success_probability == pytest.approx(want, abs=1e-10)
    # closed-form amplitude, global phase included
    a_cf = two_level_closed_form(k, phi, TargetFraction(lam))
    assert abs(state.a - a_cf) < 1e-10


# ------------------------------------------------------------------- statevector

def test_statevector_examples():
    assert statevector_run(2, 1, 1, PI) == pytest.approx(1.0, abs=1e-12)
    assert statevector_run(4, 8, 0, 2.0) == pytest.approx(0.5, abs=1e-14)
    got = statevector_run(10, 102, 2, 2.163)
    assert abs(got - p_success(2, 2.163, 102 / 1024)) < 1e-10


def test_statevector_validation():
    # a register of 1..MAX_QUBITS qubits with 0 < m < 2^n marked items, through
    # both entry points, and k >= 0
    for n, m in ((0, 1), (11, 1), (15, 1), (3, 0), (3, 8), (3, -1)):
        with pytest.raises(DomainError):
            evolve(n, m, 0, PI)
        with pytest.raises(DomainError):
            run_long_exact(n, m)
    with pytest.raises(DomainError):
        evolve(3, 1, -1, PI)


def test_norm_preserved_over_many_iterations():
    amps = evolve(6, 3, 1000, 2.0)
    assert math.fsum(abs(a) ** 2 for a in amps) == pytest.approx(1.0, abs=1e-10)


def test_subspace_uniformity():
    for k in range(1, 8):
        amps = evolve(5, 3, k, 1.9)
        assert max(abs(a - amps[0]) for a in amps[:3]) < 1e-12
        assert max(abs(a - amps[3]) for a in amps[3:]) < 1e-12


@pytest.mark.parametrize("n,m,phi", list(TRAJECTORY_SHA256))
def test_trajectory_bits_are_pinned(n, m, phi):
    # the readings after 0..12 iterations keep every bit: the amplitude arithmetic
    # and the order of its steps are fixed, on every supported Python
    assert trajectory_sha256(n, m, phi) == TRAJECTORY_SHA256[n, m, phi]


# ------------------------------------------------------------------ exact search

@pytest.mark.parametrize("n,m", [(2, 1), (6, 5), (10, 1)])
def test_run_long_exact(n, m):
    assert run_long_exact(n, m) == pytest.approx(1.0, abs=1e-9)
