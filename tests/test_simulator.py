"""Exact simulators: 2x2 subspace model and full statevector oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.kernels import p_success
from cmqsearch.simulator import Statevector, run_long_exact, statevector_run
from oracles import evolve_two_level, g_matrix, two_level_closed_form

PI = math.pi


# --------------------------------------------------------------------- g matrix

def test_g_matrix_grover_case():
    g = np.array(g_matrix(PhaseAngle(PI), PI / 6))
    want = np.array([[0.5, math.sqrt(3) / 2], [-math.sqrt(3) / 2, 0.5]])
    assert np.allclose(g, want, atol=1e-14)
    assert np.max(np.abs(g.imag)) < 1e-14


def test_g_matrix_small_phase_limit():
    g = g_matrix(PhaseAngle(1e-9), 0.7)
    assert np.allclose(g, -np.eye(2), atol=1e-8)


@settings(max_examples=100)
@given(phi=st.floats(min_value=1e-6, max_value=PI),
       theta=st.floats(min_value=1e-3, max_value=PI / 2 - 1e-3))
def test_g_matrix_unitary(phi, theta):
    g = np.array(g_matrix(PhaseAngle(phi), theta))
    assert np.max(np.abs(g.conj().T @ g - np.eye(2))) < 1e-12


def test_g_matrix_rejects_bad_theta():
    with pytest.raises(DomainError):
        g_matrix(PhaseAngle(PI), 0.0)


# ----------------------------------------------------------- two-level evolution

def test_evolve_examples():
    assert evolve_two_level(1, PhaseAngle(PI), TargetFraction(0.25)).success_probability \
        == pytest.approx(1.0, abs=1e-12)
    assert evolve_two_level(0, PhaseAngle(1.7), TargetFraction(0.37)).success_probability \
        == pytest.approx(0.37, abs=1e-14)
    assert evolve_two_level(1, PhaseAngle(2.134), TargetFraction(0.25)).success_probability \
        == pytest.approx(0.9593, abs=1e-3)


@settings(max_examples=150)
@given(k=st.integers(min_value=0, max_value=15),
       phi=st.floats(min_value=0.1, max_value=PI),
       lam=st.floats(min_value=0.01, max_value=0.99))
def test_evolve_matches_analytic_and_closed_form(k, phi, lam):
    state = evolve_two_level(k, PhaseAngle(phi), TargetFraction(lam))
    assert abs(state.a) ** 2 + abs(state.b) ** 2 == pytest.approx(1.0, abs=1e-12)
    if k >= 1:
        want = p_success(k, phi, lam)
        assert state.success_probability == pytest.approx(want, abs=1e-10)
    # closed-form amplitude, global phase included
    a_cf = two_level_closed_form(k, PhaseAngle(phi), TargetFraction(lam))
    assert abs(state.a - a_cf) < 1e-10


# ------------------------------------------------------------------- statevector

def test_statevector_examples():
    assert statevector_run(2, {3}, 1, PhaseAngle(PI)) == pytest.approx(1.0, abs=1e-12)
    assert statevector_run(4, range(8), 0, PhaseAngle(2.0)) == pytest.approx(0.5, abs=1e-14)
    got = statevector_run(10, range(102), 2, PhaseAngle(2.163))
    assert abs(got - p_success(2, 2.163, 102 / 1024)) < 1e-10


def test_statevector_validation():
    with pytest.raises(DomainError):
        Statevector.uniform(15, {0})
    with pytest.raises(DomainError):
        Statevector.uniform(3, set())
    with pytest.raises(DomainError):
        Statevector.uniform(3, range(8))  # full set
    with pytest.raises(DomainError):
        Statevector.uniform(3, {8})
    with pytest.raises(DomainError):
        run_long_exact(0, {0})


def test_norm_preserved_over_many_iterations():
    state = Statevector.uniform(6, {1, 5, 17})
    phi = PhaseAngle(2.0)
    for _ in range(1000):
        state.apply_iteration(phi)
    assert np.sum(np.abs(state.amps) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_subspace_uniformity():
    state = Statevector.uniform(5, {2, 9, 20})
    idx = np.fromiter(state.marked, dtype=np.intp)
    mask = np.zeros(32, dtype=bool)
    mask[idx] = True
    for _ in range(7):
        state.apply_iteration(PhaseAngle(1.9))
        amps = np.array(state.amps)
        assert np.max(np.abs(amps[mask] - amps[mask][0])) < 1e-12
        assert np.max(np.abs(amps[~mask] - amps[~mask][0])) < 1e-12


@pytest.mark.parametrize("n,m,phi", [(2, 1, PI), (4, 3, 2.432), (6, 16, 1.465), (10, 1, 0.7),
                                     (10, 512, 2.0)])
def test_one_trajectory_reads_like_fresh_runs(n, m, phi):
    # verify's oracle suite reads one evolving state after k iterations; each
    # reading must equal a fresh run of k iterations bit for bit
    state = Statevector.uniform(n, range(m))
    for k in range(13):
        assert state.marked_probability() == statevector_run(n, range(m), k, PhaseAngle(phi))
        state.apply_iteration(PhaseAngle(phi))


# ------------------------------------------------------------------ exact search

@pytest.mark.parametrize("n,m", [(2, 1), (6, 5), (10, 1)])
def test_run_long_exact(n, m):
    assert run_long_exact(n, range(m)) == pytest.approx(1.0, abs=1e-9)
