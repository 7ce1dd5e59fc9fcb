"""Exact simulators: 2x2 subspace model and full statevector oracle."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmqsearch.analytic import PhaseAngle, TargetFraction
from cmqsearch.errors import DomainError
from cmqsearch.kernels import p_success
from cmqsearch.simulator import evolve, run_long_exact, statevector_run
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
    for n in (0, 11, 15):
        with pytest.raises(DomainError):
            evolve(n, {0}, 0, PhaseAngle(PI))
    with pytest.raises(DomainError):
        evolve(3, set(), 0, PhaseAngle(PI))
    with pytest.raises(DomainError):
        evolve(3, range(8), 0, PhaseAngle(PI))  # full set
    with pytest.raises(DomainError):
        evolve(3, {8}, 0, PhaseAngle(PI))
    with pytest.raises(DomainError):
        evolve(3, {0}, -1, PhaseAngle(PI))
    with pytest.raises(DomainError):
        run_long_exact(0, {0})
    with pytest.raises(DomainError):
        run_long_exact(11, {0})


def test_norm_preserved_over_many_iterations():
    amps, _ = evolve(6, {1, 5, 17}, 1000, PhaseAngle(2.0))
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_subspace_uniformity():
    for k in range(1, 8):
        amps, marked = evolve(5, {2, 9, 20}, k, PhaseAngle(1.9))
        assert marked == {2, 9, 20}
        mask = np.zeros(32, dtype=bool)
        mask[list(marked)] = True
        amps = np.array(amps)
        assert np.max(np.abs(amps[mask] - amps[mask][0])) < 1e-12
        assert np.max(np.abs(amps[~mask] - amps[~mask][0])) < 1e-12


# sha256 of repr([statevector_run(n, range(m), k, PhaseAngle(phi)) for k in range(13)])
TRAJECTORY_SHA256 = {
    (2, 1, PI): "634f224a6df1a0dea2ca039974b62dfa6029e2bee550946bd284c7a8e2e77678",
    (4, 3, 2.432): "67fdd301e1175737b2ac7f7fdab77d3d3faaf13f65e097826b80ca74bc1a1a25",
    (6, 16, 1.465): "8a45ef88543f6b9867e52a42a1510b333989b8296d7a5ff7245542f8fd28e67e",
    (10, 1, 0.7): "a8f8551280e099dc99b176e62a576fdf88737a9a0df2fd683a19ba9afc2b5741",
    (10, 512, 2.0): "da76f966d115e05ed040792cb9dc28a212ee39da6a744431aa7e41243a3232ca",
}


@pytest.mark.parametrize("n,m,phi", list(TRAJECTORY_SHA256))
def test_trajectory_bits_are_pinned(n, m, phi):
    # the readings after 0..12 iterations keep every bit: the amplitude arithmetic
    # and the order of its steps are fixed
    readings = [statevector_run(n, range(m), k, PhaseAngle(phi)) for k in range(13)]
    assert hashlib.sha256(repr(readings).encode()).hexdigest() == TRAJECTORY_SHA256[n, m, phi]


# ------------------------------------------------------------------ exact search

@pytest.mark.parametrize("n,m", [(2, 1), (6, 5), (10, 1)])
def test_run_long_exact(n, m):
    assert run_long_exact(n, range(m)) == pytest.approx(1.0, abs=1e-9)
