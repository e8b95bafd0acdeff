import math

import numpy as np
import pytest

from darkstate.protocol import (
    DegenerateCouplingError,
    herald_dark_state,
    herald_outcomes,
    plus_projection_update,
    repeat_success_probability,
    simulate_repeat_protocol,
    u_ccp,
    u_cp,
)
from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    ket,
    partial_trace,
    state_fidelity,
)
from helpers import product_density, random_density_matrix


def diag_env(p0: float) -> DensityMatrix:
    return DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))


def evolve_cp(rho_s: np.ndarray, rho_e: np.ndarray, phi: float) -> np.ndarray:
    u = u_cp(phi)
    joint = u @ np.kron(rho_s, rho_e) @ u.conj().T
    return joint


MIXED = DensityMatrix(np.eye(2) / 2)


def dephased(rho_s: DensityMatrix, rho_e: DensityMatrix, phi: float) -> np.ndarray:
    """The closed form: <1|rho_s|0> picks up q = p0 + e^{i phi} p1 of the environment
    populations, <0|rho_s|1> its conjugate, and the coherences of rho_e do not enter."""
    q = rho_e.matrix[0, 0].real + np.exp(1j * phi) * rho_e.matrix[1, 1].real
    return rho_s.matrix * np.array([[1.0, np.conj(q)], [q, 1.0]])


# ---------------------------------------------------------------------------
# gates


def test_u_cp_values():
    np.testing.assert_allclose(u_cp(0.0), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(u_cp(math.pi), np.diag([1, 1, 1, -1]), atol=1e-15)
    np.testing.assert_allclose(u_cp(math.pi / 2.0), np.diag([1, 1, 1, 1j]), atol=1e-15)
    # the coupling phase is taken in [0, 2*pi)
    u_cp(6.28)
    for phi in (2.0 * math.pi, -0.1):
        with pytest.raises(ValueError):
            u_cp(phi)


def test_u_ccp_values_and_blocks():
    np.testing.assert_allclose(u_ccp(0.0), np.eye(8), atol=1e-15)
    phi = 1.2345
    mat = u_ccp(phi)
    expected = np.ones(8, dtype=complex)
    expected[7] = np.exp(1j * phi)
    np.testing.assert_allclose(mat, np.diag(expected), atol=1e-15)
    # register order (P, S, E): fixing S = 1 leaves u_cp acting on (P, E)
    s1 = [2, 3, 6, 7]
    np.testing.assert_allclose(mat[np.ix_(s1, s1)], u_cp(phi), atol=1e-15)
    s0 = [0, 1, 4, 5]
    np.testing.assert_allclose(mat[np.ix_(s0, s0)], np.eye(4), atol=1e-15)


def test_u_ccp_pi_flips_111():
    v = np.zeros(8, dtype=complex)
    v[7] = 1.0
    np.testing.assert_allclose(u_ccp(math.pi) @ v, -v, atol=1e-15)


# ---------------------------------------------------------------------------
# dephasing equivalence


def test_dephasing_equals_exact_evolution():
    # the central oracle: the dephasing factor reproduces the full two-qubit
    # evolution for every signal state, including environments with coherences
    rng = np.random.default_rng(11)
    envs = [MIXED, diag_env(0.3)] + [random_density_matrix(1, rng) for _ in range(3)]
    for rho_e in envs:
        for phi in (0.4, math.pi / 2.0, math.pi, 5.1):
            for lab in BASIS_LABELS:
                rho_s = product_density(lab)
                joint = evolve_cp(rho_s.matrix, rho_e.matrix, phi)
                exact = partial_trace(DensityMatrix(joint), (0,))
                np.testing.assert_allclose(dephased(rho_s, rho_e, phi), exact.matrix, atol=1e-12)


def test_dephasing_random_signal_states():
    rng = np.random.default_rng(12)
    for _ in range(5):
        rho_s = random_density_matrix(1, rng)
        rho_e = random_density_matrix(1, rng)
        phi = rng.uniform(0.05, 6.2)
        joint = evolve_cp(rho_s.matrix, rho_e.matrix, phi)
        exact = partial_trace(DensityMatrix(joint), (0,))
        np.testing.assert_allclose(dephased(rho_s, rho_e, phi), exact.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# heralding


def test_herald_probability_closed_form():
    rng = np.random.default_rng(13)
    for phi in np.linspace(0.0, 2.0 * math.pi, 34)[1:-1]:
        p0 = rng.uniform(0.05, 0.95)
        outcome = herald_dark_state(diag_env(p0), phi)
        assert outcome.success
        assert outcome.probability == pytest.approx(p0 * math.sin(phi / 2.0) ** 2, abs=1e-12)


def test_herald_prepares_dark_state():
    rng = np.random.default_rng(14)
    zero = ket("0")
    for _ in range(8):
        rho_e = random_density_matrix(1, rng)   # coherences allowed
        phi = rng.uniform(0.2, 6.0)
        outcome = herald_dark_state(rho_e, phi)
        env = partial_trace(outcome.post_state, (1,))
        assert state_fidelity(env.matrix, zero) == pytest.approx(1.0, abs=1e-10)


def test_herald_post_state_probe_component():
    phi = 2.0
    outcome = herald_dark_state(MIXED, phi)
    probe = partial_trace(outcome.post_state, (0,))
    perp = np.array([1.0, -np.exp(1j * phi)]) / math.sqrt(2.0)
    assert state_fidelity(probe.matrix, perp) == pytest.approx(1.0, abs=1e-12)


def test_herald_branches_sum_to_one():
    rng = np.random.default_rng(15)
    for _ in range(6):
        rho_e = random_density_matrix(1, rng)
        phi = rng.uniform(0.1, 6.2)
        succ, fail = herald_outcomes(rho_e, phi)
        assert succ.probability + fail.probability == pytest.approx(1.0, abs=1e-12)
        assert succ.success and not fail.success


def test_herald_vanishes_at_small_phi():
    probs = [herald_dark_state(MIXED, phi).probability for phi in (0.3, 0.1, 0.01)]
    assert probs[0] > probs[1] > probs[2]
    assert probs[2] < 1e-4


def test_herald_zero_phi_is_error():
    with pytest.raises(DegenerateCouplingError):
        herald_dark_state(MIXED, 0.0)


def test_herald_env_in_one_returns_failure_branch():
    outcome = herald_dark_state(product_density("1"), math.pi / 2.0)
    assert not outcome.success
    assert outcome.probability == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("phi", [1e-7, 2.0 * math.pi - 1e-7])
def test_herald_below_roundoff_returns_failure_branch(phi):
    # success weight ~1e-15: project drops the branch, so there is no dark state to return,
    # and the dropped branch reads weight 0, as in the sweep's stacked projection
    succ, _fail = herald_outcomes(MIXED, phi)
    assert succ.probability == 0.0 and succ.post_state is None
    outcome = herald_dark_state(MIXED, phi)
    assert not outcome.success and outcome.post_state is not None
    assert outcome.probability == pytest.approx(1.0, abs=1e-12)


def test_post_herald_coupling_is_switched_off():
    # the point of the protocol: after a successful herald any later signal
    # survives the interaction untouched
    for phi in (0.7, math.pi / 2.0, math.pi, 4.4):
        outcome = herald_dark_state(MIXED, phi)
        env = partial_trace(outcome.post_state, (1,))
        for lab in BASIS_LABELS:
            signal = product_density(lab)
            joint = evolve_cp(signal.matrix, env.matrix, phi)
            rho_out = partial_trace(DensityMatrix(joint), (0,))
            assert state_fidelity(rho_out.matrix, ket(lab)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# repetition


def test_repeat_single_round_reduces_to_single_shot():
    for p0 in (0.25, 0.8):
        for phi in (0.9, math.pi):
            single = p0 * math.sin(phi / 2.0) ** 2
            assert repeat_success_probability(p0, phi, 1, False) == pytest.approx(single, abs=1e-15)
            assert repeat_success_probability(p0, phi, 1, True) == pytest.approx(single, abs=1e-15)


def test_repeat_closed_forms_match_simulation():
    for p0 in (0.25, 0.5, 0.9):
        rho_e = diag_env(p0)
        for phi in (math.pi / 4.0, math.pi / 2.0, math.pi):
            for n in range(1, 6):
                for thermalizing in (False, True):
                    sim = simulate_repeat_protocol(rho_e, phi, n, thermalizing)
                    closed = repeat_success_probability(p0, phi, n, thermalizing)
                    assert sim == pytest.approx(closed, abs=1e-12)


def test_repeat_derived_value():
    # p0 = 0.5, phi = pi/2, three rounds without thermalization
    expected = 0.5 * (1.0 - math.cos(math.pi / 4.0) ** 6)
    assert expected == pytest.approx(0.4375, abs=1e-15)
    assert repeat_success_probability(0.5, math.pi / 2.0, 3, False) == pytest.approx(0.4375, abs=1e-15)


def test_repeat_monotone_and_asymptotics():
    probs_nt = [repeat_success_probability(0.6, math.pi / 2.0, n, False) for n in range(1, 12)]
    probs_t = [repeat_success_probability(0.6, math.pi / 2.0, n, True) for n in range(1, 12)]
    assert all(b >= a - 1e-15 for a, b in zip(probs_nt, probs_nt[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(probs_t, probs_t[1:]))
    assert repeat_success_probability(0.6, math.pi / 2.0, 400, False) == pytest.approx(0.6, abs=1e-9)
    assert repeat_success_probability(0.6, math.pi / 2.0, 400, True) == pytest.approx(1.0, abs=1e-9)


def test_repeat_validation():
    with pytest.raises(ValueError):
        repeat_success_probability(1.2, 1.0, 3, True)
    with pytest.raises(ValueError):
        repeat_success_probability(0.5, 1.0, 0, True)


# ---------------------------------------------------------------------------
# population-ratio protocol (unknown coupling strength)


def test_plus_projection_matches_ratio_law():
    for p0 in (0.4, 0.7):
        for phi in (0.8, math.pi / 2.0, 2.4):
            rho = diag_env(p0)
            expected_ratio = (1.0 - p0) / p0
            for _ in range(4):
                _w, rho = plus_projection_update(rho, phi)
                expected_ratio *= math.cos(phi / 2.0) ** 2
                ratio = rho.matrix[1, 1].real / rho.matrix[0, 0].real
                assert ratio == pytest.approx(expected_ratio, abs=1e-12)


def test_plus_projection_ratio_law_with_coherences():
    rng = np.random.default_rng(17)
    rho = random_density_matrix(1, rng)
    phi = 1.3
    ratio0 = rho.matrix[1, 1].real / rho.matrix[0, 0].real
    _w, out = plus_projection_update(rho, phi)
    ratio1 = out.matrix[1, 1].real / out.matrix[0, 0].real
    assert ratio1 == pytest.approx(ratio0 * math.cos(phi / 2.0) ** 2, abs=1e-12)
