import math

import numpy as np
import pytest

from darkstate.protocol import (
    DegenerateCouplingError,
    _herald_kets,
    herald_dark_state,
    herald_outcomes,
    plus_projection_update,
    probe_branches,
    repeat_success_probability,
    simulate_repeat_protocol,
    u_ccp,
)
from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    expand_operator,
    ket,
    partial_trace_array,
    projector,
    state_fidelity,
)
from helpers import partial_trace, product_density, project, random_density_matrix, u_cp


def diag_env(p0: float) -> DensityMatrix:
    return DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))


def evolve_cp(rho_s: np.ndarray, rho_e: np.ndarray, phi: float) -> np.ndarray:
    u = u_cp(phi)
    joint = u @ np.kron(rho_s, rho_e) @ u.conj().T
    return joint


MIXED = DensityMatrix(np.eye(2) / 2)
EDGE_PHIS = [1e-7, 2.0 * math.pi - 1e-7]


def dense_branch(rho_e: DensityMatrix, phi: float, probe: np.ndarray) -> tuple[float, np.ndarray]:
    """The joint (probe, environment) branch of a |+> probe coupled by u_cp(phi) and found
    in ``probe``, projected on the dense joint state."""
    joint = evolve_cp(projector(ket("+")), rho_e.matrix, phi)
    return project(joint, expand_operator(projector(probe), 2, (0,)))


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
        assert state_fidelity(outcome.post_state.matrix, zero) == pytest.approx(1.0, abs=1e-10)


def test_herald_post_state_probe_component():
    # the measured probe is gone from the record, but the dense joint success state
    # is the found probe ket times the environment it leaves
    phi = 2.0
    outcome = herald_dark_state(MIXED, phi)
    perp = np.array([1.0, -np.exp(1j * phi)]) / math.sqrt(2.0)
    _w, joint = dense_branch(MIXED, phi, perp)
    np.testing.assert_allclose(joint, np.kron(projector(perp), outcome.post_state.matrix),
                               rtol=0.0, atol=1e-12)


def test_herald_post_states_are_the_branch_map():
    # each branch's record is the environment that probe_branches leaves, renormalized
    rng = np.random.default_rng(16)
    for _ in range(6):
        rho_e = random_density_matrix(1, rng)
        phi = rng.uniform(0.1, 6.2)
        posts = probe_branches(rho_e.matrix, [phi], [_herald_kets(phi)])[0]
        for outcome, post in zip(herald_outcomes(rho_e, phi), posts):
            assert outcome.post_state.matrix.shape == (2, 2)
            assert outcome.post_state.matrix.tobytes() == (post / outcome.probability).tobytes()


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
    # success weight ~1e-15: herald_outcomes drops a branch at roundoff weight, so there
    # is no dark state to return, and the dropped branch reads weight 0 and no state
    succ, _fail = herald_outcomes(MIXED, phi)
    assert succ.probability == 0.0 and succ.post_state is None
    outcome = herald_dark_state(MIXED, phi)
    assert not outcome.success and outcome.post_state is not None
    assert outcome.probability == pytest.approx(1.0, abs=1e-12)


def test_herald_success_populations_never_go_negative():
    # K env K† builds each population from squared moduli; projecting the joint state
    # left 1784 of these 4004 |1> populations at up to -1.4e-13
    phis = list(np.linspace(0.01, 2.0 * math.pi - 0.01, 2001)) + [math.pi]
    pops = [herald_outcomes(DensityMatrix(env), phi)[0].post_state.matrix[1, 1].real
            for env in (np.eye(2) / 2, projector(ket("+"))) for phi in phis]
    assert len(pops) == 4004 and min(pops) >= 0.0


def test_herald_outcomes_match_dense_projection():
    # the product form against the environment marginal of the dense joint projection
    rng = np.random.default_rng(18)
    for _ in range(6):
        rho_e = random_density_matrix(1, rng)
        phi = rng.uniform(0.1, 6.2)
        for outcome, probe in zip(herald_outcomes(rho_e, phi),
                                  (np.array([1.0, sign * np.exp(1j * phi)]) / math.sqrt(2.0)
                                   for sign in (-1.0, 1.0))):
            w, post = dense_branch(rho_e, phi, probe)
            assert outcome.probability == pytest.approx(w, abs=1e-12)
            np.testing.assert_allclose(outcome.post_state.matrix,
                                       partial_trace_array(post, 2, (1,)), rtol=0.0, atol=1e-12)


def test_post_herald_coupling_is_switched_off():
    # the point of the protocol: after a successful herald any later signal
    # survives the interaction untouched
    for phi in (0.7, math.pi / 2.0, math.pi, 4.4):
        env = herald_dark_state(MIXED, phi).post_state
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
    # near phi = 0 and 2 pi every success branch is at roundoff weight and reads 0,
    # against a closed form of about n p0 phi^2 / 4 ~ 1e-14
    for p0 in (0.25, 0.5, 0.9):
        rho_e = diag_env(p0)
        for phi in [math.pi / 4.0, math.pi / 2.0, math.pi] + EDGE_PHIS:
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
        for phi in [0.8, math.pi / 2.0, 2.4] + EDGE_PHIS:
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


def test_plus_projection_matches_dense_projection():
    rng = np.random.default_rng(19)
    for _ in range(6):
        rho_e = random_density_matrix(1, rng)
        phi = rng.uniform(0.0, 6.2)
        w, post = plus_projection_update(rho_e, phi)
        dense_w, dense_post = dense_branch(rho_e, phi, ket("+"))
        assert w == pytest.approx(dense_w, abs=1e-12)
        np.testing.assert_allclose(post.matrix, partial_trace_array(dense_post, 2, (1,)),
                                   rtol=0.0, atol=1e-12)
