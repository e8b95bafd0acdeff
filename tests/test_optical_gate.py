import math

import numpy as np
import pytest

from darkstate.optical_gate import (
    GateRealization,
    c3z_filter,
    ccp_success_probability,
    realize_ccp,
    signed_phase,
    solve_angles,
)
from darkstate.protocol import DegenerateCouplingError, u_ccp

GRID_8 = tuple(k * math.pi / 8.0 for k in (1, 2, 4, 6, 8, 10, 12, 14))


def success_formula(phi: float) -> float:
    return 1.0 / (9.0 + 9.0 * abs(math.sin(phi)))


# ---------------------------------------------------------------------------
# angle solver


def test_angles_at_pi():
    # cot(pi/2) = 0 forces x = y = z = 0; at the representable pi the
    # cotangent is ~6e-17, so the angles sit at the square root of that
    angles = solve_angles(math.pi)
    assert angles.x == pytest.approx(0.0, abs=1e-8)
    assert angles.y == pytest.approx(0.0, abs=1e-8)
    assert angles.z == pytest.approx(0.0, abs=1e-7)


def test_angles_at_half_pi():
    angles = solve_angles(math.pi / 2.0)
    assert angles.x == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert angles.y == angles.x
    assert angles.z == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_angle_relations_hold_on_grid():
    for phi in np.linspace(0.05, 2.0 * math.pi - 0.05, 40):
        a = solve_angles(phi)
        assert a.y == a.x
        mag = abs(signed_phase(phi))
        assert math.tan(a.x) ** 2 == pytest.approx(1.0 / math.tan(mag / 2.0), rel=1e-10)
        assert math.cos(a.z) == pytest.approx(
            math.sqrt(math.cos(a.x) ** 4 + math.sin(a.x) ** 4), abs=1e-12)
        assert 0.0 <= a.x < math.pi / 2.0
        assert 0.0 <= a.z <= math.pi / 2.0


def test_angles_continuous_on_upper_branch():
    # x(phi) ends in a square-root cusp at pi, so continuity shows up as
    # the maximal step shrinking like sqrt(grid spacing)
    steps = {}
    for n in (200, 2000):
        phis = np.linspace(0.1, math.pi, n)
        xs = np.array([solve_angles(p).x for p in phis])
        zs = np.array([solve_angles(p).z for p in phis])
        steps[n] = max(np.abs(np.diff(xs)).max(), np.abs(np.diff(zs)).max())
    assert steps[200] < 0.15
    assert steps[2000] < 0.05
    assert steps[2000] < steps[200]


def test_angles_reject_zero_phi():
    with pytest.raises(DegenerateCouplingError):
        solve_angles(0.0)


# ---------------------------------------------------------------------------
# coincidence filter


def test_c3z_filter_pass_probability():
    k = c3z_filter().matrix
    gram = k.conj().T @ k
    for i in range(16):
        basis = np.zeros(16)
        basis[i] = 1.0
        assert basis @ gram @ basis == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_c3z_filter_phase():
    k = c3z_filter().matrix
    v = np.zeros(16, dtype=complex)
    v[15] = 1.0
    np.testing.assert_allclose(k @ v, -v / 3.0, atol=1e-15)


def test_c3z_rescaled_is_involutive_unitary():
    u = 3.0 * c3z_filter().matrix
    np.testing.assert_allclose(u @ u, np.eye(16), atol=1e-14)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-14)


# ---------------------------------------------------------------------------
# success probability


def test_success_probability_values():
    assert ccp_success_probability(0.0) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert ccp_success_probability(math.pi / 2.0) == pytest.approx(1.0 / 18.0, abs=1e-15)
    assert ccp_success_probability(math.pi) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert ccp_success_probability(1e-12) == pytest.approx(1.0 / 9.0, abs=1e-9)


# ---------------------------------------------------------------------------
# full realization


def test_realization_proportional_to_ideal_gate():
    for phi in GRID_8:
        real = realize_ccp(phi)
        eff = real.effective_operator()
        c = eff[0, 0]
        assert np.abs(eff - c * u_ccp(phi).matrix).max() < 1e-9
        assert abs(abs(c) ** 2 - success_formula(phi)) < 1e-9
        assert c == pytest.approx(real.success_amplitude, abs=1e-12)


def test_realization_random_phis():
    rng = np.random.default_rng(20)
    for phi in rng.uniform(0.02, 2.0 * math.pi - 0.02, size=12):
        real = realize_ccp(phi)
        eff = real.effective_operator()
        c = eff[0, 0]
        assert np.abs(eff - c * u_ccp(phi).matrix).max() < 1e-9
        assert abs(c) ** 2 == pytest.approx(success_formula(phi), abs=1e-9)


def test_realization_small_phi_limit():
    real = realize_ccp(1e-6)
    eff = real.effective_operator()
    c = eff[0, 0]
    assert np.abs(eff - c * u_ccp(1e-6).matrix).max() < 1e-9
    assert abs(c) ** 2 == pytest.approx(1.0 / 9.0, abs=1e-5)


def test_stage_tags_and_physicality():
    real = realize_ccp(2.2)
    names = [s.name for s in real.stages]
    assert names.count("ppbs-c3z") == 1
    assert names.count("aux-filtration") == 1
    for stage in real.stages:
        mat = stage.operator.matrix
        if stage.operator.unitary:
            np.testing.assert_allclose(mat.conj().T @ mat, np.eye(16), atol=1e-12)
        else:
            # postselection elements must not amplify: F†F <= I
            evals = np.linalg.eigvalsh(np.eye(16) - mat.conj().T @ mat)
            assert evals.min() > -1e-12


def test_aux_output_is_filtered():
    comp = realize_ccp(1.1).composite()
    # rows with the aux qubit in |1> must vanish after filtration
    assert np.abs(comp[1::2, :]).max() < 1e-14


def test_unitary_rescaling_of_filter_preserves_proportionality():
    phi = 2.6
    real = realize_ccp(phi)
    comp = np.eye(16, dtype=complex)
    for stage in real.stages:
        mat = stage.operator.matrix
        if stage.name == "ppbs-c3z":
            mat = 3.0 * mat
        comp = mat @ comp
    eff = comp[0::2, 0::2]
    c = eff[0, 0]
    assert np.abs(eff - c * u_ccp(phi).matrix).max() < 1e-9
    assert abs(c) ** 2 == pytest.approx(9.0 * success_formula(phi), abs=1e-9)


def test_realization_rejects_zero_phi():
    with pytest.raises(DegenerateCouplingError):
        realize_ccp(0.0)


def test_realization_type_fields():
    real = realize_ccp(0.9)
    assert isinstance(real, GateRealization)
    assert real.phi == pytest.approx(0.9)
    assert real.angles.y == real.angles.x
