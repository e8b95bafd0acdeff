import itertools
import math

import numpy as np
import pytest

from darkstate import experiments
from darkstate.experiments import (
    _CCP_SECTOR,
    DEFAULT_REFERENCE_GRID,
    BudgetError,
    NoiseParams,
    ScenarioConfig,
    _depolarize,
    _env_matrix,
    _gate_choi,
    _marginal_counts,
    _sample,
    _sector_damp,
    channel_choi_from_outputs,
    optimize_local_phase_fidelity,
    run_gate_tomography,
    run_protocol_sweep,
    run_reference_sweep,
    write_gate_csv,
)
from darkstate.optical_gate import realize_ccp
from darkstate.protocol import DegenerateCouplingError, u_ccp
from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    ket,
    max_entangled,
    projector,
)
from darkstate.tomography import build_state_settings, mle_state, process_fidelity
from helpers import product_ket

EF_DEPHASED_HALF = 0.6008760366928562   # entanglement at |q| = cos(pi/4)

ANALYTIC = dict(shot_noise=False)


def find_state(result, phi, label):
    return next(sp for sp in result.states if sp.phi == phi and sp.state == label)


# ---------------------------------------------------------------------------
# analytic closure


def test_protocol_ideal_is_lossless():
    result = run_protocol_sweep(ScenarioConfig(mode="protocol", **ANALYTIC))
    for sp in result.states:
        assert sp.fidelity.analytic == pytest.approx(1.0, abs=1e-10)
        assert sp.purity.analytic == pytest.approx(1.0, abs=1e-10)
        assert sp.env_pop1.analytic == pytest.approx(0.0, abs=1e-10)
    for pp in result.phis:
        assert pp.mean_env_pop1.analytic == pytest.approx(0.0, abs=1e-10)
        assert pp.channel_ef.analytic == pytest.approx(1.0, abs=1e-10)
        assert pp.channel_fidelity.analytic == pytest.approx(1.0, abs=1e-10)


def test_reference_dephasing_curves():
    result = run_reference_sweep(ScenarioConfig(mode="reference", **ANALYTIC))
    for sp in result.states:
        expected = 1.0 if sp.state in ("0", "1") else (1.0 + math.cos(sp.phi / 2.0) ** 2) / 2.0
        assert sp.fidelity.analytic == pytest.approx(expected, abs=1e-10)
        assert sp.purity.analytic == pytest.approx(expected, abs=1e-10)
        assert sp.env_pop1.analytic == pytest.approx(0.5, abs=1e-12)


def test_success_probability_normalization():
    proto = run_protocol_sweep(ScenarioConfig(mode="protocol", **ANALYTIC))
    for sp in proto.states:
        formula = math.sin(sp.phi / 2.0) ** 2 / (1.0 + abs(math.sin(sp.phi)))
        assert sp.success_norm.analytic == pytest.approx(formula, abs=1e-12)
    ref = run_reference_sweep(ScenarioConfig(mode="reference", **ANALYTIC))
    for sp in ref.states:
        assert sp.success_norm.analytic == pytest.approx(
            1.0 / (1.0 + abs(math.sin(sp.phi))), abs=1e-12)
    # anchors normalize to exactly one
    at_pi = find_state(proto, math.pi, "+") if any(
        sp.phi == math.pi for sp in proto.states) else None
    if at_pi is not None:
        assert at_pi.success_norm.analytic == pytest.approx(1.0, abs=1e-12)
    assert find_state(ref, 0.0, "+").success_norm.analytic == pytest.approx(1.0, abs=1e-12)


def test_protocol_beats_reference():
    grid = (0.9, math.pi / 2.0, math.pi, 4.5)
    proto = run_protocol_sweep(ScenarioConfig(mode="protocol", phi_grid=grid, **ANALYTIC))
    ref = run_reference_sweep(ScenarioConfig(mode="reference", phi_grid=grid, **ANALYTIC))
    for phi in grid:
        for lab in ("+", "-", "L", "R"):
            fp = find_state(proto, phi, lab).fidelity.analytic
            fr = find_state(ref, phi, lab).fidelity.analytic
            assert fp >= fr - 1e-12
            if phi == math.pi:
                assert fp > fr + 0.4


def test_plus_environment_scenario():
    cfg = ScenarioConfig(mode="protocol", env_state="plus", phi_grid=(math.pi / 2.0,),
                         **ANALYTIC)
    result = run_protocol_sweep(cfg)
    for sp in result.states:
        assert sp.fidelity.analytic == pytest.approx(1.0, abs=1e-10)
    cfg = ScenarioConfig(mode="reference", env_state="plus", phi_grid=(math.pi,),
                         **ANALYTIC)
    ref = run_reference_sweep(cfg)
    # populations of |+> match the mixed case, so dephasing curves coincide
    assert find_state(ref, math.pi, "+").fidelity.analytic == pytest.approx(0.5, abs=1e-10)


def test_custom_environment_state():
    env = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    cfg = ScenarioConfig(mode="protocol", env_state=env, phi_grid=(math.pi / 2.0,),
                         signal_states=("+",), **ANALYTIC)
    result = run_protocol_sweep(cfg)
    assert result.states[0].fidelity.analytic == pytest.approx(1.0, abs=1e-10)


def test_mixed_env_equals_six_state_average():
    # the maximally mixed environment is operationally an equal mixture of
    # the six alphabet states; Poisson additivity makes the two exactly
    # equivalent at the level of expected counts
    average = np.mean([projector(ket(lab)) for lab in BASIS_LABELS], axis=0)
    np.testing.assert_allclose(average, np.eye(2) / 2.0, atol=1e-15)


# ---------------------------------------------------------------------------
# noise model behaviour


def test_herald_error_at_pi_equals_epsilon():
    for eps in (0.0, 0.05, 0.1):
        cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi,),
                             noise=NoiseParams(herald_error=eps), **ANALYTIC)
        result = run_protocol_sweep(cfg)
        assert result.phis[0].mean_env_pop1.analytic == pytest.approx(eps, abs=1e-12)


def test_residual_population_grows_with_herald_error():
    values = []
    for eps in (0.0, 0.05, 0.1):
        cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi,),
                             noise=NoiseParams(herald_error=eps), **ANALYTIC)
        values.append(run_protocol_sweep(cfg).phis[0].mean_env_pop1.analytic)
    assert values[0] < values[1] < values[2]


def test_residual_population_decreases_with_phi():
    grid = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
    cfg = ScenarioConfig(mode="protocol", phi_grid=grid,
                         noise=NoiseParams(herald_error=0.05), **ANALYTIC)
    pops = [pp.mean_env_pop1.analytic for pp in run_protocol_sweep(cfg).phis]
    assert all(b < a for a, b in zip(pops, pops[1:]))


def test_depolarizing_and_jitter_reduce_purity():
    grid = (math.pi / 2.0,)
    base = run_reference_sweep(ScenarioConfig(mode="reference", phi_grid=grid, **ANALYTIC))
    depol = run_reference_sweep(ScenarioConfig(
        mode="reference", phi_grid=grid, noise=NoiseParams(gate_depolarizing=0.2), **ANALYTIC))
    jitter = run_reference_sweep(ScenarioConfig(
        mode="reference", phi_grid=grid, noise=NoiseParams(phase_jitter_std=0.6), **ANALYTIC))
    p0 = find_state(base, grid[0], "+").purity.analytic
    assert find_state(depol, grid[0], "+").purity.analytic < p0 - 1e-3
    assert find_state(jitter, grid[0], "+").purity.analytic < p0 - 1e-3


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(herald_error=1.5)
    with pytest.raises(ValueError):
        NoiseParams(gate_depolarizing=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(phase_jitter_std=-1.0)


# ---------------------------------------------------------------------------
# channel analysis


def test_channel_analytic_values():
    ref = run_reference_sweep(ScenarioConfig(
        mode="reference", phi_grid=(math.pi / 2.0, math.pi), **ANALYTIC))
    half, full = ref.phis
    assert full.channel_ef.analytic == pytest.approx(0.0, abs=1e-10)
    assert full.channel_fidelity.analytic == pytest.approx(0.5, abs=1e-10)
    assert half.channel_ef.analytic == pytest.approx(EF_DEPHASED_HALF, abs=1e-10)
    assert half.channel_fidelity.analytic == pytest.approx(0.75, abs=1e-10)


def test_channel_choi_from_outputs_identity():
    outputs = {lab: projector(ket(lab)) for lab in BASIS_LABELS}
    chi = channel_choi_from_outputs(outputs)
    np.testing.assert_allclose(chi, projector(max_entangled(1).amplitudes), atol=1e-12)
    with pytest.raises(ValueError):
        channel_choi_from_outputs({"0": np.eye(2)})


def test_channel_reconstruction_from_sweep_counts():
    # the reference circuit at phi = pi/2 is the dephasing channel q = (1 + i)/2
    cfg = ScenarioConfig(mode="reference", phi_grid=(math.pi / 2.0,), rate=3e4,
                         bootstrap_samples=40, seed=2)
    point = run_reference_sweep(cfg).phis[0]
    assert point.channel_ef.estimate == pytest.approx(EF_DEPHASED_HALF, abs=0.02)
    assert point.channel_fidelity.estimate == pytest.approx(0.75, abs=0.01)
    assert point.channel_ef.std > 0.0


def test_channel_skipped_for_partial_alphabet():
    cfg = ScenarioConfig(mode="reference", phi_grid=(math.pi,), signal_states=("+", "0"),
                         **ANALYTIC)
    result = run_reference_sweep(cfg)
    assert result.phis[0].channel_ef is None


# ---------------------------------------------------------------------------
# tomographic track


def test_tomographic_estimates_approach_analytic():
    # median reconstruction error shrinks as the count rate grows
    grid = (math.pi / 2.0,)
    medians = []
    for rate in (300.0, 3000.0, 30000.0):
        errors = []
        for seed in range(20):
            cfg = ScenarioConfig(mode="reference", phi_grid=grid, signal_states=("+",),
                                 rate=rate, bootstrap_samples=0, seed=seed)
            sp = run_reference_sweep(cfg).states[0]
            errors.append(abs(sp.fidelity.estimate - sp.fidelity.analytic))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2]


def test_bootstrap_error_bars_cover_ideal_fidelity():
    # the protected channel is the identity, so the reconstructed fidelity
    # must sit within three bootstrap deviations of 1 for nearly all seeds
    hits = 0
    for seed in range(20):
        cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi / 2.0,),
                             signal_states=("+",), rate=300.0,
                             bootstrap_samples=300, seed=seed)
        sp = run_protocol_sweep(cfg).states[0]
        hits += abs(sp.fidelity.estimate - 1.0) < 3.0 * sp.fidelity.std
    assert hits >= 19


def test_anchor_point_normalizes_to_unity():
    cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi / 2.0, math.pi),
                         signal_states=("+",), bootstrap_samples=10, seed=4)
    result = run_protocol_sweep(cfg)
    anchor = find_state(result, math.pi, "+")
    assert anchor.success_norm.estimate == pytest.approx(1.0, abs=1e-15)
    assert anchor.success_norm.std == 0.0
    other = find_state(result, math.pi / 2.0, "+")
    assert other.success_norm.estimate == pytest.approx(0.25, abs=0.15)


def test_default_grid_reuses_the_anchor(record_calls):
    # pi lies on the default grid exactly, so its point is the anchor's sample
    assert math.pi in experiments.DEFAULT_PROTOCOL_GRID
    calls = record_calls(experiments, ("simulate_counts",))
    result = run_protocol_sweep(ScenarioConfig(mode="protocol", bootstrap_samples=3))
    assert len(calls["simulate_counts"]) == 13 * 6   # 14 * 6 if pi were sampled twice
    at_pi = [sp for sp in result.states if sp.phi == math.pi]
    assert len(at_pi) == 6
    for sp in at_pi:
        assert (sp.success_norm.estimate, sp.success_norm.std) == (1.0, 0.0)


def test_sweep_makes_one_state_mle_call_per_grid_point(record_calls):
    # every single-qubit tomogram of a grid point, its replicas included, goes
    # into one mle_state call
    calls = record_calls(experiments, ("mle_state",))
    run_protocol_sweep(ScenarioConfig(mode="protocol", bootstrap_samples=3))
    assert len(calls["mle_state"]) == len(experiments.DEFAULT_PROTOCOL_GRID)


@pytest.mark.parametrize("bootstrap", [0, 30])
def test_sweep_makes_one_eof_call_per_grid_point(record_calls, bootstrap):
    # the channel metrics of a grid point are one call on the stack of its
    # analytic Choi matrix, the estimate and the replicas
    calls = record_calls(experiments, ("entanglement_of_formation",))
    run_protocol_sweep(ScenarioConfig(mode="protocol", bootstrap_samples=bootstrap))
    assert len(calls["entanglement_of_formation"]) == len(experiments.DEFAULT_PROTOCOL_GRID)
    assert {len(ef) for ef in calls["entanglement_of_formation"]} == {2 + bootstrap}


def test_reference_near_pure_batches_return_without_warning():
    # the 1000-replica batches of state R at grid points 1 and 12 of a default
    # reference run (seed 0) stopped R-rho-R at its iteration cap; the suite
    # turns an MLEConvergenceWarning into an error
    config = ScenarioConfig(mode="reference")
    env = _env_matrix(config.env_state)
    si = BASIS_LABELS.index("R")
    for pi in (1, 12):
        sample = _sample("reference", DEFAULT_REFERENCE_GRID[pi], "R", env, config, (pi, si),
                         config.bootstrap_samples)
        for counts in _marginal_counts(sample.reps):
            rhos = mle_state(build_state_settings(1), counts)
            assert rhos.shape == (1000, 2, 2)
            assert np.linalg.eigvalsh(rhos).min() > -1e-15


def test_sweep_determinism():
    cfg = ScenarioConfig(mode="protocol", phi_grid=(1.0, 2.5), signal_states=("+", "1"),
                         bootstrap_samples=8, seed=11)
    a = run_protocol_sweep(cfg)
    b = run_protocol_sweep(cfg)
    for sa, sb in zip(a.states, b.states):
        assert sa.fidelity.estimate == sb.fidelity.estimate
        assert sa.fidelity.std == sb.fidelity.std
        assert sa.success_norm.estimate == sb.success_norm.estimate


def test_protocol_rejects_zero_phi():
    cfg = ScenarioConfig(mode="protocol", phi_grid=(0.0, math.pi), **ANALYTIC)
    with pytest.raises(DegenerateCouplingError):
        run_protocol_sweep(cfg)


def test_mode_mismatch_rejected():
    cfg = ScenarioConfig(mode="protocol", **ANALYTIC)
    with pytest.raises(ValueError):
        run_reference_sweep(cfg)


def test_residual_population_report_accessor():
    # the per-grid-point residual population is read off result.phis
    cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi,), **ANALYTIC)
    result = run_protocol_sweep(cfg)
    assert result.phis[0].phi == math.pi
    assert result.phis[0].mean_env_pop1.analytic == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# gate tomography


def test_gate_analytic_ideal():
    cfg = ScenarioConfig(mode="gate_tomography", **ANALYTIC)
    result = run_gate_tomography(cfg)
    assert len(result.gates) == 8
    for gp in result.gates:
        assert gp.fidelity.analytic == pytest.approx(1.0, abs=1e-10)
        assert gp.purity.analytic == pytest.approx(1.0, abs=1e-10)
        assert gp.fidelity_phase_opt.analytic == pytest.approx(1.0, abs=1e-10)


def test_gate_fully_depolarized_purity():
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi / 2.0,),
                         noise=NoiseParams(gate_depolarizing=1.0), **ANALYTIC)
    result = run_gate_tomography(cfg)
    assert result.gates[0].purity.analytic == pytest.approx(1.0 / 64.0, abs=1e-12)


@pytest.mark.parametrize("noise", [
    NoiseParams(), NoiseParams(gate_depolarizing=0.2, phase_jitter_std=0.4)])
def test_gate_choi_matches_kraus_form(noise):
    # the Choi matrix that drives the gate counts, against the noisy gate
    # applied in Kraus form to each of the 216 product preparations
    for phi in (math.pi / 8.0, math.pi / 2.0, 5.0 * math.pi / 4.0):
        k0 = realize_ccp(phi).success_amplitude * u_ccp(phi).matrix
        blocks = _gate_choi(phi, noise).reshape(8, 8, 8, 8)
        for labels in itertools.product(BASIS_LABELS, repeat=3):
            rho = projector(product_ket(labels))
            out = k0 @ rho @ k0.conj().T
            out = _sector_damp(out, _CCP_SECTOR, math.exp(-noise.phase_jitter_std**2 / 2.0))
            out = _depolarize(out, noise.gate_depolarizing)
            via_choi = 8.0 * np.einsum("ij,iajb->ab", rho, blocks)
            np.testing.assert_allclose(via_choi, out, rtol=0.0, atol=1e-12)


def test_gate_budget_flag_enforced():
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi / 2.0,))
    with pytest.raises(BudgetError):
        run_gate_tomography(cfg)


def test_phase_optimized_fidelity_recovers_local_rotations():
    phi = 1.9
    ideal_vec = np.kron(np.eye(8, dtype=complex), u_ccp(phi).matrix) @ max_entangled(3).amplitudes
    rz = lambda t: np.diag([1.0, np.exp(1j * t)]).astype(complex)
    w = np.kron(np.kron(rz(0.4), rz(-0.9)), rz(1.3))
    rotated = w @ u_ccp(phi).matrix
    from darkstate.tomography import channel_to_choi
    chi_rot = channel_to_choi(rotated, n=3)
    plain = process_fidelity(chi_rot, np.outer(ideal_vec, ideal_vec.conj()))
    assert plain < 0.9
    opt = optimize_local_phase_fidelity(chi_rot, ideal_vec, 3)
    assert opt == pytest.approx(1.0, abs=1e-6)


def test_phase_optimized_fidelity_stack_rows_match_single_calls():
    phi = 1.9
    ideal_vec = np.kron(np.eye(8, dtype=complex), u_ccp(phi).matrix) @ max_entangled(3).amplitudes
    noisy = NoiseParams(gate_depolarizing=0.1, phase_jitter_std=0.3)
    stack = np.stack([_gate_choi(phi, NoiseParams()), _gate_choi(phi, noisy),
                      _gate_choi(0.7, noisy), 0.5 * np.eye(64) / 64.0])
    rows = optimize_local_phase_fidelity(stack, ideal_vec, 3)
    assert rows.shape == (len(stack),)
    for i, chi in enumerate(stack):
        single = optimize_local_phase_fidelity(chi, ideal_vec, 3)
        assert isinstance(single, float)
        assert single == rows[i]                      # bit for bit
    assert rows[0] == pytest.approx(1.0, abs=1e-12)
    assert rows[3] == pytest.approx(1.0 / 64.0, abs=1e-15)


@pytest.mark.parametrize("boot", [0, 3])
def test_gate_metrics_with_and_without_bootstrap(tmp_path, boot):
    # one metric path: without a bootstrap the spread is 0, not missing
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi,), rate=3000.0, seed=1,
                         gate_bootstrap_samples=boot)
    result = run_gate_tomography(cfg, acknowledge_full_tomography=True)
    gp = result.gates[0]
    for metric in (gp.fidelity, gp.purity, gp.fidelity_phase_opt):
        assert 0.9 < metric.estimate <= 1.0
        assert metric.std > 0.0 if boot else metric.std == 0.0
    write_gate_csv(result, str(tmp_path))
    with open(tmp_path / "fig7_gate.csv") as fh:
        stds = [line.rstrip("\n").split(",")[-1] for line in fh][1:]
    assert len(stds) == 3
    assert all((s != "0") if boot else (s == "0") for s in stds)


def test_gate_full_tomography_end_to_end():
    # the expensive path: all 6^6 settings, reconstruction, quality metrics
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi / 2.0,),
                         rate=3000.0, seed=1, gate_mle_max_iters=300)
    result = run_gate_tomography(cfg, acknowledge_full_tomography=True)
    gp = result.gates[0]
    assert gp.fidelity.estimate > 0.999
    assert gp.purity.estimate > 0.999
    assert gp.fidelity_phase_opt.estimate >= gp.fidelity.estimate - 1e-9
