import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest

from darkstate import experiments, tomography
from darkstate.cli import main
from darkstate.experiments import (
    _CCP_SECTOR,
    _SE_SECTOR,
    DEFAULT_REFERENCE_GRID,
    NoiseParams,
    ScenarioConfig,
    _env_matrix,
    _gate_choi,
    _marginal_counts,
    _phase,
    _preparations,
    _protocol_points,
    _reference_points,
    _samples,
    channel_choi_from_outputs,
    optimize_local_phase_fidelity,
    run_gate_tomography,
    run_protocol_sweep,
    run_reference_sweep,
    write_gate_csv,
)
from darkstate.optical_gate import realize_ccp
from darkstate.protocol import (TWO_PI, DegenerateCouplingError, ccp_success_probability,
                                herald_outcomes, u_ccp)
from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    InvalidStateError,
    expand_operator,
    ket,
    max_entangled,
    partial_trace_array,
    projector,
    state_fidelity,
)
from darkstate.tomography import (
    MLEConvergenceWarning,
    build_state_settings,
    mle_process,
    mle_state,
    resample_counts,
    simulate_counts,
)
from helpers import (channel_inputs, channel_points, channel_to_choi, product_ket, protocol_point,
                     random_density_matrix, reference_point, state_points, u_cp)

EF_DEPHASED_HALF = 0.6008760366928562   # entanglement at |q| = cos(pi/4)

ANALYTIC = dict(shot_noise=False)


def find_state(result, phi, label):
    return next(sp for sp in result.states if sp.phi == phi and sp.state == label)


# ---------------------------------------------------------------------------
# analytic closure


def test_protocol_ideal_is_lossless():
    result = run_protocol_sweep(ScenarioConfig(mode="protocol", **ANALYTIC))
    for sp in result.states:
        assert sp.fidelity.value == pytest.approx(1.0, abs=1e-10)
        assert sp.purity.value == pytest.approx(1.0, abs=1e-10)
        assert sp.env_pop1.value == pytest.approx(0.0, abs=1e-10)
    for pp in result.phis:
        assert pp.mean_env_pop1.value == pytest.approx(0.0, abs=1e-10)
        assert pp.channel_ef.value == pytest.approx(1.0, abs=1e-10)
        assert pp.channel_fidelity.value == pytest.approx(1.0, abs=1e-10)


def test_reference_dephasing_curves():
    result = run_reference_sweep(ScenarioConfig(mode="reference", **ANALYTIC))
    for sp in result.states:
        expected = 1.0 if sp.state in ("0", "1") else (1.0 + math.cos(sp.phi / 2.0) ** 2) / 2.0
        assert sp.fidelity.value == pytest.approx(expected, abs=1e-10)
        assert sp.purity.value == pytest.approx(expected, abs=1e-10)
        assert sp.env_pop1.value == pytest.approx(0.5, abs=1e-12)


def test_success_probability_normalization():
    proto = run_protocol_sweep(ScenarioConfig(mode="protocol", **ANALYTIC))
    for sp in proto.states:
        formula = math.sin(sp.phi / 2.0) ** 2 / (1.0 + abs(math.sin(sp.phi)))
        assert sp.success_norm.value == pytest.approx(formula, abs=1e-12)
    ref = run_reference_sweep(ScenarioConfig(mode="reference", **ANALYTIC))
    for sp in ref.states:
        assert sp.success_norm.value == pytest.approx(
            1.0 / (1.0 + abs(math.sin(sp.phi))), abs=1e-12)
    # anchors normalize to exactly one
    at_pi = find_state(proto, math.pi, "+") if any(
        sp.phi == math.pi for sp in proto.states) else None
    if at_pi is not None:
        assert at_pi.success_norm.value == pytest.approx(1.0, abs=1e-12)
    assert find_state(ref, 0.0, "+").success_norm.value == pytest.approx(1.0, abs=1e-12)


def test_protocol_beats_reference():
    grid = (0.9, math.pi / 2.0, math.pi, 4.5)
    proto = run_protocol_sweep(ScenarioConfig(mode="protocol", phi_grid=grid, **ANALYTIC))
    ref = run_reference_sweep(ScenarioConfig(mode="reference", phi_grid=grid, **ANALYTIC))
    for phi in grid:
        for lab in ("+", "-", "L", "R"):
            fp = find_state(proto, phi, lab).fidelity.value
            fr = find_state(ref, phi, lab).fidelity.value
            assert fp >= fr - 1e-12
            if phi == math.pi:
                assert fp > fr + 0.4


def test_plus_environment_scenario():
    cfg = ScenarioConfig(mode="protocol", env_state="plus", phi_grid=(math.pi / 2.0,),
                         **ANALYTIC)
    result = run_protocol_sweep(cfg)
    for sp in result.states:
        assert sp.fidelity.value == pytest.approx(1.0, abs=1e-10)
    cfg = ScenarioConfig(mode="reference", env_state="plus", phi_grid=(math.pi,),
                         **ANALYTIC)
    ref = run_reference_sweep(cfg)
    # populations of |+> match the mixed case, so dephasing curves coincide
    assert find_state(ref, math.pi, "+").fidelity.value == pytest.approx(0.5, abs=1e-10)


def test_custom_environment_state():
    env = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
    cfg = ScenarioConfig(mode="protocol", env_state=env, phi_grid=(math.pi / 2.0,),
                         signal_states=("+",), **ANALYTIC)
    result = run_protocol_sweep(cfg)
    assert result.states[0].fidelity.value == pytest.approx(1.0, abs=1e-10)


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
        assert result.phis[0].mean_env_pop1.value == pytest.approx(eps, abs=1e-12)


def test_residual_population_grows_with_herald_error():
    values = []
    for eps in (0.0, 0.05, 0.1):
        cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi,),
                             noise=NoiseParams(herald_error=eps), **ANALYTIC)
        values.append(run_protocol_sweep(cfg).phis[0].mean_env_pop1.value)
    assert values[0] < values[1] < values[2]


def test_residual_population_decreases_with_phi():
    grid = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
    cfg = ScenarioConfig(mode="protocol", phi_grid=grid,
                         noise=NoiseParams(herald_error=0.05), **ANALYTIC)
    pops = [pp.mean_env_pop1.value for pp in run_protocol_sweep(cfg).phis]
    assert all(b < a for a, b in zip(pops, pops[1:]))


def test_depolarizing_and_jitter_reduce_purity():
    grid = (math.pi / 2.0,)
    base = run_reference_sweep(ScenarioConfig(mode="reference", phi_grid=grid, **ANALYTIC))
    depol = run_reference_sweep(ScenarioConfig(
        mode="reference", phi_grid=grid, noise=NoiseParams(gate_depolarizing=0.2), **ANALYTIC))
    jitter = run_reference_sweep(ScenarioConfig(
        mode="reference", phi_grid=grid, noise=NoiseParams(phase_jitter_std=0.6), **ANALYTIC))
    p0 = find_state(base, grid[0], "+").purity.value
    assert find_state(depol, grid[0], "+").purity.value < p0 - 1e-3
    assert find_state(jitter, grid[0], "+").purity.value < p0 - 1e-3


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(herald_error=1.5)
    with pytest.raises(ValueError):
        NoiseParams(gate_depolarizing=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(phase_jitter_std=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            NoiseParams(phase_jitter_std=bad)
        with pytest.raises(ValueError, match="must be finite"):
            ScenarioConfig(rate=bad)


# ---------------------------------------------------------------------------
# channel analysis


def test_channel_analytic_values():
    ref = run_reference_sweep(ScenarioConfig(
        mode="reference", phi_grid=(math.pi / 2.0, math.pi), **ANALYTIC))
    half, full = ref.phis
    assert full.channel_ef.value == pytest.approx(0.0, abs=1e-10)
    assert full.channel_fidelity.value == pytest.approx(0.5, abs=1e-10)
    assert half.channel_ef.value == pytest.approx(EF_DEPHASED_HALF, abs=1e-10)
    assert half.channel_fidelity.value == pytest.approx(0.75, abs=1e-10)


def test_channel_choi_from_outputs_identity():
    outputs = np.stack([projector(ket(lab)) for lab in BASIS_LABELS])
    chi = channel_choi_from_outputs(outputs)
    np.testing.assert_allclose(chi, projector(max_entangled(1)), atol=1e-12)
    for shape in ((1, 2, 2), (5, 2, 2), (6, 4, 4), (6, 4)):
        with pytest.raises(ValueError, match="output stack"):
            channel_choi_from_outputs(np.zeros(shape))


@pytest.mark.parametrize("weight", [1.0, 0.6], ids=["cptp", "trace-decreasing"])
def test_channel_choi_from_outputs_matches_the_kraus_choi(weight):
    # three random Kraus operators from a random 6 x 2 isometry, scaled to the weight
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    kraus = math.sqrt(weight) * q.reshape(3, 2, 2)
    outputs = np.stack([sum(k @ projector(ket(lab)) @ k.conj().T for k in kraus)
                        for lab in BASIS_LABELS])
    chi = channel_choi_from_outputs(outputs)
    np.testing.assert_allclose(chi, channel_to_choi(list(kraus), 1), atol=1e-12)
    assert np.trace(chi).real == pytest.approx(weight, abs=1e-12)


def test_channel_choi_from_outputs_stack_rows_match_single_calls():
    # one path: a (..., 6, 2, 2) stack gives each map's Choi matrix as its single call does
    rng = np.random.default_rng(6)
    outputs = rng.normal(size=(2, 3, 6, 2, 2)) + 1j * rng.normal(size=(2, 3, 6, 2, 2))
    chis = channel_choi_from_outputs(outputs)
    assert chis.shape == (2, 3, 4, 4)
    for index in np.ndindex(2, 3):
        assert chis[index].tobytes() == channel_choi_from_outputs(outputs[index]).tobytes()
    assert channel_choi_from_outputs(np.zeros((0, 6, 2, 2))).shape == (0, 4, 4)


def test_channel_reconstruction_from_sweep_counts():
    # the reference circuit at phi = pi/2 is the dephasing channel q = (1 + i)/2
    cfg = ScenarioConfig(mode="reference", phi_grid=(math.pi / 2.0,), rate=3e4,
                         bootstrap_samples=40, seed=2)
    point = run_reference_sweep(cfg).phis[0]
    assert point.channel_ef.value == pytest.approx(EF_DEPHASED_HALF, abs=0.02)
    assert point.channel_fidelity.value == pytest.approx(0.75, abs=0.01)
    assert point.channel_ef.std > 0.0


def test_channel_skipped_for_partial_alphabet():
    cfg = ScenarioConfig(mode="reference", phi_grid=(math.pi,), signal_states=("+", "0"),
                         **ANALYTIC)
    result = run_reference_sweep(cfg)
    assert result.phis[0].channel_ef is None


# ---------------------------------------------------------------------------
# tomographic track


def test_tomographic_estimates_approach_analytic():
    # median reconstruction error shrinks as the count rate grows; the exact value
    # is the same config's without shot noise
    grid = (math.pi / 2.0,)
    medians = []
    for rate in (300.0, 3000.0, 30000.0):
        errors = []
        for seed in range(20):
            cfg = ScenarioConfig(mode="reference", phi_grid=grid, signal_states=("+",),
                                 rate=rate, bootstrap_samples=0, seed=seed)
            exact = run_reference_sweep(dataclasses.replace(cfg, **ANALYTIC)).states[0]
            sp = run_reference_sweep(cfg).states[0]
            errors.append(abs(sp.fidelity.value - exact.fidelity.value))
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
        hits += abs(sp.fidelity.value - 1.0) < 3.0 * sp.fidelity.std
    assert hits >= 19


def calibration(mode: str) -> dict[tuple[str, str], tuple[float, float]]:
    """Per fig3/fig4/fig5 row at phi = pi/2, over seeds 0-39 at bootstrap 100: the median
    bootstrap std over the seed spread of the estimates, and the estimates' mean offset
    from the value without shot noise in units of that spread."""
    run = run_protocol_sweep if mode == "protocol" else run_reference_sweep

    def rows(config):
        result = run(config)
        out = {(sp.state, name): getattr(sp, name) for sp in result.states
               for name in ("fidelity", "purity", "env_pop1")}
        (pp,) = result.phis
        return out | {("fig5", "channel_ef"): pp.channel_ef,
                      ("fig5", "channel_fidelity"): pp.channel_fidelity}

    config = ScenarioConfig(mode=mode, phi_grid=(math.pi / 2.0,), bootstrap_samples=100)
    truth = rows(dataclasses.replace(config, **ANALYTIC))
    runs = [rows(dataclasses.replace(config, seed=seed)) for seed in range(40)]
    out = {}
    for key, exact in truth.items():
        values = np.array([r[key].value for r in runs])
        spread = values.std(ddof=1)
        out[key] = (float(np.median([r[key].std for r in runs]) / spread),
                    float((values.mean() - exact.value) / spread))
    return out


def test_bootstrap_calibration_inside_and_on_the_boundary():
    # A Poisson bootstrap around the observed counts matches the seed spread of a mixed
    # truth, but at a pure truth the constrained estimate sits about 1 sd inside the
    # state space and its bootstrap std overstates the spread (Schwemmer et al., PRL 114,
    # 080403, 2015).  The boundary rows pin today's bias and overstatement, so a change
    # to either shows; the purity rows at a pure truth are left out, since their seed
    # spread is at roundoff.
    reference = calibration("reference")
    interior = [(s, m) for s in "+-LR" for m in ("fidelity", "purity")]
    interior += [(s, "env_pop1") for s in BASIS_LABELS]
    interior += [("fig5", "channel_ef"), ("fig5", "channel_fidelity")]
    for key in interior:
        ratio, bias = reference[key]
        assert 0.6 <= ratio <= 1.5 and abs(bias) <= 0.5, (key, ratio, bias)
    protocol = calibration("protocol")
    boundary = [((s, "fidelity"), -1.0) for s in BASIS_LABELS]
    boundary += [((s, "env_pop1"), 1.0) for s in BASIS_LABELS]
    boundary += [(("fig5", "channel_ef"), -1.0), (("fig5", "channel_fidelity"), -1.0)]
    for key, sign in boundary:
        ratio, bias = protocol[key]
        assert ratio >= 1.1 and 0.7 <= sign * bias <= 2.0, (key, ratio, bias)


def test_anchor_point_normalizes_to_unity():
    cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi / 2.0, math.pi),
                         signal_states=("+",), bootstrap_samples=10, seed=4)
    result = run_protocol_sweep(cfg)
    anchor = find_state(result, math.pi, "+")
    assert anchor.success_norm.value == pytest.approx(1.0, abs=1e-15)
    assert anchor.success_norm.std == 0.0
    other = find_state(result, math.pi / 2.0, "+")
    assert other.success_norm.value == pytest.approx(0.25, abs=0.15)


def test_default_grid_reuses_the_anchor(record_calls):
    # pi lies on the default grid exactly, so its point draws on the anchor's key
    # and its sample is the anchor's; a channel run draws no anchor
    grid = experiments.DEFAULT_PROTOCOL_GRID
    config = ScenarioConfig(mode="protocol", bootstrap_samples=3)
    calls = record_calls(experiments, ("simulate_counts",))
    run_protocol_sweep(config, states=False)
    assert len(calls["simulate_counts"]) == 13 * 6
    calls["simulate_counts"].clear()
    result = run_protocol_sweep(config)
    draws = calls["simulate_counts"]
    assert len(draws) == 14 * 6   # the anchor's six, then the grid's, points major
    at = 6 + 6 * grid.index(math.pi)
    for anchor, point in zip(draws[:6], draws[at:at + 6], strict=True):
        assert np.array_equal(anchor, point)
    at_pi = [sp for sp in result.states if sp.phi == math.pi]
    assert len(at_pi) == 6
    for sp in at_pi:
        assert (sp.success_norm.value, sp.success_norm.std) == (1.0, 0.0)


def test_protocol_counts_survive_one_ulp_of_phi(record_calls):
    # roundoff-level Born means read 0, so 1 to 4 ulp of phi either way redraw no grid point
    env = _env_matrix("maximally_mixed")
    config = ScenarioConfig(mode="protocol", bootstrap_samples=0)
    preps = _preparations(BASIS_LABELS)
    grid = np.array(experiments.DEFAULT_PROTOCOL_GRID)
    calls = record_calls(experiments, ("simulate_counts",))

    def draws(phis):
        # each state's simulate_counts tomogram, [grid point, label]
        calls["simulate_counts"].clear()
        _samples(list(phis), range(len(phis)), preps, env, config)
        return np.reshape(calls["simulate_counts"], (len(phis), len(preps), -1))

    base = draws(grid)
    redrawn = []
    for toward in (10.0, -10.0):
        shifted = grid
        for ulp in range(1, 5):
            shifted = np.nextafter(shifted, toward)
            for k, label in zip(*np.nonzero((draws(shifted) != base).any(axis=2))):
                redrawn.append((k, BASIS_LABELS[label], int(math.copysign(ulp, toward))))
    assert redrawn == []


@pytest.mark.parametrize("bootstrap", [0, 3])
def test_samples_stack_each_tomogram_over_its_replicas(bootstrap):
    # row 0 of a state's marginal tomograms holds the marginals of its
    # simulate_counts draw on key (grid key, label index, 0), and rows 1..R one
    # resample_counts draw of those 12 counts, signal then environment, on key
    # (grid key, label index, 1); the totals are the signal rows' sums; at rate
    # 0.05 some states draw no counts, and so do their replicas
    config = ScenarioConfig(mode="protocol", rate=0.05, seed=4, bootstrap_samples=bootstrap)
    keys = [7, 2]
    sample = _samples([math.pi, 2.0], keys, _preparations(BASIS_LABELS),
                      _env_matrix(config.env_state), config)
    assert sample.tomograms.shape == (2, len(BASIS_LABELS), 2, 1 + bootstrap, 6)
    assert sample.totals.shape == (2, len(BASIS_LABELS), 1 + bootstrap)
    for p, key in enumerate(keys):
        transmissions = 9.0 * ccp_success_probability(sample.phis[p]) * sample.weights[p]
        for i, (rho, transmission) in enumerate(zip(sample.rho_se[p], transmissions)):
            seeds = [np.random.SeedSequence(entropy=config.seed, spawn_key=(key, i, stream))
                     for stream in (0, 1)]
            counts = simulate_counts(build_state_settings(2), rho, config.rate * transmission,
                                     seeds[0])
            marginals = np.concatenate(_marginal_counts(counts))
            stack = np.vstack([marginals, resample_counts(marginals, bootstrap, seeds[1])])
            assert np.array_equal(sample.tomograms[p, i], np.stack([stack[:, :6], stack[:, 6:]]))
            assert np.array_equal(sample.totals[p, i], stack[:, :6].sum(axis=1))
            assert sample.totals[p, i, 0] == counts.sum()
    assert sample.empty.any() and not sample.empty.all()
    assert not sample.tomograms[sample.empty].any()


@pytest.mark.parametrize("mode", ["protocol", "reference"])
def test_samples_without_shot_noise_hold_the_transmissions_as_totals(mode):
    # the count totals' noise-free limit: one column, the transmission of each
    # state, which is positive, so no state is empty; there are no tomograms
    config = ScenarioConfig(mode=mode, **ANALYTIC)
    phis = [math.pi / 3.0, math.pi]
    sample = _samples(phis, [0, 1], _preparations(BASIS_LABELS),
                      _env_matrix(config.env_state), config)
    scales = np.array([9.0 * ccp_success_probability(phi) for phi in phis])
    assert sample.totals.shape == (2, len(BASIS_LABELS), 1)
    assert np.array_equal(sample.totals[..., 0], scales[:, None] * sample.weights)
    assert sample.tomograms is None
    assert not sample.empty.any()
    assert [f.name for f in dataclasses.fields(experiments._Samples)] == [
        "phis", "rho_se", "weights", "totals", "tomograms"]


def test_sweep_makes_one_state_mle_call_per_batch(monkeypatch, record_calls):
    # every single-qubit tomogram of a batch's grid points, replicas included,
    # goes into one mle_state call: 4 rows per tomogram, 2 tomograms per state;
    # the default grid at bootstrap 3 is one batch, and a row cap of 10 makes
    # batches of two points
    calls = record_calls(experiments, ("mle_state",))
    config = ScenarioConfig(mode="protocol", bootstrap_samples=3)
    run_protocol_sweep(config)
    assert [len(rhos) for rhos in calls["mle_state"]] == [13 * 6 * 2 * 4]
    calls["mle_state"].clear()
    monkeypatch.setattr(experiments, "_CHANNEL_BATCH_ROWS", 10)
    run_protocol_sweep(config)
    assert [len(rhos) for rhos in calls["mle_state"]] == [2 * 6 * 2 * 4] * 6 + [6 * 2 * 4]


def known_cap(config: ScenarioConfig):
    """The R-rho-R cap that the rate-1, seed-3 protocol sweeps meet, asserted.

    One sparse d = 4 replica row of their channel stage cycles (final delta
    0.225) until the iteration cap: the open estimator defect of ROADMAP item 4.
    A fix of item 4 must remove this and revisit every case that uses it.
    """
    if (config.mode, config.rate, config.seed) != ("protocol", 1.0, 3):
        return contextlib.nullcontext()
    return pytest.warns(MLEConvergenceWarning, match="final delta 0.225")


def record_process_counts(monkeypatch) -> list[np.ndarray]:
    """Patch experiments.mle_process to record the counts of each call."""
    calls = []

    def recording(settings, counts, **kwargs):
        calls.append(np.array(counts))
        return mle_process(settings, counts, **kwargs)

    monkeypatch.setattr(experiments, "mle_process", recording)
    return calls


def test_sweep_batches_channel_tomograms_up_to_the_row_cap(monkeypatch, record_calls):
    # consecutive grid points share an mle_process call until the next point
    # would push it past the row cap; each point's estimate row is followed by
    # its own replicas, in the same call, and row r of a point is the six
    # states' signal rows r side by side, in BASIS_LABELS order
    monkeypatch.setattr(experiments, "_CHANNEL_BATCH_ROWS", 10)
    calls = record_process_counts(monkeypatch)
    samples = record_calls(experiments, ("_samples",))["_samples"]
    config = ScenarioConfig(mode="protocol", signal_states=BASIS_LABELS[::-1],
                            bootstrap_samples=3)
    run_protocol_sweep(config, states=False)
    grid = experiments.DEFAULT_PROTOCOL_GRID
    assert [len(counts) for counts in calls] == [8] * 6 + [4]   # two 4-row points a call
    assert [len(sample.phis) for sample in samples] == [2] * 6 + [1]
    signal = np.concatenate([sample.tomograms[:, ::-1, 0] for sample in samples])
    for pi, rows in enumerate(np.split(np.concatenate(calls), len(grid))):
        for r, row in enumerate(rows):
            assert np.array_equal(row, signal[pi, :, r].ravel())


@pytest.mark.parametrize("cap, bootstrap", [(2, 3), (4, 3), (None, None)],
                         ids=["over-cap", "at-cap", "default-cap"])
def test_point_of_at_least_cap_rows_gets_a_call_of_its_own(monkeypatch, cap, bootstrap):
    # the cap bounds the memory of one call: a point is never split, one at or
    # over the cap (a default 1000-replica point) shares its call with none, and
    # its call runs before the next point draws its counts
    if cap is None:
        cap = experiments._CHANNEL_BATCH_ROWS
        bootstrap = cap - 1
    monkeypatch.setattr(experiments, "_CHANNEL_BATCH_ROWS", cap)
    calls = record_process_counts(monkeypatch)
    simulate = experiments.simulate_counts
    monkeypatch.setattr(experiments, "simulate_counts",
                        lambda *args: calls.append(None) or simulate(*args))
    grid = (math.pi / 2.0, 1.5 * math.pi, 5.0)   # no anchor: states=False and pi is off the grid
    run_protocol_sweep(ScenarioConfig(mode="protocol", phi_grid=grid,
                                      bootstrap_samples=bootstrap), states=False)
    assert [c is None for c in calls] == ([True] * 6 + [False]) * len(grid)
    assert [len(c) for c in calls if c is not None] == [1 + bootstrap] * len(grid)


@pytest.mark.parametrize("overrides", [
    dict(bootstrap_samples=0), dict(bootstrap_samples=3), dict(bootstrap_samples=30),
    dict(mode="reference", bootstrap_samples=30),
    dict(rate=0.05, seed=3, bootstrap_samples=30), dict(rate=1.0, seed=3, bootstrap_samples=30),
    dict(rate=0.05, seed=3, bootstrap_samples=3)],
    ids=["boot0", "boot3", "boot30", "reference", "rate-0.05", "rate-1", "rate-0.05-boot3"])
def test_channel_batching_leaves_the_result_unchanged(monkeypatch, overrides):
    # a row cap of 1 gives every grid point a batch of its own; every stage
    # computes each row of a batch on its own, so the result must be the same
    # to the bit (repr spells out every float, nan included); at rate 0.05 and
    # bootstrap 3 the whole grid is one batch that mixes empty and live states
    config = ScenarioConfig(**overrides)
    run = run_protocol_sweep if config.mode == "protocol" else run_reference_sweep
    with known_cap(config):
        batched = run(config)
    monkeypatch.setattr(experiments, "_CHANNEL_BATCH_ROWS", 1)
    with known_cap(config):
        assert repr(run(config)) == repr(batched)
    # at seed 3 a preparation draws no counts at every point at rate 0.05, and at
    # some points at rate 1: those points' channel estimates are nan
    if config.rate < 1.0:
        assert all(math.isnan(pp.channel_ef.value) for pp in batched.phis)
        assert {math.isnan(sp.fidelity.value) for sp in batched.states} == {False, True}
    elif config.rate == 1.0:
        assert {math.isnan(pp.channel_ef.value) for pp in batched.phis} == {False, True}


@pytest.mark.parametrize("overrides", [
    dict(bootstrap_samples=0), dict(bootstrap_samples=3), dict(bootstrap_samples=30),
    dict(rate=0.05, seed=3, bootstrap_samples=30), dict(rate=1.0, seed=3, bootstrap_samples=30),
    # two rows of a rate-3 replica cap R-rho-R; the channel stage warns as the reference does
    pytest.param(dict(rate=3.0, seed=1, bootstrap_samples=30), marks=pytest.mark.filterwarnings(
        "ignore::darkstate.tomography.MLEConvergenceWarning"))],
    ids=["boot0", "boot3", "boot30", "rate-0.05", "rate-1", "rate-3"])
def test_regular_channel_stage_matches_the_ragged_reference(monkeypatch, overrides):
    # every point of a batch goes through the channel estimator and metrics, and an
    # undetermined point's estimates are masked to nan afterwards; the fig5 rows must
    # equal those of the reference that leaves such points out of both calls (repr
    # spells out every float, nan included)
    config = ScenarioConfig(mode="protocol", **overrides)
    with known_cap(config):
        regular = run_protocol_sweep(config, states=False)
    monkeypatch.setattr(experiments, "_channel_stacks", channel_inputs)
    monkeypatch.setattr(experiments, "_choi_points", channel_points)
    with known_cap(config):
        assert repr(run_protocol_sweep(config, states=False).phis) == repr(regular.phis)
    determined = {not math.isnan(pp.channel_ef.value) for pp in regular.phis}
    assert determined == ({False} if config.rate < 1.0 else
                          {False, True} if config.rate < 300.0 else {True})


@pytest.mark.parametrize("rows", [1, 7])
def test_qubit_mle_blocks_leave_the_result_unchanged(monkeypatch, record_calls, rows):
    # the exact qubit MLE solves its rows in blocks; a sweep batch's tomograms go
    # into one mle_state call whatever the block size, and no bit moves (at rate 1
    # some replicas draw no counts)
    config = ScenarioConfig(mode="protocol", rate=1.0, seed=3, bootstrap_samples=30)
    with known_cap(config):
        whole = run_protocol_sweep(config)
    monkeypatch.setattr(tomography, "_QUBIT_MLE_ROWS", rows)
    calls = record_calls(experiments, ("mle_state",))
    with known_cap(config):
        assert repr(run_protocol_sweep(config)) == repr(whole)
    assert [len(rhos) for rhos in calls["mle_state"]] == [13 * 6 * 2 * 31]
    # sphere, interior and zero-count rows in each of two 7-row blocks
    counts = np.array([[9, 0, 4, 0, 0, 0], [3, 2, 1, 1, 2, 2], [0] * 6, [5, 0, 4, 0, 0, 3],
                       [1, 1, 0, 0, 0, 0], [0] * 6, [7, 1, 6, 1, 1, 6], [2, 3, 4, 5, 6, 7],
                       [0, 4, 0, 4, 0, 0], [0] * 6, [12, 0, 1, 1, 0, 9]], dtype=float)
    u, v = counts[:, 0::2], counts[:, 1::2]
    kinds = np.where(counts.sum(axis=1) == 0, "zero", np.where(
        (((u - v) / np.maximum(u + v, 1.0)) ** 2).sum(axis=1) > 1.0, "sphere", "interior"))
    assert set(kinds[:7]) == set(kinds[7:]) == {"zero", "sphere", "interior"}
    rhos = tomography._qubit_mle(counts)
    for row, rho in zip(counts, rhos):
        assert rho.tobytes() == tomography._qubit_mle(row[None])[0].tobytes()
    assert (rhos[counts.sum(axis=1) == 0] == np.eye(2) / 2).all()


@pytest.mark.parametrize("defect, match", [
    (lambda m: np.diag([1.5, -0.5] + [0.0] * (len(m) - 2)), "density matrix has negative eigenvalue"),
    (lambda m: m + np.triu(np.ones(m.shape), 1), "density matrix is not Hermitian"),
    (lambda m: np.full(m.shape, np.nan), "density matrix has a non-finite entry")],
    ids=["negative-eigenvalue", "not-hermitian", "non-finite"])
def test_batched_channel_estimates_keep_the_point_checks(monkeypatch, defect, match):
    # every determined point row of a batch is checked: a point without counts
    # reads nan, a capped row warns from the mle_process call in experiments, its
    # "k of B rows" counting over the whole batch, and every point estimate, of
    # the fig5 channel and of the fig7 gate, goes through one check with
    # DensityMatrix's invariants and messages; replicas are not checked
    def tampered(chis, bad_row):
        chis = chis.copy()
        chis[bad_row] = defect(chis[bad_row])
        return lambda *args, **kwargs: chis

    seen = []

    def traces(chis):   # a metric that reads any matrix, physical or not, and keeps its input
        seen.append(chis)
        return (np.trace(chis, axis1=1, axis2=2).real,)

    settings = experiments._CHANNEL_SETTINGS
    analytic = np.stack([channel_to_choi(np.diag([1.0, np.exp(1j * phi)]), 1)
                         for phi in (1.0, 2.0)])
    # two points, each a tomogram (flat rows 0 and 3) and two replicas
    counts = np.stack([simulate_counts(settings, analytic[seed // 3], 300.0, seed)
                       for seed in range(6)]).reshape(2, 3, -1)
    empty = counts.copy()
    empty[1] = 0.0
    # without shot noise a point's row is its analytic matrix's metric, with no spread
    assert [(m.value, m.std) for (m,) in experiments._choi_points(
        settings, analytic, False, traces)] == [(pytest.approx(1.0, abs=1e-12), 0.0)] * 2
    first, second = experiments._choi_points(settings, empty, True, traces)
    assert not math.isnan(first[0].value)
    assert math.isnan(second[0].value) and math.isnan(second[0].std)
    with pytest.warns(MLEConvergenceWarning, match=r"B = 6\): .* in 6 of 6 rows$") as caught:
        experiments._choi_points(settings, counts, True, traces, max_iters=1)
    assert [w.filename for w in caught] == [experiments.__file__]
    chis = seen[-1]
    for i, counts_row in enumerate(counts.reshape(6, -1)):
        with pytest.warns(MLEConvergenceWarning):
            single = mle_process(settings, counts_row[None], max_iters=1)
        assert np.array_equal(chis[i], single[0])
    # a bad estimate in the second point's row
    monkeypatch.setattr(experiments, "mle_process", tampered(chis, 3))
    with pytest.raises(InvalidStateError, match=match):
        experiments._choi_points(settings, counts, True, traces)
    # the same row of an undetermined point is not checked, and reads nan
    assert math.isnan(experiments._choi_points(settings, empty, True, traces)[1][0].value)
    monkeypatch.setattr(experiments, "mle_process", tampered(chis, 1))
    experiments._choi_points(settings, counts, True, traces)   # a replica row is not checked
    # the gate: one point and two replicas of 64 x 64 Choi estimates
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi,), gate_bootstrap_samples=2)
    good = np.tile(np.eye(64, dtype=complex) / 64.0, (3, 1, 1))
    monkeypatch.setattr(experiments, "mle_process", tampered(good, 0))
    with pytest.raises(InvalidStateError, match=match):
        run_gate_tomography(cfg)
    monkeypatch.setattr(experiments, "mle_process", tampered(good, 1))
    run_gate_tomography(cfg)


def test_protocol_sweep_builds_the_phi_only_part_once_per_grid_point(monkeypatch, record_calls):
    # the herald amplitudes do not depend on the signal state: one pair of herald
    # kets per phi, not one per phi and state, also when the grid runs as one batch
    # (the default row cap) and not point by point (a cap of 1)
    n = len(experiments.DEFAULT_PROTOCOL_GRID)
    for cap in (1, experiments._CHANNEL_BATCH_ROWS):
        monkeypatch.setattr(experiments, "_CHANNEL_BATCH_ROWS", cap)
        calls = record_calls(experiments, ("_protocol_points", "_herald_kets", "_gate"))
        run_protocol_sweep(ScenarioConfig(mode="protocol", bootstrap_samples=3, **ANALYTIC))
        # the anchor's own sample, then every grid point, pi included
        assert sum(len(rhos) for rhos, _ in calls["_protocol_points"]) == n + 1
        assert len(calls["_protocol_points"]) == (n + 1 if cap == 1 else 2)
        assert len(calls["_herald_kets"]) == n + 1
        assert not calls["_gate"]   # the product form needs no three-qubit state


@pytest.mark.parametrize("mode", ["protocol", "reference"])
def test_sweep_builds_the_preparations_once(record_calls, mode):
    # the preparation of each signal state does not depend on phi: one stack
    # per sweep, the anchor's included
    calls = record_calls(experiments, ("_preparations",))
    run = run_protocol_sweep if mode == "protocol" else run_reference_sweep
    run(ScenarioConfig(mode=mode, bootstrap_samples=0))
    assert [p.shape for p in calls["_preparations"]] == [(6, 2, 2)]


NOISY_ENV = random_density_matrix(1, np.random.default_rng(4))
NOISY = NoiseParams(herald_error=0.07, gate_depolarizing=0.05, phase_jitter_std=0.3)


PROTOCOL_PHIS = [0.3, math.pi / 2.0, math.pi, 5.9]
REFERENCE_PHIS = [0.0, 0.3, math.pi, 5.9]


@pytest.mark.parametrize("phi", PROTOCOL_PHIS)
def test_protocol_points_match_the_per_label_formula(phi):
    # the product form equals the three-qubit pipeline with a projective herald up
    # to roundoff, and stacking it over the labels and the grid points of a batch
    # leaves every float operation of a single state at a single phi as it was
    preps = _preparations(BASIS_LABELS)
    rhos, weights = _protocol_points(PROTOCOL_PHIS, preps, NOISY_ENV.matrix, NOISY)
    at = PROTOCOL_PHIS.index(phi)
    for i, (label, rho, weight) in enumerate(zip(BASIS_LABELS, rhos[at], weights[at])):
        ref_rho, ref_weight = protocol_point(phi, label, NOISY_ENV.matrix, NOISY)
        assert weight == pytest.approx(ref_weight, rel=1e-14)
        np.testing.assert_allclose(rho, ref_rho, rtol=0.0, atol=1e-14)
        ((one,),), ((one_weight,),) = _protocol_points([phi], preps[i:i + 1],
                                                       NOISY_ENV.matrix, NOISY)
        assert one_weight == weight
        assert one.tobytes() == rho.tobytes()


@pytest.mark.parametrize("env_state", ["maximally_mixed", "plus"])
def test_protocol_points_share_the_library_herald(env_state):
    # the sweep and the library herald go through one branch map: at zero noise the
    # sweep's weight is the success probability bit for bit, and its environment
    # marginal the success branch's environment state
    env = _env_matrix(env_state)
    grid = experiments.DEFAULT_PROTOCOL_GRID
    rhos, weights = _protocol_points(grid, _preparations(BASIS_LABELS), env, NoiseParams())
    for phi, rho, weight in zip(grid, rhos, weights):
        succ, _fail = herald_outcomes(DensityMatrix(env), phi)
        assert (weight == succ.probability).all()
        np.testing.assert_allclose(partial_trace_array(rho, 2, (1,)),
                                   np.broadcast_to(succ.post_state.matrix, (6, 2, 2)),
                                   rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("env_state", ["maximally_mixed", "plus"])
def test_protocol_populations_never_go_negative(env_state):
    # without a herald error the success branch leaves E in |0> exactly, so its
    # |1> populations are 0 up to roundoff; the product form builds each diagonal
    # entry from squared moduli, so none is negative, where the three-qubit
    # projection leaves some at -1e-13 near phi = 0 and at -4e-33 at phi = pi
    env = _env_matrix(env_state)
    phis = [0.02, 0.05, math.pi / 2.0, 2.7052603405912107, math.pi, 6.2]
    rhos, _ = _protocol_points(phis, _preparations(BASIS_LABELS), env, NoiseParams())
    assert (np.diagonal(rhos, axis1=-2, axis2=-1).real >= 0.0).all()
    # a squared roundoff amplitude of 1e-16, over a success weight of 5e-5 at phi = 0.02
    np.testing.assert_allclose(rhos[..., [1, 3], [1, 3]], 0.0, rtol=0.0, atol=1e-27)
    ref = [protocol_point(phi, lab, env, NoiseParams())[0] for phi in phis for lab in BASIS_LABELS]
    assert (np.diagonal(ref, axis1=-2, axis2=-1).real < 0.0).any()
    np.testing.assert_allclose(rhos.reshape(-1, 4, 4), ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("phi", REFERENCE_PHIS)
def test_reference_points_match_the_per_label_formula(phi):
    rhos, weights = _reference_points(REFERENCE_PHIS, _preparations(BASIS_LABELS),
                                      NOISY_ENV.matrix, NOISY)
    at = REFERENCE_PHIS.index(phi)
    for label, rho, weight in zip(BASIS_LABELS, rhos[at], weights[at]):
        ref_rho, ref_weight = reference_point(phi, label, NOISY_ENV.matrix, NOISY)
        assert weight == ref_weight
        assert rho.tobytes() == ref_rho.tobytes()


@pytest.mark.parametrize("mode", ["protocol", "reference"])
@pytest.mark.parametrize("overrides", [
    pytest.param(dict(shot_noise=False), id="analytic"),
    pytest.param(dict(bootstrap_samples=0), id="boot0"),
    pytest.param(dict(bootstrap_samples=30), id="boot30"),
    pytest.param(dict(rate=0.05, seed=3, bootstrap_samples=30), id="rate-0.05"),
    pytest.param(dict(rate=1.0, seed=3, bootstrap_samples=30), id="rate-1"),
    # the noisy reference channel caps a few d = 4 rows (slow R-rho-R convergence on
    # noisy channels); the channel is not what this test compares
    pytest.param(dict(env_state=NOISY_ENV, noise=NOISY, bootstrap_samples=30), id="noisy",
                 marks=pytest.mark.filterwarnings(
                     "ignore::darkstate.tomography.MLEConvergenceWarning"))])
def test_stacked_state_points_match_the_per_state_reference(monkeypatch, mode, overrides):
    # the states of a grid point go through the metrics as one stack; each
    # state's rows must come out as its own per-state computation gives them,
    # to the bit, empty samples and empty replicas included (repr spells out
    # every float, nan included)
    config = ScenarioConfig(mode=mode, **overrides)
    run = run_protocol_sweep if mode == "protocol" else run_reference_sweep
    with known_cap(config):
        stacked = run(config)
    monkeypatch.setattr(experiments, "_state_points", state_points)
    with known_cap(config):
        assert repr(run(config)) == repr(stacked)
    if config.rate < 1.0:   # every point has a state without counts
        assert all(any(math.isnan(sp.fidelity.value) for sp in stacked.states
                       if sp.phi == pp.phi) for pp in stacked.phis)


@pytest.mark.parametrize("bootstrap, shot_noise", [
    pytest.param(0, True, id="0"), pytest.param(30, True, id="30"),
    pytest.param(1000, False, id="analytic")])
def test_sweep_makes_one_eof_call_per_channel_batch(record_calls, bootstrap, shot_noise):
    # the channel metrics of a channel batch are one call on the stack of each
    # point's estimate and replicas, or without shot noise of its analytic Choi
    # matrix alone, with no estimator call; the default grid is one batch at these
    # bootstraps, and a run without shot noise counts no replicas
    calls = record_calls(experiments, ("entanglement_of_formation", "mle_process"))
    run_protocol_sweep(ScenarioConfig(mode="protocol", bootstrap_samples=bootstrap,
                                      shot_noise=shot_noise))
    n = len(experiments.DEFAULT_PROTOCOL_GRID)
    rows = n * (1 + bootstrap) if shot_noise else n
    assert [len(ef) for ef in calls["entanglement_of_formation"]] == [rows]
    assert [len(chis) for chis in calls["mle_process"]] == ([rows] if shot_noise else [])


def test_eof_calls_follow_the_channel_batches(monkeypatch, record_calls):
    # a row cap of 10 puts two 4-row points in each mle_process call; each EoF
    # call covers the same rows
    monkeypatch.setattr(experiments, "_CHANNEL_BATCH_ROWS", 10)
    calls = record_calls(experiments, ("entanglement_of_formation", "mle_process"))
    run_protocol_sweep(ScenarioConfig(mode="protocol", bootstrap_samples=3), states=False)
    assert [len(c) for c in calls["mle_process"]] == [8] * 6 + [4]
    assert [len(ef) for ef in calls["entanglement_of_formation"]] == [8] * 6 + [4]


def test_low_rate_sweep_reports_missing_counts_in_order(capsys):
    # the anchor lines first, in label order, then each grid point's states
    # without counts, in grid and label order
    grid = (math.pi / 6.0, math.pi, 5.0)
    run_protocol_sweep(ScenarioConfig(mode="protocol", phi_grid=grid, rate=0.05, seed=3,
                                      bootstrap_samples=30))
    anchor = "anchor at phi = 3.14159 drew no counts"
    expected = [f"state 0: {anchor} in 10 of 30 bootstrap replicas, success_norm std is nan"]
    expected += [f"state {lab}: {anchor}, success_norm is nan" for lab in "1+-LR"]
    expected += [f"phi = {phi}, state {lab}: no counts, estimates are nan"
                 for phi, labs in (("0.523599", "01-LR"), ("3.14159", "1+-LR"), ("5", "01+-LR"))
                 for lab in labs]
    assert capsys.readouterr().err.splitlines() == expected


@pytest.mark.parametrize("row, match", [
    (0, "density matrix has negative eigenvalue"), (1, "density matrix is not Hermitian"),
    (2, "density matrix has a non-finite entry")])
def test_stacked_check_rejects_a_bad_point_estimate(monkeypatch, row, match):
    # every point estimate of a grid point, signal and environment, goes through
    # one check with DensityMatrix's invariants and messages, a NaN one included
    # (eigh fails on NaN, so it is caught first); replicas are not checked
    defect = (lambda m: np.diag([1.5, -0.5]), lambda m: m + np.triu(np.ones((2, 2)), 1),
              lambda m: np.nan)[row]

    def tampered(bad_row):
        def fit(settings, counts):
            rhos = mle_state(settings, counts)
            rhos[bad_row] = defect(rhos[bad_row])
            return rhos
        return fit

    config = ScenarioConfig(mode="protocol", phi_grid=(math.pi / 2.0,), bootstrap_samples=3)
    # tomogram order per state: 1 + 3 signal rows, then 1 + 3 environment rows
    for bad_row in (4 * row, 4 * row + 12):
        monkeypatch.setattr(experiments, "mle_state", tampered(bad_row))
        with pytest.raises(InvalidStateError, match=match):
            run_protocol_sweep(config)
    monkeypatch.setattr(experiments, "mle_state", tampered(4 * row + 1))   # a replica
    run_protocol_sweep(config)


def test_reference_near_pure_batches_return_without_warning():
    # the 1000-replica batches of state R at grid points 1 and 12 of a default
    # reference run (seed 0) stopped R-rho-R at its iteration cap; the suite
    # turns an MLEConvergenceWarning into an error
    config = ScenarioConfig(mode="reference")
    grid_points = [1, 12]
    sample = _samples([DEFAULT_REFERENCE_GRID[pi] for pi in grid_points], grid_points,
                      _preparations(BASIS_LABELS), _env_matrix(config.env_state),
                      config)
    for tomograms in sample.tomograms[:, BASIS_LABELS.index("R")]:
        for counts in tomograms[:, 1:]:   # signal, then environment replicas
            rhos = mle_state(build_state_settings(1), counts)
            assert rhos.shape == (1000, 2, 2)
            assert np.linalg.eigvalsh(rhos).min() > -1e-15


def test_sweep_determinism():
    cfg = ScenarioConfig(mode="protocol", phi_grid=(1.0, 2.5), signal_states=("+", "1"),
                         bootstrap_samples=8, seed=11)
    a = run_protocol_sweep(cfg)
    b = run_protocol_sweep(cfg)
    for sa, sb in zip(a.states, b.states):
        assert sa.fidelity.value == sb.fidelity.value
        assert sa.fidelity.std == sb.fidelity.std
        assert sa.success_norm.value == sb.success_norm.value


def test_protocol_rejects_zero_phi():
    with pytest.raises(DegenerateCouplingError):
        cfg = ScenarioConfig(mode="protocol", phi_grid=(0.0, math.pi), **ANALYTIC)
        run_protocol_sweep(cfg)


@pytest.mark.parametrize("phi", [1e-7, 2.0 * math.pi - 1e-7])
@pytest.mark.parametrize("shot_noise", [False, True])
def test_protocol_near_zero_coupling_never_heralds(phi, shot_noise):
    # the success weight here (~1e-15) is at or below ROUNDOFF_WEIGHT, so
    # the branch is dropped and counts as no herald, not as a trace-0 state
    cfg = ScenarioConfig(mode="protocol", phi_grid=(phi,), shot_noise=shot_noise,
                         bootstrap_samples=0)
    with pytest.raises(DegenerateCouplingError, match="herald never fires"):
        run_protocol_sweep(cfg)


@pytest.mark.parametrize("phi", [1e-7, 2.0 * math.pi - 1e-7])
def test_herald_error_keeps_failure_branch_near_zero_coupling(phi):
    ((rho_se,),), ((weight,),) = _protocol_points([phi], _preparations(("+",)),
                                                  np.eye(2) / 2, NoiseParams(herald_error=0.1))
    assert weight == pytest.approx(0.1, rel=1e-9)   # the failure branch has weight ~1
    assert DensityMatrix(rho_se).n == 2             # a trace-one state


@pytest.mark.parametrize("mode, grid", [("protocol", experiments.DEFAULT_PROTOCOL_GRID),
                                        ("reference", experiments.DEFAULT_REFERENCE_GRID),
                                        ("gate_tomography", experiments.DEFAULT_GATE_GRID)])
def test_config_stores_the_mode_default_grid(mode, grid):
    config = ScenarioConfig(mode=mode)
    assert config.phi_grid == grid
    assert experiments.config_to_dict(config)["phi_grid"] == grid


def test_grid_stops_short_of_the_anchor_key():
    # a sweep's point i draws on spawn key i, and the anchor on _ANCHOR_KEY = 10 000
    grid = np.linspace(0.1, 6.2, experiments._ANCHOR_KEY + 1)
    with pytest.raises(ValueError, match="more than 10000"):
        ScenarioConfig(phi_grid=grid)
    assert len(ScenarioConfig(phi_grid=grid[:-1]).phi_grid) == experiments._ANCHOR_KEY


def test_mode_mismatch_rejected():
    cfg = ScenarioConfig(mode="protocol", **ANALYTIC)
    with pytest.raises(ValueError):
        run_reference_sweep(cfg)


def test_residual_population_report_accessor():
    # the per-grid-point residual population is read off result.phis
    cfg = ScenarioConfig(mode="protocol", phi_grid=(math.pi,), **ANALYTIC)
    result = run_protocol_sweep(cfg)
    assert result.phis[0].phi == math.pi
    assert result.phis[0].mean_env_pop1.value == pytest.approx(0.0, abs=1e-12)
    # one track: a metric holds the two cells of its CSV row, and no bootstrap reads 0
    assert [f.name for f in dataclasses.fields(result.phis[0].mean_env_pop1)] == ["value", "std"]
    assert result.phis[0].mean_env_pop1.std == 0.0


# ---------------------------------------------------------------------------
# gate tomography


def test_gate_analytic_ideal():
    cfg = ScenarioConfig(mode="gate_tomography", **ANALYTIC)
    result = run_gate_tomography(cfg)
    assert len(result.gates) == 8
    for gp in result.gates:
        assert gp.fidelity.value == pytest.approx(1.0, abs=1e-10)
        assert gp.purity.value == pytest.approx(1.0, abs=1e-10)
        assert gp.fidelity_phase_opt.value == pytest.approx(1.0, abs=1e-10)


def test_gate_fully_depolarized_purity():
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi / 2.0,),
                         noise=NoiseParams(gate_depolarizing=1.0), **ANALYTIC)
    result = run_gate_tomography(cfg)
    assert result.gates[0].purity.value == pytest.approx(1.0 / 64.0, abs=1e-12)


@pytest.mark.parametrize("noise", [
    NoiseParams(), NoiseParams(gate_depolarizing=0.2, phase_jitter_std=0.4)])
def test_gate_choi_matches_kraus_form(noise):
    # the Choi matrix that drives the gate counts, against the noisy gate
    # applied in Kraus form to each of the 216 product preparations; the success
    # amplitude comes from the stage-by-stage optical model
    damp, p = math.exp(-noise.phase_jitter_std**2 / 2.0), noise.gate_depolarizing
    for phi in (math.pi / 8.0, math.pi / 2.0, 5.0 * math.pi / 4.0):
        k0 = realize_ccp(phi).success_amplitude * u_ccp(phi)
        blocks = _gate_choi(phi, noise).reshape(8, 8, 8, 8)
        for labels in itertools.product(BASIS_LABELS, repeat=3):
            rho = projector(product_ket(labels))
            out = k0 @ rho @ k0.conj().T
            out[7, :7] *= damp   # jitter dephases |111> against the rest
            out[:7, 7] *= damp
            out = (1.0 - p) * out + p * np.trace(out) * np.eye(8) / 8.0
            via_choi = 8.0 * np.einsum("ij,iajb->ab", rho, blocks)
            np.testing.assert_allclose(via_choi, out, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("sector, unitary", [
    (_CCP_SECTOR, lambda phi: u_ccp(phi)),
    (_SE_SECTOR, lambda phi: u_cp(phi)),
], ids=["ccp", "signal-environment"])
def test_phase_is_the_gauss_hermite_jitter_average(sector, unitary):
    # U(phi + delta) rho U(phi + delta)† averaged over delta ~ N(0, sigma^2)
    rho = random_density_matrix(len(sector).bit_length() - 1, np.random.default_rng(4)).matrix
    phi, sigma = 2.3, 0.45
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    us = [unitary((phi + math.sqrt(2.0) * sigma * x) % TWO_PI) for x in nodes]
    average = sum(w / math.sqrt(math.pi) * u @ rho @ u.conj().T for u, w in zip(us, weights))
    np.testing.assert_allclose(_phase(rho, phi, sector, sigma), average, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(_phase(rho, phi, sector, 0.0), unitary(phi) @ rho
                               @ unitary(phi).conj().T, rtol=0.0, atol=1e-15)


def test_phase_optimized_fidelity_recovers_local_rotations():
    phi = 1.9
    ideal_vec = np.kron(np.eye(8, dtype=complex), u_ccp(phi)) @ max_entangled(3)
    rz = lambda t: np.diag([1.0, np.exp(1j * t)]).astype(complex)
    w = np.kron(np.kron(rz(0.4), rz(-0.9)), rz(1.3))
    rotated = w @ u_ccp(phi)
    chi_rot = channel_to_choi(rotated, n=3)
    plain = state_fidelity(chi_rot, ideal_vec)
    assert plain < 0.9
    opt = optimize_local_phase_fidelity(chi_rot, ideal_vec)
    assert opt == pytest.approx(1.0, abs=1e-6)
    # the output qubit count comes from the Choi dimension, d = 4^n
    one = channel_to_choi(rz(0.7), n=1)
    assert state_fidelity(one, max_entangled(1)) < 0.95
    assert optimize_local_phase_fidelity(one, max_entangled(1)) == pytest.approx(1.0, abs=1e-12)


def test_phase_optimized_fidelity_stack_rows_match_single_calls():
    phi = 1.9
    ideal_vec = np.kron(np.eye(8, dtype=complex), u_ccp(phi)) @ max_entangled(3)
    noisy = NoiseParams(gate_depolarizing=0.1, phase_jitter_std=0.3)
    stack = np.stack([_gate_choi(phi, NoiseParams()), _gate_choi(phi, noisy),
                      _gate_choi(0.7, noisy), 0.5 * np.eye(64) / 64.0])
    rows = optimize_local_phase_fidelity(stack, ideal_vec)
    assert rows.shape == (len(stack),)
    for i, chi in enumerate(stack):
        # one path: a single matrix is a stack of one, with a 0-d result
        single = optimize_local_phase_fidelity(chi, ideal_vec)
        assert np.ndim(single) == 0
        assert single == optimize_local_phase_fidelity(chi[None], ideal_vec)[0] == rows[i]
    assert rows[0] == pytest.approx(1.0, abs=1e-12)
    assert rows[3] == pytest.approx(1.0 / 64.0, abs=1e-15)


@pytest.mark.parametrize("boot", [0, 3])
def test_gate_metrics_with_and_without_bootstrap(tmp_path, boot):
    # one metric path: without a bootstrap the spread is 0, not missing
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi,), rate=3000.0, seed=1,
                         gate_bootstrap_samples=boot)
    result = run_gate_tomography(cfg)
    gp = result.gates[0]
    for metric in (gp.fidelity, gp.purity, gp.fidelity_phase_opt):
        assert 0.9 < metric.value <= 1.0
        assert metric.std > 0.0 if boot else metric.std == 0.0
    write_gate_csv(result, str(tmp_path))
    with open(tmp_path / "fig7_gate.csv") as fh:
        stds = [line.rstrip("\n").split(",")[-1] for line in fh][1:]
    assert len(stds) == 3
    assert all((s != "0") if boot else (s == "0") for s in stds)


def test_gate_point_makes_one_process_mle_call(record_calls, tmp_path, capsys):
    # the point estimate and its replicas are one mle_process call; a point
    # that draws no counts reads nan, as a sweep point does, and is reported once
    calls = record_calls(experiments, ("mle_process",))
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi,), rate=3000.0, seed=1,
                         gate_bootstrap_samples=2)
    run_gate_tomography(cfg)
    assert [len(chis) for chis in calls["mle_process"]] == [1 + 2]
    assert main(["gate-tomo", "--set", "phi_grid=pi/2,pi", "--set", "rate=1e-12",
                 "--out", str(tmp_path)]) == 0
    assert [len(chis) for chis in calls["mle_process"]] == [1 + 2, 1, 1]
    assert capsys.readouterr().err.splitlines() == [
        "phi = 1.5708: no counts, estimates are nan", "phi = 3.14159: no counts, estimates are nan"]
    with open(tmp_path / "fig7_gate.csv") as fh:
        cells = [line.rstrip("\n").split(",")[-2:] for line in fh][1:]
    assert len(cells) == 6 and all(cell == "nan" for row in cells for cell in row)


def test_gate_full_tomography_end_to_end():
    # the expensive path: all 6^6 settings, reconstruction, quality metrics
    cfg = ScenarioConfig(mode="gate_tomography", phi_grid=(math.pi / 2.0,),
                         rate=3000.0, seed=1, gate_mle_max_iters=300)
    result = run_gate_tomography(cfg)
    gp = result.gates[0]
    assert gp.fidelity.value > 0.999
    assert gp.purity.value > 0.999
    assert gp.fidelity_phase_opt.value >= gp.fidelity.value - 1e-9
