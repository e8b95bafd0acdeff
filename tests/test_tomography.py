import math
import warnings

import numpy as np
import pytest

from darkstate.protocol import u_ccp, u_cp
from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    ket,
    max_entangled,
    partial_trace,
    product_ket,
    projector,
    random_density_matrix,
    state_fidelity,
    PureState,
)
from darkstate.tomography import (
    IncompleteMeasurementError,
    MLEConvergenceWarning,
    MeasurementSetting,
    ProcessMatrix,
    Tomogram,
    build_process_settings,
    build_state_settings,
    channel_to_choi,
    mle_process,
    mle_state,
    process_fidelity,
    process_purity,
    resample_counts,
    setting_kets,
    simulate_counts,
)
from darkstate.tomography import _born, _check_complete, _grid, _weighted_projectors

PHI_PLUS = projector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))


def exact_tomogram(rho: np.ndarray, n: int, scale: float = 1e6) -> Tomogram:
    """Noise-free tomogram: counts equal the exact setting means."""
    settings = build_state_settings(n)
    counts = np.array([scale * np.real(product_ket(s.projection).conj() @ rho
                                       @ product_ket(s.projection))
                       for s in settings])
    return Tomogram(settings, counts.clip(0.0, None))


def state_estimate(tomo: Tomogram, **kwargs) -> DensityMatrix:
    return DensityMatrix(mle_state(tomo.settings, tomo.counts[None, :], **kwargs)[0])


def process_estimate(tomo: Tomogram, n: int) -> ProcessMatrix:
    return ProcessMatrix(mle_process(tomo.settings, tomo.counts[None, :])[0], n)


def log_likelihood(settings, counts: np.ndarray, rho: np.ndarray) -> float:
    kets = setting_kets(settings, process=False)
    p = np.einsum("nd,de,ne->n", kets.conj(), rho, kets).real
    pos = counts > 0
    return float(np.sum(counts[pos] * np.log(p[pos])))


class MeanRng:
    """Stand-in generator whose Poisson draw returns its mean."""

    def poisson(self, lam):
        return np.asarray(lam, dtype=float)


def count_means(monkeypatch, settings, mat, rate: float) -> np.ndarray:
    monkeypatch.setattr(np.random, "default_rng", lambda seed: MeanRng())
    return simulate_counts(settings, mat, rate, seed=0).counts


def dephasing_kraus(q: complex) -> list[np.ndarray]:
    # scales <1|rho|0> by q, leaves populations alone
    k1 = np.diag([1.0, q]).astype(complex)
    k2 = np.diag([0.0, math.sqrt(max(0.0, 1.0 - abs(q) ** 2))]).astype(complex)
    return [k1, k2]


# ---------------------------------------------------------------------------
# settings and counts


def test_setting_counts():
    assert len(build_state_settings(1)) == 6
    assert len(build_state_settings(2)) == 36
    assert len(build_process_settings(1)) == 36
    assert len(build_process_settings(2)) == 1296


def test_setting_validation():
    with pytest.raises(ValueError):
        MeasurementSetting((), ("Q",))
    with pytest.raises(ValueError):
        MeasurementSetting((), ())


def test_simulate_counts_orthogonal_projection_is_silent():
    settings = (MeasurementSetting((), ("1",)),)
    tomo = simulate_counts(settings, DensityMatrix.from_label("0"), rate=1e5, seed=0)
    assert tomo.counts[0] == 0


def test_simulate_counts_mixed_state_mean():
    # projections of I/2 fire at half the rate: empirical mean near 150
    settings = (MeasurementSetting((), ("+",)),)
    rho = DensityMatrix.maximally_mixed(1)
    draws = np.array([simulate_counts(settings, rho, rate=300.0, seed=s).counts[0]
                      for s in range(1000)])
    assert abs(draws.mean() - 150.0) < 5.0 * math.sqrt(150.0 / 1000.0)


def test_simulate_counts_basis_completeness():
    # the two outcomes of one basis together see every photon
    settings = (MeasurementSetting((), ("+",)), MeasurementSetting((), ("-",)))
    rho = DensityMatrix.from_label("L")
    totals = np.array([simulate_counts(settings, rho, rate=200.0, seed=s).counts.sum()
                       for s in range(500)])
    assert abs(totals.mean() - 200.0) < 5.0 * math.sqrt(200.0 / 500.0)


def test_simulate_counts_deterministic():
    settings = build_state_settings(1)
    rho = DensityMatrix.from_label("L")
    a = simulate_counts(settings, rho, rate=300.0, seed=42)
    b = simulate_counts(settings, rho, rate=300.0, seed=42)
    np.testing.assert_array_equal(a.counts, b.counts)


def test_tomogram_validation():
    settings = build_state_settings(1)
    with pytest.raises(ValueError):
        Tomogram(settings, np.zeros(3))
    with pytest.raises(ValueError):
        Tomogram(settings, -np.ones(6))


# ---------------------------------------------------------------------------
# state reconstruction


def test_mle_state_noiseless_plus():
    tomo = exact_tomogram(projector(ket("+")), 1)
    rho_hat = state_estimate(tomo)
    assert state_fidelity(rho_hat, PureState(ket("+"))) > 1.0 - 1e-6


def test_mle_state_statistical_convergence():
    tomo = simulate_counts(build_state_settings(1), DensityMatrix.maximally_mixed(1),
                           rate=1e6, seed=7)
    rho_hat = state_estimate(tomo)
    diff = rho_hat.matrix - np.eye(2) / 2
    trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert trace_distance < 0.01


@pytest.mark.filterwarnings("ignore::darkstate.tomography.MLEConvergenceWarning")
def test_mle_state_likelihood_monotone():
    # stopping the iteration later never lowers the likelihood
    rng = np.random.default_rng(30)
    settings = build_state_settings(1)
    for seed in range(4):
        rho = random_density_matrix(1, rng)
        counts = simulate_counts(settings, rho, rate=300.0, seed=seed).counts
        logliks = [log_likelihood(settings, counts, mle_state(settings, counts[None, :],
                                                              max_iters=k)[0])
                   for k in (1, 2, 4, 8, 16, 32, 64, 128)]
        assert np.diff(logliks).min() > -1e-9


def test_mle_state_output_is_physical():
    tomo = simulate_counts(build_state_settings(1), DensityMatrix.from_label("R"),
                           rate=100.0, seed=3)
    rho_hat = mle_state(tomo.settings, tomo.counts[None, :])
    assert rho_hat.shape == (1, 2, 2)
    DensityMatrix(rho_hat[0])   # construction enforces the invariants


def test_mle_state_two_qubit_marginal_sums():
    # summing two-qubit counts over all six projections of the partner qubit
    # (three full bases) triples the single-qubit means of the reduced state
    rng = np.random.default_rng(31)
    rho = random_density_matrix(2, rng)
    settings2 = build_state_settings(2)
    kets2 = [product_ket(s.projection) for s in settings2]
    means2 = np.array([np.real(k.conj() @ rho.matrix @ k) for k in kets2]).reshape(6, 6)
    reduced = partial_trace(rho, (0,))
    means1 = np.array([np.real(ket(lab).conj() @ reduced.matrix @ ket(lab))
                       for lab in BASIS_LABELS])
    np.testing.assert_allclose(means2.sum(axis=1), 3.0 * means1, atol=1e-12)
    # reconstructing from the summed noise-free counts recovers the marginal
    tomo = Tomogram(build_state_settings(1), 1e6 * means2.sum(axis=1))
    rho_hat = state_estimate(tomo)
    np.testing.assert_allclose(rho_hat.matrix, reduced.matrix, atol=1e-5)


def test_mle_state_errors():
    settings = (MeasurementSetting((), ("0",)), MeasurementSetting((), ("1",)))
    with pytest.raises(IncompleteMeasurementError):
        mle_state(settings, np.array([[5.0, 5.0]]))
    full = build_state_settings(1)
    with pytest.raises(ValueError):
        mle_state(full, np.ones(6))          # counts must be (B, N)
    with pytest.raises(ValueError):
        mle_state(full, np.ones((2, 4)))     # N must match the settings


def test_mle_zero_total_tomogram_raises():
    with pytest.raises(ValueError):
        mle_state(build_state_settings(1), np.zeros((1, 6)))
    with pytest.raises(ValueError):
        mle_process(build_process_settings(1), np.zeros((1, 36)))


def test_mle_zero_total_replica_is_maximally_mixed():
    settings = build_state_settings(1)
    counts = simulate_counts(settings, DensityMatrix.from_label("+"), rate=300.0,
                             seed=12).counts.astype(float)
    batch = mle_state(settings, np.stack([counts, np.zeros(6), counts]))
    np.testing.assert_array_equal(batch[1], np.eye(2) / 2)
    alone = mle_state(settings, counts[None, :])[0]
    np.testing.assert_array_equal(batch[0], alone)
    np.testing.assert_array_equal(batch[2], alone)


def test_mle_batch_row_matches_single_call():
    # row 0 (near pure) converges last, so the batch stops where its own
    # reconstruction stops and every step acts on it as on a single call
    settings = build_state_settings(1)
    slow = simulate_counts(settings, DensityMatrix.from_label("L"), rate=300.0, seed=13).counts
    fast = [simulate_counts(settings, DensityMatrix.maximally_mixed(1), rate=300.0,
                            seed=s).counts for s in (14, 15)]
    batch = mle_state(settings, np.stack([slow, *fast]))
    single = mle_state(settings, slow[None, :])
    np.testing.assert_array_equal(batch[0], single[0])


def test_mle_iteration_cap_warns():
    tomo = exact_tomogram(projector(ket("L")), 1)
    with pytest.warns(MLEConvergenceWarning, match=r"d = 2, B = 1\): final delta"):
        state_estimate(tomo, max_iters=1)


def test_mle_converged_call_does_not_warn():
    tomo = simulate_counts(build_state_settings(1), DensityMatrix.maximally_mixed(1),
                           rate=300.0, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state_estimate(tomo)


# ---------------------------------------------------------------------------
# structured Born rule and R operator against the dense ket table


def random_psd(d: int, b: int, rng) -> np.ndarray:
    a = rng.normal(size=(b, d, d)) + 1j * rng.normal(size=(b, d, d))
    return a @ np.conj(np.swapaxes(a, 1, 2))


@pytest.mark.parametrize("process,n", [(False, 1), (False, 2), (False, 3), (True, 1), (True, 2)])
def test_structured_maps_match_dense(process, n):
    rng = np.random.default_rng(40 + n)
    settings = build_process_settings(n) if process else build_state_settings(n)
    kets = setting_kets(settings, process=process)
    _, grid, frames = _grid(settings, process)
    mats = random_psd(kets.shape[1], 3, rng)
    p = _born(mats, [f.T for f in frames])[:, grid]
    dense_p = np.stack([np.einsum("ne,ne->n", kets.conj() @ m, kets) for m in mats])
    assert abs(p - dense_p).max() <= 1e-13 * abs(dense_p).max()
    w = rng.random((3, len(settings)))
    w_grid = np.zeros((3, 6 ** len(frames)))
    w_grid[:, grid] = w
    r_op = _weighted_projectors(w_grid, [f.conj() for f in frames])
    dense_r = np.stack([(kets.T * wi) @ kets.conj() for wi in w])
    assert abs(r_op - dense_r).max() <= 1e-13 * abs(dense_r).max()


def test_structured_born_rule_matches_dense_three_qubit_process():
    settings = build_process_settings(3)
    kets = setting_kets(settings, process=True)
    _, grid, frames = _grid(settings, True)
    chi = random_psd(64, 1, np.random.default_rng(43))
    p = _born(chi, [f.T for f in frames])[0, grid]
    dense_p = np.einsum("ne,ne->n", kets.conj() @ chi[0], kets)
    assert abs(p - dense_p).max() <= 1e-13 * abs(dense_p).max()


def test_mle_permuted_settings_bit_identical():
    settings = build_process_settings(1)
    counts = simulate_counts(settings, channel_to_choi(dephasing_kraus(0.7), n=1),
                             rate=300.0, seed=21).counts
    order = np.random.default_rng(22).permutation(len(settings))
    a = mle_process(settings, counts[None, :])
    b = mle_process([settings[i] for i in order], counts[order][None, :])
    np.testing.assert_array_equal(a, b)


def test_mle_duplicate_setting_matches_merged():
    settings = build_state_settings(2)
    counts = simulate_counts(settings, random_density_matrix(2, np.random.default_rng(23)),
                             rate=300.0, seed=24).counts.astype(float)
    split = np.concatenate([counts, [0.0]])
    split[[5, -1]] = counts[5] // 2, counts[5] - counts[5] // 2
    merged = mle_state(settings, counts[None, :])
    dup = mle_state((*settings, settings[5]), split[None, :])
    np.testing.assert_allclose(dup, merged, rtol=0.0, atol=1e-12)


def test_singular_small_frame_raises():
    # four settings reach the rank test; two distinct projectors cannot span
    settings = tuple(MeasurementSetting((), (lab,)) for lab in ("0", "0", "1", "1"))
    with pytest.raises(IncompleteMeasurementError, match="singular frame"):
        mle_state(settings, np.array([[5.0, 4.0, 3.0, 6.0]]))


def test_gram_branch_on_three_qubit_process_sets():
    # 6^6 settings on d = 64 take the sum_k |k><k| test
    full = build_process_settings(3)
    _check_complete(*_grid(full, True))
    # projecting the first output qubit on |0> only leaves |1> unseen
    partial = [s for s in full if s.projection[0] == "0"]
    with pytest.raises(IncompleteMeasurementError, match="singular frame"):
        _check_complete(*_grid(partial, True))


# ---------------------------------------------------------------------------
# process reconstruction


def test_mle_process_identity_noiseless():
    settings = build_process_settings(1)
    means = Tomogram(settings, np.array([
        1e6 * np.real(product_ket(s.projection).conj()
                      @ projector(product_ket(s.preparation))
                      @ product_ket(s.projection))
        for s in settings]))
    chi_hat = process_estimate(means, 1)
    assert process_fidelity(chi_hat, PHI_PLUS) > 1.0 - 1e-6


def test_mle_process_full_dephasing():
    q = 0.0

    def channel(rho):
        out = np.array(rho, dtype=complex)
        out[0, 1] *= q
        out[1, 0] *= q
        return out

    settings = build_process_settings(1)
    counts = np.array([1e6 * np.real(product_ket(s.projection).conj()
                                     @ channel(projector(product_ket(s.preparation)))
                                     @ product_ket(s.projection))
                       for s in settings])
    chi_hat = process_estimate(Tomogram(settings, counts), 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(chi_hat.chi, expected, atol=1e-5)


def test_mle_process_cz_end_to_end():
    chi_ideal = channel_to_choi(u_cp(math.pi), n=2)
    tomo = simulate_counts(build_process_settings(2), chi_ideal, rate=1e5, seed=5)
    chi_hat = process_estimate(tomo, 2)
    assert process_fidelity(chi_hat, chi_ideal) > 0.999


def test_mle_process_requires_preparations():
    tomo = simulate_counts(build_state_settings(1), DensityMatrix.maximally_mixed(1),
                           rate=100.0, seed=0)
    with pytest.raises(ValueError):
        mle_process(tomo.settings, tomo.counts[None, :])
    with pytest.raises(ValueError):
        setting_kets(build_process_settings(1), process=False)


# ---------------------------------------------------------------------------
# channel-state duality


def test_choi_identity():
    chi = channel_to_choi(np.eye(2, dtype=complex), n=1)
    np.testing.assert_allclose(chi.chi, PHI_PLUS, atol=1e-15)


def test_choi_ccp_closed_form():
    # (I (x) U)|Phi_3> = |Phi_3> + 8^{-1/2}(e^{i phi} - 1)|111>|111>
    for phi in (0.8, math.pi / 2.0, math.pi, 4.9):
        chi = channel_to_choi(u_ccp(phi), n=3)
        vec = max_entangled(3).amplitudes.copy()
        vec[63] += (np.exp(1j * phi) - 1.0) / math.sqrt(8.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(chi.chi, np.outer(vec, vec.conj()), atol=1e-12)


def test_choi_dephasing_scales_offdiagonal_block():
    q = 0.3 + 0.4j
    chi = channel_to_choi(dephasing_kraus(q), n=1)
    # coherence block between |0>|.> and |1>|.>: scaled by conj(q) on the
    # <00|chi|11> element
    assert chi.chi[0, 3] == pytest.approx(0.5 * np.conj(q), abs=1e-12)
    assert chi.chi[3, 0] == pytest.approx(0.5 * q, abs=1e-12)
    assert chi.chi[0, 0] == pytest.approx(0.5, abs=1e-12)


def direct_means(settings, kraus, rate: float) -> np.ndarray:
    """rate * <proj| sum_k K |prep><prep| K† |proj> for every setting."""
    out = []
    for s in settings:
        prep, proj = product_ket(s.preparation), product_ket(s.projection)
        out.append(rate * sum(abs(proj.conj() @ k @ prep) ** 2 for k in kraus))
    return np.array(out)


def test_simulate_counts_channel_means(monkeypatch):
    # Choi-matrix means equal the channel applied to each preparation
    rng = np.random.default_rng(33)
    kraus1 = dephasing_kraus(0.6 - 0.2j)
    u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(u)
    kraus2 = [math.sqrt(0.7) * q, math.sqrt(0.3) * u_cp(1.3).matrix]
    for n, kraus in ((1, kraus1), (2, kraus2)):
        settings = build_process_settings(n)
        got = count_means(monkeypatch, settings, channel_to_choi(kraus, n=n), 250.0)
        np.testing.assert_allclose(got, direct_means(settings, kraus, 250.0),
                                   rtol=0.0, atol=1e-12)


def test_choi_composition_consistency(monkeypatch):
    ka = dephasing_kraus(0.5 + 0.1j)
    theta = 0.6
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]], dtype=complex)
    composed = [rot @ a for a in ka]
    settings = build_process_settings(1)
    # second stage applied by hand to the first stage's outputs
    expected = []
    for s in settings:
        prep, proj = product_ket(s.preparation), product_ket(s.projection)
        mid = sum(np.outer(a @ prep, (a @ prep).conj()) for a in ka)
        expected.append(np.real(proj.conj() @ rot @ mid @ rot.conj().T @ proj))
    got = count_means(monkeypatch, settings, channel_to_choi(composed, n=1), 1.0)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# process metrics


def test_process_fidelity_self():
    chi = channel_to_choi(u_cp(1.1), n=2)
    assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_identity_vs_ccp_pi():
    chi_id = channel_to_choi(np.eye(8, dtype=complex), n=3)
    chi_ccp = channel_to_choi(u_ccp(math.pi), n=3)
    # oracle: direct overlap of the two rank-1 vectors
    vec = max_entangled(3).amplitudes.copy()
    vec[63] += (np.exp(1j * math.pi) - 1.0) / math.sqrt(8.0)
    overlap = abs(max_entangled(3).amplitudes.conj() @ vec) ** 2
    assert overlap == pytest.approx(9.0 / 16.0, abs=1e-12)
    assert process_fidelity(chi_id, chi_ccp) == pytest.approx(9.0 / 16.0, abs=1e-12)


def test_process_metrics_scale_invariance():
    chi = channel_to_choi(dephasing_kraus(0.4), n=1)
    scaled = ProcessMatrix(7.3 * chi.chi, 1)
    target = channel_to_choi(np.eye(2, dtype=complex), n=1)
    assert process_fidelity(scaled, target) == pytest.approx(
        process_fidelity(chi, target), abs=1e-12)
    assert process_purity(scaled) == pytest.approx(process_purity(chi), abs=1e-12)


def test_process_purity_values():
    assert process_purity(channel_to_choi(u_ccp(1.7), n=3)) == pytest.approx(1.0, abs=1e-12)
    assert process_purity(channel_to_choi(dephasing_kraus(0.0), n=1)) == pytest.approx(0.5, abs=1e-12)


def test_process_metric_errors():
    chi = channel_to_choi(np.eye(2, dtype=complex), n=1)
    with pytest.raises(ValueError):
        process_fidelity(np.zeros((4, 4)), chi)
    with pytest.raises(ValueError):
        process_purity(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# resampling


def test_resample_counts_shape_and_determinism():
    counts = np.array([5.0, 0.0, 100.0])
    a = resample_counts(counts, 20, seed=4, key=(1,))
    b = resample_counts(counts, 20, seed=4, key=(1,))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (20, 3)
    assert (a[:, 1] == 0).all()
