import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from darkstate.protocol import u_ccp, u_cp
from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    ket,
    max_entangled,
    partial_trace,
    projector,
    state_fidelity,
)
from darkstate.tomography import (
    MLEConvergenceWarning,
    MeasurementSetting,
    SettingGrid,
    build_process_settings,
    build_state_settings,
    mle_process,
    mle_state,
    process_fidelity,
    process_purity,
    resample_counts,
    setting_kets,
    simulate_counts,
)
from darkstate import tomography
from darkstate.experiments import NoiseParams, _gate_choi
from darkstate.tomography import _born, _pauli_tables, _rrr, _weighted_projectors
from helpers import (channel_to_choi, product_density, product_ket, product_settings,
                     random_density_matrix, rrr_chain)

PHI_PLUS = projector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))


def exact_counts(rho: np.ndarray, n: int, scale: float = 1e6) -> np.ndarray:
    """Noise-free counts of ``build_state_settings(n)``: the exact setting means."""
    counts = np.array([scale * np.real(product_ket(s.projection).conj() @ rho
                                       @ product_ket(s.projection))
                       for s in build_state_settings(n)])
    return counts.clip(0.0, None)


def state_estimate(settings, counts: np.ndarray) -> DensityMatrix:
    return DensityMatrix(mle_state(settings, counts[None, :])[0])


def process_estimate(settings, counts: np.ndarray) -> np.ndarray:
    """The Choi estimate, checked as the unit-trace state on the doubled register it is."""
    return DensityMatrix(mle_process(settings, counts[None, :])[0]).matrix


def log_likelihood(settings, counts: np.ndarray, rho: np.ndarray, process: bool = False) -> float:
    kets = setting_kets(settings, process=process)
    p = np.einsum("nd,de,ne->n", kets.conj(), rho, kets).real
    pos = counts > 0
    return float(np.sum(counts[pos] * np.log(p[pos])))


def rrr_step(settings, counts: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """One R-rho-R step from the state rho, through the dense setting kets."""
    kets = setting_kets(settings, process=False)
    p = np.einsum("nd,de,ne->n", kets.conj(), rho, kets).real
    w = np.divide(counts, p, out=np.zeros(len(p)), where=counts > 0)
    r_op = (kets.T * w) @ kets.conj()
    new = r_op @ rho @ r_op
    return new / np.trace(new).real


def rotation_choi(theta: float) -> np.ndarray:
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]], dtype=complex)
    return channel_to_choi(rot, n=1)


class MeanRng:
    """Stand-in generator whose Poisson draw returns its mean."""

    def poisson(self, lam):
        return np.asarray(lam, dtype=float)


def count_means(monkeypatch, settings, mat, rate: float) -> np.ndarray:
    monkeypatch.setattr(np.random, "default_rng", lambda seed: MeanRng())
    return simulate_counts(settings, mat, rate, seed=0)


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


@pytest.mark.parametrize("process", [False, True], ids=["state", "process"])
@pytest.mark.parametrize("n", [1, 2])
def test_setting_grid_items_match_product_construction(n, process):
    grid = build_process_settings(n) if process else build_state_settings(n)
    ref = product_settings(n, process)
    assert len(grid) == len(ref)
    assert tuple(grid) == ref


@pytest.mark.parametrize("n", [0, -1, True, 2.0, "2"])
def test_settings_builders_reject_bad_qubit_counts(n):
    for build in (build_state_settings, build_process_settings):
        with pytest.raises(ValueError, match="qubit counts must be ints"):
            build(n)


def test_gate_point_builds_no_setting(monkeypatch):
    # the simulator and the estimator read only the grid's qubit counts
    def refuse(self):
        raise AssertionError("the setting grid was iterated")

    monkeypatch.setattr(SettingGrid, "__iter__", refuse)
    settings = build_process_settings(3)
    counts = simulate_counts(settings, _gate_choi(math.pi, NoiseParams()), 300.0, seed=0)
    with pytest.warns(MLEConvergenceWarning):
        chi = mle_process(settings, counts[None, :], max_iters=1)
    assert chi.shape == (1, 64, 64)


LABEL = {lab: i for i, lab in enumerate(BASIS_LABELS)}


def test_simulate_counts_orthogonal_projection_is_silent():
    counts = simulate_counts(build_state_settings(1), product_density("0").matrix, rate=1e5, seed=0)
    assert counts.shape == (6,)
    assert counts[LABEL["1"]] == 0


def test_simulate_counts_mixed_state_mean():
    # projections of I/2 fire at half the rate: empirical mean near 150
    settings, rho = build_state_settings(1), np.eye(2) / 2
    draws = np.array([simulate_counts(settings, rho, rate=300.0, seed=s)[LABEL["+"]]
                      for s in range(1000)])
    assert abs(draws.mean() - 150.0) < 5.0 * math.sqrt(150.0 / 1000.0)


def test_simulate_counts_basis_completeness():
    # the two outcomes of one basis together see every photon
    settings, rho = build_state_settings(1), product_density("L").matrix
    pair = [LABEL["+"], LABEL["-"]]
    totals = np.array([simulate_counts(settings, rho, rate=200.0, seed=s)[pair].sum()
                       for s in range(500)])
    assert abs(totals.mean() - 200.0) < 5.0 * math.sqrt(200.0 / 500.0)


def non_grid_lists(process: bool) -> dict:
    """Inputs that are not a grid, most of them setting lists on one qubit."""
    full = tuple(build_process_settings(1) if process else build_state_settings(1))
    prep = ("0",) if process else ()
    return {"copied": full,
            "permuted": full[1:] + full[:1],
            "partial": tuple(MeasurementSetting(prep, (lab,)) for lab in ("0", "1", "+", "L")),
            "duplicated": (*full, full[2]),
            "rank-deficient": tuple(MeasurementSetting(prep, (lab,))
                                    for lab in ("0", "0", "1", "1")),
            "list": list(full),
            "labels": [(s.preparation, s.projection) for s in full],
            "string": "".join(BASIS_LABELS),
            "none": None}


NOT_A_GRID = r"^settings must be the full 6\^m label grid in build order$"


@pytest.mark.parametrize("case", ["copied", "permuted", "partial", "duplicated",
                                  "rank-deficient", "list", "labels", "string", "none"])
@pytest.mark.parametrize("process", [False, True], ids=["state", "process"])
def test_non_grid_settings_raise(case, process):
    # anything but a SettingGrid raises one ValueError, whatever it holds
    settings = non_grid_lists(process)[case]
    estimate = mle_process if process else mle_state
    mat = rotation_choi(0.4) if process else product_density("+").matrix
    with pytest.raises(ValueError, match=NOT_A_GRID):
        estimate(settings, np.ones((1, 36 if process else 6)))
    with pytest.raises(ValueError, match=NOT_A_GRID):
        simulate_counts(settings, mat, rate=300.0, seed=0)


def test_simulate_counts_deterministic():
    settings = build_state_settings(1)
    rho = product_density("L").matrix
    a = simulate_counts(settings, rho, rate=300.0, seed=42)
    b = simulate_counts(settings, rho, rate=300.0, seed=42)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# state reconstruction


def test_mle_state_noiseless_plus():
    rho_hat = state_estimate(build_state_settings(1), exact_counts(projector(ket("+")), 1))
    assert state_fidelity(rho_hat, ket("+")) > 1.0 - 1e-6


def test_mle_state_statistical_convergence():
    settings = build_state_settings(1)
    counts = simulate_counts(settings, np.eye(2) / 2, rate=1e6, seed=7)
    rho_hat = state_estimate(settings, counts)
    diff = rho_hat.matrix - np.eye(2) / 2
    trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert trace_distance < 0.01


@pytest.mark.filterwarnings("ignore::darkstate.tomography.MLEConvergenceWarning")
def test_mle_process_likelihood_monotone():
    # stopping the R-rho-R iteration later never lowers the likelihood
    rng = np.random.default_rng(30)
    settings = build_process_settings(1)
    for seed in range(4):
        chi = random_density_matrix(2, rng).matrix
        counts = simulate_counts(settings, chi, rate=300.0, seed=seed)
        logliks = [log_likelihood(settings, counts, mle_process(settings, counts[None, :],
                                                                max_iters=k)[0], process=True)
                   for k in (1, 2, 4, 8, 16, 32, 64, 128)]
        assert np.diff(logliks).min() > -1e-9


def test_mle_state_output_is_physical():
    settings = build_state_settings(1)
    counts = simulate_counts(settings, product_density("R").matrix, rate=100.0, seed=3)
    rho_hat = mle_state(settings, counts[None, :])
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
    rho_hat = state_estimate(build_state_settings(1), 1e6 * means2.sum(axis=1))
    np.testing.assert_allclose(rho_hat.matrix, reduced.matrix, atol=1e-5)


def test_mle_state_errors():
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
    # the exact qubit solution (d = 2) and the R-rho-R iteration (d = 4)
    for settings, mat, estimate in (
            (build_state_settings(1), product_density("+").matrix, mle_state),
            (build_process_settings(1), rotation_choi(0.4), mle_process)):
        counts = simulate_counts(settings, mat, rate=300.0, seed=12)
        batch = estimate(settings, np.stack([counts, np.zeros(len(counts)), counts]))
        d = batch.shape[1]
        np.testing.assert_array_equal(batch[1], np.eye(d) / d)
        alone = estimate(settings, counts[None, :])[0]
        np.testing.assert_array_equal(batch[0], alone)
        np.testing.assert_array_equal(batch[2], alone)


DEPHASING = channel_to_choi(dephasing_kraus(0.0), n=1)
GHZ3 = projector(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / math.sqrt(2.0))
# (matrix, rate, seed) per count row
M2_BATCH_ROWS = [(rotation_choi(0.4), 300.0, 13), (DEPHASING, 30.0, 14), (DEPHASING, 3000.0, 15)]
M3_BATCH_ROWS = [(0.995 * GHZ3 + 0.005 * np.eye(8) / 8, 3000.0, 17),
                 (0.4 * random_density_matrix(3, np.random.default_rng(5)).matrix
                  + 0.6 * np.eye(8) / 8, 300.0, 18)]


@pytest.mark.parametrize("settings, estimate, rows",
                         [(build_process_settings(1), mle_process, M2_BATCH_ROWS),
                          (build_state_settings(2), mle_state, M2_BATCH_ROWS),
                          (build_state_settings(3), mle_state, M3_BATCH_ROWS)],
                         ids=["process", "state", "three-qubit-state"])
def test_mle_batch_rows_match_single_calls(settings, estimate, rows):
    # a slow near-pure row (a near-unitary channel on the process grid), fast
    # mixed rows and a zero-count row, on the m = 2 frame and on the Pauli
    # chain: every row stops at its own tolerance, so each equals its own
    # single call
    counts = [simulate_counts(settings, mat, rate=rate, seed=seed) for mat, rate, seed in rows]
    batch = estimate(settings, np.stack([*counts, np.zeros(len(settings))]))
    for row, rho in zip(counts, batch):
        np.testing.assert_array_equal(rho, estimate(settings, row[None, :])[0])
    d = batch.shape[1]
    np.testing.assert_array_equal(batch[-1], np.eye(d) / d)


def frame_kernel_batch(settings) -> np.ndarray:
    """120 count rows on an m = 2 grid: 118 partly mixed random states (channels on
    the process grid) at two rates, a slow near-unitary channel, whose row runs on
    long after the others stop, and a zero row."""
    rng = np.random.default_rng(60 + settings.n_in)
    rows = []
    for seed in range(118):
        mix = 0.3 + 0.3 * rng.random()
        mat = mix * random_density_matrix(2, rng).matrix + (1.0 - mix) * np.eye(4) / 4
        rows.append(simulate_counts(settings, mat / 2**settings.n_in,
                                    rate=(300.0, 3000.0)[seed % 2], seed=seed))
    rows.append(simulate_counts(settings, rotation_choi(0.4), rate=300.0, seed=13))
    return np.array(rows + [np.zeros(len(settings))])


@pytest.mark.parametrize("settings, estimate", [(build_process_settings(1), mle_process),
                                                 (build_state_settings(2), mle_state)],
                         ids=["process", "state"])
def test_frame_kernel_rows_match_single_calls(monkeypatch, settings, estimate):
    # the m = 2 kernel applies its frame row by row and takes its 4 x 4 products
    # elementwise, so every row of a 120-row batch equals its single call bit for
    # bit, also in the tail, where only the slow row is left
    counts = frame_kernel_batch(settings)
    live_rows = []   # per iteration: the first product's operand is R, (4, 4, live rows)
    products = tomography._frame_products
    monkeypatch.setattr(tomography, "_frame_products",
                        lambda a, b: live_rows.append(a.shape[-1]) or products(a, b))
    batch = estimate(settings, counts)
    live_rows = live_rows[::2]
    assert live_rows[0] == len(counts) - 1 and 1 <= live_rows[-1] <= 3
    assert sum(n <= 3 for n in live_rows) >= 10
    for row, rho in zip(counts, batch[:-1]):
        np.testing.assert_array_equal(rho, estimate(settings, row[None, :])[0])
    np.testing.assert_array_equal(batch[-1], np.eye(4) / 4)


@pytest.mark.parametrize("settings, estimate", [(build_process_settings(1), mle_process),
                                                 (build_state_settings(2), mle_state)],
                         ids=["process", "state"])
def test_frame_kernel_agrees_with_the_chain(settings, estimate):
    # the reference runs the Pauli chain and stacked matmuls on the same grid
    counts = frame_kernel_batch(settings)
    reference = rrr_chain(counts, _pauli_tables(settings.n_in, settings.n_out))
    assert np.abs(estimate(settings, counts) - reference).max() <= 1e-12


@pytest.mark.parametrize("n_in, n_out", [(1, 1), (0, 2)])
def test_frame_is_the_pauli_chain(n_in, n_out):
    # the frame holds the chain's Born map on the float view of rho, and its
    # transpose the chain's R map, entry for entry
    tables = _pauli_tables(n_in, n_out)
    assert tables.frame.shape == (32, 36)
    weights = _weighted_projectors(np.eye(36), tables).reshape(36, -1).view(np.float64)
    assert np.array_equal(weights, tables.frame.T)
    rho = random_psd(4, 5, np.random.default_rng(47))
    p = np.matmul(rho.reshape(5, 1, 16).view(np.float64), tables.frame)[:, 0]
    assert np.abs(p - _born(rho, tables)).max() <= 1e-14 * np.abs(p).max()
    assert _pauli_tables(3, 3).frame is None and _pauli_tables(0, 1).frame is None


@pytest.mark.parametrize("settings, estimate, d", [(build_state_settings(1), mle_state, 2),
                                                   (build_state_settings(2), mle_state, 4),
                                                   (build_process_settings(1), mle_process, 4)],
                         ids=["qubit", "two-qubit", "process"])
def test_mle_empty_batch_returns_empty_stack(settings, estimate, d):
    assert estimate(settings, np.zeros((0, len(settings)))).shape == (0, d, d)


def test_mle_iteration_cap_warns():
    settings = build_process_settings(1)
    counts = simulate_counts(settings, rotation_choi(0.4), rate=1e6, seed=0)
    with pytest.warns(MLEConvergenceWarning, match=r"d = 4, B = 1\): final delta") as frame:
        mle_process(settings, counts[None, :], max_iters=1)
    wide = build_process_settings(2)
    wide_counts = simulate_counts(wide, channel_to_choi(np.eye(4), n=2), rate=1e6, seed=0)
    with pytest.warns(MLEConvergenceWarning, match=r"d = 16, B = 1\): final delta") as chain:
        mle_process(wide, wide_counts[None, :], max_iters=1)
    # on the m = 2 frame and on the Pauli chain, the warning points at the caller
    assert [w.filename for w in (*frame, *chain)] == [__file__] * 2
    # the zero-count row never enters the iteration, so only one row is capped
    with pytest.warns(MLEConvergenceWarning, match=r"B = 2\): final delta .* in 1 of 2 rows$"):
        mle_process(settings, np.stack([counts, np.zeros(len(counts))]), max_iters=1)


def test_mle_converged_call_does_not_warn():
    settings = build_process_settings(1)
    counts = simulate_counts(settings, rotation_choi(0.4), rate=300.0, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mle_process(settings, counts[None, :])


# ---------------------------------------------------------------------------
# exact single-qubit solution


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def bloch_log_likelihood(settings, counts: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Log-likelihood of each Bloch vector in ``a`` (shape (K, 3)); no kets needed."""
    label_bloch = {"0": (0, 0, 1), "1": (0, 0, -1), "+": (1, 0, 0), "-": (-1, 0, 0),
                   "L": (0, 1, 0), "R": (0, -1, 0)}
    b = np.array([label_bloch[s.projection[0]] for s in settings], dtype=float)
    pos = counts > 0
    return np.log(0.5 * (1.0 + a @ b[pos].T)) @ counts[pos]


def ball_search(k: int, rng) -> np.ndarray:
    """k points spread over the Bloch ball, half of them on the sphere."""
    d = rng.normal(size=(k, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = np.where(np.arange(k) % 2 == 0, 1.0, rng.random(k) ** (1 / 3))
    return d * r[:, None]


SIX = build_state_settings(1)


def test_qubit_mle_interior_is_linear_inversion():
    counts = np.array([60.0, 40.0, 55.0, 45.0, 50.0, 50.0])
    rho = mle_state(SIX, counts[None, :])[0]
    kets = setting_kets(SIX, process=False)
    p = np.einsum("nd,de,ne->n", kets.conj(), rho, kets).real
    freq = counts / (counts + counts.reshape(3, 2)[:, ::-1].ravel())
    np.testing.assert_allclose(p, freq, rtol=0.0, atol=1e-15)


def test_qubit_mle_boundary_is_pure_and_stationary():
    counts = simulate_counts(SIX, product_density("L").matrix, rate=300.0, seed=3)
    u, v = counts[0::2], counts[1::2]
    assert (((u - v) / (u + v)) ** 2).sum() > 1.0   # linear inversion lies outside the ball
    rho = mle_state(SIX, counts[None, :])[0]
    assert np.linalg.norm(bloch_vector(rho)) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.eigvalsh(rho).min() > -1e-15
    assert np.abs(rrr_step(SIX, counts, rho) - rho).max() <= 1e-12


def test_qubit_mle_beats_random_search():
    rng = np.random.default_rng(50)
    search = ball_search(200_000, rng)
    for seed in range(6):
        state = random_density_matrix(1, rng) if seed % 2 else product_density(
            BASIS_LABELS[seed])
        counts = simulate_counts(SIX, state.matrix, rate=100.0, seed=seed)
        a = bloch_vector(mle_state(SIX, counts[None, :])[0])
        best = bloch_log_likelihood(SIX, counts, search).max()
        assert bloch_log_likelihood(SIX, counts, a[None, :])[0] >= best - 1e-12


def test_qubit_mle_zero_and_one_sided_axes():
    rng = np.random.default_rng(51)
    search = ball_search(200_000, rng)
    # Z one-sided, X without counts, Y two-sided; then every axis one-sided
    for counts in ([30.0, 0.0, 0.0, 0.0, 12.0, 5.0], [20.0, 0.0, 15.0, 0.0, 9.0, 0.0]):
        counts = np.array(counts)
        rho = mle_state(SIX, counts[None, :])[0]
        a = bloch_vector(rho)
        if counts[2:4].sum() == 0:
            assert rho[0, 1].real == 0.0    # the X component
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(rrr_step(SIX, counts, rho) - rho).max() <= 1e-12
        best = bloch_log_likelihood(SIX, counts, search).max()
        assert bloch_log_likelihood(SIX, counts, a[None, :])[0] >= best - 1e-12


def test_qubit_mle_batch_rows_match_single_calls():
    rng = np.random.default_rng(53)
    rows = [simulate_counts(SIX, random_density_matrix(1, rng).matrix, rate=300.0, seed=s)
            for s in range(4)]
    rows += [simulate_counts(SIX, product_density(lab).matrix, rate=r, seed=9)
             for lab in BASIS_LABELS for r in (30.0, 3000.0)]
    rows += [np.array([30.0, 0.0, 0.0, 0.0, 12.0, 5.0]), np.zeros(6)]
    batch = mle_state(SIX, np.array(rows, dtype=float))
    for row, rho in zip(rows[:-1], batch):
        np.testing.assert_array_equal(rho, mle_state(SIX, row[None, :])[0])
    np.testing.assert_array_equal(batch[-1], np.eye(2) / 2)


def test_qubit_mle_agrees_with_rrr(monkeypatch):
    # the R-rho-R iteration on the six-state grid, run to a tighter tolerance, is the reference
    rng = np.random.default_rng(54)
    states = [random_density_matrix(1, rng) for _ in range(10)]
    states += [DensityMatrix(w * projector(ket(lab)) + (1.0 - w) * np.eye(2) / 2)
               for w in (0.99, 1.0) for lab in ("L", "0", "+")]
    counts = np.array([simulate_counts(SIX, state.matrix, rate=300.0, seed=s)
                       for s in range(2) for state in states], dtype=float)
    u, v = counts[:, 0::2], counts[:, 1::2]
    assert (((u - v) / (u + v)) ** 2).sum(axis=1).max() > 1.0   # some on the sphere
    exact = mle_state(SIX, counts)
    monkeypatch.setattr(tomography, "MLE_TOL", 1e-13)
    iterated = _rrr(counts, _pauli_tables(0, 1), 200_000)
    assert np.abs(exact - iterated).max() <= 1e-9
    for c, e, i in zip(counts, exact, iterated):
        assert log_likelihood(SIX, c, e) >= log_likelihood(SIX, c, i) - 1e-9


def test_qubit_sphere_solve_cap_warns(monkeypatch):
    monkeypatch.setattr(tomography, "_SPHERE_MAX_ITERS", 1)
    counts = simulate_counts(SIX, product_density("L").matrix, rate=300.0, seed=3)
    with pytest.warns(MLEConvergenceWarning, match="sphere solve stopped at 1 iterations"):
        rho = mle_state(SIX, counts[None, :])[0]
    assert np.linalg.norm(bloch_vector(rho)) == pytest.approx(1.0, abs=1e-14)


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
    tables = _pauli_tables(settings.n_in, settings.n_out)
    mats = random_psd(kets.shape[1], 3, rng)
    p = _born(mats, tables)
    dense_p = np.stack([np.einsum("ne,ne->n", kets.conj() @ m, kets) for m in mats])
    assert abs(p - dense_p).max() <= 1e-13 * abs(dense_p).max()
    w = rng.random((3, len(settings)))
    r_op = _weighted_projectors(w, tables)
    dense_r = np.stack([(kets.T * wi) @ kets.conj() for wi in w])
    assert abs(r_op - dense_r).max() <= 1e-13 * abs(dense_r).max()


def test_structured_maps_match_dense_three_qubit_process():
    # n_in = 3 is where the preparation qubits' Y sign matters on the 6^6 grid
    settings = build_process_settings(3)
    kets = setting_kets(settings, process=True)
    tables = _pauli_tables(3, 3)
    rng = np.random.default_rng(43)
    chi = random_psd(64, 1, rng)
    p = _born(chi, tables)
    assert p.dtype == np.float64 and p.shape == (1, len(settings))
    dense_p = np.einsum("ne,ne->n", kets.conj() @ chi[0], kets)
    assert abs(p[0] - dense_p).max() <= 1e-13 * abs(dense_p).max()
    w = rng.random((1, len(settings)))
    r_op = _weighted_projectors(w, tables)
    dense_r = (kets.T * w[0]) @ kets.conj()
    assert abs(r_op[0] - dense_r).max() <= 1e-13 * abs(dense_r).max()


def test_import_builds_no_pauli_table():
    # the per-grid tables are built on first use, so importing the CLI stays cheap
    code = ("import darkstate.cli, darkstate.tomography as t; "
            "print(t._pauli_tables.cache_info().currsize)")
    src = Path(tomography.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# process reconstruction


def test_mle_process_identity_noiseless():
    settings = build_process_settings(1)
    means = np.array([
        1e6 * np.real(product_ket(s.projection).conj()
                      @ projector(product_ket(s.preparation))
                      @ product_ket(s.projection))
        for s in settings])
    chi_hat = process_estimate(settings, means)
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
    chi_hat = process_estimate(settings, counts)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(chi_hat, expected, atol=1e-5)


def test_mle_process_cz_end_to_end():
    chi_ideal = channel_to_choi(u_cp(math.pi), n=2)
    settings = build_process_settings(2)
    chi_hat = process_estimate(settings, simulate_counts(settings, chi_ideal, rate=1e5, seed=5))
    assert process_fidelity(chi_hat, chi_ideal) > 0.999


def test_mle_process_requires_preparations():
    settings = build_state_settings(1)
    counts = simulate_counts(settings, np.eye(2) / 2, rate=100.0, seed=0)
    with pytest.raises(ValueError):
        mle_process(settings, counts[None, :])
    with pytest.raises(ValueError):
        setting_kets(build_process_settings(1), process=False)


# ---------------------------------------------------------------------------
# channel-state duality


def test_choi_identity():
    chi = channel_to_choi(np.eye(2, dtype=complex), n=1)
    np.testing.assert_allclose(chi, PHI_PLUS, atol=1e-15)


def test_choi_ccp_closed_form():
    # (I (x) U)|Phi_3> = |Phi_3> + 8^{-1/2}(e^{i phi} - 1)|111>|111>
    for phi in (0.8, math.pi / 2.0, math.pi, 4.9):
        chi = channel_to_choi(u_ccp(phi), n=3)
        vec = max_entangled(3).copy()
        vec[63] += (np.exp(1j * phi) - 1.0) / math.sqrt(8.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(chi, np.outer(vec, vec.conj()), atol=1e-12)


def test_choi_dephasing_scales_offdiagonal_block():
    q = 0.3 + 0.4j
    chi = channel_to_choi(dephasing_kraus(q), n=1)
    # coherence block between |0>|.> and |1>|.>: scaled by conj(q) on the
    # <00|chi|11> element
    assert chi[0, 3] == pytest.approx(0.5 * np.conj(q), abs=1e-12)
    assert chi[3, 0] == pytest.approx(0.5 * q, abs=1e-12)
    assert chi[0, 0] == pytest.approx(0.5, abs=1e-12)


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
    kraus2 = [math.sqrt(0.7) * q, math.sqrt(0.3) * u_cp(1.3)]
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


@pytest.fixture(scope="module")
def gate_settings():
    return build_process_settings(3)


@pytest.mark.parametrize("phi", [math.pi, math.pi / 8])
@pytest.mark.parametrize("noise", [NoiseParams(),
                                   NoiseParams(gate_depolarizing=0.05, phase_jitter_std=0.2)],
                         ids=["noiseless", "noisy"])
def test_simulate_counts_draws_floored_grid_means(monkeypatch, gate_settings, phi, noise):
    # the grid Born rule agrees with the dense ket table, and means below 1e-12 of the
    # largest (roundoff of exact zeros) read 0, so they take no randomness
    chi = _gate_choi(phi, noise)
    rng = np.random.default_rng(11)
    counts = simulate_counts(gate_settings, chi, 300.0, seed=11)
    means = count_means(monkeypatch, gate_settings, chi, 300.0)
    assert np.array_equal(counts, rng.poisson(means))
    kets = setting_kets(gate_settings, process=True)
    dense = 300.0 * 2**3 * np.einsum("ne,ne->n", kets.conj() @ chi, kets).real
    np.testing.assert_allclose(means, dense, rtol=0.0, atol=1e-13 * dense.max())
    assert means[means > 0.0].min() >= 1e-12 * means.max()
    if phi == math.pi and noise == NoiseParams():
        assert (means == 0.0).sum() == 15128


def test_simulate_counts_memory_stays_small(gate_settings):
    # the whole 46 656 x 64 ket table, its conjugate and their product would take > 100 MB
    chi = _gate_choi(math.pi, NoiseParams())
    tracemalloc.start()
    try:
        simulate_counts(gate_settings, chi, 300.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_simulate_counts_validates_settings_and_dimension():
    # both settings give 8-dim kets; only their qubit splits differ
    # (no grid mixes qubit splits or is empty, so such lists are not the grid)
    settings = [MeasurementSetting(("0", "1"), ("+",)), MeasurementSetting(("0",), ("1", "+"))]
    with pytest.raises(ValueError, match=NOT_A_GRID):
        simulate_counts(settings, np.eye(8, dtype=complex), 100.0, seed=0)
    with pytest.raises(ValueError, match="setting dimension does not match the matrix dimension"):
        simulate_counts(build_state_settings(2), np.eye(2) / 2, 100.0, seed=0)
    with pytest.raises(ValueError, match=NOT_A_GRID):
        simulate_counts((), np.eye(2) / 2, 100.0, seed=0)


# ---------------------------------------------------------------------------
# process metrics


def test_process_fidelity_self():
    chi = channel_to_choi(u_cp(1.1), n=2)
    assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)


def test_process_fidelity_identity_vs_ccp_pi():
    chi_id = channel_to_choi(np.eye(8, dtype=complex), n=3)
    chi_ccp = channel_to_choi(u_ccp(math.pi), n=3)
    # oracle: direct overlap of the two rank-1 vectors
    vec = max_entangled(3).copy()
    vec[63] += (np.exp(1j * math.pi) - 1.0) / math.sqrt(8.0)
    overlap = abs(max_entangled(3).conj() @ vec) ** 2
    assert overlap == pytest.approx(9.0 / 16.0, abs=1e-12)
    assert process_fidelity(chi_id, chi_ccp) == pytest.approx(9.0 / 16.0, abs=1e-12)


def test_process_metrics_scale_invariance():
    chi = channel_to_choi(dephasing_kraus(0.4), n=1)
    scaled = 7.3 * chi
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
    stack = np.stack([chi, np.zeros((4, 4))])   # every row of a stack is checked
    with pytest.raises(ValueError, match="nonpositive trace"):
        process_fidelity(stack, chi)
    with pytest.raises(ValueError, match="nonpositive trace"):
        process_purity(stack)
    with pytest.raises(ValueError, match="different dimensions"):
        process_fidelity(stack, np.eye(16))


def test_process_metrics_stack_rows_match_single_calls():
    rng = np.random.default_rng(61)
    for n in (1, 2):
        target = channel_to_choi(u_cp(0.8), n=n) if n == 2 else rotation_choi(0.3)
        # trace-free stack: random Choi matrices of several ranks and scales
        stack = np.stack([scale * random_density_matrix(2 * n, rng, rank=r).matrix
                          for scale, r in ((1.0, 1), (0.2, 2), (3.0, 4 ** n), (1.0, 3))])
        for fn, args in ((process_fidelity, (target,)), (process_purity, ())):
            rows = fn(stack, *args)
            assert rows.shape == (len(stack),)
            for i, chi in enumerate(stack):
                # one path: a single matrix is a stack of one, with a 0-d result
                single = fn(chi, *args)
                assert np.ndim(single) == 0
                assert single == fn(chi[None], *args)[0] == rows[i]   # bit for bit
        assert process_purity(np.zeros((0, 4 ** n, 4 ** n))).shape == (0,)


# ---------------------------------------------------------------------------
# resampling


def test_resample_counts_shape_and_determinism():
    counts = np.array([5.0, 0.0, 100.0])
    a = resample_counts(counts, 20, seed=4, key=(1,))
    b = resample_counts(counts, 20, seed=4, key=(1,))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (20, 3)
    assert (a[:, 1] == 0).all()
