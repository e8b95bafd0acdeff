"""State and channel constructors, and one-item-at-a-time references for stacked code,
used only by the tests."""

import itertools
import math
from functools import reduce
from typing import Iterable

import numpy as np

from darkstate.experiments import (_P_ONE, _P_PLUS, _SE_SECTOR, MetricValue, StatePoint, _gate,
                                   _metrics, _phase, _prep_unitary, channel_choi_from_outputs)
from darkstate.protocol import _herald_projectors
from darkstate.qmath import (BASIS_LABELS, DensityMatrix, _check_states, expand_operator, ket,
                             max_entangled, partial_trace_array, project, projector, purity,
                             state_fidelity)
from darkstate.tomography import (MLE_TOL, MeasurementSetting, _born, _weighted_projectors,
                                  _workspace, build_state_settings, mle_process, mle_state,
                                  resample_counts)


def product_ket(labels: Iterable[str]) -> np.ndarray:
    """Product ket over several qubits, leftmost label most significant."""
    return reduce(np.kron, [ket(lab) for lab in labels])


def product_settings(n: int, process: bool) -> tuple[MeasurementSetting, ...]:
    """The 6^n state or 6^2n process settings as an explicit tuple, preparation-major.

    The reference for the order and items of ``build_state_settings`` and
    ``build_process_settings``: itertools.product over the six-state alphabet.
    """
    preps = itertools.product(BASIS_LABELS, repeat=n) if process else [()]
    return tuple(MeasurementSetting(prep, proj)
                 for prep in preps for proj in itertools.product(BASIS_LABELS, repeat=n))


def product_density(labels: Iterable[str]) -> DensityMatrix:
    """Pure product state as a density matrix, leftmost label most significant."""
    return DensityMatrix(projector(product_ket(labels)))


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random pure state ket (normalized complex Gaussian vector)."""
    d = 2**n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density_matrix(n: int, rng: np.random.Generator, rank: int | None = None
                          ) -> DensityMatrix:
    """Random mixed state from a Wishart-style construction."""
    d = 2**n
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def channel_to_choi(operators, n: int) -> np.ndarray:
    """Exact Choi matrix of an n-qubit channel given by Kraus operators (or one unitary).

    chi = sum_k (I (x) K_k) |Phi_n><Phi_n| (I (x) K_k)† with |Phi_n> normalized and the
    input copy on the high qubits, so the trace is the channel's success weight.
    """
    if isinstance(operators, np.ndarray):
        operators = [operators]
    eye = np.eye(2**n)
    kets = [np.kron(eye, op) @ max_entangled(n) for op in operators]
    return sum(np.outer(v, v.conj()) for v in kets)


def rrr_chain(grid_counts: np.ndarray, tables, max_iters: int = 20000) -> np.ndarray:
    """R-rho-R on (B, 6^m) grid counts through the Pauli chain and batched matmuls on
    every grid, each row stopping at its own tolerance.

    The reference for the m = 2 kernel of ``tomography._rrr``: the Born and R
    maps are ``_born`` and ``_weighted_projectors``, and R rho R is a stacked
    matmul.  Rows without counts stay I/d.
    """
    b, d = len(grid_counts), 2**tables.m
    out = np.tile(np.eye(d, dtype=complex) / d, (b, 1, 1))
    rows = np.flatnonzero(grid_counts.sum(axis=1) > 0)
    counts, rho = grid_counts[rows], out[rows]
    for _ in range(max_iters):
        if not len(rows):
            return out
        work = _workspace(tables, len(rho))
        p = _born(rho, tables, work).clip(1e-14, None)
        r_op = _weighted_projectors(counts / p, tables, work)
        new = r_op @ rho @ r_op
        new += np.conj(np.swapaxes(new, 1, 2))
        traces = np.einsum("bdd->b", new).real
        traces[traces <= 0.0] = 1.0
        new /= traces[:, None, None]
        done = np.abs(new - rho).max(axis=(1, 2)) < MLE_TOL
        out[rows[done]] = new[done]
        rows, counts, rho = rows[~done], counts[~done], new[~done]
    raise AssertionError(f"the reference R-rho-R did not converge in {max_iters} iterations")


def protocol_point(phi: float, psi_label: str, env: np.ndarray, noise) -> tuple[np.ndarray, float]:
    """Declared joint (S, E) state of one signal state at ``phi`` and its herald weight.

    The reference for ``experiments._protocol_points``: the whole pipeline,
    gate and herald projectors included, built for the one label.
    """
    rho = _gate(np.kron(np.kron(_P_PLUS, _P_ONE), env), phi, noise)
    v = expand_operator(_prep_unitary(psi_label), 3, (1,))
    rho = _phase(v @ rho @ v.conj().T, phi, _SE_SECTOR, noise.phase_jitter_std)
    weight = 0.0
    declared = np.zeros((8, 8), dtype=complex)
    for share, proj in zip((1.0 - noise.herald_error, noise.herald_error),
                           _herald_projectors(phi)):
        w, post = project(rho, expand_operator(proj, 3, (0,)))
        weight += share * w
        declared += share * w * post
    declared /= weight
    return partial_trace_array(declared, 3, (1, 2)), weight


def reference_point(phi: float, psi_label: str, env: np.ndarray, noise) -> tuple[np.ndarray, float]:
    """Joint (S, E) state of one signal state after the unprotected gate, and its weight 1.

    The reference for ``experiments._reference_points``, built for the one label.
    """
    rho = _gate(np.kron(np.kron(_P_ONE, projector(ket(psi_label))), env), phi, noise)
    return partial_trace_array(rho, 3, (1, 2)), 1.0


def metric(column: np.ndarray) -> MetricValue:
    """One quantity from its column: the value, then its bootstrap replicas.  The
    reference for ``experiments._metrics``, one column at a time."""
    value, reps = float(column[0]), column[1:]
    if reps.size:
        std = float(reps.std(ddof=1))
    else:
        std = math.nan if math.isnan(value) else 0.0
    return MetricValue(value, std)


def success_column(p: int, i: int, samples, anchors) -> np.ndarray:
    """Success ratio column of state i at point p of a batch against its anchor, one
    state at a time."""
    totals, anchor_totals = samples.totals[p, i], anchors.totals[0, i]
    if not anchor_totals[0]:
        return np.array([math.nan])
    if samples.phis[p] == anchors.phis[0]:
        return np.concatenate([[1.0], np.zeros(len(totals) - 1)])
    return np.concatenate([[totals[0] / anchor_totals[0]],
                           np.divide(totals[1:], anchor_totals[1:],
                                     out=np.full(len(totals) - 1, math.nan),
                                     where=anchor_totals[1:] > 0)])


def state_columns(p: int, i: int, samples, psi: np.ndarray) -> list[np.ndarray]:
    """Signal purity, fidelity to ``psi`` and environment |1> population columns of
    state i at point p of a batch: from its own analytic states without shot noise,
    and with it from its own MLE calls and ``DensityMatrix`` checks."""
    if samples.tomograms is None:
        sig, env = (partial_trace_array(samples.rho_se[p, i], 2, (q,))[None] for q in (0, 1))
    elif not samples.totals[p, i, 0]:   # a nan estimate and nan replicas
        return [np.full(samples.totals.shape[-1], math.nan)] * 3
    else:
        sig, env = (mle_state(build_state_settings(1), t) for t in samples.tomograms[p, i])
        DensityMatrix(sig[0])   # the point estimates
        DensityMatrix(env[0])
    return [purity(sig), state_fidelity(sig, psi), env[:, 1, 1].real]


def state_points(labels, samples, anchors) -> tuple[list[StatePoint], list[MetricValue]]:
    """fig3/fig4 rows at the grid points of a batch and each point's fig4 mean row, one
    state at a time.

    The reference for ``experiments._state_points``, which stacks the states.
    """
    points, means = [], []
    for p, phi in enumerate(samples.phis):
        pops = []
        for i, label in enumerate(labels):
            purity, fidelity, env_pop1 = state_columns(p, i, samples, ket(label))
            points.append(StatePoint(float(phi), label, metric(purity), metric(fidelity),
                                     metric(success_column(p, i, samples, anchors)),
                                     metric(env_pop1)))
            pops.append(env_pop1)
        means.append(metric(np.mean(pops, axis=0)))
    return points, means


def channel_input(samples, point: int, labels, config, key: tuple[int, ...]):
    """fig5 input at grid point ``point`` of a batch, from the samples of ``labels``, an
    order of BASIS_LABELS: without shot noise the analytic signal-channel Choi
    matrix, and with it the (1 + R, 36) tomogram stack of the channel estimate (row
    0) and its replicas, None when a preparation drew no counts."""
    order = [labels.index(lab) for lab in BASIS_LABELS]
    if not config.shot_noise:
        return channel_choi_from_outputs(samples.weights[point][order, None, None]
                                         * partial_trace_array(samples.rho_se[point][order],
                                                               2, (0,)))
    if samples.empty[point].any():
        return None
    counts = samples.tomograms[point][order, 0, 0].ravel()
    boot = resample_counts(counts, config.bootstrap_samples,
                           np.random.SeedSequence(entropy=config.seed, spawn_key=(*key, 1)))
    return np.vstack([counts, boot])


def channel_inputs(samples, labels, config, index):
    """The ``channel_input`` of each grid point ``index`` of a batch.  The reference for
    ``experiments._channel_stacks``, which builds one regular stack with zero rows for
    the undetermined points."""
    return [channel_input(samples, p, labels, config, (pi, 99)) for p, pi in enumerate(index)]


def channel_points(settings, inputs, shot_noise: bool,
                   metrics) -> list[tuple[MetricValue, ...]]:
    """fig5 metrics of the ``channel_inputs`` of the grid points of a batch, with the
    undetermined points left out of the estimator and the metrics.

    The reference for ``experiments._choi_points``, called as a sweep calls it.
    Without shot noise, the analytic Choi matrices go into one ``metrics`` call.
    With it, the tomograms of the points that have them go into one
    ``mle_process`` call, their point estimates into one ``_check_states`` call,
    and the Choi estimates into one ``metrics`` call, concatenated and split again
    point by point; an undetermined point reads nan.
    """
    if not shot_noise:
        block = np.stack(metrics(np.stack(inputs)))
        return [tuple(map(metric, block[:, [p]])) for p in range(len(inputs))]
    stacks = [t for t in inputs if t is not None]
    starts = np.cumsum([0] + [len(t) for t in stacks])
    chis = np.zeros((0, 4, 4), dtype=complex)
    if stacks:
        chis = mle_process(settings, np.concatenate(stacks))
        _check_states(chis[starts[:-1]])
    block = np.stack(metrics(chis))
    estimates = iter(np.split(block, starts[1:-1], axis=1))
    return [tuple(map(metric, np.full((len(block), 1), math.nan) if t is None else next(estimates)))
            for t in inputs]
