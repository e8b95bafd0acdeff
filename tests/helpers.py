"""State and channel constructors, and one-item-at-a-time references for stacked code,
used only by the tests."""

import itertools
import math
from functools import reduce
from typing import Iterable

import numpy as np

from darkstate.experiments import (_CHANNEL_SETTINGS, _P_ONE, _P_PLUS, _SE_SECTOR, MetricValue,
                                   StatePoint, _channel_metrics, _fidelities, _gate, _metrics,
                                   _phase, _prep_unitary, _process_estimates,
                                   channel_choi_from_outputs)
from darkstate.protocol import _herald_projectors
from darkstate.qmath import (BASIS_LABELS, DensityMatrix, OperatorMatrix, PureState,
                             expand_operator, ket, max_entangled, partial_trace_array, project,
                             projector)
from darkstate.tomography import (MLE_TOL, MeasurementSetting, ProcessMatrix, _born,
                                  _weighted_projectors, build_state_settings, mle_state,
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


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2]."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def random_pure_state(n: int, rng: np.random.Generator) -> PureState:
    """Haar-ish random pure state (normalized complex Gaussian vector)."""
    d = 2**n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(v / np.linalg.norm(v))


def random_density_matrix(n: int, rng: np.random.Generator, rank: int | None = None
                          ) -> DensityMatrix:
    """Random mixed state from a Wishart-style construction."""
    d = 2**n
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def channel_to_choi(operators, n: int) -> ProcessMatrix:
    """Exact Choi matrix of an n-qubit channel given by Kraus operators (or one unitary).

    chi = sum_k (I (x) K_k) |Phi_n><Phi_n| (I (x) K_k)† with |Phi_n> normalized and the
    input copy on the high qubits, so the trace is the channel's success weight.
    """
    if isinstance(operators, (OperatorMatrix, np.ndarray)):
        operators = [operators]
    eye = np.eye(2**n)
    kets = [np.kron(eye, getattr(op, "matrix", op)) @ max_entangled(n).amplitudes
            for op in operators]
    return ProcessMatrix(sum(np.outer(v, v.conj()) for v in kets), n)


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
        p = _born(rho, tables).clip(1e-14, None)
        r_op = _weighted_projectors(counts / p, tables)
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
        if post is not None:
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
    """Both tracks of one quantity from its column: analytic value, then (with shot
    noise) the estimate and its bootstrap replicas.  The reference for
    ``experiments._metrics``, one column at a time."""
    analytic = float(column[0])
    if len(column) == 1:
        return MetricValue(analytic=analytic)
    estimate, reps = float(column[1]), column[2:]
    if reps.size:
        std = float(reps.std(ddof=1))
    else:
        std = math.nan if math.isnan(estimate) else 0.0
    return MetricValue(analytic=analytic, estimate=estimate, std=std)


def success_column(p: int, i: int, samples, anchors) -> np.ndarray:
    """Success ratio column of state i at point p of a batch against its anchor, one
    state at a time."""
    analytic = [samples.transmissions[p, i] / anchors.transmissions[0, i]]
    if samples.totals is None:
        return np.array(analytic)
    totals, anchor_totals = samples.totals[p, i], anchors.totals[0, i]
    if not anchor_totals[0]:
        return np.array(analytic + [math.nan])
    if samples.phis[p] == anchors.phis[0]:
        return np.concatenate([analytic, [1.0], np.zeros(len(totals) - 1)])
    return np.concatenate([analytic, [totals[0] / anchor_totals[0]],
                           np.divide(totals[1:], anchor_totals[1:],
                                     out=np.full(len(totals) - 1, math.nan),
                                     where=anchor_totals[1:] > 0)])


def state_columns(p: int, i: int, samples, psi: np.ndarray) -> list[np.ndarray]:
    """Signal purity, fidelity to ``psi`` and environment |1> population columns of
    state i at point p of a batch, from its own analytic states, MLE calls and
    ``DensityMatrix`` checks."""
    stacks = [partial_trace_array(samples.rho_se[p, i], 2, (q,))[None] for q in (0, 1)]
    empty = samples.totals is not None and not samples.totals[p, i, 0]
    if samples.tomograms is not None and not empty:
        for q, tomograms in enumerate(samples.tomograms[p, i]):
            rhos = mle_state(build_state_settings(1), tomograms)
            DensityMatrix(rhos[0])   # the point estimate
            stacks[q] = np.concatenate([stacks[q], rhos])
    sig, env = stacks
    columns = [np.einsum("bde,bed->b", sig, sig).real,
               _fidelities(psi, sig), env[:, 1, 1].real]
    if empty:   # a nan estimate and nan replicas
        columns = [np.append(c, np.full(samples.totals.shape[-1], math.nan)) for c in columns]
    return columns


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
    order of BASIS_LABELS: the analytic signal-channel Choi matrix and the (1 + R, 36)
    tomogram stack of the channel estimate (row 0) and its replicas, None without shot
    noise and when a preparation drew no counts."""
    order = [labels.index(lab) for lab in BASIS_LABELS]
    chi = channel_choi_from_outputs(samples.weights[point][order, None, None]
                                    * partial_trace_array(samples.rho_se[point][order], 2, (0,)))
    if not config.shot_noise or samples.empty[point].any():
        return chi, None
    counts = samples.tomograms[point][order, 0, 0].ravel()
    boot = resample_counts(counts, config.bootstrap_samples, config.seed, key)
    return chi, np.vstack([counts, boot])


def channel_inputs(samples, labels, config, index):
    """The ``channel_input`` of each grid point ``index`` of a batch, and whether the
    config draws counts.  The reference for ``experiments._channel_stacks``, which
    builds one regular stack with zero rows for the undetermined points."""
    return ([channel_input(samples, p, labels, config, (pi, 99)) for p, pi in enumerate(index)],
            config.shot_noise)


def channel_points(inputs, shot_noise: bool) -> list[tuple[MetricValue, MetricValue]]:
    """fig5 metrics of the ``channel_inputs`` of the grid points of a batch, with the
    undetermined points left out of the estimator and the metrics.

    The reference for ``experiments._channel_points``: the tomograms of the points
    that have them go into one ``_process_estimates`` call, and the Choi matrices
    into one ``_channel_metrics`` call, concatenated and split again point by point.
    """
    stacks = [t for _, t in inputs if t is not None]
    estimates = iter(())
    if stacks:
        starts = np.cumsum([0] + [len(t) for t in stacks[:-1]])
        estimates = iter(np.split(_process_estimates(_CHANNEL_SETTINGS, 1, np.concatenate(stacks),
                                                     starts), starts[1:]))
    chis = [chi[None] if t is None else np.concatenate([chi[None], next(estimates)])
            for chi, t in inputs]
    blocks = np.split(np.stack(_channel_metrics(np.concatenate(chis))),
                      np.cumsum([len(c) for c in chis[:-1]]), axis=1)
    points = []
    for (_, tomograms), block in zip(inputs, blocks):
        if shot_noise and tomograms is None:
            block = np.hstack([block, np.full((2, 1), math.nan)])
        points.append(tuple(_metrics(block)))
    return points
