"""State and channel constructors, and one-item-at-a-time references for stacked code,
used only by the tests."""

import itertools
import math
from functools import reduce
from typing import Iterable

import numpy as np

from darkstate.experiments import (_P_ONE, _P_PLUS, _SE_SECTOR, MetricValue, StatePoint, _gate,
                                   _phase, _prep_unitary)
from darkstate.protocol import _herald_projectors
from darkstate.qmath import (BASIS_LABELS, DensityMatrix, OperatorMatrix, PureState,
                             expand_operator, ket, max_entangled, partial_trace_array, project,
                             projector)
from darkstate.tomography import MeasurementSetting, ProcessMatrix, build_state_settings, mle_state


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


def success_column(i: int, samples, anchors) -> np.ndarray:
    """Success ratio column of state i against its anchor, one state at a time."""
    analytic = [samples.transmissions[i] / anchors.transmissions[i]]
    if samples.counts is None:
        return np.array(analytic)
    if not anchors.counts[i].any():
        return np.array(analytic + [math.nan])
    if samples is anchors:
        return np.concatenate([analytic, [1.0], np.zeros(len(samples.reps[i]))])
    anchor_totals = anchors.reps[i].sum(axis=1)
    return np.concatenate([analytic, [samples.counts[i].sum() / anchors.counts[i].sum()],
                           np.divide(samples.reps[i].sum(axis=1), anchor_totals,
                                     out=np.full(len(anchor_totals), math.nan),
                                     where=anchor_totals > 0)])


def state_columns(i: int, samples, psi: np.ndarray) -> list[np.ndarray]:
    """Signal purity, fidelity to ``psi`` and environment |1> population columns of
    state i, from its own analytic states, MLE calls and ``DensityMatrix`` checks."""
    stacks = [partial_trace_array(samples.rho_se[i], 2, (q,))[None] for q in (0, 1)]
    empty = samples.counts is not None and not samples.counts[i].any()
    if samples.counts is not None and not empty:
        grid = np.vstack([samples.counts[i], samples.reps[i]]).reshape(-1, 6, 6)
        for q, tomograms in enumerate((grid.sum(axis=2), grid.sum(axis=1))):
            rhos = mle_state(build_state_settings(1), tomograms)
            DensityMatrix(rhos[0])   # the point estimate
            stacks[q] = np.concatenate([stacks[q], rhos])
    sig, env = stacks
    columns = [np.einsum("bde,bed->b", sig, sig).real,
               np.einsum("d,bde,e->b", psi.conj(), sig, psi).real, env[:, 1, 1].real]
    if empty:   # a nan estimate and nan replicas
        columns = [np.append(c, np.full(1 + len(samples.reps[i]), math.nan)) for c in columns]
    return columns


def state_points(phi: float, labels, samples, anchors) -> tuple[list[StatePoint], MetricValue]:
    """fig3/fig4 rows at one phi and the fig4 mean row, one state at a time.

    The reference for ``experiments._state_points``, which stacks the states.
    """
    points, pops = [], []
    for i, label in enumerate(labels):
        purity, fidelity, env_pop1 = state_columns(i, samples, ket(label))
        points.append(StatePoint(phi, label, metric(purity), metric(fidelity),
                                 metric(success_column(i, samples, anchors)), metric(env_pop1)))
        pops.append(env_pop1)
    return points, metric(np.mean(pops, axis=0))
