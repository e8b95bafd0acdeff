"""Scenario runners: coupling-strength sweeps, channel analysis, gate tomography.

Each runner produces two parallel tracks per grid point: an exact analytic
track (density-matrix algebra, no shot noise) and, when enabled, a
simulated-measurement track (Poissonian counts, maximum-likelihood
reconstruction, Monte-Carlo error bars).  The analytic track is the
shot-noise-free limit the reconstruction must approach.

Register order in the pipelines is (P, S, E): probe, signal, environment,
with the probe on the most significant qubit.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .protocol import (DegenerateCouplingError, _herald_projectors, ccp_success_probability,
                       u_ccp)
from .qmath import (
    BASIS_LABELS,
    DensityMatrix,
    _check_states,
    _dagger,
    entanglement_of_formation,
    expand_operator,
    ket,
    max_entangled,
    partial_trace_array,
    project,
    projector,
)
from .tomography import (
    MLE_MAX_ITERS,
    SettingGrid,
    build_process_settings,
    build_state_settings,
    mle_process,
    mle_state,
    process_fidelity,
    process_purity,
    resample_counts,
    simulate_counts,
)

_ANCHOR_KEY = 10_000
_MODES = ("protocol", "reference", "gate_tomography")

# pi/6 to 11pi/6 in steps of 5pi/36.  linspace lands one ulp below pi at k = 6; the exact
# value puts that point at the anchor's phi, so it draws the anchor's sample.
DEFAULT_PROTOCOL_GRID = tuple(math.pi if k == 6 else float(x) for k, x in enumerate(
    np.linspace(math.pi / 6.0, 2.0 * math.pi - math.pi / 6.0, 13)))
DEFAULT_REFERENCE_GRID = (0.0,) + DEFAULT_PROTOCOL_GRID
DEFAULT_GATE_GRID = tuple(np.array([1, 2, 4, 6, 8, 10, 12, 14]) * math.pi / 8.0)


@dataclass(frozen=True)
class NoiseParams:
    """Imperfection knobs; all zero reproduces the ideal model.

    herald_error: probability that a declared herald actually fired on the
        complementary probe outcome (detector/extinction crosstalk), which
        leaves residual |1> population in the environment.
    gate_depolarizing: isotropic depolarizing strength applied to the full
        register after the three-qubit gate.
    phase_jitter_std: per-shot Gaussian jitter of the coupling phase; the
        count statistics see the jitter-averaged channel.
    """

    herald_error: float = 0.0
    gate_depolarizing: float = 0.0
    phase_jitter_std: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.herald_error <= 1.0):
            raise ValueError(f"herald_error {self.herald_error} outside [0, 1]")
        if not (0.0 <= self.gate_depolarizing <= 1.0):
            raise ValueError(f"gate_depolarizing {self.gate_depolarizing} outside [0, 1]")
        if not 0.0 <= self.phase_jitter_std < math.inf:
            raise ValueError(f"phase_jitter_std {self.phase_jitter_std} must be finite and >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a sweep needs; defaults mirror the hardware regime."""

    mode: str = "protocol"
    phi_grid: tuple[float, ...] | None = None
    env_state: str | DensityMatrix = "maximally_mixed"
    signal_states: tuple[str, ...] = BASIS_LABELS
    rate: float = 300.0
    noise: NoiseParams = field(default_factory=NoiseParams)
    seed: int = 0
    bootstrap_samples: int = 1000
    shot_noise: bool = True
    gate_bootstrap_samples: int = 0
    gate_mle_max_iters: int = 500

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate {self.rate} must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.signal_states:
            raise ValueError("signal_states must be nonempty")
        for lab in self.signal_states:
            if lab not in BASIS_LABELS:
                raise ValueError(f"unknown signal state label {lab!r}")
        if len(set(self.signal_states)) != len(self.signal_states):
            raise ValueError(f"signal_states {self.signal_states} repeat a label")
        if isinstance(self.env_state, str) and self.env_state not in ("maximally_mixed", "plus"):
            raise ValueError(f"unknown env_state {self.env_state!r}")
        if self.bootstrap_samples < 0 or self.gate_bootstrap_samples < 0:
            raise ValueError("bootstrap sample counts must be nonnegative")
        if 1 in (self.bootstrap_samples, self.gate_bootstrap_samples):
            raise ValueError("a bootstrap needs at least 2 samples (0 runs none)")
        if self.gate_mle_max_iters < 1:
            raise ValueError("gate_mle_max_iters must be at least 1")
        if self.phi_grid is not None:
            grid = tuple(float(p) for p in self.phi_grid)
            if not grid:
                raise ValueError("phi_grid must be nonempty")
            for p in grid:
                if not (0.0 <= p < 2.0 * math.pi):
                    raise ValueError(f"grid value {p} outside [0, 2*pi)")
            if len(set(grid)) != len(grid):
                raise ValueError(f"phi_grid {grid} repeats a value")
            if self.mode != "reference" and 0.0 in grid:
                raise DegenerateCouplingError(f"phi = 0 cannot appear in a {self.mode} grid")
            object.__setattr__(self, "phi_grid", grid)

    def resolved_grid(self) -> tuple[float, ...]:
        if self.phi_grid is not None:
            return self.phi_grid
        if self.mode == "protocol":
            return DEFAULT_PROTOCOL_GRID
        if self.mode == "reference":
            return DEFAULT_REFERENCE_GRID
        return DEFAULT_GATE_GRID


@dataclass(frozen=True)
class MetricValue:
    """One quantity on both tracks: exact value and reconstructed estimate."""

    analytic: float | None
    estimate: float | None = None
    std: float | None = None

    @property
    def value(self) -> float:
        return self.estimate if self.estimate is not None else float(self.analytic)

    @property
    def deviation(self) -> float:
        return self.std if self.std is not None else 0.0


@dataclass(frozen=True)
class StatePoint:
    phi: float
    state: str
    purity: MetricValue
    fidelity: MetricValue
    success_norm: MetricValue
    env_pop1: MetricValue


@dataclass(frozen=True)
class PhiPoint:
    phi: float
    mean_env_pop1: MetricValue | None   # None when the state points were not rebuilt
    channel_ef: MetricValue | None = None
    channel_fidelity: MetricValue | None = None


@dataclass(frozen=True)
class GatePoint:
    phi: float
    fidelity: MetricValue
    purity: MetricValue
    fidelity_phase_opt: MetricValue


@dataclass(frozen=True)
class ScenarioResult:
    states: tuple[StatePoint, ...] = ()
    phis: tuple[PhiPoint, ...] = ()
    gates: tuple[GatePoint, ...] = ()


# ---------------------------------------------------------------------------
# density-matrix pipeline

_P_PLUS = projector(ket("+"))
_P_ONE = projector(ket("1"))
_CCP_SECTOR = np.arange(8) == 7          # |111> of (P, S, E)
_SE_SECTOR = (np.arange(8) & 0b011) == 0b011   # S = E = 1, either probe value


def _env_matrix(env_state) -> np.ndarray:
    if isinstance(env_state, DensityMatrix):
        if env_state.dim != 2:
            raise ValueError("custom environment must be a single qubit")
        return np.array(env_state.matrix)
    if env_state == "maximally_mixed":
        return np.eye(2, dtype=complex) / 2.0
    return projector(ket("+"))


def _prep_unitary(label: str) -> np.ndarray:
    """Single-qubit unitary taking |1> to the labelled state."""
    a, b = ket(label)
    return np.array([[np.conj(b), a], [-np.conj(a), b]], dtype=complex)


def _phase(rho: np.ndarray, phi, sector: np.ndarray, jitter: float) -> np.ndarray:
    """Controlled phase e^{i phi} on the basis states in ``sector``, averaged over a
    Gaussian jitter of phi with std ``jitter``.

    U = diag(u) is diagonal, so U rho U† is the elementwise u_j rho_jk conj(u_k); the
    average over the jitter multiplies each coherence across the sector boundary by
    exp(-jitter^2 / 2).  ``phi`` is one angle or an array of them, which broadcasts
    against the leading axes of ``rho``.
    """
    u = np.where(sector, np.exp(1j * np.asarray(phi)[..., None]), 1.0)
    across = sector[:, None] ^ sector[None, :]
    # exp(-40^2 / 2) is already 0.0, and the cap keeps jitter^2 finite for any finite jitter
    return (u[..., :, None] * rho * u.conj()[..., None, :]
            * np.where(across, math.exp(-min(jitter, 40.0)**2 / 2.0), 1.0))


def _gate(rho: np.ndarray, phi, noise: NoiseParams) -> np.ndarray:
    """The CCP gate with its phase jitter and depolarizing on the low three qubits of
    ``rho``, one matrix or a (..., d, d) stack; the qubits above stay idle (the input
    copy of a Choi matrix).  ``phi`` broadcasts as in ``_phase``.

    Depolarizing maps rho to (1 - p) rho + p Tr_out(rho) (x) I/8.
    """
    d = rho.shape[-1]
    rho = _phase(rho, phi, np.tile(_CCP_SECTOR, d // 8), noise.phase_jitter_std)
    p = noise.gate_depolarizing
    if p > 0.0:
        rho_in = rho.reshape(rho.shape[:-2] + (d // 8, 8, d // 8, 8)).trace(axis1=-3, axis2=-1)
        rho = (1.0 - p) * rho + p * np.kron(rho_in, np.eye(8) / 8.0)
    return rho


def _preparations(mode: str, labels: Sequence[str]) -> np.ndarray:
    """The phi-independent part of each labelled signal state's pipeline, one row per label.

    For the protocol, the (L, 8, 8) unitaries on S of (P, S, E) that take |1>
    to the labelled states; for the reference, the (L, 2, 2) signal states.
    """
    if mode == "protocol":
        return np.stack([expand_operator(_prep_unitary(lab), 3, (1,)) for lab in labels])
    return np.stack([projector(ket(lab)) for lab in labels])


def _protocol_points(phis: Sequence[float], preps: np.ndarray, env: np.ndarray,
                     noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """Declared joint (S, E) states (P, L, 4, 4) and herald weights (P, L) at the grid
    points ``phis`` of the signal states that the ``_preparations`` rows ``preps`` prepare.

    The gated state and the herald projectors do not depend on the signal, so
    they are built once per phi, and every state at every phi goes through the
    rest of the pipeline in one stack.
    """
    phis = np.asarray(phis, dtype=float)
    gated = _gate(np.kron(np.kron(_P_PLUS, _P_ONE), env), phis, noise)
    rho = _phase(preps @ gated[:, None] @ _dagger(preps), phis[:, None], _SE_SECTOR,
                 noise.phase_jitter_std)
    heralds = np.array([[expand_operator(proj, 3, (0,)) for proj in _herald_projectors(phi)]
                        for phi in phis])
    weights = np.zeros(rho.shape[:2])
    declared = np.zeros(rho.shape, dtype=complex)
    # a declared herald is the success branch, or with probability herald_error the failure one
    for share, proj in zip((1.0 - noise.herald_error, noise.herald_error),
                           heralds.swapaxes(0, 1)):
        # a branch project drops at roundoff weight has weight 0 and carries nothing
        w, post = project(rho, proj[:, None])
        weights += share * w
        declared += (share * w)[..., None, None] * post
    silent = (weights <= 0.0).any(axis=1)
    if silent.any():
        raise DegenerateCouplingError(f"herald never fires at phi = {float(phis[silent][0])}")
    return partial_trace_array(declared / weights[..., None, None], 3, (1, 2)), weights


def _reference_points(phis: Sequence[float], preps: np.ndarray, env: np.ndarray,
                      noise: NoiseParams) -> tuple[np.ndarray, np.ndarray]:
    """Joint (S, E) states (P, L, 4, 4) after the unprotected gate at the grid points
    ``phis`` of the (L, 2, 2) signal states ``preps``, and their weights, all 1."""
    phis = np.asarray(phis, dtype=float)
    rho = _gate(np.kron(np.kron(_P_ONE, preps), env), phis[:, None], noise)
    return partial_trace_array(rho, 3, (1, 2)), np.ones(rho.shape[:2])


# ---------------------------------------------------------------------------
# analytic channel assembly

# _CHOI_TABLE[s, j, k]: the coefficient of state s's output (BASIS_LABELS order) in E(|j><k|),
# from |0><1| = (X + iY) / 2 with X = |+><+| - |-><-| and Y = |L><L| - |R><R|
_CHOI_TABLE = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]],
                        [[0, 0.5], [0.5, 0]], [[0, -0.5], [-0.5, 0]],
                        [[0, 0.5j], [-0.5j, 0]], [[0, -0.5j], [0.5j, 0]]])


def channel_choi_from_outputs(outputs: np.ndarray) -> np.ndarray:
    """Choi matrix of the linear map defined by its action on the six states.

    ``outputs`` is the (6, 2, 2) stack of the (possibly trace-decreasing)
    output operators of the six pure inputs, in ``BASIS_LABELS`` order.
    """
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.shape != (6, 2, 2):
        raise ValueError(f"expected a (6, 2, 2) output stack, got shape {outputs.shape}")
    chi = 0.5 * np.einsum("sjk,sab->jakb", _CHOI_TABLE, outputs).reshape(4, 4)
    return 0.5 * (chi + chi.conj().T)


_PHI_PLUS_PROJ = projector(max_entangled(1))


def _channel_metrics(chis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entanglement of formation and fidelity to the identity of each (B, 4, 4) Choi matrix."""
    traces = np.trace(chis, axis1=1, axis2=2).real
    return (entanglement_of_formation(chis / traces[:, None, None]),
            np.trace(chis @ _PHI_PLUS_PROJ, axis1=1, axis2=2).real / traces)


# ---------------------------------------------------------------------------
# sweep runner: sample each grid point once, then rebuild the figures from that

_SQ_SETTINGS = build_state_settings(1)
_TQ_SETTINGS = build_state_settings(2)
_CHANNEL_SETTINGS = build_process_settings(1)


def _seed_seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def _metrics(block: np.ndarray) -> list[MetricValue]:
    """Both tracks of one quantity from each row of a (K, 1 + E) column block.

    Column 0 is the analytic value.  With shot noise, column 1 is the
    estimate and columns 2.. are its bootstrap replicas (none without a
    bootstrap); the replica std is one call over the block.
    """
    if block.shape[1] == 1:
        return [MetricValue(analytic=float(a)) for a in block[:, 0]]
    if block.shape[1] > 2:
        stds = block[:, 2:].std(axis=1, ddof=1)
    else:
        stds = np.where(np.isnan(block[:, 1]), math.nan, 0.0)
    return [MetricValue(analytic=float(a), estimate=float(e), std=float(s))
            for a, e, s in zip(block[:, 0], block[:, 1], stds)]


@dataclass(frozen=True)
class _Samples:
    """The labelled signal states at the grid points ``phis`` of one batch: their
    declared (S, E) states and their simulated data, indexed [point, label].

    ``tomograms`` (P, L, 2, 1 + R, 6) holds the signal (0) and environment (1)
    marginals of each state's tomogram in row 0 and of its bootstrap replicas in
    rows 1..R (R = 0 without a bootstrap), and ``totals`` (P, L, 1 + R) their
    count totals; both are None without shot noise.
    """

    phis: np.ndarray            # (P,)
    rho_se: np.ndarray          # (P, L, 4, 4)
    weights: np.ndarray         # (P, L) herald weights
    transmissions: np.ndarray   # (P, L)
    tomograms: np.ndarray | None
    totals: np.ndarray | None

    @property
    def empty(self) -> np.ndarray:
        """(P, L) flags of the states that drew no counts."""
        if self.totals is None:
            return np.zeros(self.weights.shape, dtype=bool)
        return self.totals[..., 0] == 0.0


def _samples(phis: Sequence[float], keys: Sequence[int], preps: np.ndarray, env: np.ndarray,
             config: ScenarioConfig, bootstrap: int) -> _Samples:
    """Simulate the signal states of the ``_preparations`` rows ``preps`` at the grid
    points ``phis`` of ``config.mode``, with ``bootstrap`` replicas (0: none).

    State i at point p draws its counts and replicas from spawn key (keys[p], i),
    on streams of their own.  Its (1 + R, 36) count stack lives only until its
    marginals and totals are taken.
    """
    pipeline = _protocol_points if config.mode == "protocol" else _reference_points
    rho_se, weights = pipeline(phis, preps, env, config.noise)
    # the gate's success probability relative to its phi = 0 and phi = pi value 1/9
    scales = np.array([ccp_success_probability(phi) for phi in phis]) * 9.0
    transmissions = scales[:, None] * weights
    phis = np.array(phis, dtype=float)
    if not config.shot_noise:
        return _Samples(phis, rho_se, weights, transmissions, None, None)
    tomograms = np.empty(weights.shape + (2, 1 + bootstrap, 6))
    totals = np.empty(weights.shape + (1 + bootstrap,))
    counts = np.empty((1 + bootstrap, len(_TQ_SETTINGS)))
    for p, key in enumerate(keys):
        for i, (rho, transmission) in enumerate(zip(rho_se[p], transmissions[p])):
            counts[0] = simulate_counts(_TQ_SETTINGS, rho, config.rate * transmission,
                                        _seed_seq(config.seed, key, i, 0))
            counts[1:] = resample_counts(counts[0], bootstrap, config.seed, (key, i))
            tomograms[p, i] = _marginal_counts(counts)
            totals[p, i] = counts.sum(axis=1)
    return _Samples(phis, rho_se, weights, transmissions, tomograms, totals)


def _marginal_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signal and environment marginals (..., 6) of two-qubit tomograms (..., 36)."""
    grid = counts.reshape(counts.shape[:-1] + (6, 6))
    return grid.sum(axis=-1), grid.sum(axis=-2)


def _marginal_states(samples: _Samples) -> np.ndarray:
    """Signal (row 0) and environment (row 1) state of each state of a batch, points
    major, (2, P·L, 1 + E, 2, 2).

    Column 0 holds the analytic states.  With shot noise, column 1 holds the
    MLE states from the counts and columns 2.. those from the replicas, nan
    for a state that drew no counts.  All the batch's tomograms go into one
    ``mle_state`` call, and its point estimates are checked at once, as
    ``DensityMatrix`` checks its matrix.
    """
    rhos = [partial_trace_array(samples.rho_se, 2, (q,)).reshape(-1, 2, 2) for q in (0, 1)]
    if samples.tomograms is None:
        return np.stack(rhos)[:, :, None]
    # contiguous per kind, so each metric sums its terms as a lone state's stack does
    states = np.empty((2, len(rhos[0]), 1 + samples.tomograms.shape[3], 2, 2), dtype=complex)
    states[:, :, 0] = rhos
    # per state: the signal tomograms, then the environment ones; no counts gives I/2
    fits = mle_state(_SQ_SETTINGS, samples.tomograms.reshape(-1, 6)).reshape(
        len(rhos[0]), 2, -1, 2, 2)
    points = fits[:, :, 0].reshape(-1, 2, 2)
    _check_states(points)
    states[:, :, 1:] = fits.swapaxes(0, 1)
    states[:, samples.empty.ravel(), 1:] = math.nan
    return states


def _success_columns(samples: _Samples, anchors: _Samples) -> np.ndarray:
    """Transmission relative to the anchor's, then (with shot noise) the count total
    over the anchor's, for the estimate and each replica; one row per state of a
    batch, points major (see ``_metrics``).

    A point at the anchor's phi reads exactly 1; an anchor without counts
    leaves the ratio undefined (nan) at every grid point, and so does an anchor
    replica without counts for that replica.
    """
    analytic = (samples.transmissions / anchors.transmissions).reshape(-1, 1)
    if samples.totals is None:
        return analytic
    ratios = np.divide(samples.totals, anchors.totals, out=np.full(samples.totals.shape, math.nan),
                       where=anchors.totals > 0)
    at_anchor = np.zeros(anchors.totals.shape)
    at_anchor[..., 0] = 1.0
    at_anchor[anchors.empty] = math.nan
    ratios[samples.phis == anchors.phis[0]] = at_anchor
    return np.hstack([analytic, ratios.reshape(len(analytic), -1)])


def _fidelities(psi: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> of single-qubit kets (..., 2) and state stacks (..., B, 2, 2); (..., B).

    Elementwise arithmetic, terms summed in row-major order, so each row's value
    does not depend on the stack's length (an einsum sums a lone matrix's terms
    pairwise and a stack's in order).
    """
    t = (psi.conj()[..., None, :, None] * rhos * psi[..., None, None, :]).real
    return ((t[..., 0, 0] + t[..., 0, 1]) + t[..., 1, 0]) + t[..., 1, 1]


def _state_points(labels: Sequence[str], samples: _Samples, anchors: _Samples
                  ) -> tuple[list[StatePoint], list[MetricValue]]:
    """fig3/fig4 rows of the labelled states at the grid points of a batch, and each
    point's fig4 mean row.

    Each metric is one computation over the ``_marginal_states`` stack of all
    the batch's states, and its (P·L, 1 + E) block of columns one ``_metrics``
    call; every state's row is computed on its own.
    """
    sig, env = _marginal_states(samples)
    purity = np.einsum("lbde,lbed->lb", sig, sig).real
    kets = np.array([ket(lab) for lab in labels])
    fidelity = _fidelities(np.tile(kets, (len(samples.phis), 1)), sig)
    env_pop1 = np.ascontiguousarray(env[:, :, 1, 1].real)
    columns = map(_metrics, (purity, fidelity, _success_columns(samples, anchors), env_pop1))
    rows = [(float(phi), lab) for phi in samples.phis for lab in labels]
    points = [StatePoint(phi, lab, *metrics) for (phi, lab), *metrics in zip(rows, *columns)]
    # the fig4 mean rows: environment population averaged over each point's states
    means = env_pop1.reshape(len(samples.phis), len(labels), -1).mean(axis=1)
    return points, _metrics(means)


def _process_estimates(settings: SettingGrid, counts: np.ndarray, points: Sequence[int],
                       max_iters: int = MLE_MAX_ITERS) -> np.ndarray:
    """MLE Choi matrices of the rows of ``counts``, all in one ``mle_process`` call; (B, d, d).

    The rows at ``points`` are the tomograms of grid points: one with no
    counts raises.  Their estimates are unit-trace states on the doubled
    register (R-rho-R divides every iterate by its trace), and they are
    checked at once, as ``DensityMatrix`` checks its matrix.  The other rows
    are their bootstrap replicas.
    """
    if any(counts[i].sum() == 0 for i in points):
        raise ValueError("tomogram has zero total counts")
    chis = mle_process(settings, counts, max_iters=max_iters)
    est = chis[list(points)]
    _check_states(est)
    return chis


# A sweep runs its grid in batches of consecutive points whose 1 + R channel rows (R =
# bootstrap_samples) add up to at most this many, and a point at or over it alone.  Each
# batch goes through the pipeline, the state estimates and the channel estimates as one
# stack.  Per-row R-rho-R cost is flat from about 250 rows, so a larger batch saves little
# and costs memory.
_CHANNEL_BATCH_ROWS = 1000


def _channel_stacks(samples: _Samples, labels: Sequence[str], config: ScenarioConfig,
                    index: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """fig5 inputs at the grid points ``index`` of a batch, from the samples of ``labels``,
    an order of BASIS_LABELS.

    Returns each point's analytic signal-channel Choi matrix, (P, 4, 4), and the
    (P, 1 + R, 36) stack of its channel tomogram (row 0) and replicas, (P, 0, 36)
    without shot noise.  The rows of a point where a preparation drew no counts
    are zero.
    """
    order = [labels.index(lab) for lab in BASIS_LABELS]
    chis = np.stack([channel_choi_from_outputs(w[order, None, None]
                                               * partial_trace_array(rho[order], 2, (0,)))
                     for w, rho in zip(samples.weights, samples.rho_se)])
    if not config.shot_noise:
        return chis, np.empty((len(chis), 0, len(_CHANNEL_SETTINGS)))
    counts = np.zeros((len(chis), 1 + config.bootstrap_samples, len(_CHANNEL_SETTINGS)))
    for p in np.flatnonzero(~samples.empty[:, order].any(axis=1)):
        # preparation-major signal counts, as in _CHANNEL_SETTINGS
        counts[p, 0] = samples.tomograms[p, order, 0, 0].ravel()
        counts[p, 1:] = resample_counts(counts[p, 0], config.bootstrap_samples, config.seed,
                                        (index[p], 99))
    return chis, counts


def _channel_points(chis: np.ndarray, counts: np.ndarray) -> list[tuple[MetricValue, MetricValue]]:
    """fig5 metrics of the ``_channel_stacks`` of the grid points of a batch.

    All their tomograms go into one ``_process_estimates`` call, and all their
    Choi matrices, each analytic one followed by its point's estimates, into one
    ``_channel_metrics`` call.  A point whose tomogram has no counts is
    undetermined: the estimator leaves its rows at I/4, and its estimates are nan.
    """
    determined = counts[:, :1].any(axis=(1, 2))
    estimates = np.broadcast_to(np.eye(4) / 4.0, counts.shape[:2] + (4, 4))
    if determined.any():   # the estimator raises on a lone tomogram without counts
        estimates = _process_estimates(_CHANNEL_SETTINGS, counts.reshape(-1, counts.shape[2]),
                                       np.flatnonzero(determined) * counts.shape[1])
    chis = np.concatenate([chis[:, None], estimates.reshape(counts.shape[:2] + (4, 4))], axis=1)
    block = np.stack(_channel_metrics(chis.reshape(-1, 4, 4))).reshape(2, len(chis), -1)
    block[:, ~determined, 1:] = math.nan
    return list(zip(*map(_metrics, block)))


def _run_sweep(config: ScenarioConfig, mode: str, with_states: bool) -> ScenarioResult:
    if config.mode != mode:
        raise ValueError(f"config mode {config.mode!r} does not match runner {mode!r}")
    grid = config.resolved_grid()
    env = _env_matrix(config.env_state)
    labels = config.signal_states
    preps = _preparations(mode, labels)
    anchor_phi = math.pi if mode == "protocol" else 0.0
    with_channel = set(labels) == set(BASIS_LABELS)

    # state replicas are read only by fig3/fig4
    bootstrap = config.bootstrap_samples if with_states else 0

    def samples(phis: Sequence[float], keys: Sequence[int]) -> _Samples:
        return _samples(phis, keys, preps, env, config, bootstrap)

    # the anchor normalizes the success probability of fig3
    anchors = samples([anchor_phi], [_ANCHOR_KEY]) if with_states else None
    if with_states and anchors.totals is not None:
        reps = anchors.totals[0, :, 1:]
        for lab, empty, n_empty in zip(labels, anchors.empty[0], (reps == 0).sum(axis=1)):
            where = f"state {lab}: anchor at phi = {anchor_phi:.6g} drew no counts"
            if empty:
                print(f"{where}, success_norm is nan", file=sys.stderr)
            elif n_empty:
                print(f"{where} in {n_empty} of {reps.shape[1]} bootstrap replicas, "
                      "success_norm std is nan", file=sys.stderr)

    state_points: list[StatePoint] = []
    phi_points: list[PhiPoint] = []
    size = max(1, _CHANNEL_BATCH_ROWS // (1 + config.bootstrap_samples))
    for start in range(0, len(grid), size):
        index = range(start, min(start + size, len(grid)))
        phis = [grid[i] for i in index]
        # a point at the anchor's phi draws on the anchor's key, so its sample is the anchor's
        batch = samples(phis, [_ANCHOR_KEY if grid[i] == anchor_phi else i for i in index])
        for phi, empties in zip(phis, batch.empty):
            for lab, empty in zip(labels, empties):
                if empty:
                    print(f"phi = {phi:.6g}, state {lab}: no counts, estimates are nan",
                          file=sys.stderr)
        means = [None] * len(phis)
        if with_states:
            points, means = _state_points(labels, batch, anchors)
            state_points.extend(points)
        channels = [()] * len(phis)
        if with_channel:
            chis, counts = _channel_stacks(batch, labels, config, index)
            del batch   # the channel MLE needs only its tomograms, not the state samples
            channels = _channel_points(chis, counts)
        phi_points.extend(PhiPoint(phi, mean, *channel)
                          for phi, mean, channel in zip(phis, means, channels))
    return ScenarioResult(states=tuple(state_points), phis=tuple(phi_points))


def run_protocol_sweep(config: ScenarioConfig, states: bool = True) -> ScenarioResult:
    """Heralded sweep: gate, signal preparation, coupling, herald, metrics.

    The fig5 channel is rebuilt when the signal states are all six labels;
    ``states`` selects the per-state points of fig3 and fig4 as well.
    """
    return _run_sweep(config, "protocol", states)


def run_reference_sweep(config: ScenarioConfig, states: bool = True) -> ScenarioResult:
    """Unprotected sweep, no herald; ``states`` as for ``run_protocol_sweep``."""
    return _run_sweep(config, "reference", states)


# ---------------------------------------------------------------------------
# gate tomography

def _gate_choi(phi: float, noise: NoiseParams) -> np.ndarray:
    """Choi matrix of the noisy gate on its success branch; its trace is the success probability."""
    phi3 = max_entangled(3)
    return ccp_success_probability(phi) * _gate(np.outer(phi3, phi3.conj()), phi, noise)


def _sandwich(u: np.ndarray, mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u_b| M_b |v_b> for each row b of (..., d) vectors and (..., d, d) matrices."""
    return (u.conj()[..., None, :] @ mats @ v[..., :, None])[..., 0, 0]


def optimize_local_phase_fidelity(chi, ideal_vec: np.ndarray, n: int):
    """Maximal overlap fidelity over local Z phases on the output qubits.

    Six rounds of coordinate ascent, one phase per output bit.  Each
    coordinate maximization is exact: splitting the ideal vector on one
    output bit makes the overlap a + 2 Re(e^{i theta} b), maximized at
    theta = -arg(b).  ``chi`` is one Choi matrix or a (..., d, d) stack, and
    the result the (...) fidelities, each row optimized on its own.
    """
    mats = np.asarray(chi, dtype=complex)
    v = np.broadcast_to(np.asarray(ideal_vec, dtype=complex), mats.shape[:-1])
    idx = np.arange(v.shape[-1])
    out_bits = [(idx >> k) & 1 for k in range(n)]   # output half = low n bits
    for _ in range(6):
        for bit in out_bits:
            v0 = np.where(bit == 0, v, 0.0)
            v1 = np.where(bit == 1, v, 0.0)
            cross = _sandwich(v0, mats, v1)
            theta = -np.arctan2(cross.imag, cross.real)
            v = v0 + np.exp(1j * theta)[..., None] * v1
    return _sandwich(v, mats, v).real / np.trace(mats, axis1=-2, axis2=-1).real


def _gate_metrics(chis: np.ndarray, ideal_vec: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Process fidelity, purity and phase-optimized fidelity of each (B, 64, 64) Choi matrix."""
    return (process_fidelity(chis, np.outer(ideal_vec, ideal_vec.conj())),
            process_purity(chis), optimize_local_phase_fidelity(chis, ideal_vec, 3))


def run_gate_tomography(config: ScenarioConfig) -> ScenarioResult:
    """Characterize the realized three-qubit gate across the grid.

    With shot noise, the simulated-measurement track runs 6^6-setting process
    tomography; the analytic track always runs.
    """
    if config.mode != "gate_tomography":
        raise ValueError(f"config mode {config.mode!r} does not match gate tomography")
    grid = config.resolved_grid()
    phi3 = max_entangled(3)
    eye8 = np.eye(8, dtype=complex)
    points: list[GatePoint] = []
    settings = build_process_settings(3)
    for pi, phi in enumerate(grid):
        chis = _gate_choi(phi, config.noise)[None]
        if config.shot_noise:
            counts = simulate_counts(settings, chis[0], config.rate, _seed_seq(config.seed, pi, 3))
            boot = resample_counts(counts, config.gate_bootstrap_samples, config.seed, (pi, 3))
            chis = np.concatenate([chis, _process_estimates(
                settings, np.vstack([counts, boot]), (0,), config.gate_mle_max_iters)])
        columns = _gate_metrics(chis, np.kron(eye8, u_ccp(phi)) @ phi3)
        points.append(GatePoint(phi, *_metrics(np.stack(columns))))
    return ScenarioResult(gates=tuple(points))


# ---------------------------------------------------------------------------
# CSV / manifest output

def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_files(outdir: str, files: Mapping[str, str]) -> list[str]:
    """Write each named text atomically (temporary file, then rename); returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = os.path.join(outdir, name)
        try:
            with open(f"{path}.tmp", "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            os.replace(f"{path}.tmp", path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")
            raise
        paths.append(path)
    return paths


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _cells(metric: MetricValue) -> str:
    return f"{_fmt(metric.value)},{_fmt(metric.deviation)}"


def write_scenario_csvs(result: ScenarioResult, outdir: str) -> list[str]:
    """Emit the sweep CSV files; returns the written paths.

    fig3 and fig4 are written when the result holds state points, fig5
    always.
    """
    files = {}
    if result.states:
        files["fig3_purity_fidelity_success.csv"] = _csv("phi,state_label,metric,value,std", [
            f"{_fmt(sp.phi)},{sp.state},{name},{_cells(metric)}" for sp in result.states
            for name, metric in (("purity", sp.purity), ("fidelity", sp.fidelity),
                                 ("success_norm", sp.success_norm))])
        files["fig4_population.csv"] = _csv("phi,state_label,value,std", [
            *(f"{_fmt(sp.phi)},{sp.state},{_cells(sp.env_pop1)}" for sp in result.states),
            *(f"{_fmt(pp.phi)},mean,{_cells(pp.mean_env_pop1)}" for pp in result.phis)])
    files["fig5_channel.csv"] = _csv("phi,metric,value,std", [
        f"{_fmt(pp.phi)},{name},{_cells(metric)}"
        for pp in result.phis if pp.channel_ef is not None
        for name, metric in (("entanglement_of_formation", pp.channel_ef),
                             ("channel_fidelity", pp.channel_fidelity))])
    return _write_files(outdir, files)


def write_gate_csv(result: ScenarioResult, outdir: str) -> list[str]:
    rows = [f"{_fmt(gp.phi)},{name},{_cells(metric)}" for gp in result.gates
            for name, metric in (("gate_fidelity", gp.fidelity), ("gate_purity", gp.purity),
                                 ("gate_fidelity_phase_opt", gp.fidelity_phase_opt))]
    return _write_files(outdir, {"fig7_gate.csv": _csv("phi,metric,value,std", rows)})


def config_to_dict(config: ScenarioConfig) -> dict:
    out = asdict(config)
    out["phi_grid"] = list(config.resolved_grid())
    if not isinstance(config.env_state, str):
        out["env_state"] = "custom"
    return out


def write_manifest(config: ScenarioConfig, command: str, outdir: str) -> str:
    payload = {"command": command, "config": config_to_dict(config),
               "seed": config.seed, "version": __version__}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _write_files(outdir, {"manifest.json": text})[0]
