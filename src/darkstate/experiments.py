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
from .optical_gate import ccp_success_probability
from .protocol import DegenerateCouplingError, _herald_projectors, u_ccp
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
    ProcessMatrix,
    SettingGrid,
    _chi_array,
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
# value lets that point reuse the anchor's sample, which is drawn at phi = pi.
DEFAULT_PROTOCOL_GRID = tuple(math.pi if k == 6 else float(x) for k, x in enumerate(
    np.linspace(math.pi / 6.0, 2.0 * math.pi - math.pi / 6.0, 13)))
DEFAULT_REFERENCE_GRID = (0.0,) + DEFAULT_PROTOCOL_GRID
DEFAULT_GATE_GRID = tuple(np.array([1, 2, 4, 6, 8, 10, 12, 14]) * math.pi / 8.0)


class BudgetError(RuntimeError):
    """Full three-qubit process tomography requested without the budget flag."""


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
    mode: str
    config: ScenarioConfig
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


def _phase(rho: np.ndarray, phi: float, sector: np.ndarray, jitter: float) -> np.ndarray:
    """Controlled phase e^{i phi} on the basis states in ``sector``, averaged over a
    Gaussian jitter of phi with std ``jitter``.

    U = diag(u) is diagonal, so U rho U† is the elementwise u_j rho_jk conj(u_k); the
    average over the jitter multiplies each coherence across the sector boundary by
    exp(-jitter^2 / 2).
    """
    u = np.where(sector, np.exp(1j * phi), 1.0)
    across = sector[:, None] ^ sector[None, :]
    return u[:, None] * rho * u.conj() * np.where(across, math.exp(-jitter**2 / 2.0), 1.0)


def _gate(rho: np.ndarray, phi: float, noise: NoiseParams) -> np.ndarray:
    """The CCP gate with its phase jitter and depolarizing on the low three qubits of
    ``rho``, one matrix or a (B, d, d) stack; the qubits above stay idle (the input
    copy of a Choi matrix).

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


def _protocol_points(phi: float, preps: np.ndarray, env: np.ndarray, noise: NoiseParams
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Declared joint (S, E) states (L, 4, 4) and herald weights (L,) at one phi of the
    signal states that the ``_preparations`` rows ``preps`` prepare.

    The gated state and the herald projectors do not depend on the signal, so
    they are built once for all the states, and every state goes through the
    rest of the pipeline in one stack.
    """
    gated = _gate(np.kron(np.kron(_P_PLUS, _P_ONE), env), phi, noise)
    rho = _phase(preps @ gated @ _dagger(preps), phi, _SE_SECTOR, noise.phase_jitter_std)
    weights = np.zeros(len(preps))
    declared = np.zeros(rho.shape, dtype=complex)
    # a declared herald is the success branch, or with probability herald_error the failure one
    for share, proj in zip((1.0 - noise.herald_error, noise.herald_error),
                           _herald_projectors(phi)):
        # a branch project drops at roundoff weight has weight 0 and carries nothing
        w, post = project(rho, expand_operator(proj, 3, (0,)))
        weights += share * w
        declared += (share * w)[:, None, None] * post
    if (weights <= 0.0).any():
        raise DegenerateCouplingError(f"herald never fires at phi = {phi}")
    return partial_trace_array(declared / weights[:, None, None], 3, (1, 2)), weights


def _reference_points(phi: float, preps: np.ndarray, env: np.ndarray, noise: NoiseParams
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Joint (S, E) states (L, 4, 4) after the unprotected gate of the (L, 2, 2) signal
    states ``preps``, and their weights, all 1."""
    rho = _gate(np.kron(np.kron(_P_ONE, preps), env), phi, noise)
    return partial_trace_array(rho, 3, (1, 2)), np.ones(len(preps))


# ---------------------------------------------------------------------------
# analytic channel assembly

_CHANNEL_COMBOS = {
    # |j><k| decomposed over the six projector labels
    (0, 1): (("+", 0.5), ("-", -0.5), ("L", 0.5j), ("R", -0.5j)),
    (1, 0): (("+", 0.5), ("-", -0.5), ("L", -0.5j), ("R", 0.5j)),
}


def channel_choi_from_outputs(outputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Choi matrix of the linear map defined by its action on the six states.

    ``outputs[label]`` is the (possibly trace-decreasing) output operator
    for the labelled pure input.  All six labels must be present.
    """
    for lab in BASIS_LABELS:
        if lab not in outputs:
            raise ValueError(f"missing channel output for state {lab!r}")
    lam = {(0, 0): np.asarray(outputs["0"], dtype=complex),
           (1, 1): np.asarray(outputs["1"], dtype=complex)}
    for jk, combo in _CHANNEL_COMBOS.items():
        acc = np.zeros((2, 2), dtype=complex)
        for lab, coeff in combo:
            acc = acc + coeff * np.asarray(outputs[lab], dtype=complex)
        lam[jk] = acc
    chi = np.zeros((4, 4), dtype=complex)
    basis = np.eye(2, dtype=complex)
    for (j, k), block in lam.items():
        chi += 0.5 * np.kron(np.outer(basis[j], basis[k]), block)
    return 0.5 * (chi + chi.conj().T)


_PHI_PLUS_PROJ = projector(max_entangled(1).amplitudes)


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
    """The labelled signal states at one phi: their declared (S, E) states and their
    simulated data, row i for label i.

    ``counts`` (L, 36), over the 36 two-qubit settings, and ``reps`` (L, R, 36),
    their bootstrap replicas (R = 0 without a bootstrap), are None without
    shot noise.
    """

    rho_se: np.ndarray          # (L, 4, 4)
    weights: np.ndarray         # (L,) herald weights
    transmissions: np.ndarray   # (L,)
    counts: np.ndarray | None
    reps: np.ndarray | None

    @property
    def empty(self) -> np.ndarray:
        """(L,) flags of the states that drew no counts."""
        if self.counts is None:
            return np.zeros(len(self.weights), dtype=bool)
        return ~self.counts.any(axis=1)


def _samples(phi: float, preps: np.ndarray, env: np.ndarray, config: ScenarioConfig,
             keys: Sequence[tuple[int, ...]], bootstrap: int) -> _Samples:
    """Simulate the signal states of the ``_preparations`` rows ``preps`` at one grid point
    of ``config.mode``, with ``bootstrap`` replicas (0: none).

    State i draws its counts and replicas from spawn key ``keys[i]``, on
    streams of their own.
    """
    pipeline = _protocol_points if config.mode == "protocol" else _reference_points
    rho_se, weights = pipeline(phi, preps, env, config.noise)
    # the gate's success probability relative to its phi = 0 and phi = pi value 1/9
    transmissions = ccp_success_probability(phi) * 9.0 * weights
    if not config.shot_noise:
        return _Samples(rho_se, weights, transmissions, None, None)
    counts, reps = [], []
    for rho, transmission, key in zip(rho_se, transmissions, keys):
        counts.append(simulate_counts(_TQ_SETTINGS, rho, config.rate * transmission,
                                      _seed_seq(config.seed, *key, 0)))
        reps.append(resample_counts(counts[-1], bootstrap, config.seed, key))
    return _Samples(rho_se, weights, transmissions, np.stack(counts), np.stack(reps))


def _marginal_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grid = counts.reshape(-1, 6, 6)
    return grid.sum(axis=2), grid.sum(axis=1)   # signal sums, environment sums


def _marginal_states(samples: _Samples) -> np.ndarray:
    """Signal (row 0) and environment (row 1) state of each label, (2, L, 1 + E, 2, 2).

    Column 0 holds the analytic states.  With shot noise, column 1 holds the
    MLE states from the counts and columns 2.. those from the replicas, nan
    for a state that drew no counts.  Every tomogram goes into one
    ``mle_state`` call, and the point estimates are checked as
    ``DensityMatrix`` checks its matrix.
    """
    rhos = np.stack([partial_trace_array(samples.rho_se, 2, (q,)) for q in (0, 1)])[:, :, None]
    if samples.counts is None:
        return rhos
    live = ~samples.empty
    n, r = int(live.sum()), samples.reps.shape[1]
    estimates = np.full((2, len(live), 1 + r, 2, 2), math.nan, dtype=complex)
    if n:
        # per label: the signal tomograms, then the environment ones
        tomograms = np.stack([t.reshape(n, 1 + r, 6) for t in _marginal_counts(
            np.concatenate([samples.counts[live, None], samples.reps[live]], axis=1))], axis=1)
        fits = mle_state(_SQ_SETTINGS, tomograms.reshape(-1, 6)).reshape(n, 2, 1 + r, 2, 2)
        points = fits[:, :, 0].reshape(-1, 2, 2)
        _check_states(points, np.linalg.eigvalsh(points))
        estimates[:, live] = fits.swapaxes(0, 1)
    # contiguous per kind, so each metric sums its terms as a lone state's stack does
    return np.concatenate([rhos, estimates], axis=2)


def _success_columns(samples: _Samples, anchors: _Samples) -> np.ndarray:
    """Transmission relative to the anchor's, then (with shot noise) the count total
    over the anchor's, for the estimate and each replica; one row per state (see
    ``_metrics``).

    The anchor itself reads exactly 1; an anchor without counts leaves the
    ratio undefined (nan) at every grid point, and so does an anchor replica
    without counts for that replica.
    """
    analytic = (samples.transmissions / anchors.transmissions)[:, None]
    if samples.counts is None:
        return analytic
    if samples is anchors:
        ratios = np.hstack([np.ones((len(analytic), 1)), np.zeros(samples.reps.shape[:2])])
        ratios[anchors.empty] = math.nan
    else:
        totals = [np.hstack([s.counts.sum(axis=1)[:, None], s.reps.sum(axis=2)])
                  for s in (samples, anchors)]
        ratios = np.divide(*totals, out=np.full(totals[1].shape, math.nan),
                           where=totals[1] > 0)
    return np.hstack([analytic, ratios])


def _state_points(phi: float, labels: Sequence[str], samples: _Samples, anchors: _Samples
                  ) -> tuple[list[StatePoint], MetricValue]:
    """fig3/fig4 rows of the labelled states at one phi, and the fig4 mean row.

    Each metric is one computation over the ``_marginal_states`` stack of all
    the states, and its (L, 1 + E) block of columns one ``_metrics`` call.
    """
    sig, env = _marginal_states(samples)
    psi = np.array([ket(lab) for lab in labels])
    purity = np.einsum("lbde,lbed->lb", sig, sig).real
    fidelity = np.einsum("ld,lbde,le->lb", psi.conj(), sig, psi).real
    # einsum sums a lone matrix's terms in another order (to the last bit) than a stack's;
    # the analytic fidelity of a state without estimates keeps its lone-matrix value
    alone = np.ones(len(labels), dtype=bool) if samples.counts is None else samples.empty
    for i in np.flatnonzero(alone):
        fidelity[i, 0] = np.einsum("d,de,e->", psi[i].conj(), sig[i, 0], psi[i]).real
    env_pop1 = np.ascontiguousarray(env[:, :, 1, 1].real)
    columns = map(_metrics, (purity, fidelity, _success_columns(samples, anchors), env_pop1))
    points = [StatePoint(phi, lab, *metrics) for lab, *metrics in zip(labels, *columns)]
    # the fig4 mean row: environment population averaged over the states
    return points, _metrics(np.mean(env_pop1, axis=0)[None])[0]


def _process_estimates(settings: SettingGrid, n: int, counts: np.ndarray,
                       points: Sequence[int], max_iters: int = MLE_MAX_ITERS) -> np.ndarray:
    """MLE Choi matrices of the rows of ``counts``, all in one ``mle_process`` call; (B, d, d).

    The rows at ``points`` are the tomograms of grid points: one with no
    counts raises, and each estimate is validated.  The other rows are their
    bootstrap replicas.
    """
    if any(counts[i].sum() == 0 for i in points):
        raise ValueError("tomogram has zero total counts")
    chis = mle_process(settings, counts, max_iters=max_iters)
    for i in points:
        ProcessMatrix(chis[i], n)
    return chis


# Consecutive grid points put their channel tomograms into one mle_process call until the
# next point would push it past this many rows, and a call that reaches it runs at once, so
# a point with at least this many rows gets a call of its own.  Per-row R-rho-R cost is
# flat from about 250 rows, so a larger call saves little and costs memory.
_CHANNEL_BATCH_ROWS = 1000


def _channel_input(samples: _Samples, labels: Sequence[str], config: ScenarioConfig,
                   key: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """fig5 input at one phi, from the samples of ``labels``, an order of BASIS_LABELS.

    Returns the analytic signal-channel Choi matrix and the (1 + R, 36)
    tomogram stack of the channel estimate (row 0) and its replicas.  The
    stack is None without shot noise, and when a preparation drew no counts.
    """
    order = [labels.index(lab) for lab in BASIS_LABELS]
    outputs = samples.weights[order, None, None] * partial_trace_array(samples.rho_se[order], 2,
                                                                       (0,))
    chi = channel_choi_from_outputs(dict(zip(BASIS_LABELS, outputs)))
    if not config.shot_noise or samples.empty.any():
        return chi, None
    # preparation-major signal counts, as in _CHANNEL_SETTINGS
    counts = _marginal_counts(samples.counts[order])[0].ravel()
    boot = resample_counts(counts, config.bootstrap_samples, config.seed, key)
    return chi, np.vstack([counts, boot])


def _channel_points(inputs: Sequence[tuple[np.ndarray, np.ndarray | None]], shot_noise: bool
                    ) -> list[tuple[MetricValue, MetricValue]]:
    """fig5 metrics of the ``_channel_input``s of consecutive grid points.

    All their tomograms go into one ``_process_estimates`` call, each point's
    estimate followed by its replicas, and all their Choi matrices, each
    analytic one followed by its point's estimates, into one
    ``_channel_metrics`` call.
    """
    if not inputs:
        return []
    stacks = [t for _, t in inputs if t is not None]
    estimates = iter(())
    if stacks:
        starts = np.cumsum([0] + [len(t) for t in stacks[:-1]])
        # a lone stack (every default 1000-replica point) goes in uncopied
        counts = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        estimates = iter(np.split(_process_estimates(_CHANNEL_SETTINGS, 1, counts, starts),
                                  starts[1:]))
    chis = [chi[None] if t is None else np.concatenate([chi[None], next(estimates)])
            for chi, t in inputs]
    blocks = np.split(np.stack(_channel_metrics(np.concatenate(chis))),
                      np.cumsum([len(c) for c in chis[:-1]]), axis=1)
    points = []
    for (_, tomograms), block in zip(inputs, blocks):
        if shot_noise and tomograms is None:
            # a preparation without counts leaves the channel undetermined
            block = np.hstack([block, np.full((2, 1), math.nan)])
        points.append(tuple(_metrics(block)))
    return points


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

    def samples(key: int, phi: float) -> _Samples:
        return _samples(phi, preps, env, config, [(key, si) for si in range(len(labels))],
                        bootstrap)

    # the anchor normalizes the success probability; a grid point at its phi reuses it
    anchors = samples(_ANCHOR_KEY, anchor_phi) if with_states or anchor_phi in grid else None
    if with_states and anchors.reps is not None:
        empty_reps = (anchors.reps.sum(axis=2) == 0).sum(axis=1)
        for lab, empty, n_empty in zip(labels, anchors.empty, empty_reps):
            where = f"state {lab}: anchor at phi = {anchor_phi:.6g} drew no counts"
            if empty:
                print(f"{where}, success_norm is nan", file=sys.stderr)
            elif n_empty:
                print(f"{where} in {n_empty} of {anchors.reps.shape[1]} bootstrap replicas, "
                      "success_norm std is nan", file=sys.stderr)

    state_points: list[StatePoint] = []
    phi_points: list[PhiPoint] = []
    # grid points (phi, mean row, channel input) whose channel MLE call is pending
    pending: list[tuple[float, MetricValue | None, tuple[np.ndarray, np.ndarray | None]]] = []

    def rows(points) -> int:
        return sum(len(t) for *_, (_, t) in points if t is not None)

    def finish_pending() -> None:
        channels = _channel_points([c for *_, c in pending], config.shot_noise)
        phi_points.extend(PhiPoint(p, m, *metrics)
                          for (p, m, _), metrics in zip(pending, channels))
        pending.clear()

    def queue(point) -> None:
        if rows(pending) + rows([point]) > _CHANNEL_BATCH_ROWS:
            finish_pending()
        pending.append(point)
        if rows(pending) >= _CHANNEL_BATCH_ROWS:   # full: hold no tomogram past its call
            finish_pending()

    for pi, phi in enumerate(grid):
        at_phi = anchors if phi == anchor_phi else samples(pi, phi)
        for lab, empty in zip(labels, at_phi.empty):
            if empty:
                print(f"phi = {phi:.6g}, state {lab}: no counts, estimates are nan",
                      file=sys.stderr)
        mean = None
        if with_states:
            points, mean = _state_points(phi, labels, at_phi, anchors)
            state_points.extend(points)
        if not with_channel:
            phi_points.append(PhiPoint(phi, mean))
            continue
        queue((phi, mean, _channel_input(at_phi, labels, config, (pi, 99))))
    finish_pending()
    return ScenarioResult(mode=mode, config=config,
                          states=tuple(state_points), phis=tuple(phi_points))


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
    phi3 = max_entangled(3).amplitudes
    return ccp_success_probability(phi) * _gate(np.outer(phi3, phi3.conj()), phi, noise)


def _sandwich(u: np.ndarray, mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u_b| M_b |v_b> for each row b of (B, d) vectors and (B, d, d) matrices."""
    return (u.conj()[:, None, :] @ mats @ v[:, :, None])[:, 0, 0]


def optimize_local_phase_fidelity(chi, ideal_vec: np.ndarray, n: int):
    """Maximal overlap fidelity over local Z phases on the output qubits.

    Six rounds of coordinate ascent, one phase per output bit.  Each
    coordinate maximization is exact: splitting the ideal vector on one
    output bit makes the overlap a + 2 Re(e^{i theta} b), maximized at
    theta = -arg(b).  ``chi`` is one Choi matrix (a float is returned) or a
    (B, d, d) stack (a (B,) array, each row optimized on its own).
    """
    mat = _chi_array(chi)
    mats = mat.reshape((-1,) + mat.shape[-2:])
    v = np.tile(np.asarray(ideal_vec, dtype=complex), (len(mats), 1))
    idx = np.arange(v.shape[1])
    out_bits = [(idx >> k) & 1 for k in range(n)]   # output half = low n bits
    for _ in range(6):
        for bit in out_bits:
            v0 = np.where(bit == 0, v, 0.0)
            v1 = np.where(bit == 1, v, 0.0)
            cross = _sandwich(v0, mats, v1)
            theta = -np.arctan2(cross.imag, cross.real)
            v = v0 + np.exp(1j * theta)[:, None] * v1
    best = _sandwich(v, mats, v).real / np.trace(mats, axis1=1, axis2=2).real
    return float(best[0]) if mat.ndim == 2 else best


def _gate_metrics(chis: np.ndarray, ideal_vec: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Process fidelity, purity and phase-optimized fidelity of each (B, 64, 64) Choi matrix."""
    return (process_fidelity(chis, np.outer(ideal_vec, ideal_vec.conj())),
            process_purity(chis), optimize_local_phase_fidelity(chis, ideal_vec, 3))


def run_gate_tomography(config: ScenarioConfig,
                        acknowledge_full_tomography: bool = False) -> ScenarioResult:
    """Characterize the realized three-qubit gate across the grid.

    The simulated-measurement track runs 6^6-setting process tomography and
    is gated behind ``acknowledge_full_tomography`` because of its cost;
    the analytic track always runs.
    """
    if config.mode != "gate_tomography":
        raise ValueError(f"config mode {config.mode!r} does not match gate tomography")
    if config.shot_noise and not acknowledge_full_tomography:
        raise BudgetError("full 6^6-setting process tomography requires the budget flag")
    grid = config.resolved_grid()
    phi3 = max_entangled(3).amplitudes
    eye8 = np.eye(8, dtype=complex)
    points: list[GatePoint] = []
    settings = build_process_settings(3)
    for pi, phi in enumerate(grid):
        chis = _gate_choi(phi, config.noise)[None]
        if config.shot_noise:
            counts = simulate_counts(settings, chis[0], config.rate, _seed_seq(config.seed, pi, 3))
            boot = resample_counts(counts, config.gate_bootstrap_samples, config.seed, (pi, 3))
            chis = np.concatenate([chis, _process_estimates(
                settings, 3, np.vstack([counts, boot]), (0,), config.gate_mle_max_iters)])
        columns = _gate_metrics(chis, np.kron(eye8, u_ccp(phi).matrix) @ phi3)
        points.append(GatePoint(phi, *_metrics(np.stack(columns))))
    return ScenarioResult(mode="gate_tomography", config=config, gates=tuple(points))


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
