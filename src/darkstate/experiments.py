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

import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .optical_gate import ccp_success_probability, realize_ccp
from .protocol import DegenerateCouplingError, _herald_projectors, u_ccp, u_cp
from .qmath import (
    BASIS_LABELS,
    DensityMatrix,
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
    MeasurementSetting,
    ProcessMatrix,
    _chi_array,
    build_process_settings,
    build_state_settings,
    channel_to_choi,
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
# value lets that point reuse the anchor.  The other points keep their linspace values:
# an ulp moves which Born means are exactly zero, and with them the Poisson stream.
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
        if self.phase_jitter_std < 0.0:
            raise ValueError("phase_jitter_std must be nonnegative")


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
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.signal_states:
            raise ValueError("signal_states must be nonempty")
        for lab in self.signal_states:
            if lab not in BASIS_LABELS:
                raise ValueError(f"unknown signal state label {lab!r}")
        if isinstance(self.env_state, str) and self.env_state not in ("maximally_mixed", "plus"):
            raise ValueError(f"unknown env_state {self.env_state!r}")
        if self.bootstrap_samples < 0 or self.gate_bootstrap_samples < 0:
            raise ValueError("bootstrap sample counts must be nonnegative")
        if self.gate_mle_max_iters < 1:
            raise ValueError("gate_mle_max_iters must be at least 1")
        if self.phi_grid is not None:
            grid = tuple(float(p) for p in self.phi_grid)
            if not grid:
                raise ValueError("phi_grid must be nonempty")
            for p in grid:
                if not (0.0 <= p < 2.0 * math.pi):
                    raise ValueError(f"grid value {p} outside [0, 2*pi)")
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


def _sector_damp(rho: np.ndarray, mask: np.ndarray, factor: float) -> np.ndarray:
    weights = np.where(mask[:, None] ^ mask[None, :], factor, 1.0)
    return rho * weights


def _depolarize(rho: np.ndarray, strength: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - strength) * rho + strength * rho.trace() * np.eye(d, dtype=complex) / d


def _apply_gate_noise(rho: np.ndarray, noise: NoiseParams) -> np.ndarray:
    if noise.phase_jitter_std > 0.0:
        rho = _sector_damp(rho, _CCP_SECTOR, math.exp(-noise.phase_jitter_std**2 / 2.0))
    if noise.gate_depolarizing > 0.0:
        rho = _depolarize(rho, noise.gate_depolarizing)
    return rho


def _protocol_point(phi: float, psi_label: str, env: np.ndarray, noise: NoiseParams
                    ) -> tuple[np.ndarray, float]:
    """Declared joint (S, E) state of one grid point and its herald weight."""
    rho = np.kron(np.kron(_P_PLUS, _P_ONE), env)
    gate = u_ccp(phi).matrix
    rho = gate @ rho @ gate.conj().T
    rho = _apply_gate_noise(rho, noise)
    v = expand_operator(_prep_unitary(psi_label), 3, (1,))
    rho = v @ rho @ v.conj().T
    cp = expand_operator(u_cp(phi).matrix, 3, (1, 2))
    rho = cp @ rho @ cp.conj().T
    if noise.phase_jitter_std > 0.0:
        rho = _sector_damp(rho, _SE_SECTOR, math.exp(-noise.phase_jitter_std**2 / 2.0))
    proj_perp, proj_para = (expand_operator(p, 3, (0,)) for p in _herald_projectors(phi))
    w_good, rho_good = project(rho, proj_perp)
    w_fail, rho_fail = project(rho, proj_para)
    eps = noise.herald_error
    weight = (1.0 - eps) * w_good + eps * w_fail
    if weight <= 0.0:
        raise DegenerateCouplingError(f"herald never fires at phi = {phi}")
    declared = np.zeros((8, 8), dtype=complex)
    if rho_good is not None:
        declared += (1.0 - eps) * w_good * rho_good
    if rho_fail is not None:
        declared += eps * w_fail * rho_fail
    declared /= weight
    return partial_trace_array(declared, 3, (1, 2)), weight


def _reference_point(phi: float, psi_label: str, env: np.ndarray, noise: NoiseParams
                     ) -> tuple[np.ndarray, float]:
    psi = projector(ket(psi_label))
    rho = np.kron(np.kron(_P_ONE, psi), env)
    gate = u_ccp(phi).matrix
    rho = gate @ rho @ gate.conj().T
    rho = _apply_gate_noise(rho, noise)
    return partial_trace_array(rho, 3, (1, 2)), 1.0


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


def _replicas(counts: np.ndarray, samples: int, seed: int, key: tuple[int, ...]) -> np.ndarray:
    """Bootstrap replicas of ``counts``, shape (samples, N); none below two samples."""
    if samples < 2:
        return np.zeros((0, counts.size))
    return resample_counts(counts, samples, seed, key=key)


def _metric(column: np.ndarray) -> MetricValue:
    """Both tracks of one quantity from its column over a metric stack.

    Entry 0 is the analytic value.  With shot noise, entry 1 is the estimate
    and entries 2.. are its bootstrap replicas (none without a bootstrap).
    """
    analytic = float(column[0])
    if len(column) == 1:
        return MetricValue(analytic=analytic)
    estimate, reps = float(column[1]), column[2:]
    if reps.size:
        std = float(reps.std(ddof=1))
    else:
        std = math.nan if math.isnan(estimate) else 0.0
    return MetricValue(analytic=analytic, estimate=estimate, std=std)


def _with_nan_estimate(columns, reps: int) -> list[np.ndarray]:
    """Analytic-only columns extended by a nan estimate and ``reps`` nan replicas."""
    return [np.append(c, np.full(1 + reps, math.nan)) for c in columns]


@dataclass(frozen=True)
class _Sample:
    """One signal state at one phi: its declared (S, E) state and its simulated data.

    ``counts`` (the 36 two-qubit settings) and ``reps`` (their bootstrap
    replicas, empty without a bootstrap) are None without shot noise.
    """

    rho_se: np.ndarray
    weight: float           # herald weight
    transmission: float
    counts: np.ndarray | None
    reps: np.ndarray | None

    @property
    def empty(self) -> bool:
        return self.counts is not None and not self.counts.any()


def _sample(mode: str, phi: float, label: str, env: np.ndarray, config: ScenarioConfig,
            key: tuple[int, ...], bootstrap: int) -> _Sample:
    """Simulate one grid point with ``bootstrap`` replicas (fewer than two: none).

    Counts and replicas both derive from spawn key ``key``, on streams of their own.
    """
    pipeline = _protocol_point if mode == "protocol" else _reference_point
    rho_se, weight = pipeline(phi, label, env, config.noise)
    # the gate's success probability relative to its phi = 0 and phi = pi value 1/9
    transmission = ccp_success_probability(phi) * 9.0 * weight
    if not config.shot_noise:
        return _Sample(rho_se, weight, transmission, None, None)
    counts = simulate_counts(_TQ_SETTINGS, rho_se, config.rate * transmission,
                             _seed_seq(config.seed, *key, 0))
    return _Sample(rho_se, weight, transmission, counts,
                   _replicas(counts, bootstrap, config.seed, key))


def _marginal_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grid = counts.reshape(-1, 6, 6)
    return grid.sum(axis=2), grid.sum(axis=1)   # signal sums, environment sums


def _qubit_metrics(rhos_s: np.ndarray, rhos_e: np.ndarray, psi: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal purity and fidelity to ``psi``, environment |1> population, per row of
    the (B, 2, 2) signal and environment stacks."""
    return (np.einsum("bde,bed->b", rhos_s, rhos_s).real,
            np.einsum("d,bde,e->b", psi.conj(), rhos_s, psi).real, rhos_e[:, 1, 1].real)


def _marginal_states(samples: Sequence[_Sample]) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """MLE signal and environment states of each sample that drew counts (None otherwise).

    Row 0 of each (1 + R, 2, 2) stack is the estimate from the sample's counts,
    rows 1.. those from its R replicas.  Every tomogram of the samples goes
    into one ``mle_state`` call: the single-qubit estimate of a row does not
    depend on the rest of its batch, so one call per grid point gives the
    same states as one call per tomogram.
    """
    live = [s.counts is not None and not s.empty for s in samples]
    tomograms = [m for s, ok in zip(samples, live) if ok
                 for m in _marginal_counts(np.vstack([s.counts, s.reps]))]
    if not tomograms:
        return [None] * len(samples)
    rhos = iter(np.split(mle_state(_SQ_SETTINGS, np.concatenate(tomograms)),
                         np.cumsum([len(t) for t in tomograms])[:-1]))
    return [(next(rhos), next(rhos)) if ok else None for ok in live]


def _state_columns(sample: _Sample, psi: np.ndarray,
                   rhos: tuple[np.ndarray, np.ndarray] | None) -> list[np.ndarray]:
    """``_qubit_metrics`` columns of a sample (see ``_metric``).

    ``rhos`` are the sample's signal and environment states from
    ``_marginal_states``, stacked under the analytic states.  A sample that
    drew no counts has a nan estimate and nan replicas.
    """
    stacks = [partial_trace_array(sample.rho_se, 2, (q,))[None] for q in (0, 1)]
    if rhos is not None:
        for rho in rhos:
            DensityMatrix(rho[0])   # the point estimates
        stacks = [np.concatenate([a, r]) for a, r in zip(stacks, rhos)]
    columns = _qubit_metrics(*stacks, psi)
    return _with_nan_estimate(columns, len(sample.reps)) if sample.empty else list(columns)


def _success_column(sample: _Sample, anchor: _Sample) -> np.ndarray:
    """Transmission relative to the anchor's, then (with shot noise) the count total
    over the anchor's, for the sample and for each replica (see ``_metric``).

    The anchor itself reads exactly 1; an anchor without counts leaves the
    ratio undefined (nan) at every grid point, and so does an anchor replica
    without counts for that replica.
    """
    analytic = [sample.transmission / anchor.transmission]
    if sample.counts is None:
        return np.array(analytic)
    if anchor.empty:
        return np.array(analytic + [math.nan])
    if sample is anchor:
        return np.concatenate([analytic, [1.0], np.zeros(len(sample.reps))])
    anchor_totals = anchor.reps.sum(axis=1)
    return np.concatenate([analytic, [sample.counts.sum() / anchor.counts.sum()],
                           np.divide(sample.reps.sum(axis=1), anchor_totals,
                                     out=np.full(len(anchor_totals), math.nan),
                                     where=anchor_totals > 0)])


def _state_point(phi: float, label: str, sample: _Sample, anchor: _Sample,
                 rhos: tuple[np.ndarray, np.ndarray] | None) -> tuple[StatePoint, np.ndarray]:
    """fig3/fig4 row of one sample, and its env-population column for the mean row."""
    columns = _state_columns(sample, ket(label), rhos)
    purity, fidelity, env_pop1 = map(_metric, columns)
    success_norm = _metric(_success_column(sample, anchor))
    return StatePoint(phi, label, purity, fidelity, success_norm, env_pop1), columns[2]


def _process_estimates(settings: Sequence[MeasurementSetting], n: int, counts: np.ndarray,
                       reps: np.ndarray, max_iters: int = MLE_MAX_ITERS) -> np.ndarray:
    """MLE Choi matrix of ``counts`` (validated), then one per replica in ``reps``; (1 + R, d, d).

    The point estimate and the replicas are two ``mle_process`` calls: an
    R-rho-R row depends on the batch it runs in.
    """
    chi = ProcessMatrix(mle_process(settings, counts[None, :], max_iters=max_iters)[0], n).chi
    if not len(reps):   # mle_process takes no empty batch
        return chi[None]
    return np.concatenate([chi[None], mle_process(settings, reps, max_iters=max_iters)])


def _channel_point(samples: Sequence[_Sample], config: ScenarioConfig, key: tuple[int, ...]
                   ) -> tuple[MetricValue, MetricValue]:
    """fig5 at one phi: the signal channel, from one sample per state of BASIS_LABELS."""
    outputs = {lab: s.weight * partial_trace_array(s.rho_se, 2, (0,))
               for lab, s in zip(BASIS_LABELS, samples)}
    chis = channel_choi_from_outputs(outputs)[None]
    empty = any(s.empty for s in samples)
    if config.shot_noise and not empty:
        # preparation-major signal counts, as in _CHANNEL_SETTINGS
        counts = _marginal_counts(np.stack([s.counts for s in samples]))[0].ravel()
        boot = _replicas(counts, config.bootstrap_samples, config.seed, key)
        chis = np.concatenate([chis, _process_estimates(_CHANNEL_SETTINGS, 1, counts, boot)])
    columns = _channel_metrics(chis)
    if empty:   # a preparation without counts leaves the channel undetermined
        columns = _with_nan_estimate(columns, 0)
    return tuple(map(_metric, columns))


def _run_sweep(config: ScenarioConfig, mode: str, figures: tuple[str, ...]) -> ScenarioResult:
    if config.mode != mode:
        raise ValueError(f"config mode {config.mode!r} does not match runner {mode!r}")
    grid = config.resolved_grid()
    if mode == "protocol" and any(p == 0.0 for p in grid):
        raise DegenerateCouplingError("phi = 0 cannot appear in a protocol grid")
    env = _env_matrix(config.env_state)
    labels = config.signal_states
    anchor_phi = math.pi if mode == "protocol" else 0.0
    with_states = "fig3" in figures or "fig4" in figures
    with_channel = "fig5" in figures and set(labels) == set(BASIS_LABELS)

    # state replicas are read only by fig3/fig4
    bootstrap = config.bootstrap_samples if with_states else 0

    def samples(key: int, phi: float) -> list[_Sample]:
        return [_sample(mode, phi, lab, env, config, (key, si), bootstrap)
                for si, lab in enumerate(labels)]

    # the anchor normalizes the success probability; a grid point at its phi reuses it
    anchors = samples(_ANCHOR_KEY, anchor_phi) if with_states or anchor_phi in grid else None
    for lab, anchor in zip(labels, anchors) if with_states else ():
        where = f"state {lab}: anchor at phi = {anchor_phi:.6g} drew no counts"
        empty_reps = 0 if anchor.reps is None else int((anchor.reps.sum(axis=1) == 0).sum())
        if anchor.empty:
            print(f"{where}, success_norm is nan", file=sys.stderr)
        elif empty_reps:
            print(f"{where} in {empty_reps} of {len(anchor.reps)} bootstrap replicas, "
                  "success_norm std is nan", file=sys.stderr)

    state_points: list[StatePoint] = []
    phi_points: list[PhiPoint] = []
    for pi, phi in enumerate(grid):
        at_phi = anchors if phi == anchor_phi else samples(pi, phi)
        for lab, sample in zip(labels, at_phi):
            if sample.empty:
                print(f"phi = {phi:.6g}, state {lab}: no counts, estimates are nan",
                      file=sys.stderr)
        mean = channel_ef = channel_fid = None
        if with_states:
            points, pops = zip(*(
                _state_point(phi, lab, sample, anchor, rhos) for lab, sample, anchor, rhos
                in zip(labels, at_phi, anchors, _marginal_states(at_phi))))
            state_points.extend(points)
            # the fig4 mean row: environment population averaged over the states
            mean = _metric(np.mean(pops, axis=0))
        if with_channel:
            by_label = dict(zip(labels, at_phi))
            channel_ef, channel_fid = _channel_point([by_label[lab] for lab in BASIS_LABELS],
                                                     config, (pi, 99))
        phi_points.append(PhiPoint(phi, mean, channel_ef, channel_fid))
    return ScenarioResult(mode=mode, config=config,
                          states=tuple(state_points), phis=tuple(phi_points))


def run_protocol_sweep(config: ScenarioConfig,
                       figures: tuple[str, ...] = ("fig3", "fig4", "fig5")) -> ScenarioResult:
    """Heralded sweep: gate, signal preparation, coupling, herald, metrics.

    ``figures`` selects what is reconstructed: the per-state points of fig3
    and fig4 (either name selects both) and the fig5 channel.
    """
    return _run_sweep(config, "protocol", figures)


def run_reference_sweep(config: ScenarioConfig,
                        figures: tuple[str, ...] = ("fig3", "fig4", "fig5")) -> ScenarioResult:
    """Unprotected sweep, no herald; ``figures`` as for ``run_protocol_sweep``."""
    return _run_sweep(config, "reference", figures)


# ---------------------------------------------------------------------------
# gate tomography

_OUT_SECTOR_64 = (np.arange(64) & 0b000111) == 0b000111


def _gate_choi(phi: float, noise: NoiseParams) -> np.ndarray:
    k0 = realize_ccp(phi).success_amplitude * u_ccp(phi).matrix
    chi = channel_to_choi(k0, n=3).chi.copy()
    if noise.phase_jitter_std > 0.0:
        chi = _sector_damp(chi, _OUT_SECTOR_64, math.exp(-noise.phase_jitter_std**2 / 2.0))
    if noise.gate_depolarizing > 0.0:
        rho_in = partial_trace_array(chi, 6, range(3))
        chi = ((1.0 - noise.gate_depolarizing) * chi
               + noise.gate_depolarizing * np.kron(rho_in, np.eye(8, dtype=complex) / 8.0))
    return chi


def _sandwich(u: np.ndarray, mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u_b| M_b |v_b> for each row b of (B, d) vectors and (B, d, d) matrices."""
    return (u.conj()[:, None, :] @ mats @ v[:, :, None])[:, 0, 0]


def optimize_local_phase_fidelity(chi, ideal_vec: np.ndarray, n: int, sweeps: int = 6):
    """Maximal overlap fidelity over local Z phases on the output qubits.

    Each coordinate maximization is exact: splitting the ideal vector on one
    output bit makes the overlap a + 2 Re(e^{i theta} b), maximized at
    theta = -arg(b).  ``chi`` is one Choi matrix (a float is returned) or a
    (B, d, d) stack (a (B,) array, each row optimized on its own).
    """
    mat = _chi_array(chi)
    mats = mat.reshape((-1,) + mat.shape[-2:])
    v = np.tile(np.asarray(ideal_vec, dtype=complex), (len(mats), 1))
    idx = np.arange(v.shape[1])
    out_bits = [(idx >> k) & 1 for k in range(n)]   # output half = low n bits
    for _ in range(sweeps):
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
    if any(p == 0.0 for p in grid):
        raise DegenerateCouplingError("phi = 0 is outside the realizable gate range")
    phi3 = max_entangled(3).amplitudes
    eye8 = np.eye(8, dtype=complex)
    points: list[GatePoint] = []
    settings = build_process_settings(3) if config.shot_noise else None
    for pi, phi in enumerate(grid):
        chis = _gate_choi(phi, config.noise)[None]
        if config.shot_noise:
            counts = simulate_counts(settings, chis[0], config.rate, _seed_seq(config.seed, pi, 3))
            boot = _replicas(counts, config.gate_bootstrap_samples, config.seed, (pi, 3))
            chis = np.concatenate([chis, _process_estimates(settings, 3, counts, boot,
                                                            config.gate_mle_max_iters)])
        columns = _gate_metrics(chis, np.kron(eye8, u_ccp(phi).matrix) @ phi3)
        points.append(GatePoint(phi, *map(_metric, columns)))
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
        with open(f"{path}.tmp", "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(f"{path}.tmp", path)
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
    env = config.env_state if isinstance(config.env_state, str) else "custom"
    return {
        "mode": config.mode,
        "phi_grid": [float(p) for p in config.resolved_grid()],
        "env_state": env,
        "signal_states": list(config.signal_states),
        "rate": config.rate,
        "noise": {
            "herald_error": config.noise.herald_error,
            "gate_depolarizing": config.noise.gate_depolarizing,
            "phase_jitter_std": config.noise.phase_jitter_std,
        },
        "seed": config.seed,
        "bootstrap_samples": config.bootstrap_samples,
        "shot_noise": config.shot_noise,
        "gate_bootstrap_samples": config.gate_bootstrap_samples,
        "gate_mle_max_iters": config.gate_mle_max_iters,
    }


def write_manifest(config: ScenarioConfig, command: str, outdir: str) -> str:
    payload = {"command": command, "config": config_to_dict(config),
               "seed": config.seed, "version": __version__}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _write_files(outdir, {"manifest.json": text})[0]
