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
from typing import Mapping

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
    ProcessMatrix,
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

DEFAULT_PROTOCOL_GRID = tuple(np.linspace(math.pi / 6.0, 2.0 * math.pi - math.pi / 6.0, 13))
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
        if not self.signal_states:
            raise ValueError("signal_states must be nonempty")
        for lab in self.signal_states:
            if lab not in BASIS_LABELS:
                raise ValueError(f"unknown signal state label {lab!r}")
        if isinstance(self.env_state, str) and self.env_state not in ("maximally_mixed", "plus"):
            raise ValueError(f"unknown env_state {self.env_state!r}")
        if self.bootstrap_samples < 0 or self.gate_bootstrap_samples < 0:
            raise ValueError("bootstrap sample counts must be nonnegative")
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
    mean_env_pop1: MetricValue
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


@dataclass(frozen=True)
class PipelinePoint:
    """Declared joint (S, E) state of one grid point and its herald weight."""

    rho_se: np.ndarray
    weight: float


def _apply_gate_noise(rho: np.ndarray, noise: NoiseParams) -> np.ndarray:
    if noise.phase_jitter_std > 0.0:
        rho = _sector_damp(rho, _CCP_SECTOR, math.exp(-noise.phase_jitter_std**2 / 2.0))
    if noise.gate_depolarizing > 0.0:
        rho = _depolarize(rho, noise.gate_depolarizing)
    return rho


def _protocol_point(phi: float, psi_label: str, env: np.ndarray, noise: NoiseParams) -> PipelinePoint:
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
    return PipelinePoint(partial_trace_array(declared, 3, (1, 2)), weight)


def _reference_point(phi: float, psi_label: str, env: np.ndarray, noise: NoiseParams) -> PipelinePoint:
    psi = projector(ket(psi_label))
    rho = np.kron(np.kron(_P_ONE, psi), env)
    gate = u_ccp(phi).matrix
    rho = gate @ rho @ gate.conj().T
    rho = _apply_gate_noise(rho, noise)
    return PipelinePoint(partial_trace_array(rho, 3, (1, 2)), 1.0)


def _pipeline(mode: str, phi: float, psi_label: str, env: np.ndarray,
              noise: NoiseParams) -> PipelinePoint:
    if mode == "protocol":
        return _protocol_point(phi, psi_label, env, noise)
    return _reference_point(phi, psi_label, env, noise)


def _relative_transmission(phi: float) -> float:
    return ccp_success_probability(phi) * 9.0


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


def _channel_metrics_from_chi(chi: np.ndarray) -> tuple[float, float]:
    ef = entanglement_of_formation(DensityMatrix(chi / chi.trace().real))
    fid = float(np.trace(chi @ _PHI_PLUS_PROJ).real / chi.trace().real)
    return ef, fid


# ---------------------------------------------------------------------------
# sweep runner

_SQ_SETTINGS = build_state_settings(1)
_TQ_SETTINGS = build_state_settings(2)
_CHANNEL_SETTINGS = build_process_settings(1)


def _seed_seq(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def _point_counts(rho_se: np.ndarray, rate_eff: float, seed: int,
                  key: tuple[int, ...]) -> np.ndarray:
    return simulate_counts(_TQ_SETTINGS, rho_se, rate_eff, _seed_seq(seed, *key, 0)).counts


def _marginal_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grid = counts.reshape(-1, 6, 6)
    return grid.sum(axis=2), grid.sum(axis=1)   # signal sums, environment sums


def _single_qubit_metrics(rho: np.ndarray, psi: np.ndarray) -> tuple[float, float, float]:
    pur = float(np.trace(rho @ rho).real)
    fid = float(np.real(psi.conj() @ rho @ psi))
    pop1 = float(rho[1, 1].real)
    return pur, fid, pop1


@dataclass
class _TomoPoint:
    total: float
    purity: float
    fidelity: float
    env_pop1: float
    rep_purity: np.ndarray
    rep_fidelity: np.ndarray
    rep_env_pop1: np.ndarray
    rep_totals: np.ndarray
    s_counts: np.ndarray


def _tomographic_point(rho_se: np.ndarray, psi_label: str, rate_eff: float,
                       config: ScenarioConfig, key: tuple[int, ...]) -> _TomoPoint:
    counts = _point_counts(rho_se, rate_eff, config.seed, key)
    s_counts, e_counts = _marginal_counts(counts[None, :])
    b = config.bootstrap_samples
    reps = (resample_counts(counts, b, config.seed, key=key) if b >= 2
            else np.zeros((0, counts.size)))
    rep_tot = reps.sum(axis=1).astype(float)
    if counts.sum() == 0:
        # no detection events, so no estimate: its metrics are nan
        nan = np.full(len(reps), math.nan)
        return _TomoPoint(0.0, math.nan, math.nan, math.nan, nan, nan, nan, rep_tot, s_counts[0])

    psi = ket(psi_label)
    rho_s = DensityMatrix(mle_state(_SQ_SETTINGS, s_counts)[0]).matrix
    rho_e = DensityMatrix(mle_state(_SQ_SETTINGS, e_counts)[0]).matrix
    pur, fid, _ = _single_qubit_metrics(rho_s, psi)
    pop1 = float(rho_e[1, 1].real)
    if len(reps):
        s_reps, e_reps = _marginal_counts(reps)
        rhos_s = mle_state(_SQ_SETTINGS, s_reps)
        rhos_e = mle_state(_SQ_SETTINGS, e_reps)
        rep_pur = np.einsum("bde,bed->b", rhos_s, rhos_s).real
        rep_fid = np.einsum("d,bde,e->b", psi.conj(), rhos_s, psi).real
        rep_pop = rhos_e[:, 1, 1].real
    else:
        rep_pur = rep_fid = rep_pop = np.array([])
    return _TomoPoint(float(counts.sum()), pur, fid, pop1,
                      rep_pur, rep_fid, rep_pop, rep_tot, s_counts[0])


def _metric(analytic: float, reps: np.ndarray | None = None,
            estimate: float | None = None) -> MetricValue:
    if reps is None or estimate is None:
        return MetricValue(analytic=analytic)
    if reps.size >= 2:
        std = float(reps.std(ddof=1))
    else:
        std = math.nan if math.isnan(estimate) else 0.0
    return MetricValue(analytic=analytic, estimate=estimate, std=std)


def _channel_metrics_from_counts(counts: np.ndarray, samples: int, seed: int,
                                 key: tuple[int, ...], analytic: tuple[float, float]
                                 ) -> tuple[MetricValue, MetricValue]:
    chi = ProcessMatrix(mle_process(_CHANNEL_SETTINGS, counts[None, :])[0], 1).chi
    ef, fid = _channel_metrics_from_chi(chi)
    ef_an, fid_an = analytic
    if samples >= 2:
        reps = resample_counts(counts, samples, seed, key=key)
        chis = mle_process(_CHANNEL_SETTINGS, reps)
        rep_ef = np.empty(samples)
        rep_f = np.empty(samples)
        for i in range(samples):
            rep_ef[i], rep_f[i] = _channel_metrics_from_chi(chis[i])
        return (MetricValue(ef_an, ef, float(rep_ef.std(ddof=1))),
                MetricValue(fid_an, fid, float(rep_f.std(ddof=1))))
    return MetricValue(ef_an, ef, None), MetricValue(fid_an, fid, None)


def _run_sweep(config: ScenarioConfig, mode: str) -> ScenarioResult:
    if config.mode != mode:
        raise ValueError(f"config mode {config.mode!r} does not match runner {mode!r}")
    grid = config.resolved_grid()
    if mode == "protocol" and any(p == 0.0 for p in grid):
        raise DegenerateCouplingError("phi = 0 cannot appear in a protocol grid")
    env = _env_matrix(config.env_state)
    anchor_phi = math.pi if mode == "protocol" else 0.0
    full_alphabet = set(config.signal_states) == set(BASIS_LABELS)

    # anchor run per signal state: the success-probability normalization
    anchors: dict[str, dict] = {}
    for si, psi_label in enumerate(config.signal_states):
        point = _pipeline(mode, anchor_phi, psi_label, env, config.noise)
        entry = {"transmission": _relative_transmission(anchor_phi) * point.weight}
        if config.shot_noise:
            rate_eff = config.rate * entry["transmission"]
            counts = _point_counts(point.rho_se, rate_eff, config.seed, (_ANCHOR_KEY, si))
            entry["total"] = float(counts.sum())
            if config.bootstrap_samples >= 2:
                reps = resample_counts(counts, config.bootstrap_samples,
                                       config.seed, key=(_ANCHOR_KEY, si))
                entry["rep_totals"] = reps.sum(axis=1).astype(float)
        anchors[psi_label] = entry

    state_points: list[StatePoint] = []
    phi_points: list[PhiPoint] = []
    for pi, phi in enumerate(grid):
        pop_analytic: list[float] = []
        pop_estimates: list[float] = []
        pop_reps: list[np.ndarray] = []
        outputs_unnorm: dict[str, np.ndarray] = {}
        s_counts_by_label: dict[str, np.ndarray] = {}
        for si, psi_label in enumerate(config.signal_states):
            point = _pipeline(mode, phi, psi_label, env, config.noise)
            rho_s = partial_trace_array(point.rho_se, 2, (0,))
            rho_e = partial_trace_array(point.rho_se, 2, (1,))
            psi = ket(psi_label)
            pur_a, fid_a, _ = _single_qubit_metrics(rho_s, psi)
            pop_a = float(rho_e[1, 1].real)
            transmission = _relative_transmission(phi) * point.weight
            succ_a = transmission / anchors[psi_label]["transmission"]
            outputs_unnorm[psi_label] = point.weight * rho_s
            pop_analytic.append(pop_a)

            if config.shot_noise:
                rate_eff = config.rate * transmission
                if phi == anchor_phi:
                    # the anchor point normalizes itself: reuse its data
                    tp = _tomographic_point(point.rho_se, psi_label, rate_eff,
                                            config, (_ANCHOR_KEY, si))
                    succ_est, succ_reps = 1.0, np.zeros_like(tp.rep_totals)
                else:
                    tp = _tomographic_point(point.rho_se, psi_label, rate_eff,
                                            config, (pi, si))
                    anchor = anchors[psi_label]
                    succ_est = tp.total / max(anchor["total"], 1.0)
                    if tp.rep_totals.size:
                        succ_reps = tp.rep_totals / np.maximum(anchor["rep_totals"], 1.0)
                    else:
                        succ_reps = np.array([])
                if tp.total == 0:
                    print(f"phi = {phi:.6g}, state {psi_label}: no counts, estimates are nan",
                          file=sys.stderr)
                s_counts_by_label[psi_label] = tp.s_counts
                pop_estimates.append(tp.env_pop1)
                pop_reps.append(tp.rep_env_pop1)
                state_points.append(StatePoint(
                    phi=phi, state=psi_label,
                    purity=_metric(pur_a, tp.rep_purity, tp.purity),
                    fidelity=_metric(fid_a, tp.rep_fidelity, tp.fidelity),
                    success_norm=_metric(succ_a, succ_reps, succ_est),
                    env_pop1=_metric(pop_a, tp.rep_env_pop1, tp.env_pop1)))
            else:
                state_points.append(StatePoint(
                    phi=phi, state=psi_label,
                    purity=_metric(pur_a), fidelity=_metric(fid_a),
                    success_norm=_metric(succ_a), env_pop1=_metric(pop_a)))

        # channel of the signal qubit, available when all six inputs ran
        channel_ef = channel_fid = None
        if full_alphabet:
            chi_a = channel_choi_from_outputs(outputs_unnorm)
            ef_a, fid_a = _channel_metrics_from_chi(chi_a)
            if config.shot_noise and any(not s_counts_by_label[lab].any()
                                         for lab in BASIS_LABELS):
                # a preparation without counts leaves the channel undetermined
                channel_ef = MetricValue(ef_a, math.nan, math.nan)
                channel_fid = MetricValue(fid_a, math.nan, math.nan)
            elif config.shot_noise:
                # preparation-major, as in _CHANNEL_SETTINGS
                counts_c = np.concatenate([s_counts_by_label[lab] for lab in BASIS_LABELS])
                channel_ef, channel_fid = _channel_metrics_from_counts(
                    counts_c, config.bootstrap_samples, config.seed, (pi, 99),
                    analytic=(ef_a, fid_a))
            else:
                channel_ef = MetricValue(ef_a)
                channel_fid = MetricValue(fid_a)

        mean_a = float(np.mean(pop_analytic))
        if config.shot_noise and pop_estimates:
            mean_est = float(np.mean(pop_estimates))
            reps = np.mean(pop_reps, axis=0) if pop_reps[0].size else np.array([])
            mean_metric = _metric(mean_a, reps, mean_est)
        else:
            mean_metric = _metric(mean_a)
        phi_points.append(PhiPoint(phi=phi, mean_env_pop1=mean_metric,
                                   channel_ef=channel_ef, channel_fidelity=channel_fid))

    return ScenarioResult(mode=mode, config=config,
                          states=tuple(state_points), phis=tuple(phi_points))


def run_protocol_sweep(config: ScenarioConfig) -> ScenarioResult:
    """Heralded sweep: gate, signal preparation, coupling, herald, metrics."""
    return _run_sweep(config, "protocol")


def run_reference_sweep(config: ScenarioConfig) -> ScenarioResult:
    """Unprotected sweep: the signal meets the environment with no herald."""
    return _run_sweep(config, "reference")


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


def optimize_local_phase_fidelity(chi, ideal_vec: np.ndarray, n: int, sweeps: int = 6) -> float:
    """Maximal overlap fidelity over local Z phases on the output qubits.

    Each coordinate maximization is exact: splitting the ideal vector on one
    output bit makes the overlap a + 2 Re(e^{i theta} b), maximized at
    theta = -arg(b).
    """
    mat = chi.chi if isinstance(chi, ProcessMatrix) else np.asarray(chi, dtype=complex)
    tr = mat.trace().real
    v = np.asarray(ideal_vec, dtype=complex).copy()
    dim = v.size
    idx = np.arange(dim)
    out_bits = [(idx >> k) & 1 for k in range(n)]   # output half = low n bits
    for _ in range(sweeps):
        for bit in out_bits:
            v0 = np.where(bit == 0, v, 0.0)
            v1 = np.where(bit == 1, v, 0.0)
            cross = complex(v0.conj() @ mat @ v1)
            theta = -math.atan2(cross.imag, cross.real)
            v = v0 + np.exp(1j * theta) * v1
    best = float(np.real(v.conj() @ mat @ v) / tr)
    return best


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
        ideal_vec = np.kron(eye8, u_ccp(phi).matrix) @ phi3
        chi_ideal = np.outer(ideal_vec, ideal_vec.conj())
        chi_a = _gate_choi(phi, config.noise)
        fid_a = process_fidelity(chi_a, chi_ideal)
        pur_a = process_purity(chi_a)
        opt_a = optimize_local_phase_fidelity(chi_a, ideal_vec, 3)
        if config.shot_noise:
            counts = simulate_counts(settings, chi_a, config.rate,
                                     _seed_seq(config.seed, pi, 3)).counts
            chi_hat = ProcessMatrix(mle_process(settings, counts[None, :],
                                                max_iters=config.gate_mle_max_iters)[0], 3).chi
            fid_e = process_fidelity(chi_hat, chi_ideal)
            pur_e = process_purity(chi_hat)
            opt_e = optimize_local_phase_fidelity(chi_hat, ideal_vec, 3)
            b = config.gate_bootstrap_samples
            if b >= 2:
                reps = resample_counts(counts, b, config.seed, key=(pi, 3))
                chis = mle_process(settings, reps, max_iters=config.gate_mle_max_iters)
                rep_f = np.array([process_fidelity(c, chi_ideal) for c in chis])
                rep_p = np.array([process_purity(c) for c in chis])
                rep_o = np.array([optimize_local_phase_fidelity(c, ideal_vec, 3)
                                  for c in chis])
                points.append(GatePoint(phi,
                                        _metric(fid_a, rep_f, fid_e),
                                        _metric(pur_a, rep_p, pur_e),
                                        _metric(opt_a, rep_o, opt_e)))
            else:
                points.append(GatePoint(phi,
                                        MetricValue(fid_a, fid_e, None),
                                        MetricValue(pur_a, pur_e, None),
                                        MetricValue(opt_a, opt_e, None)))
        else:
            points.append(GatePoint(phi, _metric(fid_a), _metric(pur_a), _metric(opt_a)))
    return ScenarioResult(mode="gate_tomography", config=config, gates=tuple(points))


# ---------------------------------------------------------------------------
# CSV / manifest output

def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_scenario_csvs(result: ScenarioResult, outdir: str,
                        figures: tuple[str, ...] = ("fig3", "fig4", "fig5")) -> list[str]:
    """Emit the sweep CSV files; returns the written paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []

    if "fig3" in figures:
        lines = ["phi,state_label,metric,value,std"]
        for sp in result.states:
            for name, metric in (("purity", sp.purity), ("fidelity", sp.fidelity),
                                 ("success_norm", sp.success_norm)):
                lines.append(f"{_fmt(sp.phi)},{sp.state},{name},"
                             f"{_fmt(metric.value)},{_fmt(metric.deviation)}")
        path = os.path.join(outdir, "fig3_purity_fidelity_success.csv")
        _atomic_write(path, "\n".join(lines) + "\n")
        paths.append(path)

    if "fig4" in figures:
        lines = ["phi,state_label,value,std"]
        for sp in result.states:
            lines.append(f"{_fmt(sp.phi)},{sp.state},"
                         f"{_fmt(sp.env_pop1.value)},{_fmt(sp.env_pop1.deviation)}")
        for pp in result.phis:
            lines.append(f"{_fmt(pp.phi)},mean,"
                         f"{_fmt(pp.mean_env_pop1.value)},{_fmt(pp.mean_env_pop1.deviation)}")
        path = os.path.join(outdir, "fig4_population.csv")
        _atomic_write(path, "\n".join(lines) + "\n")
        paths.append(path)

    if "fig5" in figures:
        lines = ["phi,metric,value,std"]
        for pp in result.phis:
            if pp.channel_ef is not None:
                lines.append(f"{_fmt(pp.phi)},entanglement_of_formation,"
                             f"{_fmt(pp.channel_ef.value)},{_fmt(pp.channel_ef.deviation)}")
                lines.append(f"{_fmt(pp.phi)},channel_fidelity,"
                             f"{_fmt(pp.channel_fidelity.value)},{_fmt(pp.channel_fidelity.deviation)}")
        path = os.path.join(outdir, "fig5_channel.csv")
        _atomic_write(path, "\n".join(lines) + "\n")
        paths.append(path)
    return paths


def write_gate_csv(result: ScenarioResult, outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    lines = ["phi,metric,value,std"]
    for gp in result.gates:
        for name, metric in (("gate_fidelity", gp.fidelity), ("gate_purity", gp.purity),
                             ("gate_fidelity_phase_opt", gp.fidelity_phase_opt)):
            lines.append(f"{_fmt(gp.phi)},{name},{_fmt(metric.value)},{_fmt(metric.deviation)}")
    path = os.path.join(outdir, "fig7_gate.csv")
    _atomic_write(path, "\n".join(lines) + "\n")
    return [path]


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
    os.makedirs(outdir, exist_ok=True)
    payload = {"command": command, "config": config_to_dict(config),
               "seed": config.seed, "version": __version__}
    path = os.path.join(outdir, "manifest.json")
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
