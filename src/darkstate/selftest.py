"""Acceptance checks: every release-gating criterion as a callable check.

Each criterion function returns (passed, detail).  The same functions back
the ``darkstate selftest`` CLI command and the pytest acceptance module, so
a green selftest and a green test suite certify the same statements.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .experiments import (
    NoiseParams,
    ScenarioConfig,
    run_protocol_sweep,
    run_reference_sweep,
)
from .optical_gate import realize_ccp
from .protocol import (
    ccp_success_probability,
    herald_dark_state,
    plus_projection_update,
    repeat_success_probability,
    simulate_repeat_protocol,
    u_ccp,
)
from .qmath import (
    DensityMatrix,
    entanglement_of_formation,
    ket,
    max_entangled,
    partial_trace,
    state_fidelity,
)
from .tomography import (
    build_process_settings,
    mle_process,
    simulate_counts,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    wall_s: float


def _phi_grid_open(n: int = 32) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, n + 2)[1:-1]


def criterion_1_herald_exactness() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst_prob = 0.0
    worst_fid = 0.0
    for phi in _phi_grid_open(32):
        p0 = rng.uniform(0.05, 0.95)
        rho_e = DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))
        outcome = herald_dark_state(rho_e, phi)
        expected = p0 * math.sin(phi / 2.0) ** 2
        worst_prob = max(worst_prob, abs(outcome.probability - expected))
        env = partial_trace(outcome.post_state, (1,))
        fid = state_fidelity(env.matrix, ket("0"))
        worst_fid = max(worst_fid, abs(fid - 1.0))
    ok = worst_prob < 1e-12 and worst_fid < 1e-10
    return ok, f"max |P - p0 sin^2| = {worst_prob:.2e}, max |F_env - 1| = {worst_fid:.2e}"


def criterion_2_protection_closure() -> tuple[bool, str]:
    proto = run_protocol_sweep(ScenarioConfig(mode="protocol", shot_noise=False))
    worst = 0.0
    for sp in proto.states:
        worst = max(worst, abs(sp.fidelity.value - 1.0), abs(sp.purity.value - 1.0))
    ref = run_reference_sweep(ScenarioConfig(mode="reference", shot_noise=False))
    for sp in ref.states:
        if sp.state in ("0", "1"):
            expected = 1.0
        else:
            expected = (1.0 + math.cos(sp.phi / 2.0) ** 2) / 2.0
        worst = max(worst, abs(sp.fidelity.value - expected),
                    abs(sp.purity.value - expected))
    return worst < 1e-10, f"max closure deviation = {worst:.2e}"


def criterion_3_success_curves() -> tuple[bool, str]:
    proto = run_protocol_sweep(ScenarioConfig(mode="protocol", shot_noise=False))
    worst = 0.0
    for sp in proto.states:
        formula = math.sin(sp.phi / 2.0) ** 2 / (1.0 + abs(math.sin(sp.phi)))
        worst = max(worst, abs(sp.success_norm.value - formula))
    ref = run_reference_sweep(ScenarioConfig(mode="reference", shot_noise=False))
    for sp in ref.states:
        formula = 1.0 / (1.0 + abs(math.sin(sp.phi)))
        worst = max(worst, abs(sp.success_norm.value - formula))
    return worst < 1e-12, f"max curve deviation = {worst:.2e}"


def criterion_4_gate_decomposition() -> tuple[bool, str]:
    grid = [k * math.pi / 8.0 for k in (1, 2, 4, 6, 8, 10, 12, 14)]
    worst_prop = 0.0
    worst_prob = 0.0
    for phi in grid:
        real = realize_ccp(phi)
        eff = real.effective_operator()
        c = eff[0, 0]
        worst_prop = max(worst_prop, np.abs(eff - c * u_ccp(phi)).max())
        worst_prob = max(worst_prob,
                         abs(abs(c) ** 2 - 1.0 / (9.0 + 9.0 * abs(math.sin(phi)))))
    limit_dev = abs(ccp_success_probability(1e-12) - 1.0 / 9.0)
    ok = worst_prop < 1e-9 and worst_prob < 1e-9 and limit_dev < 1e-9
    return ok, (f"max proportionality defect = {worst_prop:.2e}, "
                f"max |c|^2 error = {worst_prob:.2e}, limit dev = {limit_dev:.2e}")


# frozen analytic targets for the phi = pi/2 dephasing channel with a
# maximally mixed environment: q = (1 + i)/2, C = |q| = cos(pi/4),
# E_f = h((1 + sqrt(1 - C^2))/2), F = (1 + Re q)/2
_EF_DEPHASED_HALF = 0.6008760366928562
_F_DEPHASED_HALF = 0.75


def _dephasing_channel_half():
    q = 0.5 * (1.0 + np.exp(1j * math.pi / 2.0))

    def channel(rho_in: np.ndarray) -> np.ndarray:
        out = np.array(rho_in, dtype=complex)
        out[1, 0] *= q
        out[0, 1] *= np.conj(q)
        return out

    return channel


def criterion_5_tomography_fidelity() -> tuple[bool, str]:
    channel = _dephasing_channel_half()
    chi_analytic = np.zeros((4, 4), dtype=complex)
    basis = np.eye(2, dtype=complex)
    for j in range(2):
        for k in range(2):
            chi_analytic += 0.5 * np.kron(np.outer(basis[j], basis[k]),
                                          channel(np.outer(basis[j], basis[k])))
    ef_expected = entanglement_of_formation(chi_analytic / chi_analytic.trace().real)
    if abs(ef_expected - _EF_DEPHASED_HALF) > 1e-12:
        return False, "analytic entanglement target drifted"
    settings = build_process_settings(1)
    ef_err = []
    f_err = []
    for seed in range(20):
        counts = simulate_counts(settings, chi_analytic, rate=3e4, seed=seed)
        chi_hat = DensityMatrix(mle_process(settings, counts[None, :])[0]).matrix
        state = chi_hat / chi_hat.trace().real
        ef_err.append(abs(entanglement_of_formation(state) - ef_expected))
        f_err.append(abs(state_fidelity(state, max_entangled(1)) - _F_DEPHASED_HALF))
    ef_med, f_med = float(np.median(ef_err)), float(np.median(f_err))
    return (ef_med < 0.02 and f_med < 0.01,
            f"median |E_f err| = {ef_med:.4f}, median |F err| = {f_med:.4f}")


def criterion_6_repeat_formulas() -> tuple[bool, str]:
    worst = 0.0
    for p0 in (0.25, 0.5, 0.9):
        rho_e = DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))
        for phi in (math.pi / 4.0, math.pi / 2.0, math.pi):
            for n in range(1, 6):
                for thermalizing in (False, True):
                    sim = simulate_repeat_protocol(rho_e, phi, n, thermalizing)
                    closed = repeat_success_probability(p0, phi, n, thermalizing)
                    worst = max(worst, abs(sim - closed))
    return worst < 1e-12, f"max |simulation - closed form| = {worst:.2e}"


def criterion_7_population_ratio() -> tuple[bool, str]:
    worst = 0.0
    for p0 in (0.3, 0.5, 0.8):
        for phi in (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi / 1.5):
            rho = DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))
            ratio0 = (1.0 - p0) / p0
            for n in range(1, 6):
                _w, rho = plus_projection_update(rho, phi)
                ratio = rho.matrix[1, 1].real / rho.matrix[0, 0].real
                expected = ratio0 * math.cos(phi / 2.0) ** (2 * n)
                worst = max(worst, abs(ratio - expected))
    return worst < 1e-12, f"max ratio-law deviation = {worst:.2e}"


def criterion_8_noise_trend() -> tuple[bool, str]:
    grid = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
    noise = NoiseParams(herald_error=0.05)
    pops = np.empty((20, len(grid)))
    f_proto = np.empty((20, len(grid)))
    f_ref = np.empty((20, len(grid)))
    for seed in range(20):
        proto = run_protocol_sweep(ScenarioConfig(
            mode="protocol", phi_grid=grid, noise=noise, rate=3000.0,
            bootstrap_samples=0, seed=seed))
        ref = run_reference_sweep(ScenarioConfig(
            mode="reference", phi_grid=grid, noise=noise, rate=3000.0,
            bootstrap_samples=0, seed=seed))
        for gi, _phi in enumerate(grid):
            pops[seed, gi] = proto.phis[gi].mean_env_pop1.value
            f_proto[seed, gi] = next(sp.fidelity.value for sp in proto.states
                                     if sp.phi == grid[gi] and sp.state == "+")
            f_ref[seed, gi] = next(sp.fidelity.value for sp in ref.states
                                   if sp.phi == grid[gi] and sp.state == "+")
    med_pop = np.median(pops, axis=0)
    med_fp = np.median(f_proto, axis=0)
    med_fr = np.median(f_ref, axis=0)
    decreasing = bool(np.all(np.diff(med_pop) < 0.0))
    dominates = bool(np.all(med_fp >= med_fr))
    ok = decreasing and dominates
    return ok, (f"median p1E over phi = {np.array2string(med_pop, precision=4)}, "
                f"protocol F >= reference F: {dominates}")


def criterion_9_bootstrap_sanity() -> tuple[bool, str]:
    def mean_std(rate: float) -> float:
        stds = []
        for seed in (1, 2, 3):
            cfg = ScenarioConfig(mode="reference", phi_grid=(math.pi / 2.0,),
                                 signal_states=("+",), rate=rate,
                                 bootstrap_samples=1000, seed=seed)
            result = run_reference_sweep(cfg)
            stds.append(result.states[-1].fidelity.std)
        return float(np.mean(stds))

    std_lo = mean_std(300.0)
    std_hi = mean_std(1200.0)
    if std_lo <= 0.0 or std_hi <= 0.0:
        return False, "bootstrap std not positive"
    ratio = std_lo / std_hi
    ok = 1.0 <= ratio <= 3.0
    return ok, f"std(300) = {std_lo:.4f}, std(1200) = {std_hi:.4f}, ratio = {ratio:.2f}"


def criterion_10_determinism() -> tuple[bool, str]:
    from .cli import main as cli_main

    config_text = (
        "mode = protocol\n"
        "phi_grid = pi/3, pi, 3*pi/2\n"
        "signal_states = 0,+\n"
        "rate = 300\n"
        "bootstrap_samples = 5\n"
        "seed = 7\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w", encoding="ascii") as fh:
            fh.write(config_text)
        out_a = os.path.join(tmp, "a")
        out_b = os.path.join(tmp, "b")
        for out in (out_a, out_b):
            code = cli_main(["protocol", "--config", cfg_path, "--out", out])
            if code != 0:
                return False, f"CLI run failed with exit code {code}"
        names = sorted(os.listdir(out_a))
        if names != sorted(os.listdir(out_b)):
            return False, "output file sets differ"
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
        if mismatch or errors:
            return False, f"files differ: {mismatch or errors}"
        return True, f"{len(names)} files byte-identical"


_CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (1, "dark-state heralding exactness", criterion_1_herald_exactness),
    (2, "protection closure", criterion_2_protection_closure),
    (3, "success-probability curves", criterion_3_success_curves),
    (4, "gate decomposition", criterion_4_gate_decomposition),
    (5, "tomography fidelity", criterion_5_tomography_fidelity),
    (6, "repeat-protocol formulas", criterion_6_repeat_formulas),
    (7, "population-ratio law", criterion_7_population_ratio),
    (8, "noise-trend reproduction", criterion_8_noise_trend),
    (9, "bootstrap sanity", criterion_9_bootstrap_sanity),
    (10, "determinism", criterion_10_determinism),
)


def run_criteria(numbers: tuple[int, ...] | None = None) -> list[CriterionResult]:
    """Run the selected (default: all) acceptance criteria."""
    results = []
    for number, name, fn in _CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        start = time.perf_counter()
        passed, detail = fn()
        results.append(CriterionResult(number, name, passed, detail,
                                       time.perf_counter() - start))
    return results
