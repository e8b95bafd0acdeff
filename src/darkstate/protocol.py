"""System-environment coupling, dark-state heralding, and closed-form rates.

The interaction is a controlled phase between a qubit and its single-qubit
environment: only the joint |11> component acquires the phase e^{i phi}.
A probe prepared in |+> and coupled the same way can herald, via a
projective measurement, that the environment collapsed to |0> - the dark
state in which the coupling acts trivially on anything that follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import (
    DensityMatrix,
    expand_operator,
    ket,
    partial_trace_array,
    project,
    projector,
)

TWO_PI = 2.0 * math.pi


class DegenerateCouplingError(ValueError):
    """The requested operation is undefined at zero coupling strength."""


@dataclass(frozen=True)
class HeraldOutcome:
    """One branch of the probe measurement.

    ``post_state`` is the joint (probe, environment) register after the
    projection, renormalized, or None when ``project`` drops the branch at
    roundoff weight.  ``probability`` is the probability of this branch
    occurring, 0 for a dropped branch.
    """

    success: bool
    post_state: DensityMatrix | None
    probability: float


def _angle(phi) -> float:
    value = float(phi)
    if not (0.0 <= value < TWO_PI):
        raise ValueError(f"coupling strength {value} outside [0, 2*pi)")
    return value


def u_cp(phi) -> np.ndarray:
    """Two-qubit controlled phase, diag(1, 1, 1, e^{i phi})."""
    value = _angle(phi)
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * value)])


def u_ccp(phi) -> np.ndarray:
    """Three-qubit controlled-controlled phase, e^{i phi} on |111> only."""
    value = _angle(phi)
    diag = np.ones(8, dtype=complex)
    diag[7] = np.exp(1j * value)
    return np.diag(diag)


def ccp_success_probability(phi) -> float:
    """Postselection success probability of the linear-optical gate that realizes
    ``u_ccp(phi)`` (``optical_gate.realize_ccp``), 1 / (9 + 9 |sin phi|)."""
    value = _angle(phi)
    return 1.0 / (9.0 + 9.0 * abs(math.sin(value)))


def _herald_projectors(value: float) -> tuple[np.ndarray, np.ndarray]:
    # success: |phi_perp> = (|0> - e^{i phi}|1>)/sqrt2; failure: the complement
    perp = np.array([1.0, -np.exp(1j * value)], dtype=complex) / math.sqrt(2.0)
    para = np.array([1.0, np.exp(1j * value)], dtype=complex) / math.sqrt(2.0)
    return projector(perp), projector(para)


def _coupled_probe(rho_e: DensityMatrix, value: float) -> np.ndarray:
    """The (probe, environment) state |+><+| (x) rho_E after the coupling u_cp(value)."""
    u = u_cp(value)
    return u @ np.kron(projector(ket("+")), rho_e.matrix) @ u.conj().T


def herald_outcomes(rho_e: DensityMatrix, phi) -> tuple[HeraldOutcome, HeraldOutcome]:
    """Both branches of the heralding measurement, (success, failure).

    The probe is prepared in |+>, coupled to the environment, and measured
    in the basis (|0> ± e^{i phi}|1>)/sqrt2.  Projection onto the minus
    state heralds the environment in |0> exactly, whenever its |0>
    population is nonzero.
    """
    if rho_e.dim != 2:
        raise ValueError("environment must be a single qubit")
    value = _angle(phi)
    if value == 0.0:
        raise DegenerateCouplingError("heralding is impossible at phi = 0")
    projs = [expand_operator(proj, 2, (0,)) for proj in _herald_projectors(value)]
    weights, posts = project(_coupled_probe(rho_e, value), np.stack(projs))
    return tuple(HeraldOutcome(success, DensityMatrix(post) if w > 0.0 else None, float(w))
                 for success, w, post in zip((True, False), weights, posts))


def herald_dark_state(rho_e: DensityMatrix, phi) -> HeraldOutcome:
    """Success branch of the heralding measurement.

    When the success branch has no post-measurement state (its probability
    vanishes, as for an environment purely in |1>, or is at roundoff scale,
    as for phi near 0 or 2 pi), the failure outcome is returned instead.
    """
    succ, fail = herald_outcomes(rho_e, phi)
    return fail if succ.post_state is None else succ


def repeat_success_probability(p0: float, phi, n: int, thermalizing: bool) -> float:
    """Probability that at least one of n heralding rounds succeeds.

    Without thermalization the environment carries its failure-branch
    update between rounds; with thermalization it is reset to its initial
    state after every failed attempt.
    """
    if not (0.0 <= p0 <= 1.0):
        raise ValueError(f"population p0 = {p0} outside [0, 1]")
    if n < 1:
        raise ValueError("repetition count must be >= 1")
    value = _angle(phi)
    half = value / 2.0
    if thermalizing:
        p_single = p0 * math.sin(half) ** 2
        return 1.0 - (1.0 - p_single) ** n
    return p0 * (1.0 - math.cos(half) ** (2 * n))


def simulate_repeat_protocol(rho_e: DensityMatrix, phi, n: int, thermalizing: bool) -> float:
    """Sequential heralding with probe refresh, accumulating failure branches.

    Independent of the closed forms: each round builds the joint state with
    a fresh probe, applies the coupling, and splits on the measurement.
    """
    if n < 1:
        raise ValueError("repetition count must be >= 1")
    initial = rho_e
    current = rho_e
    total_success = 0.0
    weight_surviving = 1.0
    for _ in range(n):
        succ, fail = herald_outcomes(current, phi)
        total_success += weight_surviving * succ.probability
        weight_surviving *= fail.probability
        if weight_surviving <= 0.0 or fail.post_state is None:
            break
        if thermalizing:
            current = initial
        else:
            current = DensityMatrix(partial_trace_array(fail.post_state.matrix, 2, (1,)))
    return total_success


def plus_projection_update(rho_e: DensityMatrix, phi) -> tuple[float, DensityMatrix]:
    """Couple a fresh |+> probe, project it onto |+>, return (weight, post env).

    This is the coupling-strength-agnostic variant of the protocol: it does
    not collapse the environment to |0> but suppresses its |1> population
    geometrically: each round multiplies the ratio p1/p0 by cos^2(phi/2).
    """
    if rho_e.dim != 2:
        raise ValueError("environment must be a single qubit")
    value = _angle(phi)
    w, post = project(_coupled_probe(rho_e, value), expand_operator(projector(ket("+")), 2, (0,)))
    if w == 0.0:
        raise ValueError("projection onto |+> has zero weight")
    return float(w), DensityMatrix(partial_trace_array(post, 2, (1,)))
