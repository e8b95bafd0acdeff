"""Linear-optical decomposition of the tunable controlled-controlled-phase gate.

The three-qubit gate (probe P, signal S, environment E) is assembled from a
fixed four-qubit pi-phase filter plus tunable wave-plate rotations that act
on an auxiliary path qubit A of the probe photon.  Stage by stage:

  1. a beam-displacer CNOT routes the probe polarization into the path qubit,
  2. a ring wave plate rotates the probe polarization by 2x inside arm A=1,
  3. the central partially-polarizing beam-splitter block applies the
     coincidence-basis filter (amplitude 1/3 everywhere, sign flip on
     |1111>),
  4. a fixed quarter-wave arm phase (+-pi/2 on the joint P=A=1 component),
  5. a second ring wave plate rotates by 2y inside arm A=1,
  6. a second beam-displacer CNOT closes the interferometer,
  7. only the central displacer output is kept (aux projected onto |0>),
  8. a wave-plate/analyzer balance attenuates the probe |0> amplitude by
     cos z, and a displacer-tilt phase of phi/2 (modulo a fixed pi) lands
     on the probe |1> amplitude.

With the angle choice below, the composite on (P, S, E) is exactly
proportional to the ideal controlled-controlled phase, and the squared
proportionality constant - the postselection success probability - equals
1/(9 + 9|sin phi|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import DegenerateCouplingError, TWO_PI, _angle
from .qmath import expand_operator, rotation

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class WaveplateAngles:
    """Wave-plate rotation parameters (radians) realizing a given phase."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class GateStage:
    """One circuit stage on the (P, S, E, A) register: a 16 x 16 unitary, or a
    postselection filter that does not amplify."""

    name: str
    operator: np.ndarray


@dataclass(frozen=True)
class GateRealization:
    """Ordered stage list whose composite is c times the ideal gate.

    The auxiliary qubit enters in |0>; ``effective_operator`` reads the
    composite in the aux |0> -> |0> block, an 8x8 operator on (P, S, E).
    """

    phi: float
    angles: WaveplateAngles
    stages: tuple[GateStage, ...]
    success_amplitude: complex

    def composite(self) -> np.ndarray:
        out = np.eye(16, dtype=complex)
        for stage in self.stages:
            out = stage.operator @ out
        return out

    def effective_operator(self) -> np.ndarray:
        return self.composite()[0::2, 0::2]


def signed_phase(phi: float) -> float:
    """Map [0, 2*pi) onto the symmetric interval (-pi, pi]."""
    return phi if phi <= math.pi else phi - TWO_PI


def solve_angles(phi) -> WaveplateAngles:
    """Wave-plate angles maximizing the gate success probability.

    |tan x| = sqrt(cot(|phi|/2)) with x in [0, pi/2), y = x, and
    cos z = sqrt(cos^4 x + sin^4 x).  The phase is taken signed in
    (-pi, pi], so strengths above pi use the magnitude of the equivalent
    negative phase.
    """
    value = _angle(phi)
    if value == 0.0:
        raise DegenerateCouplingError("wave-plate angles diverge at phi = 0")
    mag = abs(signed_phase(value))
    x = math.atan(math.sqrt(1.0 / math.tan(mag / 2.0)))
    z = math.acos(math.sqrt(math.cos(x) ** 4 + math.sin(x) ** 4))
    return WaveplateAngles(x=x, y=x, z=z)


def c3z_filter() -> np.ndarray:
    """Coincidence-basis four-qubit phase filter.

    Diagonal Kraus operator with amplitude 1/3 on every component and -1/3
    on |1111|: one third of a C3Z unitary, so any input passes with
    probability 1/9.
    """
    diag = np.full(16, 1.0 / 3.0, dtype=complex)
    diag[15] = -1.0 / 3.0
    return np.diag(diag)


def _controlled_on_aux(gate: np.ndarray) -> np.ndarray:
    # acts on the (P, A) pair: gate on P when A = 1
    return np.kron(_I2, _P0) + np.kron(gate, _P1)


def realize_ccp(phi) -> GateRealization:
    """Assemble the full stage sequence for a given coupling strength.

    The composite (aux in and out in |0>) equals c * u_ccp(phi) with
    c = cos(z) / 3.
    """
    value = _angle(phi)
    angles = solve_angles(value)
    tilt = signed_phase(value)
    arm_sign = 1.0 if tilt > 0 else -1.0

    cnot_pa = np.kron(_P0, _I2) + np.kron(_P1, _X)
    arm_phase = np.eye(4, dtype=complex)
    arm_phase[3, 3] = np.exp(1j * arm_sign * math.pi / 2.0)
    balance = np.diag([math.cos(angles.z), 1.0]).astype(complex)
    tilt_phase = np.diag([1.0, np.exp(1j * (tilt / 2.0 - math.pi))]).astype(complex)

    def on_pa(mat: np.ndarray) -> np.ndarray:
        return expand_operator(mat, 4, (0, 3))

    def on_p(mat: np.ndarray) -> np.ndarray:
        return expand_operator(mat, 4, (0,))

    stages = (
        GateStage("displacer-cnot-in", on_pa(cnot_pa)),
        GateStage("arm1-rotation-x", on_pa(_controlled_on_aux(rotation("y", 2 * angles.x)))),
        GateStage("ppbs-c3z", c3z_filter()),
        GateStage("arm1-quarter-phase", on_pa(arm_phase)),
        GateStage("arm1-rotation-y", on_pa(_controlled_on_aux(rotation("y", 2 * angles.y)))),
        GateStage("displacer-cnot-out", on_pa(cnot_pa)),
        GateStage("aux-filtration", expand_operator(_P0, 4, (3,))),
        GateStage("analyzer-balance", on_p(balance)),
        GateStage("displacer-tilt-phase", on_p(tilt_phase)),
    )
    amplitude = complex(math.cos(angles.z) / 3.0)
    return GateRealization(phi=value, angles=angles, stages=stages, success_amplitude=amplitude)
