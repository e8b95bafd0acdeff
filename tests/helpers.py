"""State and channel constructors used only by the tests."""

import itertools
from functools import reduce
from typing import Iterable

import numpy as np

from darkstate.experiments import _P_ONE, _P_PLUS, _SE_SECTOR, _gate, _phase, _prep_unitary
from darkstate.protocol import _herald_projectors
from darkstate.qmath import (BASIS_LABELS, DensityMatrix, OperatorMatrix, PureState,
                             expand_operator, ket, max_entangled, partial_trace_array, project,
                             projector)
from darkstate.tomography import MeasurementSetting, ProcessMatrix


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
