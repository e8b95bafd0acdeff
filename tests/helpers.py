"""State constructors used only by the tests."""

from functools import reduce
from typing import Iterable

import numpy as np

from darkstate.qmath import DensityMatrix, PureState, ket


def product_ket(labels: Iterable[str]) -> np.ndarray:
    """Product ket over several qubits, leftmost label most significant."""
    return reduce(np.kron, [ket(lab) for lab in labels])


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
