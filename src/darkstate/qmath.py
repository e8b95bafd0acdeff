"""Dense complex linear algebra for small qubit registers.

Operators and kets are plain numpy arrays (a ket is 1-d).  ``DensityMatrix``
is the one wrapper: an immutable, validated density matrix, used where a
state enters the protocol API.  ``_check_states`` checks its invariants on
every row of a (..., d, d) stack, for the code that keeps states as arrays.
Every function that takes a matrix takes one (d, d) matrix or a (..., d, d)
stack and works on the leading axes: its results are shaped by them, so one
matrix gives a numpy scalar or a 0-d array and equals its stack-of-one row.
A branch that ``project`` drops has weight 0 and the zero state.
A single ordering convention is used throughout the package: the leftmost
tensor factor owns the most significant bit of a computational basis index,
so the two-qubit basis state ``|10>`` has index 2 and ``np.kron(a, b)``
places ``a`` on the high bits.

Registers are tiny (at most 8 qubits), so everything is dense and every
eigenproblem goes through a plain Hermitian solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERM_TOL = 1e-12
NEG_EIG_TOL = 1e-10

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: The six single-qubit tomography states: computational, diagonal and
#: circular bases.  Together they form three mutually unbiased bases.
BASIS_LABELS = ("0", "1", "+", "-", "L", "R")

_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    "-": np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
    "L": np.array([_INV_SQRT2, 1j * _INV_SQRT2], dtype=complex),
    "R": np.array([_INV_SQRT2, -1j * _INV_SQRT2], dtype=complex),
}

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class InvalidStateError(ValueError):
    """A state or operator violates its physicality invariants."""


class DimensionMismatchError(ValueError):
    """Operands act on registers of incompatible dimension."""


def _qubit_count(dim: int) -> int:
    n = int(round(math.log2(dim))) if dim > 0 else -1
    if n < 0 or 2**n != dim:
        raise InvalidStateError(f"dimension {dim} is not a power of two")
    return n


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


def _dagger(stack: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(stack, -1, -2))


def _check_states(stack: np.ndarray):
    """Density-matrix invariants for every row of a (..., d, d) stack; returns its ``eigh``.

    Entries are checked finite first: NaN passes every comparison, and
    ``eigh`` fails on it.
    """
    if not np.isfinite(stack).all():
        raise InvalidStateError("density matrix has a non-finite entry")
    if (np.abs(stack - _dagger(stack)) > HERM_TOL).any():
        raise InvalidStateError("density matrix is not Hermitian")
    tr = np.trace(stack, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > 1e-9
    if off.any():
        raise InvalidStateError(f"density matrix trace {tr[off][0]} is not 1")
    evals, vecs = np.linalg.eigh(stack)
    if (evals < -NEG_EIG_TOL).any():
        raise InvalidStateError(f"density matrix has negative eigenvalue {evals.min()}")
    return evals, vecs


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one positive operator on an ``n``-qubit register."""

    matrix: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        mat = _freeze(np.asarray(self.matrix))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got {mat.shape}")
        n = _qubit_count(mat.shape[0])
        _check_states(mat)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def ket(label: str) -> np.ndarray:
    """Single-qubit ket for one of the six basis labels."""
    try:
        return _KETS[label].copy()
    except KeyError:
        raise KeyError(f"unknown state label {label!r}; expected one of {BASIS_LABELS}")


def rotation(axis: str, angle: float) -> np.ndarray:
    """Single-qubit rotation exp(i angle/2 sigma_axis)."""
    sigma = PAULI[axis]
    return math.cos(angle / 2) * np.eye(2, dtype=complex) + 1j * math.sin(angle / 2) * sigma


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a ket given as a 1-d array."""
    v = np.asarray(vec, dtype=complex).ravel()
    return np.outer(v, v.conj())


def partial_trace_array(mat: np.ndarray, n: int, keep: Iterable[int]) -> np.ndarray:
    """Partial trace on a raw 2^n x 2^n array or a (B, 2^n, 2^n) stack, keeping the
    listed qubits; each row of a stack is traced on its own.

    Qubit 0 is the most significant (leftmost) factor.  The kept qubits
    retain their relative order.
    """
    keep = sorted(set(keep))
    if not keep:
        raise DimensionMismatchError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionMismatchError(f"keep set {keep} out of range for {n} qubits")
    remaining = list(range(n))
    mat = np.asarray(mat, dtype=complex)
    lead = mat.shape[:-2]
    t = mat.reshape(lead + (2,) * (2 * n))
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        pos = len(lead) + remaining.index(q)
        t = np.trace(t, axis1=pos, axis2=pos + len(remaining))
        remaining.remove(q)
    d = 2 ** len(remaining)
    return t.reshape(lead + (d, d))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubit indices."""
    return DensityMatrix(partial_trace_array(rho.matrix, rho.n, keep))


def expand_operator(op: np.ndarray, n: int, targets: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on ``targets`` into an ``n``-qubit register.

    ``targets`` gives the register positions of the operator's qubits, in
    the operator's own ordering (first target = operator's most
    significant qubit).
    """
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise DimensionMismatchError(f"operator shape {op.shape} does not match {k} targets")
    if len(set(targets)) != k or not all(0 <= t < n for t in targets):
        raise DimensionMismatchError(f"invalid target set {targets} for {n} qubits")
    rest = [q for q in range(n) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    order = list(targets) + rest
    perm = [order.index(q) for q in range(n)]
    t = full.reshape((2,) * (2 * n))
    t = t.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


def project(rho: np.ndarray, proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply projectors; return the (...) weights and the (..., d, d) renormalized states.

    ``rho`` is one matrix or a (..., d, d) stack, each row projected on its
    own, and ``proj`` one projector or a stack that broadcasts against it.
    Weights at roundoff scale count as zero: renormalizing them would
    amplify floating-point asymmetry into an unphysical state.  So a row
    whose branch is dropped has weight 0 and the zero matrix for its state,
    and it adds nothing to a weighted sum of branches.
    """
    rho = np.asarray(rho)
    sub = proj @ rho @ _dagger(proj)
    w = np.trace(sub, axis1=-2, axis2=-1).real
    scale = np.abs(np.trace(rho, axis1=-2, axis2=-1).real)
    kept = ~(w <= 1e-14 * np.where(scale > 0.0, scale, 1.0))
    out = sub / np.where(kept, w, 1.0)[..., None, None]
    out = np.where(kept[..., None, None], 0.5 * (out + _dagger(out)), 0.0)
    return np.where(kept, w, 0.0), out


def max_entangled(n: int) -> np.ndarray:
    """Maximally entangled ket of 2n qubits, sum_i |i>|i> / sqrt(2^n), shape (4^n,)."""
    d = 2**n
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return amps


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of the d x d terms of each row of a real (..., d, d) stack, along one axis.

    numpy sums each row of the (..., d·d) view on its own, so a row's sum does
    not depend on the rows around it (an einsum sums a lone matrix's terms
    pairwise and a stack's in order).
    """
    return terms.reshape(terms.shape[:-2] + (terms.shape[-2] * terms.shape[-1],)).sum(axis=-1)


def state_fidelity(rho, psi):
    """<psi|rho|psi> of each row of a (..., d, d) stack; returns the (...) fidelities.

    ``psi`` is one ket or a (..., d) stack of kets of unit norm (within 1e-9)
    that broadcasts against the rows of ``rho``.  The terms conj(psi_j)
    rho_jk psi_k are elementwise products, so each row is computed on its
    own, and a nan row (a state without counts) reads nan.
    """
    mat, psi = np.asarray(rho, dtype=complex), np.asarray(psi, dtype=complex)
    if mat.ndim < 2 or psi.ndim < 1 or mat.shape[-2:] != psi.shape[-1:] * 2:
        raise DimensionMismatchError(f"dimension mismatch {mat.shape} vs {psi.shape}")
    norm = np.linalg.norm(psi, axis=-1)
    off = np.abs(norm - 1.0) > 1e-9
    if off.any():
        raise InvalidStateError(f"state vector norm {norm[off][0]} is not 1")
    terms = psi.conj()[..., :, None] * mat * psi[..., None, :]
    imag = _row_sums(terms.imag)
    off = np.abs(imag) > 1e-10
    if off.any():
        raise InvalidStateError(f"fidelity has imaginary part {imag[off][0]}")
    return _row_sums(terms.real)


def purity(rho):
    """tr(rho^2) of each row of a (..., d, d) stack; returns the (...) purities.

    The terms rho_jk rho_kj are summed as ``state_fidelity`` sums its terms,
    each row on its own.  A Choi matrix is divided by its trace first.
    """
    mat = np.asarray(rho, dtype=complex)
    return _row_sums((mat * np.swapaxes(mat, -1, -2)).real)


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0; elementwise, shaped as x."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)
    return np.where(inside, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)


_YY = np.kron(PAULI["y"], PAULI["y"])


def concurrence(rho):
    """Two-qubit concurrence, C = max(0, l1 - l2 - l3 - l4) (Wootters, PRL 80, 2245, 1998).

    The l_i are the decreasingly sorted square roots of the eigenvalues of
    rho (sy ⊗ sy) rho* (sy ⊗ sy), evaluated through the Hermitian form
    sqrt(rho) rho~ sqrt(rho) so that degenerate zero eigenvalues stay
    accurate to machine precision.  ``rho`` is an array holding one (4, 4)
    matrix or a (..., 4, 4) stack, whose rows are checked as ``DensityMatrix``
    checks its matrix.  Returns the (...) concurrences, each row computed on
    its own.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape[-2:] != (4, 4):
        raise DimensionMismatchError("concurrence is defined for two qubits only")
    evals, vecs = _check_states(mat)
    rho_tilde = _YY @ mat.conj() @ _YY
    # eigenvalues at the numerical noise floor must become exact zeros:
    # the square root otherwise amplifies 1e-16 noise to 1e-8 in sqrt(rho)
    evals = np.where(evals < 1e-13 * evals.max(axis=-1, keepdims=True), 0.0, evals)
    sqrt_rho = (vecs * np.sqrt(evals)[..., None, :]) @ _dagger(vecs)
    herm = sqrt_rho @ rho_tilde @ sqrt_rho
    lams_sq = np.linalg.eigvalsh(0.5 * (herm + _dagger(herm)))
    lams_sq = np.where(lams_sq < 1e-13 * np.maximum(lams_sq.max(axis=-1, keepdims=True), 0.0),
                       0.0, lams_sq)
    lams = np.sqrt(lams_sq)
    return np.maximum(0.0, lams[..., 3] - lams[..., 2] - lams[..., 1] - lams[..., 0])


def entanglement_of_formation(rho):
    """Two-qubit entanglement of formation via the concurrence closed form.

    Takes what ``concurrence`` takes and returns the (...) values likewise.
    """
    c = concurrence(rho)
    return binary_entropy((1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0)
