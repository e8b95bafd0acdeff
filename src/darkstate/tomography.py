"""Simulated coincidence counting and maximum-likelihood reconstruction.

Measurement settings draw from the six-state alphabet per qubit (three
mutually unbiased bases).  Through channel-state duality every setting is
one ket k: the projection ket for state tomography, and the product
conj(prep) (x) proj on the doubled register for process tomography, where
the Choi matrix takes the place of the state.  The Choi matrix of a channel
E on n qubits is chi = (I (x) E)(|Phi_n><Phi_n|), with |Phi_n> the
normalized maximally entangled state and the input copy on the high
qubits, so its trace is the channel's success weight (1 when E preserves
the trace).  So one rule serves both: counts are Poissonian with mean
rate * 2^n_in * <k|M|k>, and M is reconstructed with the iterative R-rho-R
fixed-point method (Hradil, PRA 55, R1561, 1997):

    R(rho) = sum_j (f_j / p_j(rho)) Pi_j,    rho <- N[R rho R]

Each row of a batch iterates until its own step falls below the tolerance.
No trace preservation is imposed, so postselected (trace-decreasing)
channels reconstruct naturally; the quality metrics normalize away the
scale.  The method divides every iterate by its trace, so a Choi estimate
is a unit-trace state on the doubled register, and it is checked as one
(``qmath._check_states``), as a state estimate is.  A single qubit needs no
iteration: its likelihood splits into one binomial per Pauli axis and is
maximized in closed form (``_qubit_mle``).

Settings are a ``SettingGrid`` from ``build_state_settings`` or
``build_process_settings``: a descriptor of the full 6^m label grid, in
build order, which is iterated, not indexed, and whose
``MeasurementSetting`` items are made on demand.  Every ket is a product of
single-qubit kets, so neither the count simulator nor the estimator builds a
setting or the ket table.  They work in the real
Pauli basis: each single-qubit projector is |k_l><k_l| = sum_mu T[mu, l]
sigma_mu with the real 4 x 6 table T[mu, l] = <k_l|sigma_mu|k_l> / 2, so the
Born probabilities over the 6^m grid are the real coefficients tr(M P) of
the 4^m Pauli strings P pushed through T one qubit at a time (the "shuffle"
algorithm for Kronecker products: Fernandes, Plateau, Stewart, J. ACM 45,
381, 1998).  The coefficients themselves take one gather of M's entries,
one 2^m x 2^m Walsh-Hadamard matmul and a fixed phase per string, which
also flips the sign of Y on the conjugated preparation qubits
(``_PauliTables``).  R is the exact adjoint: the chain through T^T, the
phases, the Hadamard matmul and the inverse gather.  One R-rho-R loop
(``_rrr``) serves every grid.  On the m = 2 grids (two-qubit states,
one-qubit processes) the chain is one real 32 x 36 matrix, which the loop's
step uses directly (``_frame_step``); elsewhere it runs the chain, whose
steps write into one workspace of two buffers per solve (``_workspace``).

Every stage acts on each row of a batch on its own, with no BLAS gemm
whose row count is the batch size, so a row's estimate does not depend on
the rows around it: it equals its single call bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .qmath import BASIS_LABELS, PAULI, ket

MLE_TOL = 1e-10
MLE_MAX_ITERS = 20000
_PROB_FLOOR = 1e-14


class MLEConvergenceWarning(RuntimeWarning):
    """An iterative solve stopped at its iteration cap above its tolerance: R-rho-R, or the
    sphere solve of the exact single-qubit estimate ("sphere solve stopped at ...")."""


@dataclass(frozen=True)
class MeasurementSetting:
    """One preparation/projection record.

    ``preparation`` is empty for state tomography; for process tomography
    it lists the input product-state labels, one per qubit.
    """

    preparation: tuple[str, ...]
    projection: tuple[str, ...]


@dataclass(frozen=True)
class SettingGrid:
    """The full 6^(n_in + n_out) label grid of tomography settings, in build order.

    Setting j carries the base-6 digits of j as label rows, preparation
    labels first and the leftmost most significant; state grids have
    n_in = 0.  The grid is a descriptor, iterated, not indexed: its
    ``MeasurementSetting`` items are made only when it is iterated, and the
    count simulator and the estimator read nothing but ``n_in`` and ``n_out``.
    """

    n_in: int
    n_out: int

    def __post_init__(self):
        for n, low in ((self.n_in, 0), (self.n_out, 1)):
            if not isinstance(n, int) or isinstance(n, bool) or n < low:
                raise ValueError(f"qubit counts must be ints with n_in >= 0 and n_out >= 1, "
                                 f"got n_in = {self.n_in!r}, n_out = {self.n_out!r}")

    def __len__(self) -> int:
        return 6 ** (self.n_in + self.n_out)

    def __iter__(self):
        for labels in itertools.product(BASIS_LABELS, repeat=self.n_in + self.n_out):
            yield MeasurementSetting(labels[:self.n_in], labels[self.n_in:])


def build_state_settings(n: int) -> SettingGrid:
    """All 6^n product projections for state tomography of n qubits."""
    return SettingGrid(0, n)


def build_process_settings(n: int) -> SettingGrid:
    """All 6^n x 6^n preparation-projection pairs for process tomography."""
    return SettingGrid(n, n)


_KET_TABLE = np.array([ket(lab) for lab in BASIS_LABELS])
# T[mu, l] = <k_l|sigma_mu|k_l> / 2 for sigma_mu = I, Z, X, Y, exactly: labels 2k and
# 2k + 1 are the +1 and -1 eigenstates of Pauli axis k = Z, X, Y (the rows of _PAULI)
_PAULI_FRAME = 0.5 * np.vstack([np.ones(6), np.kron(np.eye(3), [1.0, -1.0])])
_PAULI_FRAME.setflags(write=False)


def _check_grid(settings: SettingGrid, process: bool | None) -> None:
    """Raise unless ``settings`` is a ``SettingGrid`` of the kind the caller needs.

    ``process`` is the kind of grid the caller needs, or None for either.
    """
    if not isinstance(settings, SettingGrid):
        raise ValueError("settings must be the full 6^m label grid in build order")
    if process is not None and process != (settings.n_in > 0):
        raise ValueError("process settings need preparation labels; state settings carry none")


@dataclass(frozen=True)
class _PauliTables:
    """Index and sign tables of the Pauli-basis Born and R maps on one label grid.

    For the Pauli string P(a, b) = i^|a & b| X^a Z^b (bit q of a and b is
    qubit q, the leftmost qubit most significant), tr(rho X^a Z^b) =
    sum_y rho[y, y ^ a] (-1)^|b & y|: the gather D[a, y] = rho[y, y ^ a]
    times the Walsh-Hadamard matrix.  ``gather`` reads [Re D, Im D] from the
    float view of rho and ``scatter`` is its inverse permutation.  The real
    coefficient c_ab = tr(rho P_ab) is ``sign`` times one entry of
    [Re DH, Im DH], the one ``select`` names; ``select`` lists the (a, b)
    in per-qubit (a_q, b_q) order, the row order of ``_PAULI_FRAME``.
    Preparation qubits carry conj(sigma), so their Y flips sign.  On m = 2
    grids ``frame`` is the whole Born map, (32, 36), from the float view of
    rho to the grid; its transpose is the R map.
    """

    m: int
    gather: np.ndarray
    scatter: np.ndarray
    hadamard: np.ndarray
    select: np.ndarray
    sign: np.ndarray
    frame: np.ndarray | None = None


@functools.lru_cache(maxsize=None)
def _pauli_tables(n_in: int, n_out: int) -> _PauliTables:
    """The ``_PauliTables`` of the 6^(n_in + n_out) grid, built on first use."""
    m = n_in + n_out
    d = 2**m
    a, y = np.ogrid[:d, :d]   # y is also the Z bits b
    gather = (2 * (y * d + (y ^ a)) + np.arange(2)[:, None, None]).ravel()
    ab = a & y
    # Re(i^k z) is Re z, -Im z, -Re z, Im z for k = 0, 1, 2, 3 (mod 4); a preparation Y adds 2
    k = np.bitwise_count(ab).astype(int) + 2 * np.bitwise_count(ab >> n_out)
    part = k % 2
    sign = np.where(k % 4 < 2, 1.0, -1.0) * np.where(part, -1.0, 1.0)
    # (a, b) order -> (a_1, b_1, ..., a_m, b_m) order
    pairs = np.arange(d * d).reshape((2,) * (2 * m)).transpose(
        [axis for q in range(m) for axis in (q, m + q)]).ravel()
    tables = _PauliTables(m, gather, np.argsort(gather), (-1.0) ** np.bitwise_count(ab),
                          (part * d * d + a * d + y).ravel()[pairs], sign.ravel()[pairs])
    if m == 2:
        # the chain on the 32 unit vectors of the float view: every map entry is a
        # sum of products of halves and signs, so the frame holds the chain's map exactly
        basis = np.eye(2 * d * d).view(complex).reshape(-1, d, d)
        object.__setattr__(tables, "frame", _born(basis, tables, _workspace(tables, len(basis))))
    for table in (tables.gather, tables.scatter, tables.hadamard, tables.select, tables.sign,
                  tables.frame):
        if table is not None:
            table.setflags(write=False)
    return tables


def setting_kets(settings: SettingGrid, process: bool) -> np.ndarray:
    """Stack of measurement kets, one row per setting.

    For process settings the ket is conj(prep) (x) proj: conjugating the
    preparation half is the channel-state duality convention that makes the
    Choi matrix appear as an ordinary state to the estimator.  The grid's
    build order is Kronecker order, so the stack is the Kronecker product of
    the per-qubit ket tables.
    """
    _check_grid(settings, process)
    tables = [_KET_TABLE.conj()] * settings.n_in + [_KET_TABLE] * settings.n_out
    return functools.reduce(np.kron, tables)


def simulate_counts(settings: SettingGrid, M: np.ndarray, rate: float, seed) -> np.ndarray:
    """Poissonian counts, shape (N,), with mean rate * 2^n_in * <k|M|k> per setting ket k.

    ``M`` is the state for state settings (n_in = 0) and, for process
    settings with n_in input qubits, the Choi matrix built on the normalized
    |Phi_n_in>, whose trace is the channel's success weight.  ``seed`` is an
    int or a ``SeedSequence``.  Means below 1e-12 of the largest are roundoff of exact
    zeros and read 0, so the draws do not hinge on the last bits of M.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    _check_grid(settings, process=None)
    tables = _pauli_tables(settings.n_in, settings.n_out)
    mat = np.asarray(M, dtype=complex)
    if 2**tables.m != mat.shape[0]:
        raise ValueError("setting dimension does not match the matrix dimension")
    p = _born(mat[None], tables, _workspace(tables, 1))[0]
    p[p < 1e-12 * p.max()] = 0.0
    rng = np.random.default_rng(seed)
    return rng.poisson(rate * 2 ** settings.n_in * p).astype(float)


def _workspace(tables: _PauliTables, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The two flat float buffers that ``_born`` and ``_weighted_projectors`` write into, for
    up to ``rows`` rows on the grid of ``tables``.

    The steps of a chain alternate between the two, so the first holds its 6^m grid values
    and the second the 4 x 6^(m-1) values one step away from them; either holds the 2 d^2
    floats of a d x d complex matrix.  Fewer rows use leading slices, so one workspace,
    sized at a solve's starting rows, serves every step while its rows converge and leave.
    """
    m, parts = tables.m, 2 * 4**tables.m
    return np.empty(rows * max(6**m, parts)), np.empty(rows * max(4 * 6 ** (m - 1), parts))


def _rows(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading floats of a workspace buffer as a C-contiguous array of ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


def _mode_products(x: np.ndarray, mat: np.ndarray, m: int,
                   bufs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Contract each of the m grid axes of x (B, K^m) with mat (K x L); returns (B, L^m).

    Each step contracts the leading axis and writes the new index last, so
    after m steps the axes are back in order.  Step k writes into ``bufs[k % 2]``,
    so x must not live in ``bufs[0]``, and the result lives in ``bufs[(m - 1) % 2]``.
    """
    b = len(x)
    for k in range(m):
        x = x.reshape(b, mat.shape[0], -1)
        out = _rows(bufs[k % 2], b, x.shape[2], mat.shape[1])
        np.matmul(mat.T, x, out=out.swapaxes(1, 2))
        x = out
    return x.reshape(b, -1)


def _born(rho: np.ndarray, tables: _PauliTables,
          work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """<k|rho|k> for every ket k of the 6^m grid; (B, d, d) -> (B, 6^m), real, in ``work``.

    The Pauli coefficients tr(rho P) come from one gather, one Walsh-Hadamard
    matmul and one signed select (``_PauliTables``); the real per-qubit frame
    ``_PAULI_FRAME`` takes them to the grid.  The result is a view of the first buffer
    of the ``_workspace`` ``work``.
    """
    b, d = len(rho), 2**tables.m
    big, small = work
    chain = (big, small) if tables.m % 2 else (small, big)   # its last step writes into big
    # np.take with mode="clip" writes straight into out= (mode="raise" copies first); every
    # index of the tables is in range, so the two modes take the same entries
    parts = np.take(np.asarray(rho, dtype=complex).reshape(b, -1).view(np.float64),
                    tables.gather, axis=1, mode="clip", out=_rows(chain[1], b, 2 * d * d))
    parts = np.matmul(parts.reshape(b, -1, d), tables.hadamard,
                      out=_rows(chain[0], b, 2 * d, d)).reshape(b, -1)
    coeffs = np.take(parts, tables.select, axis=1, mode="clip", out=_rows(chain[1], b, d * d))
    coeffs *= tables.sign
    return _mode_products(coeffs, _PAULI_FRAME, tables.m, chain)


def _weighted_projectors(w: np.ndarray, tables: _PauliTables,
                         work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_k w_k |k><k| over the 6^m grid; (B, 6^m) -> (B, d, d), in ``work``.

    The exact adjoint of ``_born``: the transposed frame chain, the signed
    scatter, the Hadamard matmul and the inverse gather.  ``w`` may be ``_born``'s
    result; the R operators are a view of the ``_workspace`` ``work``, valid until
    it is written again.
    """
    b, d = len(w), 2**tables.m
    chain = work[::-1]   # w may be _born's result, in the first buffer
    coeffs = _mode_products(w, _PAULI_FRAME.T, tables.m, chain)
    coeffs *= tables.sign
    parts = _rows(chain[tables.m % 2], b, 2 * d * d)   # the buffer the chain did not end in
    parts.fill(0.0)
    parts[:, tables.select] = coeffs
    summed = np.matmul(parts.reshape(b, -1, d), tables.hadamard,
                       out=_rows(chain[(tables.m - 1) % 2], b, 2 * d, d)).reshape(b, -1)
    return np.take(summed, tables.scatter, axis=1, mode="clip",
                   out=parts).view(complex).reshape(b, d, d)


def _mle(settings: SettingGrid, process: bool, counts,
         max_iters: int) -> np.ndarray:
    """Maximum-likelihood estimates for the rows of ``counts`` (shape (B, N)).

    Returns the (B, d, d) estimates, each row solved on its own: it equals its
    single call bit for bit, and an empty batch gives (0, d, d).  A row with no
    counts carries no information and gets I/d, whatever the batch size.
    Single-qubit state settings are solved exactly (``_qubit_mle``), everything
    else by R-rho-R, each row stopping at its own tolerance.
    """
    _check_grid(settings, process)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != len(settings):
        raise ValueError(f"counts must have shape (B, {len(settings)}), got {counts.shape}")
    if settings.n_in + settings.n_out == 1:   # a process has at least two qubits on the grid
        return _qubit_mle(counts)
    return _rrr(counts, _pauli_tables(settings.n_in, settings.n_out), max_iters)


def _rrr(grid_counts: np.ndarray, tables: _PauliTables, max_iters: int) -> np.ndarray:
    """Batched R-rho-R on (B, 6^m) grid counts; a row stops once its max |delta rho| < MLE_TOL.

    The live iterates are kept batch last, (d, d, n).  The step
    (``_frame_step`` on m = 2 grids, ``_chain_step`` elsewhere) acts on every
    row on its own, so a row equals its single call bit for bit.
    """
    b, d = len(grid_counts), 2**tables.m
    out = np.tile(np.eye(d, dtype=complex) / d, (b, 1, 1))
    rows = np.flatnonzero(grid_counts.sum(axis=1) > 0)   # rows without counts stay I/d
    counts = grid_counts[rows]
    step = _frame_step
    if tables.frame is None:   # one workspace for the whole solve, sized at its starting rows
        step = functools.partial(_chain_step, work=_workspace(tables, len(rows)))
    rho = np.ascontiguousarray(out[rows].transpose(1, 2, 0))
    delta = np.full(len(rows), math.inf)
    for _ in range(max_iters):
        if not len(rows):
            break
        # r_op lives until the next step returns.  _frame_step's R is a fresh array: freed
        # with the step's temporaries, it let glibc trim the heap and the next step fault
        # the pages in again (87 020 against 30 395 minor page faults in the 13 d = 4 solves
        # of `channel --seed 0`).  _chain_step's R is a view of its workspace.
        new, r_op = step(rho, counts, tables)
        delta = np.abs(new - rho).max(axis=(0, 1))
        done = delta < MLE_TOL
        if done.any():
            out[rows[done]] = new[..., done].transpose(2, 0, 1)
            rows, counts, delta = rows[~done], counts[~done], delta[~done]
            new = np.ascontiguousarray(new[..., ~done])
        rho = new
    out[rows] = rho.transpose(2, 0, 1)
    if len(rows):
        warnings.warn(f"R-rho-R stopped at max_iters = {max_iters} (d = {d}, "
                      f"B = {b}): final delta {delta.max():.3g} >= tol {MLE_TOL:g} "
                      f"in {len(rows)} of {b} rows", MLEConvergenceWarning, stacklevel=4)
    return out


def _chain_step(rho: np.ndarray, counts: np.ndarray, tables: _PauliTables,
                work: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One R-rho-R step on (d, d, n) iterates through the Pauli chain, in the ``_workspace``
    ``work``, and stacked matmuls, which take the rows batch first: returns a (d, d, n)
    view of the next iterates, batch first in memory, and R, a view of ``work``."""
    rho = np.ascontiguousarray(rho.transpose(2, 0, 1))
    w = _born(rho, tables, work)
    np.divide(counts, np.maximum(w, _PROB_FLOOR, out=w), out=w)
    r_op = _weighted_projectors(w, tables, work)
    new = r_op @ rho @ r_op
    new += np.conj(np.swapaxes(new, 1, 2))   # 2 x Hermitian part; normalizing cancels the 2
    traces = np.einsum("bdd->b", new).real
    traces[traces <= 0.0] = 1.0
    new /= traces[:, None, None]
    return new.transpose(1, 2, 0), r_op


def _frame_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for each pair of a batch-last (4, 4, n) stack, as four elementwise terms
    added in order."""
    out = a[:, 0, None] * b[0]
    for k in range(1, 4):
        out += a[:, k, None] * b[k]
    return out


def _frame_step(rho: np.ndarray, counts: np.ndarray,
                tables: _PauliTables) -> tuple[np.ndarray, np.ndarray]:
    """``_chain_step`` on an m = 2 grid, with no BLAS gemm over the rows; (4, 4, n) R out.

    The Born map is the float view of each rho times the (32, 36) ``frame``,
    and R the weights times its transpose: one (1, 32) or (1, 36) row per
    matmul of an (n, 1, k) stack, so no row's sums depend on n.  The 4 x 4
    products, the Hermitian part and the traces are elementwise sums over
    long rows of the C-contiguous batch-last iterates.
    """
    frame = tables.frame
    w = np.matmul(np.ascontiguousarray(rho.transpose(2, 0, 1)).view(np.float64)
                  .reshape(-1, 1, 32), frame)
    np.divide(counts[:, None, :], np.maximum(w, _PROB_FLOOR, out=w), out=w)
    r_op = np.ascontiguousarray(np.matmul(w, frame.T).view(complex).reshape(-1, 4, 4)
                                .transpose(1, 2, 0))
    del w   # each array dropped before the products keeps the peak down
    new = _frame_products(_frame_products(r_op, rho), r_op)
    new += np.conj(new.transpose(1, 0, 2))   # 2 x Hermitian part; normalizing cancels the 2
    traces = ((new[0, 0].real + new[1, 1].real) + new[2, 2].real) + new[3, 3].real
    traces[traces <= 0.0] = 1.0
    # numpy divides by complex(t, 0) as (Re x + 0 Im x) (1 / t), (Im x - 0 Re x) (1 / t):
    # scaling the float view by 1 / t gives the same numbers (up to the sign of a zero)
    parts = new.view(np.float64).reshape(4, 4, -1, 2)
    parts *= (1.0 / traces)[:, None]
    return new, r_op


# the Pauli matrix of axis k = Z, X, Y, whose +1 and -1 eigenstates are labels 2k and 2k + 1
_PAULI = np.stack([PAULI[axis] for axis in "zxy"])
_SPHERE_MAX_ITERS = 100
# The solve's temporaries grow with its rows, and its rows are independent, so it takes
# a batch in blocks of at most this many rows.
_QUBIT_MLE_ROWS = 1024


def _qubit_mle(grid_counts: np.ndarray) -> np.ndarray:
    """Exact maximum-likelihood qubit states from (B, 6) label counts; returns (B, 2, 2).

    For the Bloch vector a, labels 2k and 2k + 1 have probabilities
    (1 +- a_k) / 2, so the log-likelihood splits into one binomial per Pauli
    axis, sum_k u_k log(1 + a_k) + v_k log(1 - a_k), with u_k and v_k the
    counts of the two outcomes.  Its maximum over all a is the linear
    inversion (u - v) / (u + v), 0 on an axis without counts.  Inside the
    Bloch ball that is the estimate; outside, the maximum lies on the sphere
    (``_sphere_mle``).  A row without counts comes out as I/2.
    """
    rho = np.empty((len(grid_counts), 2, 2), dtype=complex)
    for start in range(0, len(grid_counts), _QUBIT_MLE_ROWS):
        block = slice(start, start + _QUBIT_MLE_ROWS)
        u, v = grid_counts[block, 0::2], grid_counts[block, 1::2]
        a = (u - v) / np.maximum(u + v, 1.0)
        outside = (a * a).sum(axis=1) > 1.0
        if outside.any():
            a[outside] = _sphere_mle(u[outside], v[outside])
        np.einsum("bk,kde->bde", a, _PAULI, out=rho[block])
    rho += np.eye(2)
    rho *= 0.5
    return rho


def _axis_root(u: np.ndarray, v: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The root a of u / (1 + a) - v / (1 - a) = 2 mu a, elementwise.

    Cleared of fractions this is the cubic 2 mu a^3 - (2 mu + n) a + (u - v)
    = 0 (n = u + v), which is 2u >= 0 at a = -1 and -2v <= 0 at a = 1: its
    middle root is the one in [-1, 1], taken in trigonometric form and
    polished by two Newton steps, because arccos loses digits near |a| = 1.
    With v = 0 (or u = 0) the cubic has the spurious root 1 (-1), and the
    root taken is that of the remaining quadratic, 2 mu a^2 + 2 mu a = u;
    it exceeds 1 for mu < u / 4, which keeps sum_k a_k^2 smooth in mu.
    """
    n = u + v
    r = np.sqrt((1.0 + n / (2.0 * mu)) / 3.0)
    # cubes as products: on these arguments (near +-1) np.power takes some 50 times as long
    x = np.clip((v - u) / (4.0 * mu * (r * r * r)), -1.0, 1.0)
    a = 2.0 * r * np.cos(np.arccos(x) / 3.0 - 2.0 * math.pi / 3.0)
    for _ in range(2):
        a2 = a * a
        a -= (2.0 * mu * (a2 * a) - (2.0 * mu + n) * a + (u - v)) / (6.0 * mu * a2 - 2.0 * mu - n)
    t = (u - v) / mu
    return np.where(np.minimum(u, v) == 0.0, t / (1.0 + np.sqrt(1.0 + 2.0 * np.abs(t))), a)


def _sphere_mle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bloch vectors maximizing the likelihood on |a| = 1, for (B, 3) outcome counts.

    Stationarity on the sphere asks u_k / (1 + a_k) - v_k / (1 - a_k) =
    2 mu a_k on every axis, for one multiplier mu > 0.  For a given mu each
    axis has one root a_k(mu) (``_axis_root``), and sum_k a_k^2 falls with
    mu.  Newton steps on 1 / |a(mu)| - 1, nearly linear in mu, find the mu
    with |a(mu)| = 1, inside the bisection bracket (0, |n| / 2]: a_k(mu) > 0
    forces a_k <= u_k / (2 mu) and a_k < 0 forces |a_k| <= v_k / (2 mu), so
    |a| <= 1 at mu = |n| / 2.  Every row stops at its own tolerance.
    """
    n = u + v
    # start: mu from the stationarity condition at the radially projected linear inversion
    a0 = (u - v) / np.maximum(n, 1.0)
    a0 /= np.sqrt((a0 * a0).sum(axis=1, keepdims=True))
    # a term whose count is 0 has limit 0, also where a0 rounds onto its pole -1 or 1
    terms = (np.divide(u, 1.0 + a0, out=np.zeros_like(u), where=u > 0.0)
             - np.divide(v, 1.0 - a0, out=np.zeros_like(v), where=v > 0.0))
    mu = 0.5 * (a0 * terms).sum(axis=1)
    lo, hi = np.zeros(len(u)), 0.5 * np.sqrt((n * n).sum(axis=1))
    mu = np.where((mu > lo) & (mu < hi), mu, 0.5 * hi)
    out = np.empty_like(u)
    rows = np.arange(len(u))
    for _ in range(_SPHERE_MAX_ITERS):
        with np.errstate(divide="ignore", invalid="ignore"):
            a = _axis_root(u, v, mu[:, None])
            s = (a * a).sum(axis=1)
            # d a_k / d mu from the cubic; a nan step (double root) falls back to bisection
            ds = (4.0 * a * a * (1.0 - a * a) / (6.0 * mu[:, None] * a * a - 2.0 * mu[:, None]
                                                  - n)).sum(axis=1)
            new = mu + 2.0 * s * (1.0 - np.sqrt(s)) / ds
        done = np.abs(s - 1.0) <= 1e-14
        out[rows[done]] = a[done] / np.sqrt(s[done, None])
        above = s > 1.0
        lo, hi = np.where(above, mu, lo), np.where(above, hi, mu)
        mu = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
        live = ~done
        if not live.any():
            return out
        u, v, n, a, s, mu, lo, hi, rows = (x[live] for x in (u, v, n, a, s, mu, lo, hi, rows))
    warnings.warn(f"sphere solve stopped at {_SPHERE_MAX_ITERS} iterations for "
                  f"{len(rows)} qubit estimates", MLEConvergenceWarning, stacklevel=5)
    out[rows] = a / np.sqrt(s[:, None])
    return out


def mle_state(settings: SettingGrid, counts) -> np.ndarray:
    """Maximum-likelihood states from counts of shape (B, N); returns (B, d, d).

    Single-qubit settings are solved exactly; larger states by up to
    ``MLE_MAX_ITERS`` R-rho-R iterations, each row on its own (see ``_mle``).
    """
    return _mle(settings, False, counts, MLE_MAX_ITERS)


def mle_process(settings: SettingGrid, counts,
                max_iters: int = MLE_MAX_ITERS) -> np.ndarray:
    """Maximum-likelihood Choi matrices from counts of shape (B, N), each a unit-trace
    state on the doubled register; each row by its own R-rho-R run (see ``_mle``)."""
    return _mle(settings, True, counts, max_iters)


def resample_counts(counts: np.ndarray, samples: int, seed) -> np.ndarray:
    """Poisson-resampled count matrix of shape (samples, N); ``seed`` is an int or a
    ``SeedSequence``."""
    rng = np.random.default_rng(seed)
    base = np.asarray(counts, dtype=float)
    return rng.poisson(np.broadcast_to(base, (samples, base.size)))

