"""Simulated coincidence counting and maximum-likelihood reconstruction.

Measurement settings draw from the six-state alphabet per qubit (three
mutually unbiased bases).  Through channel-state duality every setting is
one ket k: the projection ket for state tomography, and the product
conj(prep) (x) proj on the doubled register for process tomography, where
the Choi matrix takes the place of the state.  So one rule serves both:
counts are Poissonian with mean rate * 2^n_in * <k|M|k>, and M is
reconstructed with the iterative R-rho-R fixed-point method (Hradil, PRA
55, R1561, 1997):

    R(rho) = sum_j (f_j / p_j(rho)) Pi_j,    rho <- N[R rho R]

No trace preservation is imposed, so postselected (trace-decreasing)
channels reconstruct naturally; the quality metrics normalize away the
scale.  A single qubit needs no iteration: its likelihood splits into one
binomial per Pauli axis and is maximized in closed form (``_qubit_mle``).

Every ket is a product of single-qubit kets, so the estimator never builds
the ket table.  With the per-qubit frame F[l, (r, c)] = conj(k_l[r]) k_l[c],
the Born probabilities over the whole 6^m label grid are M, its (r_q, c_q)
indices interleaved, pushed through F one qubit at a time, and R is the same
chain run backwards through conj(F) (the "shuffle" algorithm for Kronecker
products: Fernandes, Plateau, Stewart, J. ACM 45, 381, 1998).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmath import (
    BASIS_LABELS,
    DensityMatrix,
    OperatorMatrix,
    ket,
    max_entangled,
)

MLE_TOL = 1e-10
MLE_MAX_ITERS = 20000
_PROB_FLOOR = 1e-14


class IncompleteMeasurementError(ValueError):
    """The measurement set cannot determine the state (singular frame)."""


class MLEConvergenceWarning(RuntimeWarning):
    """The R-rho-R iteration stopped at its iteration cap above its tolerance."""


@dataclass(frozen=True)
class MeasurementSetting:
    """One preparation/projection record.

    ``preparation`` is empty for state tomography; for process tomography
    it lists the input product-state labels, one per qubit.
    """

    preparation: tuple[str, ...]
    projection: tuple[str, ...]

    def __post_init__(self):
        for lab in (*self.preparation, *self.projection):
            if lab not in BASIS_LABELS:
                raise ValueError(f"unknown state label {lab!r}")
        if not self.projection:
            raise ValueError("projection labels must be nonempty")


@dataclass(frozen=True)
class ProcessMatrix:
    """Choi-form representation of an n-qubit channel on 2n qubits.

    The trace is free: postselected channels carry their success weight.
    """

    chi: np.ndarray
    n: int

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        d = 4**self.n
        if chi.shape != (d, d):
            raise ValueError(f"chi shape {chi.shape} does not match n = {self.n}")
        scale = max(abs(chi.trace().real), 1.0)
        if np.abs(chi - chi.conj().T).max() > 1e-10 * scale:
            raise ValueError("chi is not Hermitian")
        if np.linalg.eigvalsh(chi).min() < -1e-10 * scale:
            raise ValueError("chi is not positive semidefinite")
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)


def build_state_settings(n: int) -> tuple[MeasurementSetting, ...]:
    """All 6^n product projections for state tomography of n qubits."""
    return tuple(
        MeasurementSetting((), proj)
        for proj in itertools.product(BASIS_LABELS, repeat=n)
    )


def build_process_settings(n: int) -> tuple[MeasurementSetting, ...]:
    """All 6^n x 6^n preparation-projection pairs for process tomography."""
    return tuple(
        MeasurementSetting(prep, proj)
        for prep in itertools.product(BASIS_LABELS, repeat=n)
        for proj in itertools.product(BASIS_LABELS, repeat=n)
    )


_KET_TABLE = np.array([ket(lab) for lab in BASIS_LABELS])
_LABEL_ROW = {lab: i for i, lab in enumerate(BASIS_LABELS)}
# per-qubit frame: _FRAME[l, 2 r + c] = conj(k_l[r]) k_l[c]
_FRAME = (_KET_TABLE.conj()[:, :, None] * _KET_TABLE[:, None, :]).reshape(6, 4)


def _label_index(settings: Sequence[MeasurementSetting], process: bool
                 ) -> tuple[np.ndarray, int]:
    """Validated (N, m) label-row indices, preparation labels first, and n_in."""
    if not settings:
        raise ValueError("settings must be nonempty")
    for s in settings:
        if process and not s.preparation:
            raise ValueError("process setting lacks preparation labels")
        if not process and s.preparation:
            raise ValueError("state setting carries preparation labels")
    if len({(len(s.preparation), len(s.projection)) for s in settings}) != 1:
        raise ValueError("settings act on different numbers of qubits")
    idx = np.array([[_LABEL_ROW[lab] for lab in (*s.preparation, *s.projection)]
                    for s in settings])
    return idx, len(settings[0].preparation)


def _grid(settings: Sequence[MeasurementSetting], process: bool
          ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Label rows (N, m), their flat index on the 6^m grid, and the m frames.

    Preparation qubits take conj(F), because the process ket is
    conj(prep) (x) proj.
    """
    idx, n_in = _label_index(settings, process)
    m = idx.shape[1]
    frames = [_FRAME.conj()] * n_in + [_FRAME] * (m - n_in)
    return idx, idx @ 6 ** np.arange(m - 1, -1, -1), frames


def _product_rows(idx: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker products of table rows, one table per column of ``idx``.

    The leftmost column is most significant.
    """
    rows = tables[0][idx[:, 0]]
    for q in range(1, idx.shape[1]):
        rows = (rows[:, :, None] * tables[q][idx[:, q]][:, None, :]).reshape(len(idx), -1)
    return rows


def setting_kets(settings: Sequence[MeasurementSetting], process: bool) -> np.ndarray:
    """Stack of measurement kets, one row per setting.

    For process settings the ket is conj(prep) (x) proj: conjugating the
    preparation half is the channel-state duality convention that makes the
    Choi matrix appear as an ordinary state to the estimator.
    """
    idx, n_in = _label_index(settings, process)
    kets = _product_rows(idx[:, n_in:], [_KET_TABLE] * (idx.shape[1] - n_in))
    if process:
        prep = _product_rows(idx[:, :n_in], [_KET_TABLE] * n_in).conj()
        kets = (prep[:, :, None] * kets[:, None, :]).reshape(len(kets), -1)
    return kets


def simulate_counts(settings: Sequence[MeasurementSetting],
                    M: DensityMatrix | ProcessMatrix | np.ndarray,
                    rate: float, seed) -> np.ndarray:
    """Poissonian counts, shape (N,), with mean rate * 2^n_in * <k|M|k> per setting ket k.

    ``M`` is the state for state settings (n_in = 0) and, for process
    settings with n_in input qubits, the trace-free Choi matrix in the
    normalization of ``channel_to_choi``.  ``seed`` is an int or a
    ``SeedSequence``.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    settings = tuple(settings)
    mat = M.matrix if isinstance(M, DensityMatrix) else _chi_array(M)
    kets = setting_kets(settings, process=any(s.preparation for s in settings))
    if kets.shape[1] != mat.shape[0]:
        raise ValueError("setting dimension does not match the matrix dimension")
    probs = np.einsum("ne,ne->n", kets.conj() @ mat, kets).real.clip(0.0, None)
    means = rate * 2 ** len(settings[0].preparation) * probs
    rng = np.random.default_rng(seed)
    return rng.poisson(means).astype(float)


def _mode_products(x: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis q of x (B, K_1, ..., K_m) with mats[q] (K_q x L_q).

    Returns (B, L_1 * ... * L_m).  Each step multiplies the last axis and
    moves the new index to the front, so after m steps the axes are back in
    order.
    """
    b = len(x)
    for mat in reversed(mats):
        x = (x.reshape(b, -1, mat.shape[0]) @ mat).swapaxes(1, 2)
    return x.reshape(b, -1)


@functools.lru_cache(maxsize=None)
def _interleaved_axes(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis orders taking (B, r_1..r_m, c_1..c_m) to (B, r_1, c_1, ..., r_m, c_m) and back."""
    forward = (0, *itertools.chain.from_iterable((1 + q, 1 + m + q) for q in range(m)))
    return forward, (0, *range(1, 2 * m, 2), *range(2, 2 * m + 1, 2))


def _born(rho: np.ndarray, frames_t: Sequence[np.ndarray]) -> np.ndarray:
    """<k|rho|k> for every ket k of the 6^m grid; (B, d, d) -> (B, 6^m), complex.

    ``frames_t`` holds the transposed frames F_q.T.
    """
    m = len(frames_t)
    x = rho.reshape((len(rho),) + (2,) * (2 * m)).transpose(_interleaved_axes(m)[0])
    return _mode_products(x, frames_t)


def _weighted_projectors(w: np.ndarray, frames_c: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k w_k |k><k| over the 6^m grid; (B, 6^m) -> (B, d, d).

    ``frames_c`` holds the conjugated frames conj(F_q).
    """
    m = len(frames_c)
    x = _mode_products(w, frames_c).reshape((len(w),) + (2,) * (2 * m))
    return x.transpose(_interleaved_axes(m)[1]).reshape(len(w), 2**m, 2**m)


def _check_complete(idx: np.ndarray, grid: np.ndarray, frames: Sequence[np.ndarray]) -> None:
    """Verify the projectors span the full operator space.

    The rank test uses one vectorized projector per setting, the product of
    its frame rows; for very large setting lists (the 6^6 case) that matrix
    would not fit comfortably, so only the cheap necessary condition that
    sum_k |k><k| is invertible is applied there.
    """
    n_set, d = len(idx), 2 ** len(frames)
    if n_set < d * d:
        raise IncompleteMeasurementError(
            f"{n_set} settings cannot determine a dimension-{d} state")
    if n_set * d * d <= 2_000_000:
        svals = np.linalg.svd(_product_rows(idx, frames), compute_uv=False)
        if svals[d * d - 1] < 1e-9 * svals[0]:
            raise IncompleteMeasurementError(
                "measurement set is informationally incomplete (singular frame)")
    else:
        multiplicity = np.bincount(grid, minlength=6 ** len(frames)).astype(float)
        gram = _weighted_projectors(multiplicity[None, :], [f.conj() for f in frames])[0]
        evals = np.linalg.eigvalsh(gram)
        if evals.min() < 1e-9 * max(evals.max(), 1.0):
            raise IncompleteMeasurementError(
                "measurement set is informationally incomplete (singular frame)")


def _mle(settings: Sequence[MeasurementSetting], process: bool, counts,
         tol: float, max_iters: int) -> np.ndarray:
    """Maximum-likelihood estimates for the rows of ``counts`` (shape (B, N)).

    Returns the (B, d, d) estimates.  A replica with no counts carries no
    information and gets I/d; a single tomogram with no counts raises.
    Counts are summed onto the 6^m label grid once, so settings may come in
    any order, repeat, or cover only part of the grid.  Single-qubit state
    settings are solved exactly (``_qubit_mle``), everything else by R-rho-R.
    """
    idx, grid, frames = _grid(settings, process)
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != len(idx):
        raise ValueError(f"counts must have shape (B, {len(idx)}), got {counts.shape}")
    if len(counts) == 1 and counts.sum() == 0:
        raise ValueError("tomogram has zero total counts")
    _check_complete(idx, grid, frames)
    grid_counts = np.zeros((len(counts), 6 ** len(frames)))
    np.add.at(grid_counts, (slice(None), grid), counts)
    if len(frames) == 1:   # a process has at least two qubits on the grid
        return _qubit_mle(grid_counts)
    return _rrr(grid_counts, frames, tol, max_iters)


def _rrr(grid_counts: np.ndarray, frames: Sequence[np.ndarray], tol: float,
         max_iters: int) -> np.ndarray:
    """Batched R-rho-R iteration on (B, 6^m) grid counts; the batch stops at its slowest row."""
    b, d = len(grid_counts), 2 ** len(frames)
    eye = np.eye(d, dtype=complex)
    rho = np.tile(eye / d, (b, 1, 1))
    zero_total = grid_counts.sum(axis=1) == 0
    frames_t, frames_c = [f.T for f in frames], [f.conj() for f in frames]
    delta = math.inf
    for _ in range(max_iters):
        p = _born(rho, frames_t).real.clip(_PROB_FLOOR, None)
        r_op = _weighted_projectors(grid_counts / p, frames_c)
        new = r_op @ rho @ r_op
        new = 0.5 * (new + np.conj(np.swapaxes(new, 1, 2)))
        traces = np.einsum("bdd->b", new).real
        traces[traces <= 0.0] = 1.0
        new /= traces[:, None, None]
        new[zero_total] = eye / d
        delta = np.abs(new - rho).max()
        rho = new
        if delta < tol:
            break
    else:
        warnings.warn(f"R-rho-R stopped at max_iters = {max_iters} (d = {d}, "
                      f"B = {b}): final delta {delta:.3g} >= tol {tol:g}",
                      MLEConvergenceWarning, stacklevel=4)
    return rho


# sigma_k = |+k><+k| - |-k><-k| for the axis k whose outcomes are labels 2k and 2k + 1
_PAULI = (np.einsum("kd,ke->kde", _KET_TABLE[0::2], _KET_TABLE[0::2].conj())
          - np.einsum("kd,ke->kde", _KET_TABLE[1::2], _KET_TABLE[1::2].conj()))
_SPHERE_MAX_ITERS = 100


def _qubit_mle(grid_counts: np.ndarray) -> np.ndarray:
    """Exact maximum-likelihood qubit states from (B, 6) label counts; returns (B, 2, 2).

    For the Bloch vector a, labels 2k and 2k + 1 have probabilities
    (1 +- a_k) / 2, so the log-likelihood splits into one binomial per Pauli
    axis, sum_k u_k log(1 + a_k) + v_k log(1 - a_k), with u_k and v_k the
    counts of the two outcomes.  Its maximum over all a is the linear
    inversion (u - v) / (u + v), 0 on an axis without counts.  Inside the
    Bloch ball that is the estimate; outside, the maximum lies on the sphere
    (``_sphere_mle``).  Each row is solved on its own, so a row's estimate
    does not depend on the rest of its batch.
    """
    u, v = grid_counts[:, 0::2], grid_counts[:, 1::2]
    a = (u - v) / np.maximum(u + v, 1.0)
    outside = (a * a).sum(axis=1) > 1.0
    if outside.any():
        a[outside] = _sphere_mle(u[outside], v[outside])
    return 0.5 * (np.eye(2) + np.einsum("bk,kde->bde", a, _PAULI))


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
    x = np.clip((v - u) / (4.0 * mu * r**3), -1.0, 1.0)
    a = 2.0 * r * np.cos(np.arccos(x) / 3.0 - 2.0 * math.pi / 3.0)
    for _ in range(2):
        a -= (2.0 * mu * a**3 - (2.0 * mu + n) * a + (u - v)) / (6.0 * mu * a**2 - 2.0 * mu - n)
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
    mu = 0.5 * (a0 * (u / (1.0 + a0) - v / (1.0 - a0))).sum(axis=1)
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


def mle_state(settings: Sequence[MeasurementSetting], counts,
              tol: float = MLE_TOL, max_iters: int = MLE_MAX_ITERS) -> np.ndarray:
    """Maximum-likelihood states from counts of shape (B, N); returns (B, d, d).

    Single-qubit settings are solved exactly; ``tol`` and ``max_iters`` bound
    the R-rho-R iteration of larger states.
    """
    return _mle(settings, False, counts, tol, max_iters)


def mle_process(settings: Sequence[MeasurementSetting], counts,
                tol: float = MLE_TOL, max_iters: int = MLE_MAX_ITERS) -> np.ndarray:
    """Maximum-likelihood Choi matrices (trace free) from counts of shape (B, N)."""
    return _mle(settings, True, counts, tol, max_iters)


def channel_to_choi(operators, n: int | None = None) -> ProcessMatrix:
    """Exact Choi matrix of a channel given by Kraus operators (or one unitary).

    chi = sum_k (I (x) K_k) |Phi_n><Phi_n| (I (x) K_k)† with the input copy
    on the high qubits.
    """
    if isinstance(operators, (OperatorMatrix, np.ndarray)):
        operators = [operators]
    mats = [op.matrix if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
            for op in operators]
    if not mats:
        raise ValueError("empty Kraus list")
    d = mats[0].shape[0]
    if n is None:
        n = int(round(math.log2(d)))
    if any(m.shape != (d, d) for m in mats) or 2**n != d:
        raise ValueError("Kraus operators must be square with dimension 2^n")
    phi = max_entangled(n).amplitudes
    eye = np.eye(d, dtype=complex)
    chi = np.zeros((d * d, d * d), dtype=complex)
    for m in mats:
        v = np.kron(eye, m) @ phi
        chi += np.outer(v, v.conj())
    return ProcessMatrix(chi, n)


def _chi_array(chi) -> np.ndarray:
    return chi.chi if isinstance(chi, ProcessMatrix) else np.asarray(chi, dtype=complex)


def _positive_traces(a: np.ndarray) -> np.ndarray:
    traces = np.trace(a, axis1=-2, axis2=-1).real
    if (traces <= 0.0).any():
        raise ValueError("process matrix has nonpositive trace")
    return traces


def _scalar_or_stack(values: np.ndarray):
    return float(values) if np.ndim(values) == 0 else values


def process_fidelity(chi, chi_ideal):
    """Normalized overlap Tr[chi chi_ideal] / (Tr[chi] Tr[chi_ideal]).

    ``chi`` is one Choi matrix (a float is returned) or a (B, d, d) stack
    (a (B,) array, each row computed on its own).
    """
    a, b_mat = _chi_array(chi), _chi_array(chi_ideal)
    if a.shape[-2:] != b_mat.shape:
        raise ValueError("process matrices have different dimensions")
    overlap = np.trace(a @ b_mat, axis1=-2, axis2=-1).real
    return _scalar_or_stack(overlap / (_positive_traces(a) * _positive_traces(b_mat)))


def process_purity(chi):
    """Tr[chi^2] / Tr[chi]^2; equals 1 only for a single-Kraus operation.

    Takes one Choi matrix or a stack, as ``process_fidelity`` does.
    """
    a = _chi_array(chi)
    return _scalar_or_stack(np.trace(a @ a, axis1=-2, axis2=-1).real / _positive_traces(a)**2)


def resample_counts(counts: np.ndarray, samples: int, seed: int,
                    key: tuple[int, ...] = ()) -> np.ndarray:
    """Poisson-resampled count matrix of shape (samples, N)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(*key, 1)))
    base = np.asarray(counts, dtype=float)
    return rng.poisson(np.broadcast_to(base, (samples, base.size)))

