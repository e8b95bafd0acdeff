import math

import numpy as np
import pytest

from darkstate.qmath import (
    BASIS_LABELS,
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    PAULI,
    binary_entropy,
    concurrence,
    entanglement_of_formation,
    expand_operator,
    ket,
    max_entangled,
    partial_trace_array,
    projector,
    purity,
    state_fidelity,
)
from helpers import partial_trace, product_density, random_density_matrix, random_pure_state

COS_PI_4 = math.cos(math.pi / 4.0)


def bell_state() -> DensityMatrix:
    return DensityMatrix(projector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)))


def pure_density(psi: np.ndarray) -> DensityMatrix:
    return DensityMatrix(projector(psi))


MIXED = DensityMatrix(np.eye(2) / 2)


def cp_gate(phi: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_bell_marginals():
    rho = bell_state()
    for keep in ((0,), (1,)):
        np.testing.assert_allclose(partial_trace(rho, keep).matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho_a = random_density_matrix(1, rng)
        rho_b = random_density_matrix(1, rng)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        np.testing.assert_allclose(partial_trace(joint, (0,)).matrix, rho_a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (1,)).matrix, rho_b.matrix, atol=1e-12)


def test_partial_trace_kills_coherence_at_pi():
    # coupling at full strength to a mixed environment erases the signal coherence
    joint = np.kron(projector(ket("+")), np.eye(2) / 2)
    u = cp_gate(math.pi)
    evolved = DensityMatrix(u @ joint @ u.conj().T)
    np.testing.assert_allclose(partial_trace(evolved, (0,)).matrix,
                               np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_trace_keep_order_and_errors():
    rng = np.random.default_rng(2)
    rho = random_density_matrix(3, rng)
    kept = partial_trace(rho, (0, 2))
    assert kept.n == 2
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, ())
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, (5,))


# ---------------------------------------------------------------------------
# scalar metrics


def test_state_fidelity_trivial_cases():
    plus = ket("+")
    assert state_fidelity(projector(plus), plus) == pytest.approx(1.0, abs=1e-14)
    assert state_fidelity(MIXED.matrix, plus) == pytest.approx(0.5, abs=1e-14)


def test_dephased_plus_fidelity_and_purity():
    # phi = pi/2 coupling to a mixed environment: q = (1 + i)/2,
    # F = (1 + Re q)/2 = 0.75 and Tr[rho^2] = (1 + |q|^2)/2 = 0.75
    joint = np.kron(projector(ket("+")), np.eye(2) / 2)
    u = cp_gate(math.pi / 2.0)
    rho_s = partial_trace(DensityMatrix(u @ joint @ u.conj().T), (0,)).matrix
    assert state_fidelity(rho_s, ket("+")) == pytest.approx(0.75, abs=1e-12)
    assert purity(rho_s) == pytest.approx(0.75, abs=1e-12)


def test_fidelity_dimension_mismatch():
    # a ket of another dimension, a ket missing, and no matrix; on a Choi stack too
    chi = projector(max_entangled(1))
    for rho, psi in ((np.eye(4) / 4, ket("0")), (np.eye(2) / 2, np.ones(())),
                     (ket("0"), ket("0")), (np.stack([chi, chi]), max_entangled(3))):
        with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
            state_fidelity(rho, psi)


def test_purity_bounds():
    assert purity(bell_state().matrix) == pytest.approx(1.0, abs=1e-12)
    assert purity(MIXED.matrix) == pytest.approx(0.5, abs=1e-14)


def test_purity_one_implies_pure():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_density_matrix(2, rng, rank=rng.integers(1, 5))
        if abs(purity(rho.matrix) - 1.0) < 1e-10:
            assert np.linalg.eigvalsh(rho.matrix).max() > 1.0 - 1e-8
    pure = pure_density(random_pure_state(2, rng))
    assert abs(purity(pure.matrix) - 1.0) < 1e-10
    assert np.linalg.eigvalsh(pure.matrix).max() > 1.0 - 1e-8


def test_metrics_unitary_invariance():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(1, rng)
    psi = random_pure_state(1, rng)
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
                 dtype=complex)
    rho_u = u @ rho.matrix @ u.conj().T
    psi_u = u @ psi
    assert state_fidelity(rho_u, psi_u) == pytest.approx(state_fidelity(rho.matrix, psi),
                                                         abs=1e-12)
    assert purity(rho_u) == pytest.approx(purity(rho.matrix), abs=1e-12)


def metric_inputs(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(3, 4, d, d) states, four each of full rank, pure and rank d/2 (pure for d = 2),
    and a random ket per state, (3, 4, d)."""
    n = int(math.log2(d))
    rhos = np.stack([[random_density_matrix(n, rng, rank=rank).matrix for _ in range(4)]
                     for rank in (d, 1, max(1, d // 2))])
    kets = np.stack([[random_pure_state(n, rng) for _ in range(4)] for _ in range(3)])
    return rhos, kets


@pytest.mark.parametrize("d", [2, 4, 64])
def test_state_fidelity_and_purity_match_the_dense_references(d):
    rhos, kets = metric_inputs(d, np.random.default_rng(d))
    dense_fidelity = (kets.conj()[..., None, :] @ rhos @ kets[..., :, None])[..., 0, 0].real
    dense_purity = np.trace(rhos @ rhos, axis1=-2, axis2=-1).real
    fidelity, pure = state_fidelity(rhos, kets), purity(rhos)
    assert fidelity.shape == pure.shape == (3, 4)
    np.testing.assert_allclose(fidelity, dense_fidelity, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(pure, dense_purity, rtol=0.0, atol=1e-15)
    # a pure state has purity 1 and fidelity 1 with its own ket
    own = np.linalg.eigh(rhos[1])[1][..., -1]
    np.testing.assert_allclose(pure[1], 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(state_fidelity(rhos[1], own), 1.0, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("d", [2, 4, 64])
def test_state_fidelity_and_purity_stack_rows_match_single_calls(d):
    rhos, kets = metric_inputs(d, np.random.default_rng(10 + d))
    rhos, kets = rhos.reshape(-1, d, d), kets.reshape(-1, d)
    fidelity, pure = state_fidelity(rhos, kets), purity(rhos)
    for i, (rho, psi) in enumerate(zip(rhos, kets)):
        # one path: a single matrix is a stack of one, with a 0-d result
        single_f, single_p = state_fidelity(rho, psi), purity(rho)
        assert np.ndim(single_f) == np.ndim(single_p) == 0
        assert single_f == state_fidelity(rho[None], psi[None])[0] == fidelity[i]   # bit for bit
        assert single_p == purity(rho[None])[0] == pure[i]
    # one ket broadcasts against every row
    assert state_fidelity(rhos, kets[0]).tolist() == [state_fidelity(rho, kets[0]) for rho in rhos]
    empty = np.zeros((0, d, d))
    assert purity(empty).shape == state_fidelity(empty, kets[0]).shape == (0,)


def test_state_fidelity_rejections_and_nan_rows():
    # any row's ket off unit norm, or any row's overlap with an imaginary part, is rejected;
    # a nan row (a state without counts) reads nan and is no error
    rhos = np.stack([np.eye(2) / 2, projector(ket("+"))])
    with pytest.raises(InvalidStateError, match="state vector norm 1.1"):
        state_fidelity(rhos, np.stack([ket("0"), 1.1 * ket("0")]))
    assert state_fidelity(rhos, (1.0 + 1e-10) * ket("+"))[1] == pytest.approx(1.0, abs=1e-9)
    skew = np.array([[0.5, 0.5j], [0.0, 0.5]])   # <+|skew|+> = 0.5 + 0.25i
    with pytest.raises(InvalidStateError, match="fidelity has imaginary part 0.2"):
        state_fidelity(np.stack([rhos[0], skew]), ket("+"))
    rhos[1] = math.nan
    fidelity, pure = state_fidelity(rhos, ket("+")), purity(rhos)
    assert fidelity[0] == pytest.approx(0.5, abs=1e-15) and math.isnan(fidelity[1])
    assert pure[0] == 0.5 and math.isnan(pure[1])


# ---------------------------------------------------------------------------
# entanglement measures


def test_concurrence_bell():
    rho = bell_state().matrix
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)
    assert entanglement_of_formation(rho) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    rho = product_density("+0").matrix
    assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_of_formation(rho) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_dephased_bell():
    # one arm dephased with factor |q| = cos(pi/4): concurrence drops to |q|
    q = 0.5 * (1.0 + np.exp(1j * math.pi / 2.0))
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = chi[3, 3] = 0.5
    chi[3, 0] = 0.5 * q
    chi[0, 3] = 0.5 * np.conj(q)
    assert concurrence(chi) == pytest.approx(COS_PI_4, abs=1e-12)


def test_ef_matches_entropy_of_entanglement_for_pure_states():
    # independent cross-check: for pure states the closed form must equal
    # the von Neumann entropy of either marginal
    rng = np.random.default_rng(5)
    for _ in range(25):
        psi = random_pure_state(2, rng)
        reduced = partial_trace(pure_density(psi), (0,)).matrix
        evals = np.linalg.eigvalsh(reduced)
        evals = evals[evals > 1e-15]
        entropy = float(-(evals * np.log2(evals)).sum())
        assert entanglement_of_formation(projector(psi)) == pytest.approx(entropy, abs=1e-9)


def test_concurrence_dimension_error():
    with pytest.raises(DimensionMismatchError):
        concurrence(MIXED.matrix)
    with pytest.raises(DimensionMismatchError):
        concurrence(np.zeros((2, 3, 2, 2)))


def werner(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1 - p) I / 4; entangled exactly for p > 1/3."""
    return p * bell_state().matrix + (1.0 - p) * np.eye(4) / 4.0


def two_qubit_stack() -> np.ndarray:
    rng = np.random.default_rng(60)
    # near-pure: the 1e-15 admixture sits below the 1e-13 eigenvalue floor
    floored = (1.0 - 1e-15) * bell_state().matrix + 1e-15 * np.diag([0, 1, 0, 0])
    return np.stack([
        bell_state().matrix,
        product_density("+0").matrix,
        werner(1.0 / 3.0 - 1e-6), werner(1.0 / 3.0 + 1e-6),
        *(random_density_matrix(2, rng, rank=r).matrix for r in (1, 1, 2, 2, 4, 4)),
        floored])


def test_concurrence_stack_rows_match_single_calls():
    stack = two_qubit_stack()
    for fn in (concurrence, entanglement_of_formation):
        rows = fn(stack)
        assert isinstance(rows, np.ndarray) and rows.shape == (len(stack),)
        for i, mat in enumerate(stack):
            # one path: a single matrix is a stack of one, with a 0-d result
            single = fn(mat)
            assert np.ndim(single) == 0
            assert single == fn(mat[None])[0] == rows[i]   # bit for bit
    c = concurrence(stack)
    assert c[2] == 0.0
    assert c[3] == pytest.approx(1.5e-6, rel=1e-6)       # (3p - 1) / 2 just above 1/3
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert c[-1] == pytest.approx(1.0, abs=1e-12)


def test_concurrence_empty_stack():
    empty = np.zeros((0, 4, 4), dtype=complex)
    assert concurrence(empty).shape == (0,)
    assert entanglement_of_formation(empty).shape == (0,)


@pytest.mark.parametrize("defect,message", [
    (lambda m: m + np.triu(np.full((4, 4), 1e-9), 1), "not Hermitian"),
    (lambda m: 1.01 * m, "trace"),
    (lambda m: np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex), "negative eigenvalue"),
    # NaN fails no comparison, and eigh fails on it: checked before any other invariant
    (lambda m: np.full((4, 4), np.nan), "non-finite"),
])
def test_concurrence_stack_validates_every_row(defect, message):
    # array input is checked row by row as DensityMatrix checks its matrix
    stack = two_qubit_stack()
    stack[5] = defect(stack[5])
    with pytest.raises(InvalidStateError, match=message):
        DensityMatrix(stack[5])
    for fn in (concurrence, entanglement_of_formation):
        with pytest.raises(InvalidStateError, match=message):
            fn(stack)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    x = np.array([0.0, 1e-300, 0.25, 0.5, 0.9, 1.0 - 1e-16, 1.0])
    h = binary_entropy(x)
    assert h.shape == x.shape
    assert h.tolist() == [binary_entropy(float(v)) for v in x]
    assert h[0] == h[-1] == 0.0


# ---------------------------------------------------------------------------
# validation and helpers


def test_invariant_validation():
    with pytest.raises(InvalidStateError):
        state_fidelity(MIXED.matrix, np.array([1.0, 1.0]))  # ket not normalized
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))   # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(2))                     # trace 2
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.5, -0.5]))          # negative eigenvalue
    with pytest.raises(InvalidStateError, match="non-finite"):
        DensityMatrix(np.full((2, 2), np.nan))       # NaN passes every comparison
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(3) / 3)                 # not a qubit register


def test_all_basis_labels_normalized():
    for lab in BASIS_LABELS:
        assert np.linalg.norm(ket(lab)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(KeyError):
        ket("q")


def test_expand_operator_cnot():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    np.testing.assert_allclose(expand_operator(cnot, 2, (0, 1)), cnot, atol=1e-15)
    # reversed targets: control on the low qubit, target on the high one
    swapped = expand_operator(cnot, 2, (1, 0))
    expected = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    np.testing.assert_allclose(swapped, expected, atol=1e-15)


def test_expand_operator_middle_qubit():
    z = PAULI["z"]
    embedded = expand_operator(z, 3, (1,))
    expected = np.kron(np.kron(np.eye(2), z), np.eye(2))
    np.testing.assert_allclose(embedded, expected, atol=1e-15)
    with pytest.raises(DimensionMismatchError):
        expand_operator(z, 2, (0, 1))


def test_expand_operator_consistency_random():
    rng = np.random.default_rng(6)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full = expand_operator(op, 3, (0, 2))
    rho = random_density_matrix(3, rng).matrix
    out = full @ rho @ full.conj().T
    # check a scalar invariant against a manual permutation route
    perm = expand_operator(op, 3, (2, 0))
    assert not np.allclose(full, perm)
    assert np.isfinite(out).all()


def test_max_entangled_vector():
    np.testing.assert_allclose(max_entangled(1), np.array([1, 0, 0, 1]) / math.sqrt(2.0),
                               atol=1e-15)
    assert max_entangled(3).shape == (64,)


def test_partial_trace_array_matches_wrapper():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(2, rng)
    np.testing.assert_allclose(partial_trace_array(rho.matrix, 2, (1,)),
                               partial_trace(rho, (1,)).matrix, atol=1e-14)


def test_partial_trace_array_stack_rows_match_single_calls():
    rng = np.random.default_rng(8)
    stack = np.stack([random_density_matrix(3, rng).matrix for _ in range(4)])
    for keep in ((0,), (1,), (2,), (0, 2), (1, 2)):
        traced = partial_trace_array(stack, 3, keep)
        assert traced.shape == (4, 2 ** len(keep), 2 ** len(keep))
        for row, mat in zip(traced, stack):
            assert row.tobytes() == partial_trace_array(mat, 3, keep).tobytes()
