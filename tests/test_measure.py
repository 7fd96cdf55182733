"""Weighted-space operator tests against independent Euclidean oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix, issparse

from bettibound import measure
from bettibound.birman import weyl_inequality_check
from bettibound.measure import (
    DimensionMismatchError,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    heat_difference,
    heat_difference_hs_squared,
    hs_norm,
    one_two_norm,
    operator_norm,
    schatten_norm,
    singular_values,
    two_inf_norm,
)
from bettibound.perturbation import MatrixPotential


def random_space(rng, n_points):
    return WeightedFiniteSpace(np.exp(rng.uniform(-1.0, 1.0, n_points)))


def random_self_adjoint(rng, space, fiber, scale=1.0):
    dim = space.point_count * fiber
    sym = rng.standard_normal((dim, dim))
    sym = 0.5 * (sym + sym.T) * scale
    sqrt_w = np.sqrt(space.stacked_weights(fiber))
    mat = (sym / sqrt_w[:, None]) * sqrt_w[None, :]
    return SelfAdjointOperator(mat, space, fiber)


# -- weighted space --------------------------------------------------------


def test_space_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        WeightedFiniteSpace([1.0, 0.0])


# -- semigroup -------------------------------------------------------------


def test_semigroup_of_zero_operator_is_identity():
    space = WeightedFiniteSpace([1.0, 2.0, 0.5])
    zero = SelfAdjointOperator(np.zeros((3, 3)), space)
    assert np.allclose(zero.semigroup(3.7).matrix, np.eye(3), atol=1e-14)


def test_semigroup_scalar_exponential():
    space = WeightedFiniteSpace([1.0])
    op = SelfAdjointOperator([[1.0]], space)
    assert np.isclose(op.semigroup(np.log(2.0)).matrix[0, 0], 0.5, rtol=1e-14)


def test_semigroup_matches_expm_oracle():
    rng = np.random.default_rng(21)
    space = random_space(rng, 7)
    op = random_self_adjoint(rng, space, 2, scale=1.5)
    ours = op.semigroup(0.7).matrix
    oracle = expm(-0.7 * op.matrix)  # scaling-and-squaring, independent path
    assert np.max(np.abs(ours - oracle)) <= 1e-9 * (1 + np.max(np.abs(oracle)))


def test_semigroup_rejects_negative_time():
    op = SelfAdjointOperator([[1.0]], WeightedFiniteSpace([1.0]))
    with pytest.raises(ValueError):
        op.semigroup(-0.1)


def test_semigroup_property():
    rng = np.random.default_rng(31)
    space = random_space(rng, 6)
    op = random_self_adjoint(rng, space, 2)
    s, t = 0.4, 1.1
    lhs = op.semigroup(s).matrix @ op.semigroup(t).matrix
    rhs = op.semigroup(s + t).matrix
    gap = operator_norm(WeightedOperator(lhs - rhs, space, 2))
    assert gap <= 1e-10


def test_spectral_mapping_is_elementwise_exponential():
    rng = np.random.default_rng(41)
    space = random_space(rng, 8)
    op = random_self_adjoint(rng, space, 1, scale=2.0)
    t = 0.9
    heat = op.semigroup(t)
    expected = np.sort(np.exp(-t * op.eigenvalues))
    assert np.allclose(heat.eigenvalues, expected, rtol=1e-12, atol=0.0)


def test_kernel_multiplicity_preserved_by_semigroup():
    rng = np.random.default_rng(51)
    space = random_space(rng, 5)
    dim = 10
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = np.array([0.0, 0.0, 0.0, 0.7, 0.7, 1.3, 2.1, 3.0, 4.5, 6.0])
    op = SelfAdjointOperator.from_spectrum(space, evals, q, fiber=2)
    t = 0.8
    heat = op.semigroup(t)
    # Each eigenvalue lam of multiplicity k becomes exp(-t lam), still k-fold.
    for lam, mult in ((0.0, 3), (0.7, 2), (1.3, 1)):
        assert heat.shifted(-np.exp(-t * lam)).kernel_dim() == mult
    assert op.kernel_dim() == 3


def test_constructor_rejects_non_self_adjoint():
    space = WeightedFiniteSpace([1.0, 1.0])
    with pytest.raises(ValueError):
        SelfAdjointOperator([[0.0, 1.0], [0.0, 0.0]], space)


@pytest.mark.parametrize(
    "basis",
    [
        np.eye(3)[:, [0, 0, 2]],  # two equal columns
        np.full((3, 3), np.nan),
    ],
    ids=["repeated-column", "nan"],
)
def test_from_spectrum_rejects_bad_basis(basis):
    space = WeightedFiniteSpace([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SelfAdjointOperator.from_spectrum(space, [0.0, 1.0, 2.0], basis)


def test_derived_operator_matrix_matches_dense_oracle():
    rng = np.random.default_rng(43)
    space = random_space(rng, 6)
    op = random_self_adjoint(rng, space, 2)
    shifted = op.shifted(1.5)
    assert np.allclose(shifted.matrix, op.matrix + 1.5 * np.eye(12), atol=1e-12)
    assert np.array_equal(shifted.basis, op.basis)
    assert not shifted.matrix.flags.writeable


# -- Schatten norms ----------------------------------------------------------


def test_schatten_identity_p1():
    space = WeightedFiniteSpace([1.0, 1.0, 1.0])
    identity = SelfAdjointOperator(np.eye(3), space)
    assert schatten_norm(identity, 1.0) == 3.0


def test_schatten_3_4_5():
    space = WeightedFiniteSpace([1.0, 1.0])
    op = SelfAdjointOperator(np.diag([3.0, 4.0]), space)
    assert np.isclose(schatten_norm(op, 2.0), 5.0, rtol=1e-15)


def test_schatten_matches_svd_oracle():
    rng = np.random.default_rng(61)
    space = random_space(rng, 6)
    mat = rng.standard_normal((12, 12))
    op = WeightedOperator(mat, space, 2)
    sqrt_w = np.sqrt(space.stacked_weights(2))
    conj = (sqrt_w[:, None] * mat) / sqrt_w[None, :]
    svals = np.linalg.svd(conj, compute_uv=False)
    for p in (1.0, 1.7, 2.0, 3.0):
        oracle = float(np.sum(svals**p) ** (1.0 / p))
        assert abs(schatten_norm(op, p) - oracle) <= 1e-10 * (1 + oracle)


def test_schatten_monotone_in_p():
    rng = np.random.default_rng(71)
    space = random_space(rng, 8)
    op = WeightedOperator(rng.standard_normal((8, 8)), space, 1)
    ps = [1.0, 1.3, 2.0, 2.8, 4.0]
    values = [schatten_norm(op, p) for p in ps]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12 * (1 + hi)


def test_schatten_quasi_norm_flagged():
    op = SelfAdjointOperator([[2.0]], WeightedFiniteSpace([1.0]))
    with pytest.warns(UserWarning, match="quasi-norm"):
        value = schatten_norm(op, 0.5)
    assert np.isclose(value, 2.0)


def test_schatten_submultiplicative_with_operator_norm():
    rng = np.random.default_rng(81)
    space = random_space(rng, 7)
    for _ in range(25):
        a = WeightedOperator(rng.standard_normal((7, 7)), space, 1)
        b = WeightedOperator(rng.standard_normal((7, 7)), space, 1)
        for p in (1.0, 2.0):
            lhs = schatten_norm(a.compose(b), p)
            rhs = operator_norm(a) * schatten_norm(b, p)
            assert lhs <= rhs + 1e-9 * (1 + rhs)


def test_hs_norm_is_schatten_two():
    rng = np.random.default_rng(91)
    space = random_space(rng, 5)
    op = WeightedOperator(rng.standard_normal((10, 10)), space, 2)
    assert np.isclose(hs_norm(op), schatten_norm(op, 2.0), rtol=1e-12)


# -- 2->inf and 1->2 norms ---------------------------------------------------


def test_two_inf_identity_with_weights():
    space = WeightedFiniteSpace([1.0, 4.0])
    identity = SelfAdjointOperator(np.eye(2), space)
    # Kernel rows are delta/m(y); the largest weighted row norm is m_min^-1/2.
    assert np.isclose(two_inf_norm(identity), 1.0, rtol=1e-14)


def test_two_inf_rank_one_factorization():
    rng = np.random.default_rng(101)
    space = WeightedFiniteSpace(np.ones(6))
    g = rng.standard_normal(6)
    h = rng.standard_normal(6)
    op = WeightedOperator(np.outer(h, g), space, 1)
    expected = np.linalg.norm(g) * np.max(np.abs(h))
    assert np.isclose(two_inf_norm(op), expected, rtol=1e-12)


def _two_inf_oracle(mat, space, fiber):
    """Independent path: eigvalsh of the per-point row Gram matrices."""
    inv_m = 1.0 / space.stacked_weights(fiber)
    best = 0.0
    for x in range(space.point_count):
        block = mat[x * fiber : (x + 1) * fiber, :]
        gram = (block * inv_m[None, :]) @ block.T
        best = max(best, float(np.sqrt(np.max(np.linalg.eigvalsh(gram)))))
    return best


def test_two_inf_matches_row_oracle_and_samples():
    rng = np.random.default_rng(111)
    space = random_space(rng, 7)
    fiber = 3
    mat = rng.standard_normal((21, 21))
    op = WeightedOperator(mat, space, fiber)
    value = two_inf_norm(op)
    assert abs(value - _two_inf_oracle(mat, space, fiber)) <= 1e-10 * (1 + value)
    # Unit-ball samples can only fall below the supremum.
    w = space.stacked_weights(fiber)
    for _ in range(200):
        f = rng.standard_normal(21)
        f /= np.sqrt(np.sum(w * f * f))
        image = (mat @ f).reshape(-1, fiber)
        assert np.max(np.linalg.norm(image, axis=1)) <= value * (1 + 1e-12)


@pytest.mark.parametrize("fiber", [1, 2])
def test_two_inf_spectral_matches_dense_route(fiber):
    # A SelfAdjointOperator is read from its spectrum; the same matrix as a
    # plain WeightedOperator takes the dense block-row route.
    rng = np.random.default_rng(115)
    space = random_space(rng, 9)
    op = random_self_adjoint(rng, space, fiber, scale=2.0)
    for operator in (op, op.semigroup(0.4)):
        spectral = two_inf_norm(operator)
        dense = two_inf_norm(WeightedOperator(operator.matrix, space, fiber))
        assert abs(spectral - dense) <= 1e-12 * dense
        assert abs(spectral - _two_inf_oracle(operator.matrix, space, fiber)) <= 1e-12 * dense


def test_heat_difference_hs_squared_matches_dense_norm():
    rng = np.random.default_rng(117)
    space = random_space(rng, 6)
    A = random_self_adjoint(rng, space, 2)
    B = random_self_adjoint(rng, space, 2)
    spectral = heat_difference_hs_squared(A, B, 0.7, scale=0.3)
    dense = hs_norm(heat_difference(A, B, 0.7)) ** 2 / 0.3**2
    assert abs(spectral - dense) <= 1e-12 * dense
    # The squared overlap is doubly stochastic and kept for the next call.
    overlap = B.squared_overlap(A)
    assert np.allclose(overlap.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(overlap.sum(axis=1), 1.0, atol=1e-12)
    assert B.squared_overlap(A) is overlap


def test_shifted_operator_shares_the_eigenbasis():
    rng = np.random.default_rng(119)
    space = random_space(rng, 5)
    A = random_self_adjoint(rng, space, 1)
    shifted = A.shifted(0.25)
    assert shifted._euclidean_vectors is A._euclidean_vectors
    assert heat_difference_hs_squared(A, A, 1.3) == 0.0
    expected = np.sum((np.exp(-1.3 * A.eigenvalues) * (1.0 - np.exp(-1.3 * 0.25))) ** 2)
    assert np.isclose(heat_difference_hs_squared(A, shifted, 1.3), expected, rtol=1e-13)


def test_one_two_identity():
    space = WeightedFiniteSpace([1.0, 1.0])
    assert np.isclose(one_two_norm(SelfAdjointOperator(np.eye(2), space)), 1.0)


def test_one_two_duality_with_adjoint():
    rng = np.random.default_rng(121)
    space = random_space(rng, 6)
    op = WeightedOperator(rng.standard_normal((12, 12)), space, 2)
    assert abs(one_two_norm(op) - two_inf_norm(op.adjoint())) <= 1e-12 * (
        1 + one_two_norm(op)
    )


def test_one_two_matches_extreme_point_oracle():
    rng = np.random.default_rng(131)
    space = random_space(rng, 5)
    fiber = 2
    mat = rng.standard_normal((10, 10))
    op = WeightedOperator(mat, space, fiber)
    # Extreme points of the L1 unit ball: unit fiber vectors at one point,
    # scaled by 1/m(x); the norm of the image maximized over the fiber
    # direction is the top singular value of the weighted column block.
    sqrt_w = np.sqrt(space.stacked_weights(fiber))
    best = 0.0
    for x in range(space.point_count):
        block = sqrt_w[:, None] * mat[:, x * fiber : (x + 1) * fiber]
        top = np.linalg.svd(block, compute_uv=False)[0]
        best = max(best, top / space.weights[x])
    assert np.isclose(one_two_norm(op), best, rtol=1e-10)


def test_singular_values_symmetric_path_matches_svd():
    rng = np.random.default_rng(141)
    space = random_space(rng, 6)
    op = random_self_adjoint(rng, space, 1, scale=2.0)
    fast = singular_values(op)
    sqrt_w = np.sqrt(space.weights)
    conj = (sqrt_w[:, None] * op.matrix) / sqrt_w[None, :]
    slow = np.linalg.svd(conj, compute_uv=False)
    assert np.allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_operator_dimension_mismatch():
    space = WeightedFiniteSpace([1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        WeightedOperator(np.eye(3), space, 1)


def test_schatten_rejects_nonpositive_exponent():
    op = SelfAdjointOperator([[1.0]], WeightedFiniteSpace([1.0]))
    with pytest.raises(ValueError):
        schatten_norm(op, 0.0)
    with pytest.raises(ValueError):
        schatten_norm(op, -1.0)


# -- eigendata check and CSR operators ------------------------------------------


def _patterned_symmetric(rng, dim, density):
    """Random symmetric matrix with a random symmetric pattern and full diagonal."""
    sym = rng.standard_normal((dim, dim))
    mask = rng.random((dim, dim)) < density
    mask = mask | mask.T | np.eye(dim, dtype=bool)
    return np.where(mask, 0.5 * (sym + sym.T), 0.0)


def _accepts(evals, q, conj):
    try:
        measure._check_eigendata(evals, q, conj)
    except ValueError:
        return False
    return True


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 40),
    density=st.floats(0.05, 1.0),
    vector_error=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
    value_error=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)),
)
def test_residual_bound_dominates_reconstruction_residual(
    seed, dim, density, vector_error, value_error
):
    rng = np.random.default_rng(seed)
    sym = _patterned_symmetric(rng, dim, density)
    evals, q = np.linalg.eigh(sym)
    q = q + vector_error * rng.standard_normal(q.shape)
    evals = evals + value_error * rng.standard_normal(dim)
    reconstruction = float(np.linalg.norm((q * evals) @ q.T - sym))
    scale = float(np.linalg.norm(sym))
    gram_defect = float(np.max(np.abs(q.T @ q - np.eye(dim))))
    # The check it replaces: orthonormal to 1e-10 entrywise, and the dense
    # reconstruction within 1e-10 of the matrix.
    tol = measure.RECONSTRUCTION_TOL
    old_accepts = gram_defect <= tol and reconstruction <= tol * max(scale, 1.0)
    # The bound dominates the reconstruction residual in exact arithmetic;
    # both sides carry rounding errors of order dim * eps * ||S||_F.
    rounding = 64 * (dim + 1) * np.finfo(float).eps * max(scale, 1.0)
    loss = measure._orthogonality_loss(q)
    verdicts = []
    for conj in (sym, csr_matrix(sym)):
        bound = measure._residual_bound(evals, q, conj, loss)
        assert bound + rounding >= reconstruction
        verdicts.append(_accepts(evals, q, conj))
    assert verdicts[0] == verdicts[1]
    assert old_accepts or not verdicts[0]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(1, 20),
    fiber=st.integers(1, 2),
    density=st.floats(0.05, 1.0),
)
def test_csr_operator_matches_dense_operator(seed, points, fiber, density):
    rng = np.random.default_rng(seed)
    space = random_space(rng, points)
    dim = points * fiber
    sqrt_w = np.sqrt(space.stacked_weights(fiber))
    matrix = (_patterned_symmetric(rng, dim, density) / sqrt_w[:, None]) * sqrt_w[None, :]
    dense = SelfAdjointOperator(matrix, space, fiber)
    sparse = SelfAdjointOperator(csr_matrix(matrix), space, fiber)
    assert issparse(sparse.matrix) and issparse(sparse.conjugated())
    assert sparse.conjugated().toarray().tobytes() == dense.conjugated().tobytes()
    assert sparse.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
    assert sparse.basis.tobytes() == dense.basis.tobytes()
    assert sparse.adjoint().matrix.toarray().tobytes() == dense.adjoint().matrix.tobytes()

    values = rng.standard_normal((points, fiber))
    reference = dense.apply_array(values)
    tol = 1e-13 * (1.0 + np.max(np.abs(reference)))
    assert np.max(np.abs(sparse.apply_array(values) - reference)) <= tol
    other = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
    for left, right in ((sparse, other), (other, sparse), (sparse, sparse)):
        composed = left.compose(right).matrix
        composed = composed.toarray() if issparse(composed) else composed
        reference = (dense.matrix if left is sparse else other.matrix) @ (
            dense.matrix if right is sparse else other.matrix
        )
        assert np.max(np.abs(composed - reference)) <= 1e-13 * (1.0 + np.max(np.abs(reference)))

    assert weyl_inequality_check(sparse, 2.0) == weyl_inequality_check(dense, 2.0)

    blocks = rng.standard_normal((points, fiber, fiber))
    potential = MatrixPotential(blocks + blocks.transpose(0, 2, 1), space)
    summed, dense_summed = potential.added_to(sparse), potential.added_to(dense)
    assert issparse(summed.matrix)
    assert summed.matrix.toarray().tobytes() == dense_summed.matrix.tobytes()
    assert summed.basis.tobytes() == dense_summed.basis.tobytes()


def test_csr_operator_rejects_wrong_shape():
    space = WeightedFiniteSpace([1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        WeightedOperator(csr_matrix(np.eye(3)), space, 1)
