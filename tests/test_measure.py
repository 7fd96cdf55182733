"""Weighted-space operator tests against independent Euclidean oracles."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, lapack
from scipy.sparse import csr_matrix, issparse

from bettibound import measure
from bettibound.birman import weyl_inequality_check
from bettibound.measure import (
    DimensionMismatchError,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    certified_kernel,
    heat_difference,
    heat_difference_hs_bounds,
    heat_two_inf_norm,
    hs_norm,
    operator_norm,
    schatten_norm,
    singular_values,
    two_inf_norm,
)
from bettibound.mesh import BUILTIN_NAMES
from bettibound.perturbation import MatrixPotential

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # A stack of spaces refuses a bad weight in any one of its instances.
    for k, bad in enumerate((0.0, -1.0, np.nan)):
        weights = np.ones((3, 2))
        weights[k, 1] = bad
        with pytest.raises(ValueError, match="strictly positive"):
            WeightedFiniteSpace(weights)


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
            lhs = schatten_norm(WeightedOperator(a.matrix @ b.matrix, space, 1), p)
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


@pytest.mark.parametrize("fiber", [1, 2, 3])
def test_two_inf_spectral_matches_dense_route(fiber):
    # heat_two_inf_norm reads the norm of the semigroup from the spectrum;
    # the semigroup's matrix takes the dense block-row route and the oracle.
    rng = np.random.default_rng(115)
    space = random_space(rng, 9)
    op = random_self_adjoint(rng, space, fiber, scale=2.0)
    heat = op.semigroup(0.4).matrix
    spectral = heat_two_inf_norm(op, 0.4)
    dense = two_inf_norm(WeightedOperator(heat, space, fiber))
    assert abs(spectral - dense) <= 1e-12 * dense
    assert abs(spectral - _two_inf_oracle(heat, space, fiber)) <= 1e-12 * dense


def test_two_inf_norm_of_a_stack_is_its_instances_bit_for_bit():
    # Three operators at fiber 2 held as one (3, d, d) stack give the
    # (3,) norms each gives alone.
    rng = np.random.default_rng(119)
    weights = np.exp(rng.uniform(-1.0, 1.0, (3, 5)))
    matrices = rng.standard_normal((3, 10, 10))
    stacked = two_inf_norm(WeightedOperator(matrices, WeightedFiniteSpace(weights), 2))
    alone = [
        two_inf_norm(WeightedOperator(m, WeightedFiniteSpace(w), 2))
        for m, w in zip(matrices, weights)
    ]
    assert stacked.shape == (3,) and stacked.tobytes() == np.array(alone).tobytes()


def test_heat_difference_hs_squared_matches_dense_norm():
    rng = np.random.default_rng(117)
    space = random_space(rng, 6)
    A = random_self_adjoint(rng, space, 2)
    B = random_self_adjoint(rng, space, 2)
    spectral, lower = heat_difference_hs_bounds(A, B, 0.7, scale=0.3)
    dense = hs_norm(heat_difference(A, B, 0.7)) ** 2 / 0.3**2
    assert abs(spectral - dense) <= 1e-12 * dense
    # Operators that hold every pair give the value itself at both ends.
    assert lower == spectral
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
    assert heat_difference_hs_bounds(A, A, 1.3) == (0.0, 0.0)
    expected = np.sum((np.exp(-1.3 * A.eigenvalues) * (1.0 - np.exp(-1.3 * 0.25))) ** 2)
    assert np.isclose(heat_difference_hs_bounds(A, shifted, 1.3)[0], expected, rtol=1e-13)


def test_a_shared_eigenbasis_and_an_equal_copy_give_the_same_bits():
    # One route serves every pair: an operator holding A's very eigenvector
    # array and one holding an equal copy of it are the same operator to
    # heat_difference_hs_bounds.
    rng = np.random.default_rng(131)
    space = random_space(rng, 6)
    A = random_self_adjoint(rng, space, 1)
    shared = A.shifted(0.25)
    copied = SelfAdjointOperator.from_spectrum(
        space, shared.eigenvalues, A._euclidean_vectors.copy()
    )
    assert shared._euclidean_vectors is A._euclidean_vectors
    assert copied._euclidean_vectors is not A._euclidean_vectors
    for t, scale in ((1.3, 1.0), (0.4, 0.3)):
        assert heat_difference_hs_bounds(A, shared, t, scale) == heat_difference_hs_bounds(
            A, copied, t, scale
        )


def test_heat_difference_hs_bounds_rejects_a_negative_time():
    rng = np.random.default_rng(137)
    space = random_space(rng, 4)
    A, B = random_self_adjoint(rng, space, 1), random_self_adjoint(rng, space, 1)
    with pytest.raises(ValueError, match="semigroup time must be nonnegative"):
        heat_difference_hs_bounds(A, B, -0.5)
    with pytest.raises(ValueError, match="semigroup time must be nonnegative"):
        heat_difference_hs_bounds(A, B, np.array(-1.0))
    # Also where the operators are the same and the result would be 0.0.
    with pytest.raises(ValueError, match="semigroup time must be nonnegative"):
        heat_difference_hs_bounds(A, A, -0.5)


def test_heat_difference_hs_squared_is_zero_for_separate_eigensolves():
    rng = np.random.default_rng(121)
    for fiber in (1, 2, 3):
        space = random_space(rng, 6)
        A = random_self_adjoint(rng, space, fiber)
        B = SelfAdjointOperator(A.matrix, space, fiber)
        assert B._euclidean_vectors is not A._euclidean_vectors
        # Off the diagonal the overlap is rounding, not zero.
        overlap = B.squared_overlap(A)
        assert np.any(overlap[~np.eye(A.dim, dtype=bool)] > 0.0)
        assert heat_difference_hs_bounds(A, B, 0.9) == (0.0, 0.0)
        assert heat_difference_hs_bounds(B, A, 0.9, scale=0.1) == (0.0, 0.0)


def _three_operators(rng, weights, fiber, source):
    """Three operators with kernels of dimension 0, 2 and 1 on the spaces of
    ``weights`` (3, N), each built alone and all three as one stack."""
    dim = weights.shape[1] * fiber
    evals = np.stack(
        [np.sort(np.append(np.zeros(k), rng.uniform(0.5, 4.0, dim - k))) for k in (0, 2, 1)]
    )
    q = np.linalg.qr(rng.standard_normal((3, dim, dim)))[0]
    spaces, stacked = [WeightedFiniteSpace(w) for w in weights], WeightedFiniteSpace(weights)
    if source == "spectrum":
        alone = [SelfAdjointOperator.from_spectrum(*part, fiber) for part in zip(spaces, evals, q)]
        return alone, SelfAdjointOperator.from_spectrum(stacked, evals, q, fiber)
    sqrt_w = np.sqrt(np.repeat(weights, fiber, axis=-1))
    matrices = (q * evals[:, None, :]) @ q.swapaxes(-1, -2)
    matrices = matrices / sqrt_w[:, :, None] * sqrt_w[:, None, :]
    alone = [SelfAdjointOperator(m, s, fiber) for m, s in zip(matrices, spaces)]
    return alone, SelfAdjointOperator(matrices, stacked, fiber)


@pytest.mark.parametrize("source", ["matrices", "spectrum"])
@pytest.mark.parametrize("fiber", [1, 2])
def test_a_stack_is_its_instances_bit_for_bit(fiber, source):
    rng = np.random.default_rng(143 + fiber)
    weights = np.exp(rng.uniform(-1.0, 1.0, (3, 4)))
    alone, stack = _three_operators(rng, weights, fiber, source)
    others, other = _three_operators(rng, weights, fiber, source)
    t, scale = np.array([0.3, 1.0, 2.5]), np.array([1.0, 0.4, 2.0])
    stacked = {
        "eigenvalues": stack.eigenvalues,
        "basis": stack.basis,
        "matrix": stack.matrix,
        "semigroup matrix": stack.semigroup(t).matrix,
        "heat_two_inf_norm": heat_two_inf_norm(stack, t),
        "kernel_dim": stack.kernel_dim(),
        "zero_threshold": stack.zero_threshold(),
        "min_eigenvalue": stack.min_eigenvalue,
        "squared_overlap": stack.squared_overlap(other),
        "hs bounds": np.stack(measure.heat_difference_hs_bounds(stack, other, t, scale), -1),
    }
    assert list(stacked["kernel_dim"]) == [0, 2, 1]
    for k, (a, b) in enumerate(zip(alone, others)):
        single = {
            "eigenvalues": a.eigenvalues,
            "basis": a.basis,
            "matrix": a.matrix,
            "semigroup matrix": a.semigroup(t[k]).matrix,
            "heat_two_inf_norm": heat_two_inf_norm(a, t[k]),
            "kernel_dim": a.kernel_dim(),
            "zero_threshold": a.zero_threshold(),
            "min_eigenvalue": a.min_eigenvalue,
            "squared_overlap": a.squared_overlap(b),
            "hs bounds": measure.heat_difference_hs_bounds(a, b, t[k], scale[k]),
        }
        for name, value in single.items():
            row = np.asarray(stacked[name][k])
            assert row.tobytes() == np.asarray(value, dtype=row.dtype).tobytes(), (name, k)


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
        norms = measure._residual_norms(evals, q, conj)
        bound = measure._reconstruction_bound(norms, measure._frobenius(conj), loss)
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

    values = rng.standard_normal((points, fiber))
    reference = dense.apply_array(values)
    tol = 1e-13 * (1.0 + np.max(np.abs(reference)))
    assert np.max(np.abs(sparse.apply_array(values) - reference)) <= tol
    other = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
    for left, right in ((sparse, other), (other, sparse), (sparse, sparse)):
        composed = left.matrix @ right.matrix
        composed = composed.toarray() if issparse(composed) else composed
        reference = (dense.matrix if left is sparse else other.matrix) @ (
            dense.matrix if right is sparse else other.matrix
        )
        assert np.max(np.abs(composed - reference)) <= 1e-13 * (1.0 + np.max(np.abs(reference)))

    assert weyl_inequality_check(sparse, (2.0,)) == weyl_inequality_check(dense, (2.0,))

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


# -- in-place eigensolve ---------------------------------------------------------


_SAME_EIGENDATA_PROBE = """
import json, sys
import numpy as np
from scipy.sparse import diags
from bettibound import measure
from bettibound.measure import WeightedOperator

def inputs(kind, arg):
    if kind == "dense":
        n = int(arg)
        a = np.random.default_rng(n).standard_normal((n, n))
        return [a + a.T]
    # The two eigensolves of the DEC: the comparison operator L0 + K and
    # the face Laplacian L2, on their conjugated CSR matrices.
    from bettibound.mesh import builtin_mesh
    from bettibound.pipeline import prepare_surface
    data = prepare_surface(builtin_mesh(arg))
    dec = data.dec
    comparison = dec.laplacian0_matrix() + diags(data.curvature.values)
    return [
        WeightedOperator(comparison, dec.vertex_space()).conjugated(),
        WeightedOperator(dec.laplacian2_matrix(), dec.face_space()).conjugated(),
    ]

results = []
for conj in inputs(*sys.argv[1:]):
    want_values, want_vectors = np.linalg.eigh(measure._dense(0.5 * (conj + conj.T)))
    values, vectors = measure._eigh_in_place(conj)
    results.append(dict(
        values_equal=bool(np.array_equal(values, want_values)),
        vectors_equal=bool(np.array_equal(vectors, want_vectors)),
        c_contiguous=bool(vectors.flags.c_contiguous),
        repeated=bool(np.any(np.diff(values) <= 1e-12 * values[-1])),
    ))
print(json.dumps(results))
"""


def _assert_same_eigendata(kind, arg):
    """``_eigh_in_place`` returns ``np.linalg.eigh`` of 0.5 (S + S^T), bit for bit.

    Both run in a child interpreter on one BLAS thread, as the golden
    reports do: numpy's and scipy's OpenBLAS builds each change their bits
    with the thread count, and need not split the work alike.  Returns,
    per input, whether its spectrum has a repeated eigenvalue.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-c", _SAME_EIGENDATA_PROBE, kind, str(arg)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    results = json.loads(child.stdout)
    for result in results:
        assert result["values_equal"]
        assert result["vectors_equal"]
        assert result["c_contiguous"]
    return [result["repeated"] for result in results]


@pytest.mark.parametrize("n", [1, 2, 7, 60, 300])
def test_in_place_eigensolve_matches_numpy_on_dense_input(n):
    _assert_same_eigendata("dense", n)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_in_place_eigensolve_matches_numpy_on_builtin_operators(name):
    repeated, _ = _assert_same_eigendata("builtin", name)
    if name == "flat-torus":
        # K = 0, so L0 + K is L0, whose spectrum on the square grid repeats.
        assert repeated


def test_in_place_eigensolve_overwrites_one_fortran_buffer(monkeypatch):
    calls = []
    dsyevd = lapack.dsyevd

    def spy(a, **kwargs):
        result = dsyevd(a, **kwargs)
        calls.append((a, kwargs, result[1]))
        return result

    monkeypatch.setattr(lapack, "dsyevd", spy)
    rng = np.random.default_rng(5)
    values, vectors = measure._eigh_in_place(rng.standard_normal((9, 9)))
    [(buffer, kwargs, returned)] = calls
    assert buffer.flags.f_contiguous and not buffer.flags.c_contiguous
    assert kwargs == dict(compute_v=1, lower=1, overwrite_a=1)
    assert np.shares_memory(returned, buffer)
    assert vectors.flags.c_contiguous and not np.shares_memory(vectors, buffer)


def test_in_place_eigensolve_raises_when_lapack_fails(monkeypatch):
    dsyevd = lapack.dsyevd
    monkeypatch.setattr(lapack, "dsyevd", lambda a, **kw: (*dsyevd(a, **kw)[:2], 1))
    with pytest.raises(np.linalg.LinAlgError):
        SelfAdjointOperator(np.eye(3), WeightedFiniteSpace(np.ones(3)))


_PEAK_PROBE = """
import re, sys
import numpy as np
from scipy.sparse import random as sparse_random
from bettibound.measure import SelfAdjointOperator, WeightedFiniteSpace

def status(key):
    with open("/proc/self/status") as f:
        return 1024 * int(re.search(key + r":\\s+(\\d+) kB", f.read()).group(1))

n = int(sys.argv[1])
# Page in the libraries and their buffers before the measurement.
SelfAdjointOperator(np.diag(np.arange(64.0)), WeightedFiniteSpace(np.ones(64)))
part = sparse_random(n, n, density=0.005, random_state=0, format="csr")
matrix = (part + part.T).tocsr()
space = WeightedFiniteSpace(np.ones(n))
cutoff = float(sys.argv[2]) if len(sys.argv) > 2 else float("inf")
start = status("VmRSS")
op = SelfAdjointOperator(matrix, space, cutoff=cutoff)
print(status("VmHWM") - start, op.eigenvalues.size)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_sparse_operator_eigensolve_peaks_below_four_dense_copies():
    # The densified input, overwritten by its eigenvectors, and xSYEVD's
    # 1 + 6n + 2n^2 workspace: about 3 n^2 doubles.  An out-of-place
    # eigensolve of a dense copy keeps about 5 n^2.
    n = 1200
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, str(n)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    rise, pairs = map(int, result.stdout.split())
    square = 8 * n * n
    # Above 2 n^2, so the eigensolve's peak is the one measured.
    assert pairs == n
    assert 2 * square < rise < 4 * square


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_cut_off_eigensolve_peaks_below_two_dense_copies():
    # Below the cut-off only the densified input, reduced in place, and the
    # n x (K + 1) eigenvectors are alive: about n^2 doubles, where the
    # full in-place eigensolve keeps about 3 n^2.
    n = 1200
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, str(n), "-3.0"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    rise, pairs = map(int, result.stdout.split())
    square = 8 * n * n
    assert 0 < pairs < n // 10
    assert square < rise < 2 * square


# -- operators cut off below sigma -------------------------------------------


def _planted_operator(spectrum, seed=3, fiber=1, sparse=False, space=None):
    """(matrix, space, fiber) of a self-adjoint operator with this spectrum, on
    ``space`` or a random weighted space."""
    rng = np.random.default_rng(seed)
    dim = len(spectrum)
    space = random_space(rng, dim // fiber) if space is None else space
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    sqrt_w = np.sqrt(space.stacked_weights(fiber))
    matrix = (((q * np.asarray(spectrum)) @ q.T) / sqrt_w[:, None]) * sqrt_w[None, :]
    return (csr_matrix(matrix) if sparse else matrix), space, fiber


_SPECTRUM = np.concatenate([[0.0, 0.0], np.linspace(0.5, 40.0, 58)])


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("cutoff", [0.25, 3.0, 20.0])
def test_cut_off_operator_holds_exactly_the_pairs_below_it(sparse, cutoff):
    matrix, space, fiber = _planted_operator(_SPECTRUM, fiber=2, sparse=sparse)
    full = SelfAdjointOperator(matrix, space, fiber)
    part = SelfAdjointOperator(matrix, space, fiber, cutoff=cutoff)
    k = int(np.count_nonzero(_SPECTRUM < cutoff))
    assert part.partial and part.cutoff == cutoff and not full.partial
    assert part.eigenvalues.size == k and part.basis.shape == (60, k)
    assert np.allclose(part.eigenvalues, full.eigenvalues[:k], rtol=0.0, atol=1e-12)
    # The kept vectors span the same space as the full operator's first k.
    cosines = np.linalg.svd(full._euclidean_vectors[:, :k].T @ part._euclidean_vectors)[1]
    assert np.allclose(cosines, 1.0, atol=1e-10)
    assert part.orthogonality_loss <= 1e-10 and part.residual_norms.shape == (k,)
    s = full.conjugated()
    s = s.toarray() if sparse else s
    radius = float(np.max(np.sum(np.abs(0.5 * (s + s.T)), axis=0)))
    assert part.zero_threshold() == measure.ZERO_TOL * (1.0 + radius)
    assert part.min_eigenvalue == part.eigenvalues[0] and part.kernel_dim() == 2


@pytest.mark.parametrize("where", ["radius", "above-spectrum"])
def test_cut_off_above_every_eigenvalue_is_the_full_operator_bit_for_bit(monkeypatch, where):
    # At or above the radius bound no factorization runs; between the largest
    # eigenvalue and the radius bound the inertia counts all N.  Either way
    # the operator is the one the default cut-off gives, bit for bit.
    matrix, space, fiber = _planted_operator(_SPECTRUM, sparse=True)
    full = SelfAdjointOperator(matrix, space, fiber)
    s = full.conjugated()
    radius = float(np.max(abs(0.5 * (s + s.T)) @ np.ones(s.shape[0])))
    cutoff = radius if where == "radius" else 40.5
    assert cutoff < radius or where == "radius"
    factored = []
    inertia = measure._inertia
    monkeypatch.setattr(measure, "_inertia", lambda *a: factored.append(a) or inertia(*a))
    part = SelfAdjointOperator(matrix, space, fiber, cutoff=cutoff)
    assert len(factored) == (0 if where == "radius" else 1)
    assert not part.partial and part.cutoff == np.inf
    assert np.array_equal(part.eigenvalues, full.eigenvalues)
    assert np.array_equal(part._euclidean_vectors, full._euclidean_vectors)
    assert np.array_equal(part.residual_norms, full.residual_norms)
    assert part.orthogonality_loss == full.orthogonality_loss


def test_cut_off_below_the_spectrum_holds_no_pair():
    matrix, space, fiber = _planted_operator(_SPECTRUM + 1.0)
    part = SelfAdjointOperator(matrix, space, fiber, cutoff=0.75)
    assert part.partial and part.eigenvalues.size == 0
    assert part.basis.shape == (60, 0) and part.orthogonality_loss == 0.0
    # Every eigenvalue is at or above the cut-off, and it stands in for the lowest.
    assert part.min_eigenvalue == 0.75
    a = SelfAdjointOperator(*_planted_operator(_SPECTRUM, seed=4, space=space))
    f = np.exp(-2.0 * a.eigenvalues)
    full = heat_difference_hs_bounds(a, SelfAdjointOperator(matrix, space, fiber), 2.0)[0]
    upper, lower = measure.heat_difference_hs_bounds(a, part, 2.0)
    tail = np.exp(-2.0 * 0.75)
    assert upper == pytest.approx(np.sum(np.maximum(f, tail) ** 2), rel=1e-15)
    assert lower == pytest.approx(np.sum(np.maximum(f - tail, 0.0) ** 2), rel=1e-15)
    assert lower <= full <= upper


@pytest.mark.parametrize("seed", range(4))
def test_heat_difference_hs_bounds_enclose_the_full_value(seed):
    # B = A + V with V >= 0: the enclosure from B's pairs below each cut-off
    # holds the value from all of B's pairs, and narrows as the cut-off rises
    # until it is that value, from every pair.
    rng = np.random.default_rng(seed)
    matrix, space, fiber = _planted_operator(_SPECTRUM, seed=seed)
    a = SelfAdjointOperator(matrix, space, fiber)
    perturbed = MatrixPotential.from_scalar_field(space, rng.uniform(0.0, 3.0, 60), nonneg=True)
    full_b = perturbed.added_to(a)
    for t, scale in ((0.5, 1.0), (2.0, 0.3)):
        full = heat_difference_hs_bounds(a, full_b, t, scale)[0]
        assert measure.heat_difference_hs_bounds(a, full_b, t, scale) == (full, full)
        widths = []
        for cutoff in (1.0, 4.0, 16.0, 64.0):
            part = perturbed.added_to(a, cutoff)
            upper, lower = measure.heat_difference_hs_bounds(a, part, t, scale)
            assert lower <= full * (1.0 + 1e-13) and full <= upper * (1.0 + 1e-13)
            widths.append(upper - lower)
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == 0.0 and not perturbed.added_to(a, 64.0).partial


def _full_a_bounds(a, b, t, scale):
    """The enclosure as it was computed while A had to hold every pair."""
    f, g = np.exp(-t * a.eigenvalues), np.exp(-t * b.eigenvalues)
    scale = np.asarray(scale, dtype=float)[..., None]
    overlap = b.squared_overlap(a)
    known = measure._overlap_sum(f, g, scale[..., None], overlap)
    if not b.partial:
        return known, known
    rest, loss = np.maximum(0.0, 1.0 - overlap.sum(axis=-1)), b.orthogonality_loss
    tail = math.exp(-t * b.cutoff)
    upper = known + np.sum((rest + loss) * (np.maximum(f, tail) / scale) ** 2, axis=-1)
    lower = known + np.sum(
        np.maximum(0.0, rest - loss) * (np.maximum(f - tail, 0.0) / scale) ** 2, axis=-1
    )
    return upper, lower


@pytest.mark.parametrize("seed", range(6))
def test_heat_difference_hs_bounds_enclose_with_partial_a_and_b(seed):
    # Random pairs with known full spectra, A and B each full or cut off at a
    # random sigma: the dense Hilbert-Schmidt norm lies between the two
    # ends.  A full A gives the bits of the formula that needed one, and
    # A is B gives exactly 0.0, partial or not.
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(8, 40))
    spectrum_a = np.sort(np.concatenate([[0.0], rng.uniform(0.0, 30.0, dim - 1)]))
    matrix_a, space, fiber = _planted_operator(spectrum_a, seed=seed, sparse=True)
    spectrum_b = np.sort(rng.uniform(0.2, 30.0, dim))
    matrix_b = _planted_operator(spectrum_b, seed=seed + 50, sparse=True, space=space)[0]
    full_a = SelfAdjointOperator(matrix_a, space, fiber)
    full_b = SelfAdjointOperator(matrix_b, space, fiber)
    for t, scale in ((float(rng.uniform(0.02, 0.5)), 1.0), (float(rng.uniform(0.1, 2.0)), 0.7)):
        heat = heat_difference(full_a, full_b, t).conjugated() / scale
        exact = float(np.sum(heat * heat))
        for trial in range(4):
            cut_a, cut_b = rng.uniform(0.5, 0.9 * min(spectrum_a[-1], spectrum_b[-1]), 2)
            a, b = full_a, full_b
            if trial >= 2:
                a = SelfAdjointOperator(matrix_a, space, fiber, cutoff=cut_a)
            if trial % 2:
                b = SelfAdjointOperator(matrix_b, space, fiber, cutoff=cut_b)
            assert (a.partial, b.partial) == (trial >= 2, trial % 2 == 1)
            upper, lower = measure.heat_difference_hs_bounds(a, b, t, scale)
            assert lower <= exact * (1.0 + 1e-12) + 1e-15
            assert exact <= upper * (1.0 + 1e-12) + 1e-15
            assert lower <= upper
            if not a.partial:
                assert (upper, lower) == _full_a_bounds(a, b, t, scale)
            assert measure.heat_difference_hs_bounds(a, a, t, scale) == (0.0, 0.0)


def test_pairs_both_operators_drop_are_enclosed():
    # A and B share their eigenvectors, and each pair A drops meets a pair B
    # drops: only the N (max(f^, g^)/scale)^2 term of the upper end holds
    # their weight, here most of the value.
    spectrum_a = np.concatenate([[0.0, 0.5], np.linspace(5.0, 9.0, 18)])
    spectrum_b = np.concatenate([[1.0, 1.5], np.linspace(50.0, 90.0, 18)])
    matrix_a, space, fiber = _planted_operator(spectrum_a, seed=5, sparse=True)
    matrix_b, space_b, _ = _planted_operator(spectrum_b, seed=5, sparse=True)
    assert space.same_as(space_b)
    a = SelfAdjointOperator(matrix_a, space, fiber, cutoff=4.0)
    b = SelfAdjointOperator(matrix_b, space, fiber, cutoff=20.0)
    assert a.eigenvalues.size == b.eigenvalues.size == 2
    t = 0.1
    exact = float(np.sum((np.exp(-t * spectrum_a) - np.exp(-t * spectrum_b)) ** 2))
    upper, lower = measure.heat_difference_hs_bounds(a, b, t)
    known = float(np.sum((np.exp(-t * spectrum_a[:2]) - np.exp(-t * spectrum_b[:2])) ** 2))
    assert known < 0.1 * exact
    assert lower <= exact <= upper <= known + 20 * np.exp(-2 * t * 4.0) * (1.0 + 1e-12)


def test_partial_a_bounds_narrow_to_the_value_as_its_cut_off_rises():
    # With B = A + V full, the enclosure from A's pairs below a rising
    # cut-off narrows, and a cut-off above A's spectrum is the full A's value.
    matrix, space, fiber = _planted_operator(_SPECTRUM)
    a = SelfAdjointOperator(matrix, space, fiber)
    potential = MatrixPotential.from_scalar_field(
        space, np.random.default_rng(7).uniform(0.0, 3.0, 60), nonneg=True
    )
    b = potential.added_to(a)
    full = heat_difference_hs_bounds(a, b, 1.0)[0]
    widths = []
    for cutoff in (1.0, 4.0, 16.0, 41.0):
        part = SelfAdjointOperator(matrix, space, fiber, cutoff=cutoff)
        upper, lower = measure.heat_difference_hs_bounds(part, b, 1.0)
        assert lower <= full * (1.0 + 1e-13) and full <= upper * (1.0 + 1e-13)
        widths.append(upper - lower)
    assert widths == sorted(widths, reverse=True) and widths[-1] <= 1e-13 * full


def test_partial_heat_two_inf_norm_bounds_the_full_one_from_above():
    # The pairs below a rising cut-off, with the tail term
    # e^(-2 t sigma) max(0, 1/m_x - sum_k U_xk^2), bound the squared norm
    # from above and narrow to it; no pair below the cut-off leaves the
    # tail term alone, e^(-t sigma) max_x m_x^(-1/2), and a cut-off above
    # the spectrum is the full operator.
    matrix, space, _ = _planted_operator(_SPECTRUM, sparse=True)
    full = SelfAdjointOperator(matrix, space)
    t = 0.5
    exact = measure.heat_two_inf_norm(full, t)
    assert exact == pytest.approx(two_inf_norm(full.semigroup(t)), rel=1e-14)
    excess = []
    for cutoff in (-1.0, 0.25, 3.0, 20.0, 50.0):
        part = SelfAdjointOperator(matrix, space, cutoff=cutoff)
        bound = measure.heat_two_inf_norm(part, t)
        assert bound >= exact * (1.0 - 1e-14)
        excess.append(bound / exact - 1.0)
    empty = SelfAdjointOperator(matrix, space, cutoff=-1.0)
    assert empty.eigenvalues.size == 0
    expected = math.exp(t) / math.sqrt(float(np.min(space.weights)))
    assert measure.heat_two_inf_norm(empty, t) == pytest.approx(expected, rel=1e-14)
    assert excess == sorted(excess, reverse=True) and abs(excess[-1]) <= 1e-14
    # At a large t only the two-dimensional kernel is left.
    kernel = math.sqrt(float(np.max(np.sum(full.basis[:, :2] ** 2, axis=1))))
    assert measure.heat_two_inf_norm(full, 1e4) == pytest.approx(kernel, rel=1e-9)


def _row_sum_threshold(s):
    # Column sums of the symmetric half: every row summed in index order.
    s = s.toarray() if issparse(s) else s
    half = 0.5 * (s + s.swapaxes(-1, -2))
    return measure.ZERO_TOL * (1.0 + np.max(np.sum(np.abs(half), axis=-2), axis=-1))


def test_one_zero_threshold_from_the_row_sum_bound():
    # Every operator counts an eigenvalue as zero below ZERO_TOL (1 + r), r
    # the largest absolute row sum of (S + S^T) / 2: full CSR and dense, a
    # stack, one built from its spectrum, and the certified kernel count.
    # An eigenvalue e planted between ZERO_TOL (1 + spectral radius) and
    # that threshold counts as zero for each of them.
    rng = np.random.default_rng(211)
    q = np.linalg.qr(rng.standard_normal((3, 6, 6)))[0]
    evals = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    low = measure.ZERO_TOL * (1.0 + 4.0)
    evals[1] = 0.5 * (low + np.min(_row_sum_threshold((q * evals) @ q.swapaxes(-1, -2))))
    s = (q * evals) @ q.swapaxes(-1, -2)
    s = 0.5 * (s + s.swapaxes(-1, -2))
    thresholds = _row_sum_threshold(s)
    assert np.all(low < evals[1]) and np.all(evals[1] < thresholds)

    space = WeightedFiniteSpace(np.ones(6))
    for k in range(3):
        dense = SelfAdjointOperator(s[k], space)
        sparse = SelfAdjointOperator(csr_matrix(s[k]), space)
        spectrum = SelfAdjointOperator.from_spectrum(space, evals, q[k])
        for op in (dense, spectrum):
            assert op.zero_threshold() == _row_sum_threshold(op.conjugated())
        # CSR sums each row in the same order as the dense copy: the same bits.
        assert sparse.zero_threshold() == thresholds[k]
        assert dense.zero_threshold() == thresholds[k]
        assert dense.kernel_dim() == sparse.kernel_dim() == spectrum.kernel_dim() == 2
        assert certified_kernel(sparse.conjugated())[0].shape[1] == 2
    weights = np.exp(rng.uniform(-1.0, 1.0, (3, 6)))
    sqrt_w = np.sqrt(weights)
    matrices = s / sqrt_w[:, :, None] * sqrt_w[:, None, :]
    stack = SelfAdjointOperator(matrices, WeightedFiniteSpace(weights))
    assert stack.zero_threshold().tobytes() == _row_sum_threshold(stack.conjugated()).tobytes()
    assert list(stack.kernel_dim()) == [2, 2, 2]


def test_squared_overlap_of_partial_operators_is_the_block_of_the_full_one():
    # Simple eigenvalues fix each eigenvector up to sign, which squaring
    # removes, so the overlap of the kept vectors is the full overlap's
    # leading K_a x K_b block.
    spectrum = np.linspace(0.5, 40.0, 60)
    matrix_a, space, fiber = _planted_operator(spectrum, seed=5)
    matrix_b, _, _ = _planted_operator(spectrum[::-1] ** 0.5, seed=6, space=space)
    part_a = SelfAdjointOperator(matrix_a, space, fiber, cutoff=12.0)
    part_b = SelfAdjointOperator(matrix_b, space, fiber, cutoff=4.0)
    k_a, k_b = part_a.eigenvalues.size, part_b.eigenvalues.size
    assert part_a.partial and part_b.partial and 0 < k_a < 60 and 0 < k_b < 60
    block = SelfAdjointOperator(matrix_b, space, fiber).squared_overlap(
        SelfAdjointOperator(matrix_a, space, fiber)
    )[:k_a, :k_b]
    overlap = part_b.squared_overlap(part_a)
    assert overlap.shape == (k_a, k_b)
    assert np.max(np.abs(overlap - block)) <= 1e-12


def test_partial_operator_refuses_every_full_spectrum_method():
    matrix, space, fiber = _planted_operator(_SPECTRUM)
    full = SelfAdjointOperator(matrix, space, fiber)
    part = SelfAdjointOperator(matrix, space, fiber, cutoff=3.0)
    part_fiber2 = SelfAdjointOperator(*_planted_operator(_SPECTRUM, fiber=2), cutoff=3.0)
    calls = {
        "spectral_function": lambda: part.spectral_function(np.abs),
        "semigroup": lambda: part.semigroup(1.0),
        "shifted": lambda: part.shifted(1.0),
        "kernel_basis": lambda: part.kernel_basis(),
        "heat_difference": lambda: heat_difference(full, part, 1.0),
        "heat_two_inf_norm at fiber 2": lambda: heat_two_inf_norm(part_fiber2, 1.0),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="needs every eigenpair"):
            call()
        assert name
    # A partial operator's matrix is the one it was built from, which the
    # dense 2->inf norm reads as it reads the full operator's.
    assert two_inf_norm(part) == two_inf_norm(full)


@pytest.mark.parametrize("miscount", [-1, 1], ids=["inertia-low", "inertia-high"])
def test_cut_off_refuses_an_inertia_count_the_solver_does_not_confirm(monkeypatch, miscount):
    # The solver is asked for one pair more than the inertia counts below the
    # cut-off: the last must lie at or above it, the one before below it.
    matrix, space, fiber = _planted_operator(_SPECTRUM, sparse=True)
    inertia = measure._inertia

    def miscounting(permuted, sigma):
        lu, below = inertia(permuted, sigma)
        return lu, below + miscount

    monkeypatch.setattr(measure, "_inertia", miscounting)
    with pytest.raises(ValueError, match="cut-off 3 not certified: the inertia counts"):
        SelfAdjointOperator(matrix, space, fiber, cutoff=3.0)


def test_cut_off_at_an_eigenvalue_is_refused():
    # S - sigma I is then exactly singular: the inertia count cannot be read.
    space = WeightedFiniteSpace(np.ones(4))
    with pytest.raises(ValueError, match="inertia count failed at the shift 2"):
        SelfAdjointOperator(np.diag([1.0, 2.0, 3.0, 4.0]), space, cutoff=2.0)

