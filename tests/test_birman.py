"""Kernel-counting certificates on planted-kernel operator pairs."""

import numpy as np
import pytest
from scipy.linalg import expm

from bettibound.birman import (
    OperatorPair,
    birman_schwinger_bound,
    birman_schwinger_operator,
    kernel_identity_check,
    planted_kernel_operator,
    principal_angles,
    random_weighted_space,
    weyl_inequality_check,
)
from bettibound.measure import (
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    heat_difference,
    hs_norm,
    schatten_power_sum,
)


def make_pair(rng, n_points=8, fiber=2, kernel_dim=2, rho0=None, t0=None):
    space = random_weighted_space(rng, n_points)
    dim = n_points * fiber
    H = planted_kernel_operator(rng, space, fiber, kernel_dim)
    rho0 = float(rng.uniform(0.2, 2.0)) if rho0 is None else rho0
    bump = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=2.0)
    Hp = SelfAdjointOperator(H.matrix + rho0 * np.eye(dim) + bump.matrix, space, fiber)
    t0 = float(rng.uniform(0.2, 2.0)) if t0 is None else t0
    return OperatorPair(H=H, Hprime=Hp, rho0=rho0, t0=t0)


# -- semigroup difference ----------------------------------------------------


def test_difference_vanishes_for_equal_operators():
    rng = np.random.default_rng(1)
    space = random_weighted_space(rng, 5)
    H = planted_kernel_operator(rng, space, 1, 1)
    pair = OperatorPair(H=H, Hprime=H.shifted(0.5), rho0=0.5, t0=1.0)
    same = OperatorPair(H=H.shifted(0.5), Hprime=H.shifted(0.5), rho0=0.1, t0=1.0)
    diff = heat_difference(same.H, same.Hprime, 0.8)
    assert np.max(np.abs(diff.matrix)) == 0.0
    del pair


def test_difference_scalar_formula():
    space = WeightedFiniteSpace([1.0])
    pair = OperatorPair(
        H=SelfAdjointOperator([[0.0]], space),
        Hprime=SelfAdjointOperator([[0.9]], space),
        rho0=0.9,
        t0=1.0,
    )
    t = 1.4
    assert np.isclose(
        heat_difference(pair.H, pair.Hprime, t).matrix[0, 0], 1.0 - np.exp(-t * 0.9), rtol=1e-14
    )


def test_difference_matches_expm_oracle():
    rng = np.random.default_rng(2)
    pair = make_pair(rng)
    t = 0.6
    oracle = expm(-t * pair.H.matrix) - expm(-t * pair.Hprime.matrix)
    ours = heat_difference(pair.H, pair.Hprime, t).matrix
    assert np.max(np.abs(ours - oracle)) <= 1e-10 * (1 + np.max(np.abs(oracle)))


def test_pair_validation():
    space = WeightedFiniteSpace([1.0, 1.0])
    neg = SelfAdjointOperator(np.diag([-1.0, 1.0]), space)
    pos = SelfAdjointOperator(np.diag([1.0, 2.0]), space)
    with pytest.raises(ValueError):
        OperatorPair(H=neg, Hprime=pos, rho0=1.0, t0=1.0)
    with pytest.raises(ValueError):
        OperatorPair(H=pos, Hprime=pos, rho0=5.0, t0=1.0)
    # In a stack of pairs, the error names the first failing instance's numbers.
    stack = WeightedFiniteSpace(np.ones((3, 2)))
    H = SelfAdjointOperator(np.stack([np.diag([0.0, d]) for d in (1.0, 2.0, 1.0)]), stack)
    Hp = SelfAdjointOperator(np.stack([np.diag(d) for d in ([1, 2], [0.5, 3], [2, 3])]), stack)
    with pytest.raises(ValueError, match=r"rho0=0\.75 \(min eigenvalue 5\.000e-01\)"):
        OperatorPair(H=H, Hprime=Hp, rho0=np.array([1.0, 0.75, 2.5]), t0=np.ones(3))


# -- kernel identity ---------------------------------------------------------


def test_kernel_identity_trivial_kernel():
    rng = np.random.default_rng(3)
    pair = make_pair(rng, kernel_dim=0)
    result = kernel_identity_check(pair, 1.0)
    assert result["dim_ker_H"] == result["dim_ker_bs"] == 0
    assert result["match"]


def test_kernel_identity_explicit_diagonal():
    space = WeightedFiniteSpace(np.ones(4))
    H = SelfAdjointOperator(np.diag([0.0, 0.0, 1.0, 3.0]), space)
    Hp = SelfAdjointOperator(np.diag([0.5, 0.5, 1.5, 3.5]), space)
    pair = OperatorPair(H=H, Hprime=Hp, rho0=0.5, t0=1.0)
    result = kernel_identity_check(pair, 1.0)
    assert result["dim_ker_H"] == result["dim_ker_bs"] == 2
    assert result["max_principal_angle"] <= 1e-7


@pytest.mark.parametrize("kernel_dim", [0, 1, 2, 3, 4])
def test_kernel_identity_planted(kernel_dim):
    rng = np.random.default_rng(100 + kernel_dim)
    pair = make_pair(rng, n_points=10, fiber=2, kernel_dim=kernel_dim)
    result = kernel_identity_check(pair, float(rng.uniform(0.3, 1.5)))
    assert result["dim_ker_H"] == kernel_dim
    assert result["match"], result


def test_principal_angles_detect_rotation():
    space = WeightedFiniteSpace(np.ones(4))
    e1 = np.array([[1.0], [0.0], [0.0], [0.0]])
    mixed = np.array([[np.cos(0.3)], [np.sin(0.3)], [0.0], [0.0]])
    angle = principal_angles(e1, mixed, space, 1)[0]
    assert np.isclose(angle, 0.3, atol=1e-12)


# -- Schatten certificates ---------------------------------------------------


def test_scalar_saturation_is_exact():
    space = WeightedFiniteSpace([1.0])
    pair = OperatorPair(
        H=SelfAdjointOperator([[0.0]], space),
        Hprime=SelfAdjointOperator([[0.37]], space),
        rho0=0.37,
        t0=2.2,
    )
    for p in (1.0, 1.6, 2.0):
        cert = birman_schwinger_bound(pair, p)
        assert cert.kernel_dim == 1
        assert cert.bound_crude == 1.0


def test_commuting_shift_identity():
    # H' = H + rho0 makes the difference e^{-tH}(1 - e^{-t rho0}), so the
    # crude bound at p=2 collapses to the squared HS norm of e^{-t0 H}.
    rng = np.random.default_rng(4)
    space = random_weighted_space(rng, 7)
    H = planted_kernel_operator(rng, space, 2, kernel_dim=3)
    rho0, t0 = 0.8, 0.7
    pair = OperatorPair(H=H, Hprime=H.shifted(rho0), rho0=rho0, t0=t0)
    cert = birman_schwinger_bound(pair, 2.0)
    heat_sq = hs_norm(H.semigroup(t0)) ** 2
    assert np.isclose(cert.bound_crude, heat_sq, rtol=1e-10)
    assert cert.bound_crude >= H.kernel_dim()


def test_chain_small_randomized_suite():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n_points = int(rng.integers(2, 10))
        fiber = int(rng.integers(1, 4))
        kdim = int(rng.integers(0, min(4, n_points * fiber - 1) + 1))
        pair = make_pair(rng, n_points=n_points, fiber=fiber, kernel_dim=kdim)
        for p in (1.0, 2.0):
            cert = birman_schwinger_bound(pair, p)
            assert cert.kernel_dim == kdim
            tol = 1e-9 * (1.0 + cert.bound_crude)
            assert cert.kernel_dim <= cert.bound_sharp + tol
            assert cert.bound_sharp <= cert.bound_crude + tol


def test_bound_rejects_nonpositive_exponent():
    rng = np.random.default_rng(9)
    pair = make_pair(rng, kernel_dim=1)
    with pytest.raises(ValueError):
        birman_schwinger_bound(pair, 0.0)


def test_chain_holds_for_quasi_norm_exponent():
    # The counting chain is valid for any positive exponent, not only the
    # norm range p >= 1.
    rng = np.random.default_rng(10)
    for _ in range(20):
        pair = make_pair(rng, kernel_dim=int(rng.integers(0, 3)))
        cert = birman_schwinger_bound(pair, 0.5)
        tol = 1e-9 * (1.0 + cert.bound_crude)
        assert cert.kernel_dim <= cert.bound_sharp + tol
        assert cert.bound_sharp <= cert.bound_crude + tol


def test_sharp_bound_from_shared_singular_values_matches_single_p_pairs():
    # One pair answers p = 1 and p = 2 from one SVD; a fresh pair per p,
    # and the power sum of the operator itself, give the same bits.
    for seed in range(10):
        shared = make_pair(np.random.default_rng(seed), kernel_dim=seed % 3)
        certs = [birman_schwinger_bound(shared, p) for p in (1.0, 2.0)]
        for p, cert in zip((1.0, 2.0), certs):
            fresh = make_pair(np.random.default_rng(seed), kernel_dim=seed % 3)
            assert cert == birman_schwinger_bound(fresh, p)
            direct = schatten_power_sum(birman_schwinger_operator(shared, shared.t0), p)
            assert cert.bound_sharp == direct


def test_bs_operator_fixed_points_match_kernel_dim():
    rng = np.random.default_rng(6)
    pair = make_pair(rng, kernel_dim=2)
    bs = birman_schwinger_operator(pair, pair.t0)
    kernel = pair.H.kernel_basis()
    image = bs.matrix @ kernel
    assert np.max(np.abs(image - kernel)) <= 1e-8


# -- Weyl inequality ---------------------------------------------------------


def test_weyl_equality_for_normal_operator():
    rng = np.random.default_rng(7)
    space = random_weighted_space(rng, 6)
    op = planted_kernel_operator(rng, space, 1, 0)
    (result,) = weyl_inequality_check(op, (2.0,))
    assert np.isclose(
        result["eigenvalue_power_sum"], result["singular_power_sum"], rtol=1e-10
    )
    assert result["holds"]


def test_weyl_nilpotent():
    space = WeightedFiniteSpace([1.0, 1.0])
    op = WeightedOperator([[0.0, 1.0], [0.0, 0.0]], space, 1)
    (result,) = weyl_inequality_check(op, (1.0,))
    assert result["eigenvalue_power_sum"] <= 1e-12
    assert np.isclose(result["singular_power_sum"], 1.0)
    assert result["holds"]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_weyl_random_non_normal(p):
    rng = np.random.default_rng(8)
    for _ in range(40):
        space = random_weighted_space(rng, int(rng.integers(2, 9)))
        dim = space.point_count
        op = WeightedOperator(rng.standard_normal((dim, dim)), space, 1)
        assert weyl_inequality_check(op, (p,))[0]["holds"]


def test_weyl_shared_spectra_match_single_p_calls():
    rng = np.random.default_rng(11)
    exponents = (1.0, 1.5, 2.0)
    for _ in range(20):
        n_points = int(rng.integers(2, 9))
        fiber = int(rng.integers(1, 4))
        space = random_weighted_space(rng, n_points)
        dim = n_points * fiber
        op = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
        shared = weyl_inequality_check(op, exponents)
        assert shared == [weyl_inequality_check(op, (p,))[0] for p in exponents]
        moduli = np.abs(np.linalg.eigvals(op.conjugated()))
        for p, result in zip(exponents, shared):
            assert result["eigenvalue_power_sum"] == float(np.sum(moduli**p))
            assert result["singular_power_sum"] == schatten_power_sum(op, p)


def test_weyl_rejects_small_p():
    op = WeightedOperator([[1.0]], WeightedFiniteSpace([1.0]), 1)
    with pytest.raises(ValueError):
        weyl_inequality_check(op, (0.5,))
