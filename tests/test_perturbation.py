"""Potential, factorization, Duhamel, domination, and truncation checks."""

import numpy as np
import pytest
from scipy.integrate import quad

from bettibound.birman import planted_kernel_operator, random_weighted_space
from bettibound.measure import (
    DimensionMismatchError,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    heat_difference,
    hs_norm,
)
from bettibound.perturbation import (
    DominatedPair,
    MatrixPotential,
    connection_laplacian_pair,
    domination_check,
    dominated_difference_check,
    duhamel_difference,
    hs_factorization_check,
    hs_norm_potential,
    pointwise_diagonalize,
    semigroup_22_integral,
    semigroup_difference_bound_check,
    truncate_potential,
    truncated_hs_norms,
)
from bettibound.report import SuiteConfig
from bettibound.suites import suite_duhamel


def random_symmetric_potential(rng, space, fiber, scale=1.0):
    vals = rng.standard_normal((space.point_count, fiber, fiber))
    return MatrixPotential(0.5 * (vals + vals.transpose(0, 2, 1)) * scale, space)


def random_psd_potential(rng, space, fiber, scale=1.0):
    vals = rng.standard_normal((space.point_count, fiber, fiber))
    vals = np.einsum("xij,xkj->xik", vals, vals) * (scale / fiber)
    return MatrixPotential(vals, space, nonneg=True)


# -- (2,HS) norm -------------------------------------------------------------


def test_hs_norm_constant_identity_on_sphere_mass():
    space = WeightedFiniteSpace([4.0 * np.pi])
    potential = MatrixPotential(np.eye(2)[None], space)
    assert np.isclose(hs_norm_potential(potential), np.sqrt(8.0 * np.pi), rtol=1e-15)


def test_hs_norm_zero_potential():
    space = WeightedFiniteSpace([1.0, 2.0])
    potential = MatrixPotential(np.zeros((2, 3, 3)), space)
    assert hs_norm_potential(potential) == 0.0


def test_hs_norm_matches_entrywise_oracle():
    rng = np.random.default_rng(12)
    space = random_weighted_space(rng, 7)
    potential = random_symmetric_potential(rng, space, 3)
    oracle = 0.0
    for x in range(7):
        for i in range(3):
            for j in range(3):
                oracle += space.weights[x] * potential.values[x, i, j] ** 2
    assert abs(hs_norm_potential(potential) - np.sqrt(oracle)) <= 1e-12 * (
        1 + np.sqrt(oracle)
    )


def test_potential_symmetry_enforced():
    space = WeightedFiniteSpace([1.0])
    with pytest.raises(ValueError):
        MatrixPotential(np.array([[[0.0, 1.0], [0.0, 0.0]]]), space)
    # In a stack, the error names the first asymmetric instance's numbers.
    values = np.zeros((3, 1, 2, 2))
    values[1, 0, 0, 1], values[2, 0, 0, 1] = 0.5, 0.25
    with pytest.raises(ValueError, match=r"asymmetry 5\.000e-01"):
        MatrixPotential(values, WeightedFiniteSpace(np.ones((3, 1))))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_potential_values_must_be_finite(value):
    values = np.zeros((2, 2, 2))
    values[1, 0, 1] = value
    with pytest.raises(ValueError, match=r"must be finite \(.* at index \[1, 0, 1\]\)"):
        MatrixPotential(values, WeightedFiniteSpace([1.0, 2.0]), nonneg=True)
    # In a stack, the index names the first instance with a non-finite value.
    stack = np.zeros((3, 2, 2, 2))
    stack[1, 1, 0, 0] = stack[2, 0, 1, 1] = value
    with pytest.raises(ValueError, match=r"must be finite \(.* at index \[1, 1, 0, 0\]\)"):
        MatrixPotential(stack, WeightedFiniteSpace(np.ones((3, 2))))


def test_potential_nonneg_claim_verified():
    space = WeightedFiniteSpace([1.0])
    with pytest.raises(ValueError):
        MatrixPotential(np.array([[[-1.0]]]), space, nonneg=True)


def test_potential_apply_matches_operator():
    rng = np.random.default_rng(13)
    space = random_weighted_space(rng, 6)
    potential = random_symmetric_potential(rng, space, 3)
    values = rng.standard_normal((6, 3))
    pointwise = np.einsum("xij,xj->xi", potential.values, values)
    stacked = potential.as_operator().apply_array(values)
    assert np.allclose(pointwise, stacked, atol=1e-14)


def test_as_operator_and_added_to_match_dense_block_diagonal():
    from scipy.linalg import block_diag

    rng = np.random.default_rng(14)
    space = random_weighted_space(rng, 5)
    potential = random_symmetric_potential(rng, space, 2)
    assert np.array_equal(potential.as_operator().matrix, block_diag(*potential.values))
    H = planted_kernel_operator(rng, space, 2, 1)
    total = potential.added_to(H)
    assert np.array_equal(total.matrix, H.matrix + block_diag(*potential.values))
    assert total.fiber == 2 and total.space is space


def test_added_to_zero_potential_is_the_operator(count_eigensolves):
    rng = np.random.default_rng(15)
    space = random_weighted_space(rng, 5)
    H = planted_kernel_operator(rng, space, 2, 1)
    shapes = count_eigensolves()
    for values in (np.zeros((5, 2, 2)), -np.zeros((5, 2, 2))):
        assert MatrixPotential(values, space).added_to(H) is H
    assert shapes == []
    other = random_weighted_space(rng, 5)
    with pytest.raises(DimensionMismatchError):
        MatrixPotential(np.zeros((5, 2, 2)), other).added_to(H)
    # A stack of potentials must match its stack of spaces in T and in N.
    stack = WeightedFiniteSpace(np.ones((3, 5)))
    for values in (np.zeros((2, 5, 2, 2)), np.zeros((3, 4, 2, 2))):
        with pytest.raises(DimensionMismatchError, match="does not match the space"):
            MatrixPotential(values, stack)


# -- factorization bound -----------------------------------------------------


def test_factorization_scalar_equality_exact():
    space = WeightedFiniteSpace([1.0])
    potential = MatrixPotential(np.array([[[3.0]]]), space)
    op = WeightedOperator([[-2.0]], space, 1)
    result = hs_factorization_check(potential, op)
    assert result["lhs"] == result["rhs"] == 6.0


def test_factorization_constant_diagonal_closed_form():
    # V = c I_n, T = I, unit weights: lhs is ||V||_{2,HS} while the bound
    # carries the extra sqrt(n) * max m^-1/2 factor.
    space = WeightedFiniteSpace(np.ones(5))
    n, c = 3, 1.7
    potential = MatrixPotential(np.broadcast_to(c * np.eye(n), (5, n, n)).copy(), space)
    identity = WeightedOperator(np.eye(15), space, n)
    result = hs_factorization_check(potential, identity)
    norm_v = hs_norm_potential(potential)
    assert np.isclose(result["lhs"], norm_v, rtol=1e-12)
    assert np.isclose(result["rhs"], np.sqrt(n) * norm_v, rtol=1e-12)
    assert result["holds"]


def test_factorization_randomized_suite():
    rng = np.random.default_rng(22)
    for _ in range(300):
        n_points = int(rng.integers(1, 31))
        fiber = int(rng.integers(1, 4))
        space = random_weighted_space(rng, n_points)
        potential = random_symmetric_potential(rng, space, fiber)
        dim = n_points * fiber
        op = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
        assert hs_factorization_check(potential, op)["holds"]


# -- Duhamel representation --------------------------------------------------


def test_duhamel_zero_potential_gives_zero():
    rng = np.random.default_rng(32)
    space = random_weighted_space(rng, 5)
    H = planted_kernel_operator(rng, space, 2, 0)
    zero = MatrixPotential(np.zeros((5, 2, 2)), space)
    approx = duhamel_difference(H, zero, 0.5, 8)
    assert np.max(np.abs(approx.matrix)) == 0.0


def test_duhamel_commuting_diagonal_closed_form():
    # Diagonal H and V commute, so the difference is elementwise
    # e^(-2t h) - e^(-2t (h+v)) and order-32 quadrature must nail it.
    space = WeightedFiniteSpace(np.ones(4))
    h = np.array([0.3, 1.0, 2.5, 4.0])
    v = np.array([0.5, -0.2, 1.5, 0.9])
    H = SelfAdjointOperator(np.diag(h), space)
    potential = MatrixPotential(v.reshape(-1, 1, 1), space)
    t0 = 0.6
    approx = duhamel_difference(H, potential, t0, 32)
    exact = np.diag(np.exp(-2 * t0 * h) - np.exp(-2 * t0 * (h + v)))
    assert np.max(np.abs(approx.matrix - exact)) < 1e-10


def test_duhamel_matches_direct_difference():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_points = int(rng.integers(2, 8))
        fiber = int(rng.integers(1, 3))
        space = random_weighted_space(rng, n_points)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=5.0)
        potential = random_symmetric_potential(rng, space, fiber, scale=1.2)
        t0 = float(rng.uniform(0.1, 0.5))
        perturbed = SelfAdjointOperator(
            H.matrix + potential.as_operator().matrix, space, fiber
        )
        direct = WeightedOperator(
            H.semigroup(2 * t0).matrix - perturbed.semigroup(2 * t0).matrix,
            space, fiber,
        )
        approx = duhamel_difference(H, potential, t0, 32)
        err = hs_norm(WeightedOperator(approx.matrix - direct.matrix, space, fiber))
        assert err <= 1e-6 * (1 + hs_norm(direct))


def _duhamel_per_node(H, V, t, order):
    """The Gauss sum with two dense heat matrices per node, as a reference."""
    v_op = V.as_operator()
    perturbed = V.added_to(H)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = np.zeros((H.dim, H.dim))
    for node, weight in zip(nodes, weights):
        s = t * (node + 1.0)
        term = perturbed.semigroup(2.0 * t - s).matrix @ v_op.matrix @ H.semigroup(s).matrix
        total += weight * term
    return WeightedOperator(t * total, H.space, H.fiber)


def test_duhamel_eigenbasis_sum_matches_per_node_sum():
    rng = np.random.default_rng(44)
    for _ in range(24):
        n_points = int(rng.integers(2, 10))
        fiber = int(rng.integers(1, 4))
        space = random_weighted_space(rng, n_points)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
        potential = random_symmetric_potential(rng, space, fiber, scale=1.5)
        t0 = float(rng.uniform(0.1, 0.5))
        order = int(rng.choice([8, 32]))
        reference = _duhamel_per_node(H, potential, t0, order)
        approx = duhamel_difference(H, potential, t0, order)
        distance = hs_norm(WeightedOperator(approx.matrix - reference.matrix, space, fiber))
        assert distance <= 1e-12 * (1.0 + hs_norm(reference))


def test_duhamel_builds_no_semigroup(monkeypatch):
    rng = np.random.default_rng(45)
    space = random_weighted_space(rng, 6)
    H = planted_kernel_operator(rng, space, 2, 0, low=0.0, high=5.0)
    potential = random_symmetric_potential(rng, space, 2)
    reference = _duhamel_per_node(H, potential, 0.3, 32)

    def no_semigroup(self, t):
        raise AssertionError("duhamel_difference built a heat operator")

    monkeypatch.setattr(SelfAdjointOperator, "semigroup", no_semigroup)
    approx = duhamel_difference(H, potential, 0.3, 32)
    assert np.allclose(approx.matrix, reference.matrix, rtol=0.0, atol=1e-12)


def test_duhamel_reuses_a_given_perturbed_operator(monkeypatch):
    rng = np.random.default_rng(46)
    space = random_weighted_space(rng, 7)
    H = planted_kernel_operator(rng, space, 2, 0, low=0.0, high=5.0)
    potential = random_symmetric_potential(rng, space, 2)
    perturbed = potential.added_to(H)
    expected = duhamel_difference(H, potential, 0.3, 32)

    def no_rebuild(self, H):
        raise AssertionError("duhamel_difference rebuilt H + V")

    monkeypatch.setattr(MatrixPotential, "added_to", no_rebuild)
    approx = duhamel_difference(H, potential, 0.3, 32, perturbed=perturbed)
    assert np.array_equal(approx.matrix, expected.matrix)


def test_duhamel_suite_eigensolves_each_perturbed_operator_once(count_eigensolves):
    # H comes from its planted spectrum, so H + V is the only eigensolve:
    # one stacked call per shape group, one matrix per instance.
    shapes = count_eigensolves()
    records = suite_duhamel(np.random.default_rng(3), SuiteConfig(trials=4, seed=0))
    assert records[0].passed
    assert sum(shape[0] for shape in shapes) == 4


def test_duhamel_order_validation():
    space = WeightedFiniteSpace([1.0])
    H = SelfAdjointOperator([[1.0]], space)
    potential = MatrixPotential(np.ones((1, 1, 1)), space)
    with pytest.raises(ValueError):
        duhamel_difference(H, potential, 0.5, 1)


# -- two-sided semigroup difference bound ------------------------------------


def test_difference_bound_zero_potential():
    rng = np.random.default_rng(52)
    space = random_weighted_space(rng, 5)
    H = planted_kernel_operator(rng, space, 2, 1)
    zero = MatrixPotential(np.zeros((5, 2, 2)), space)
    result = semigroup_difference_bound_check(H, zero, 0.7)
    assert result["lhs"] == 0.0
    assert result["rhs"] == 0.0
    assert result["holds"]


def test_difference_bound_scalar_closed_form_strict():
    space = WeightedFiniteSpace([1.0])
    h, v, t0 = 1.0, 1.0, 1.0
    H = SelfAdjointOperator([[h]], space)
    potential = MatrixPotential(np.array([[[v]]]), space)
    result = semigroup_difference_bound_check(H, potential, t0)
    lhs_exact = np.exp(-2 * t0 * h) - np.exp(-2 * t0 * (h + v))
    integral = (1 - np.exp(-t0 * (h + v))) / (h + v)
    rhs_exact = v * (np.exp(-t0 * h) + np.exp(-t0 * (h + v))) * integral
    assert np.isclose(result["lhs"], lhs_exact, rtol=1e-12)
    assert np.isclose(result["rhs"], rhs_exact, rtol=1e-12)
    assert result["lhs"] < result["rhs"]  # strict once h > 0


def test_difference_bound_randomized_suite():
    rng = np.random.default_rng(62)
    for _ in range(120):
        n_points = int(rng.integers(2, 26))
        fiber = int(rng.integers(1, 4))
        space = random_weighted_space(rng, n_points)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
        potential = random_symmetric_potential(rng, space, fiber, scale=2.0)
        result = semigroup_difference_bound_check(H, potential, float(rng.uniform(0.1, 1.0)))
        assert result["holds"]


def test_difference_bound_lhs_matches_dense_heat_difference():
    rng = np.random.default_rng(63)
    for _ in range(30):
        n_points = int(rng.integers(2, 16))
        fiber = int(rng.integers(1, 4))
        space = random_weighted_space(rng, n_points)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
        potential = random_symmetric_potential(rng, space, fiber, scale=2.0)
        t0 = float(rng.uniform(0.1, 1.0))
        lhs = semigroup_difference_bound_check(H, potential, t0)["lhs"]
        rebuilt = SelfAdjointOperator(H.matrix + 0.0, space, fiber)
        dense = hs_norm(heat_difference(rebuilt, potential.added_to(H), 2.0 * t0))
        assert abs(lhs - dense) <= 1e-12 * dense


def test_difference_bound_rejects_negative_H():
    space = WeightedFiniteSpace([1.0])
    H = SelfAdjointOperator([[-1.0]], space)
    potential = MatrixPotential(np.ones((1, 1, 1)), space)
    with pytest.raises(ValueError):
        semigroup_difference_bound_check(H, potential, 0.5)


# -- closed-form 2->2 integral ------------------------------------------------


def test_integral_zero_bottom_gives_t0():
    rng = np.random.default_rng(72)
    space = random_weighted_space(rng, 6)
    A = planted_kernel_operator(rng, space, 1, 1)  # kernel => min eig 0
    assert semigroup_22_integral(A, 0.83) == 0.83


def test_integral_closed_form_log_two():
    space = WeightedFiniteSpace([1.0])
    A = SelfAdjointOperator([[1.0]], space)
    assert np.isclose(semigroup_22_integral(A, np.log(2.0)), 0.5, rtol=1e-14)


def test_integral_matches_quadrature():
    rng = np.random.default_rng(82)
    for _ in range(30):
        space = random_weighted_space(rng, int(rng.integers(2, 9)))
        A = planted_kernel_operator(rng, space, 1, int(rng.integers(0, 2)), low=0.05)
        t0 = float(rng.uniform(0.1, 3.0))
        closed = semigroup_22_integral(A, t0)
        mu = max(0.0, A.min_eigenvalue)
        oracle = quad(lambda s: np.exp(-mu * s), 0.0, t0)[0]
        assert abs(closed - oracle) <= 1e-10 * (1 + abs(oracle))


def test_22_norm_of_semigroup_is_exponential_of_bottom():
    # The exact ingredient behind the closed form: the 2->2 norm of the
    # heat operator is e^(-s min spec) on a finite space.
    from bettibound.measure import operator_norm

    rng = np.random.default_rng(83)
    space = random_weighted_space(rng, 7)
    A = planted_kernel_operator(rng, space, 2, 0, low=0.3, high=6.0)
    for s in (0.2, 0.9, 2.5):
        assert np.isclose(
            operator_norm(A.semigroup(s)), np.exp(-s * A.min_eigenvalue), rtol=1e-11
        )


# -- domination ---------------------------------------------------------------


def test_domination_block_diagonal_equality():
    # H = H0 (x) I acts componentwise; with a positivity-preserving scalar
    # semigroup (graph Laplacian) fiber-aligned nonnegative functions
    # saturate the domination inequality.
    rng = np.random.default_rng(92)
    space = random_weighted_space(rng, 6)
    H0 = connection_laplacian_pair(rng, space, 1).H0
    n = 2
    lift = np.kron(H0.matrix, np.eye(n))
    H = SelfAdjointOperator(lift, space, n)
    pair = DominatedPair(H=H, H0=H0)
    fs = [rng.standard_normal((6, n)) for _ in range(40)]
    pair = domination_check(pair, (0.1, 1.0, 10.0), fs)
    assert pair.domination_verified
    scalar = rng.standard_normal(6)
    aligned = np.zeros((6, n))
    aligned[:, 0] = np.abs(scalar)
    lhs = np.linalg.norm(H.semigroup(0.7).apply_array(aligned), axis=1)
    rhs = H0.semigroup(0.7).apply_array(np.abs(scalar).reshape(-1, 1)).reshape(-1)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_domination_connection_laplacian_suite():
    rng = np.random.default_rng(102)
    for _ in range(5):
        space = random_weighted_space(rng, int(rng.integers(4, 10)))
        pair = connection_laplacian_pair(rng, space, int(rng.integers(2, 4)))
        fs = [rng.standard_normal((space.point_count, pair.H.fiber)) for _ in range(100)]
        assert domination_check(pair, (0.1, 1.0, 10.0), fs).domination_verified


def test_domination_block_plus_fiber_diagonal_potential():
    rng = np.random.default_rng(112)
    space = random_weighted_space(rng, 5)
    H0 = connection_laplacian_pair(rng, space, 1).H0
    n = 3
    # Nonnegative multiplication that is diagonal in the fiber keeps the
    # Trotter argument intact.
    diag_vals = rng.uniform(0.0, 1.5, size=(5, n))
    W = np.diag(diag_vals.reshape(-1))
    H = SelfAdjointOperator(np.kron(H0.matrix, np.eye(n)) + W, space, n)
    pair = DominatedPair(H=H, H0=H0)
    fs = [rng.standard_normal((5, n)) for _ in range(60)]
    assert domination_check(pair, (0.1, 1.0, 10.0), fs).domination_verified


def test_domination_failure_raises():
    # A negative fiber-diagonal potential pushes the vector semigroup above
    # the scalar one, which the check must catch.
    rng = np.random.default_rng(122)
    space = WeightedFiniteSpace(np.ones(4))
    H0 = connection_laplacian_pair(rng, space, 1).H0
    n = 2
    H = SelfAdjointOperator(np.kron(H0.matrix, np.eye(n)) - 0.8 * np.eye(4 * n), space, n)
    pair = DominatedPair(H=H, H0=H0)
    fs = [rng.standard_normal((4, n)) for _ in range(10)]
    with pytest.raises(ValueError, match="domination fails"):
        domination_check(pair, (1.0,), fs)


# -- dominated difference bound ----------------------------------------------


def _verified_pair(rng, n_points=6, fiber=2):
    space = random_weighted_space(rng, n_points)
    pair = connection_laplacian_pair(rng, space, fiber)
    fs = [rng.standard_normal((n_points, fiber)) for _ in range(20)]
    return domination_check(pair, (0.5,), fs), space


def test_dominated_difference_zero_potential():
    rng = np.random.default_rng(132)
    pair, space = _verified_pair(rng)
    zero = MatrixPotential(np.zeros((6, 2, 2)), space, nonneg=True)
    result = dominated_difference_check(pair, zero, 0.8)
    assert result["lhs"] == 0.0
    assert result["holds"]


def test_dominated_difference_randomized_suite():
    rng = np.random.default_rng(142)
    for _ in range(40):
        pair, space = _verified_pair(rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
        potential = random_psd_potential(rng, space, pair.H.fiber)
        result = dominated_difference_check(pair, potential, float(rng.uniform(0.1, 1.0)))
        assert result["holds"]
        assert result["rhs_integral"] <= result["rhs_plain"] * (1 + 1e-12)


def test_dominated_difference_lhs_matches_dense_heat_difference():
    rng = np.random.default_rng(143)
    for _ in range(20):
        pair, space = _verified_pair(rng, int(rng.integers(4, 12)), int(rng.integers(2, 4)))
        potential = random_psd_potential(rng, space, pair.H.fiber)
        t0 = float(rng.uniform(0.1, 1.0))
        lhs = dominated_difference_check(pair, potential, t0)["lhs"]
        rebuilt = SelfAdjointOperator(pair.H.matrix + 0.0, space, pair.H.fiber)
        dense = hs_norm(heat_difference(rebuilt, potential.added_to(pair.H), 2.0 * t0))
        assert abs(lhs - dense) <= 1e-12 * dense


@pytest.mark.parametrize("check", ["two_sided", "dominated"])
def test_difference_checks_eigensolve_only_the_perturbed_operator(count_eigensolves, check):
    # H's own eigendata serve both semigroups; H + V is the one eigensolve.
    rng = np.random.default_rng(144)
    pair, space = _verified_pair(rng)
    potential = random_psd_potential(rng, space, 2)
    shapes = count_eigensolves()
    if check == "two_sided":
        result = semigroup_difference_bound_check(pair.H, potential, 0.7)
    else:
        result = dominated_difference_check(pair, potential, 0.7)
    assert result["holds"] and result["lhs"] > 0.0
    assert shapes == [(12, 12)]


def test_dominated_difference_strict_gap_when_bounded_below():
    rng = np.random.default_rng(152)
    pair, space = _verified_pair(rng)
    # Shift the potential so H + V >= rho0 > 0 strictly.
    potential = MatrixPotential(
        random_psd_potential(rng, space, 2).values + 0.6 * np.eye(2)[None],
        space, nonneg=True,
    )
    t0 = 0.9
    result = dominated_difference_check(pair, potential, t0)
    perturbed_min = SelfAdjointOperator(
        pair.H.matrix + potential.as_operator().matrix, space, 2
    ).min_eigenvalue
    assert perturbed_min >= 0.6 - 1e-9
    expected_integral = (1 - np.exp(-t0 * perturbed_min)) / perturbed_min
    assert np.isclose(result["integral_22"], expected_integral, rtol=1e-12)
    assert result["rhs_integral"] < result["rhs_plain"]


def test_dominated_difference_requires_nonneg_and_verification():
    rng = np.random.default_rng(162)
    pair, space = _verified_pair(rng)
    signed = random_symmetric_potential(rng, space, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        dominated_difference_check(pair, signed, 0.5)
    unverified, space2 = connection_laplacian_pair(
        rng, random_weighted_space(rng, 5), 2
    ), None
    psd = MatrixPotential(np.zeros((5, 2, 2)), unverified.H.space, nonneg=True)
    with pytest.raises(ValueError, match="verified"):
        dominated_difference_check(unverified, psd, 0.5)


# -- truncation ---------------------------------------------------------------


def test_truncation_saturates_for_large_level():
    rng = np.random.default_rng(172)
    space = random_weighted_space(rng, 6)
    potential = random_psd_potential(rng, space, 2, scale=2.0)
    level = float(np.ceil(potential.pointwise_operator_norms().max()))
    cut = truncate_potential(potential, level)
    assert np.array_equal(cut.values, potential.values)


def test_truncation_zeroes_large_points():
    space = WeightedFiniteSpace([1.0, 1.0])
    vals = np.stack([3.0 * np.eye(2), 7.0 * np.eye(2)])
    potential = MatrixPotential(vals, space, nonneg=True)
    cut = truncate_potential(potential, 5.0)
    assert np.array_equal(cut.values[0], vals[0])
    assert np.all(cut.values[1] == 0.0)


def test_truncation_semigroup_distance_exactly_zero_at_saturation():
    rng = np.random.default_rng(182)
    space = random_weighted_space(rng, 5)
    potential = random_psd_potential(rng, space, 2, scale=3.0)
    H = planted_kernel_operator(rng, space, 2, 0, low=0.0, high=4.0)
    level = float(np.ceil(potential.pointwise_operator_norms().max()))
    cut = truncate_potential(potential, level)
    t0 = 0.4
    full = SelfAdjointOperator(H.matrix + potential.as_operator().matrix, space, 2)
    cutop = SelfAdjointOperator(H.matrix + cut.as_operator().matrix, space, 2)
    distance = hs_norm(
        WeightedOperator(
            full.semigroup(2 * t0).matrix - cutop.semigroup(2 * t0).matrix, space, 2
        )
    )
    assert distance == 0.0


def test_truncation_norm_monotone_in_level():
    rng = np.random.default_rng(192)
    space = random_weighted_space(rng, 8)
    potential = random_psd_potential(rng, space, 3, scale=4.0)
    top = int(np.ceil(potential.pointwise_operator_norms().max()))
    norms = [hs_norm_potential(truncate_potential(potential, k)) for k in range(1, top + 2)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
    assert np.isclose(norms[-1], hs_norm_potential(potential), rtol=1e-15)


def test_truncated_hs_norms_equal_norms_of_built_truncations():
    rng = np.random.default_rng(193)
    for _ in range(10):
        space = random_weighted_space(rng, int(rng.integers(1, 13)))
        potential = random_psd_potential(rng, space, int(rng.integers(1, 4)), scale=3.0)
        top = float(np.ceil(potential.pointwise_operator_norms().max()))
        levels = np.concatenate([np.arange(1.0, top + 2.0), rng.uniform(1.0, top, 3)])
        built = [hs_norm_potential(truncate_potential(potential, k)) for k in levels]
        assert truncated_hs_norms(potential, levels).tolist() == built
    # A level equal to a point's norm keeps that point.
    space = WeightedFiniteSpace([1.0, 1.0])
    potential = MatrixPotential(np.stack([2.0 * np.eye(2), 3.0 * np.eye(2)]), space)
    norms = truncated_hs_norms(potential, [1.0, 2.0, 3.0])
    assert norms.tolist() == [0.0, np.sqrt(8.0), np.sqrt(26.0)]


def test_truncated_hs_norms_reject_levels_below_one():
    space = WeightedFiniteSpace([1.0])
    potential = MatrixPotential(np.ones((1, 1, 1)), space, nonneg=True)
    with pytest.raises(ValueError, match="at least 1"):
        truncated_hs_norms(potential, [2.0, 0.5])


def test_truncation_preserves_partial_order():
    rng = np.random.default_rng(202)
    space = random_weighted_space(rng, 6)
    potential = random_psd_potential(rng, space, 2, scale=3.0)
    cut = truncate_potential(potential, 2.0)
    gap = potential.values - cut.values
    assert np.min(np.linalg.eigvalsh(gap)) >= -1e-12
    assert np.min(np.linalg.eigvalsh(cut.values)) >= -1e-12


# -- pointwise diagonalization -------------------------------------------------


def test_diagonalize_diagonal_potential():
    space = WeightedFiniteSpace([1.0])
    potential = MatrixPotential(np.diag([3.0, 1.0])[None], space)
    diag = pointwise_diagonalize(potential)
    assert np.allclose(diag.eigenvalues[0], [1.0, 3.0])


def test_diagonalize_exchange_matrix():
    space = WeightedFiniteSpace([1.0])
    potential = MatrixPotential(np.array([[[0.0, 1.0], [1.0, 0.0]]]), space)
    diag = pointwise_diagonalize(potential)
    assert np.allclose(diag.eigenvalues[0], [-1.0, 1.0], atol=1e-14)


def test_diagonalize_reconstructs_random():
    rng = np.random.default_rng(212)
    space = random_weighted_space(rng, 10)
    potential = random_symmetric_potential(rng, space, 3, scale=2.0)
    diag = pointwise_diagonalize(potential)
    assert np.max(np.abs(diag.reconstruct() - potential.values)) <= 1e-10 * (
        1 + np.max(np.abs(potential.values))
    )


def test_positive_part_calculus():
    rng = np.random.default_rng(222)
    space = random_weighted_space(rng, 8)
    potential = random_symmetric_potential(rng, space, 3, scale=2.0)
    diag = pointwise_diagonalize(potential)
    plus = diag.positive_part(space)
    minus = diag.negative_part(space)
    scale = 1 + np.max(np.abs(potential.values))
    assert np.max(np.abs(plus.values - minus.values - potential.values)) <= 1e-10 * scale
    prod = np.einsum("xij,xjk->xik", plus.values, minus.values)
    assert np.max(np.abs(prod)) <= 1e-10 * scale**2
    assert np.min(np.linalg.eigvalsh(plus.values)) >= -1e-10 * scale
    assert np.min(np.linalg.eigvalsh(minus.values)) >= -1e-10 * scale
