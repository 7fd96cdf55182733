"""The abstract suites: worst-case reduction and stack invariance.

Each stacked suite draws its instances first and checks them as
shape-grouped stacks.  The invariance tests run a suite three ways and
compare every instance's lhs and rhs bit for bit:

* the suite as it runs, with whole shape groups stacked;
* the suite with batches of one instance, so every stack holds one;
* a reference loop that draws and checks one instance at a time through
  the public per-instance functions, as the suites did before stacking.

The suite must also leave its generator where the reference loop leaves it.
"""

import math

import numpy as np
import pytest

from bettibound import suites
from bettibound.birman import (
    OperatorPair,
    birman_schwinger_bound,
    kernel_identity_check,
    planted_kernel_operator,
    random_weighted_space,
    weyl_inequality_check,
)
from bettibound.measure import (
    SelfAdjointOperator,
    WeightedOperator,
    heat_difference,
    heat_difference_hs_bounds,
    hs_norm,
)
from bettibound.perturbation import (
    MatrixPotential,
    connection_laplacian_pair,
    domination_check,
    domination_excess,
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

SEEDS = (0, 1, 2)
TRIALS = 30


# -- worst-case reduction --------------------------------------------------------


@pytest.mark.parametrize("order", [1, -1], ids=["finite_first", "nan_first"])
def test_a_nan_side_is_a_violation_and_the_worst_instance(order):
    # A NaN after a finite instance used to pass: both "margin < worst" and
    # "lhs > rhs + slack" are False for it.
    for lhs, rhs in (([0.5, np.nan], [1.0, 1.0]), ([0.5, 0.25], [1.0, np.nan])):
        record = suites._worst("r", "d", lhs[::order], rhs[::order], 0.0)
        assert not record.passed
        assert math.isnan(record.margin)
        assert math.isnan(record.lhs) or math.isnan(record.rhs)


def test_ties_go_to_the_first_instance():
    for first in (0.0, -0.0):
        record = suites._worst("r", "d", [-1.0, first, -first], 0.0, 0.0, scale=1.0)
        assert math.copysign(1.0, record.lhs) == math.copysign(1.0, first)
    record = suites._worst("r", "d", [0.2, 0.7, 0.7], [1.0, 1.0, 1.0], 0.0)
    assert (record.lhs, record.passed) == (0.7, True)
    assert suites._worst_instance([0.2, 0.7, 0.7], [1.0, 1.0, 1.0]) == 1


def test_a_violation_anywhere_fails_the_record():
    record = suites._worst("r", "d", [0.0, 2.0, 0.0], [1.0, 1.5, 1.0], [0.1, 0.4, 0.1])
    assert not record.passed and record.lhs == 2.0
    record = suites._worst("r", "d", [0.0, 1.8, 0.0], [1.0, 1.5, 1.0], [0.1, 0.4, 0.1])
    assert record.passed


# -- stack invariance --------------------------------------------------------------


def _suite_sides(monkeypatch, builder, seed, batch=None):
    """Every (lhs, rhs) pair a suite reduces, and its generator afterwards."""
    sides = []
    reduce = suites._worst_instance

    def recording(lhs, rhs, scale=None):
        lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
        sides.append((lhs.copy(), rhs.copy()))
        return reduce(lhs, rhs, scale)

    with monkeypatch.context() as patch:
        patch.setattr(suites, "_worst_instance", recording)
        if batch is not None:
            patch.setattr(suites, "_BATCH", batch)
        rng = np.random.default_rng(seed)
        builder(rng, SuiteConfig(seed=seed, trials=TRIALS))
    return sides, rng.bit_generator.state


def _assert_invariant(monkeypatch, builder, seed, reference):
    stacked, state = _suite_sides(monkeypatch, builder, seed)
    single, _ = _suite_sides(monkeypatch, builder, seed, batch=1)
    rng = np.random.default_rng(seed)
    looped = [tuple(np.asarray(side, dtype=float) for side in pair) for pair in reference(rng)]
    assert state == rng.bit_generator.state
    assert len(stacked) == len(single) == len(looped)
    for (lhs, rhs), (lhs1, rhs1), (lhs0, rhs0) in zip(stacked, single, looped):
        lhs0, rhs0 = np.broadcast_arrays(lhs0, rhs0)
        assert lhs.tobytes() == lhs1.tobytes() == lhs0.tobytes()
        assert rhs.tobytes() == rhs1.tobytes() == rhs0.tobytes()


def _planted_pair(rng):
    n_points = int(rng.integers(2, 21))
    fiber = int(rng.integers(1, 4))
    space = random_weighted_space(rng, n_points)
    dim = n_points * fiber
    kdim = int(rng.integers(0, min(4, dim - 1) + 1))
    H = planted_kernel_operator(rng, space, fiber, kdim)
    rho0 = float(rng.uniform(0.2, 2.0))
    bump = planted_kernel_operator(rng, space, fiber, kernel_dim=0, low=0.0, high=2.0)
    Hp = SelfAdjointOperator(H.matrix + rho0 * np.eye(dim) + bump.matrix, space, fiber)
    t0 = float(rng.uniform(0.2, 2.0))
    return OperatorPair(H=H, Hprime=Hp, rho0=rho0, t0=t0), kdim


def _potential(rng, space, fiber, scale, nonneg=False):
    vals = rng.standard_normal((space.point_count, fiber, fiber))
    if nonneg:
        vals = np.einsum("xij,xkj->xik", vals, vals) * (scale / fiber)
    else:
        vals = 0.5 * (vals + vals.transpose(0, 2, 1)) * scale
    return MatrixPotential(vals, space, nonneg=nonneg)


def _connection(rng, n_points_max=15):
    n_points = int(rng.integers(3, n_points_max + 1))
    fiber = int(rng.integers(2, 4))
    space = random_weighted_space(rng, n_points)
    return connection_laplacian_pair(rng, space, fiber), space, n_points, fiber


@pytest.mark.parametrize("seed", SEEDS)
def test_birman_schwinger_stacks_match_the_per_instance_bound(monkeypatch, seed):
    def reference(rng):
        kdim, sharp, crude = [], {1.0: [], 2.0: []}, {1.0: [], 2.0: []}
        for _ in range(TRIALS):
            pair, planted = _planted_pair(rng)
            kdim.append(planted)
            for p in (1.0, 2.0):
                cert = birman_schwinger_bound(pair, p)
                sharp[p].append(cert.bound_sharp)
                crude[p].append(cert.bound_crude)
        return [side for p in (1.0, 2.0) for side in ((kdim, sharp[p]), (sharp[p], crude[p]))]

    _assert_invariant(monkeypatch, suites.suite_birman_schwinger, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_identity_stacks_match_the_per_instance_check(monkeypatch, seed):
    def reference(rng):
        angles = []
        for _ in range(TRIALS):
            pair, _ = _planted_pair(rng)
            result = kernel_identity_check(pair, float(rng.uniform(0.2, 2.0)))
            angles.append(result["max_principal_angle"])
        return [(angles, 0.0)]

    _assert_invariant(monkeypatch, suites.suite_kernel_identity, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_weyl_stacks_match_the_per_instance_check(monkeypatch, seed):
    exponents = (1.0, 1.5, 2.0)

    def reference(rng):
        sums = []
        for _ in range(TRIALS):
            n_points = int(rng.integers(2, 21))
            fiber = int(rng.integers(1, 4))
            space = random_weighted_space(rng, n_points)
            dim = n_points * fiber
            op = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
            sums.append(
                [
                    (r["eigenvalue_power_sum"], r["singular_power_sum"])
                    for r in weyl_inequality_check(op, exponents)
                ]
            )
        sums = np.array(sums)
        return [(sums[:, k, 0], sums[:, k, 1]) for k in range(len(exponents))]

    _assert_invariant(monkeypatch, suites.suite_weyl, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_semigroup_difference_stacks_match_the_per_instance_check(monkeypatch, seed):
    def reference(rng):
        lhs, rhs = [], []
        for _ in range(TRIALS):
            n_points = int(rng.integers(2, 21))
            fiber = int(rng.integers(1, 4))
            space = random_weighted_space(rng, n_points)
            H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
            potential = _potential(rng, space, fiber, scale=2.0)
            result = semigroup_difference_bound_check(H, potential, float(rng.uniform(0.1, 1.0)))
            lhs.append(result["lhs"])
            rhs.append(result["rhs"])
        return [(lhs, rhs)]

    _assert_invariant(monkeypatch, suites.suite_semigroup_difference_bound, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_domination_stacks_match_the_per_instance_excess(monkeypatch, seed):
    def reference(rng):
        excess = []
        for _ in range(max(2, TRIALS // 20)):
            pair, _, n_points, fiber = _connection(rng)
            samples = [rng.standard_normal((n_points, fiber)) for _ in range(100)]
            excess.extend(domination_excess(pair, t, samples) for t in (0.1, 1.0, 10.0))
        return [(excess, 0.0)]

    _assert_invariant(monkeypatch, suites.suite_domination, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_dominated_difference_stacks_match_the_per_instance_check(monkeypatch, seed):
    def reference(rng):
        results = []
        for _ in range(TRIALS):
            pair, space, n_points, fiber = _connection(rng)
            samples = [rng.standard_normal((n_points, fiber)) for _ in range(5)]
            pair = domination_check(pair, (0.5,), samples)
            potential = _potential(rng, space, fiber, scale=1.0, nonneg=True)
            results.append(dominated_difference_check(pair, potential, float(rng.uniform(0.1, 1.0))))

        def column(key):
            return [result[key] for result in results]

        transfer = np.maximum(column("ultra_perturbed"), column("ultra_free"))
        return [
            (column("lhs"), column("rhs_integral")),
            (column("rhs_integral"), column("rhs_plain")),
            (transfer, column("ultra_scalar")),
        ]

    _assert_invariant(monkeypatch, suites.suite_dominated_difference, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_truncation_stacks_match_the_per_instance_checks(monkeypatch, seed):
    def reference(rng):
        distances, drops = [], []
        for _ in range(TRIALS):
            n_points = int(rng.integers(2, 13))
            fiber = int(rng.integers(1, 4))
            space = random_weighted_space(rng, n_points)
            potential = _potential(rng, space, fiber, scale=3.0, nonneg=True)
            H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=5.0)
            level = float(np.ceil(potential.pointwise_operator_norms().max()))
            truncated = truncate_potential(potential, level)
            t0 = float(rng.uniform(0.1, 1.0))
            full, cut = potential.added_to(H), truncated.added_to(H)
            distances.append(math.sqrt(heat_difference_hs_bounds(full, cut, 2 * t0)[0]))
            levels = np.arange(1, int(level) + 1)
            norms = np.append(truncated_hs_norms(potential, levels), hs_norm_potential(potential))
            drops.append(float(np.max(np.diff(norms) * -1.0)))
        return [(distances, 0.0), (drops, 0.0)]

    _assert_invariant(monkeypatch, suites.suite_truncation, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_hs_factorization_stacks_match_the_per_instance_check(monkeypatch, seed):
    def reference(rng):
        lhs, rhs = [], []
        for _ in range(TRIALS):
            n_points = int(rng.integers(1, 21))
            fiber = int(rng.integers(1, 4))
            space = random_weighted_space(rng, n_points)
            potential = _potential(rng, space, fiber, scale=1.0)
            dim = n_points * fiber
            op = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
            result = hs_factorization_check(potential, op)
            lhs.append(result["lhs"])
            rhs.append(result["rhs"])
        return [(lhs, rhs)]

    _assert_invariant(monkeypatch, suites.suite_hs_factorization, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_duhamel_stacks_match_the_per_instance_quadrature(monkeypatch, seed):
    def reference(rng):
        err, allowed = [], []
        for _ in range(min(TRIALS, 100)):
            n_points = int(rng.integers(2, 13))
            fiber = int(rng.integers(1, 4))
            space = random_weighted_space(rng, n_points)
            H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
            potential = _potential(rng, space, fiber, scale=1.5)
            t0 = float(rng.uniform(0.1, 0.5))
            perturbed = potential.added_to(H)
            direct = heat_difference(H, perturbed, 2 * t0)
            approx = duhamel_difference(H, potential, t0, 32, perturbed=perturbed)
            err.append(hs_norm(WeightedOperator(approx.matrix - direct.matrix, space, fiber)))
            allowed.append(1e-6 * (1.0 + hs_norm(direct)))
        return [(err, allowed)]

    _assert_invariant(monkeypatch, suites.suite_duhamel, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_22_integral_stacks_match_the_per_instance_integral(monkeypatch, seed):
    def reference(rng):
        err, allowed = [], []
        for _ in range(TRIALS):
            space = random_weighted_space(rng, int(rng.integers(2, 21)))
            A = planted_kernel_operator(rng, space, 1, int(rng.integers(0, 2)), low=0.05, high=8.0)
            t0 = float(rng.uniform(0.1, 3.0))
            oracle = suites._gauss_22_integral(max(0.0, A.min_eigenvalue), t0)
            err.append(abs(semigroup_22_integral(A, t0) - oracle))
            allowed.append(1e-10 * (1.0 + abs(oracle)))
        return [(err, allowed)]

    _assert_invariant(monkeypatch, suites.suite_22_integral, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_positive_parts_stacks_match_the_per_instance_calculus(monkeypatch, seed):
    def reference(rng):
        sides = []
        for _ in range(TRIALS):
            n_points = int(rng.integers(1, 16))
            fiber = int(rng.integers(1, 4))
            space = random_weighted_space(rng, n_points)
            potential = _potential(rng, space, fiber, scale=2.0)
            diag = pointwise_diagonalize(potential)
            plus, minus = diag.positive_part(space).values, diag.negative_part(space).values
            scale = 1.0 + float(np.max(np.abs(potential.values)))
            recon = float(np.max(np.abs(plus - minus - potential.values)))
            prod = float(np.max(np.abs(np.einsum("xij,xjk->xik", plus, minus))))
            min_eig = min(
                float(np.min(np.linalg.eigvalsh(plus))), float(np.min(np.linalg.eigvalsh(minus)))
            )
            sides.append(
                [(recon, 1e-10 * scale), (prod, 1e-10 * scale**2), (-min_eig, 1e-10 * scale)]
            )
        sides = np.array(sides)
        return [(sides[:, k, 0], sides[:, k, 1]) for k in range(3)]

    _assert_invariant(monkeypatch, suites.suite_positive_parts, seed, reference)
