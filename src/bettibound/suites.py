"""Seeded randomized suites for the abstract operator inequalities.

Each suite draws its instances from a dedicated child generator of the
configured seed, runs every instance through the corresponding check,
and condenses the outcome into worst-case records (``_worst``): the
reported lhs/rhs pair belongs to the instance with the smallest
normalized margin, and the record passes only if no instance violated
its slack.  An instance whose margin is NaN is a violation and is
reported as the worst.  Identical configurations therefore produce
identical records.

The suites of many small operators run in four steps:

1. **Draw.**  Every instance is drawn first, in the order a loop over the
   instances would draw it, so the same instances come out; a draw holds
   only random numbers, no computed value.  Past 256 trials the draws
   come in batches of 256, so a suite's memory stays bounded.
2. **Group by shape.**  The instances are grouped by point count and
   fiber (``_grouped``).
3. **Check on stacks.**  Each group's instances become one stack of each
   type a check takes (``measure.SelfAdjointOperator``,
   ``perturbation.MatrixPotential``, ``birman.OperatorPair``,
   ``perturbation.DominatedPair``), and every check runs once per group
   through its public function, which takes one instance or a stack.
   Stacked LAPACK and BLAS calls give each instance the bits it would get
   alone.
4. **Reduce.**  Each instance's lhs and rhs go back to its place, and the
   worst case is an array reduction in instance order.
"""

from __future__ import annotations

import numpy as np

from .birman import (
    OperatorPair,
    _planted,
    _planted_draw,
    _random_weights,
    birman_schwinger_bound,
    kernel_identity_check,
    weyl_inequality_check,
)
from .measure import (
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    heat_difference,
    heat_difference_hs_bounds,
    hs_norm,
)
from .perturbation import (
    DominatedPair,
    MatrixPotential,
    _connection_draw,
    _connection_stack,
    _gauss_legendre,
    dominated_difference_check,
    domination_check,
    domination_excess,
    duhamel_difference,
    hs_factorization_check,
    hs_norm_potential,
    pointwise_diagonalize,
    semigroup_22_integral,
    semigroup_difference_bound_check,
    truncate_potential,
    truncated_hs_norms,
)
from .pipeline import prefactors
from .report import FIBER_MAX, N_POINTS_MAX, CheckRecord, RunReport, SuiteConfig
from .report import equality_record, inequality_record

__all__ = ["run_abstract_suites", "SUITE_BUILDERS"]


def _worst_instance(lhs, rhs, scale=None) -> int:
    """Index of the instance whose normalized margin (rhs - lhs)/scale is smallest.

    ``scale`` defaults to 1 + |rhs|.  Ties go to the first instance, and a
    NaN margin is smallest: the first instance with one is the worst.
    """
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    if scale is None:
        scale = 1.0 + np.abs(rhs)
    return int(np.argmin((rhs - lhs) / scale))


def _worst(name: str, detail: str, lhs, rhs, slack, scale=None) -> CheckRecord:
    """The record of the worst instance (``_worst_instance``) of per-instance arrays.

    It passes only if no instance has lhs > rhs + slack or a NaN margin.
    """
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float))
    at = _worst_instance(lhs, rhs, scale)
    failed = np.isnan(rhs - lhs) | (lhs > rhs + slack)
    return CheckRecord(
        name=name, detail=detail, lhs=float(lhs[at]), rhs=float(rhs[at]), passed=not np.any(failed)
    )


# Instances drawn and held at once, at most: it bounds a suite's memory at
# any trial count (the default 200 trials are one batch).
_BATCH = 256


def _grouped(draw, count: int):
    """Draw ``count`` instances and yield them grouped by shape.

    ``draw()`` draws one instance and returns its (shape, fields).  The
    instances are drawn in order, ``_BATCH`` at a time, so the generator
    runs as a loop over the instances would run it.  Each batch yields,
    per shape in order of first appearance, the shape, the indices of its
    instances and each field stacked over them; a field of tuples (the
    edge draws of connection Laplacians, one graph each) stays a list.
    """
    for start in range(0, count, _BATCH):
        draws = [draw() for _ in range(min(_BATCH, count - start))]
        at_shape = {}
        for index, (shape, _) in enumerate(draws):
            at_shape.setdefault(shape, []).append(index)
        for shape, at in at_shape.items():
            columns = zip(*(draws[index][1] for index in at))
            stacked = [list(c) if isinstance(c[0], tuple) else np.stack(c) for c in columns]
            for index in at:
                draws[index] = None
            yield shape, start + np.array(at), stacked


def _shape_draw(rng, points_min: int, points_max: int, fiber_min: int, fiber_max: int):
    """The draws every instance with a fiber starts with, in this order: the
    point count in [points_min, points_max], the fiber in [fiber_min,
    fiber_max] and the weights of a random space (``_random_weights``)."""
    n_points = int(rng.integers(points_min, points_max + 1))
    fiber = int(rng.integers(fiber_min, fiber_max + 1))
    return n_points, fiber, _random_weights(rng, n_points)


def _pair_draw(rng):
    """The draws of one planted pair for ``_pair_stack``, and its kernel dimension."""
    n_points, fiber, weights = _shape_draw(rng, 2, N_POINTS_MAX, 1, FIBER_MAX)
    dim = n_points * fiber
    kdim = int(rng.integers(0, min(4, dim - 1) + 1))
    H = _planted_draw(rng, dim, kdim)
    rho0 = float(rng.uniform(0.2, 2.0))
    bump = _planted_draw(rng, dim, 0, low=0.0, high=2.0)
    t0 = float(rng.uniform(0.2, 2.0))
    return (n_points, fiber), (weights, *H, rho0, *bump, t0, kdim)


def _pair_stack(fiber, weights, h_gauss, h_evals, rho0, b_gauss, b_evals, t0) -> OperatorPair:
    """Planted H >= 0 with its kernel, and H' = H + rho0 + a random bump >= rho0."""
    space = WeightedFiniteSpace(weights)
    H = _planted(space, fiber, h_gauss, h_evals)
    bump = _planted(space, fiber, b_gauss, b_evals)
    eye = np.eye(H.dim)
    matrix = H.matrix + rho0[:, None, None] * eye + bump.matrix
    return OperatorPair(H, SelfAdjointOperator(matrix, space, fiber), rho0, t0)


def suite_birman_schwinger(rng, cfg: SuiteConfig):
    """Kernel-count chain dim ker H <= sharp <= crude over planted pairs."""
    tol = cfg.tol("chain")
    exponents = (1.0, 2.0)
    kdim = np.empty(cfg.trials)
    sharp, crude = np.empty((2, len(exponents), cfg.trials))
    for (_, fiber), at, (*pair, planted) in _grouped(lambda: _pair_draw(rng), cfg.trials):
        kdim[at] = planted
        stack = _pair_stack(fiber, *pair)
        for row, p in enumerate(exponents):
            cert = birman_schwinger_bound(stack, p)
            sharp[row, at], crude[row, at] = cert.bound_sharp, cert.bound_crude
    records = []
    for row, p in enumerate(exponents):
        records.append(
            _worst(
                f"birman_kernel_vs_sharp_p{p:g}",
                f"dim ker H <= Schatten-{p:g} power sum of the kernel-counting "
                f"operator; worst of {cfg.trials} planted pairs",
                kdim,
                sharp[row],
                tol * (1.0 + np.abs(sharp[row])),
            )
        )
        records.append(
            _worst(
                f"birman_sharp_vs_crude_p{p:g}",
                "sharp bound <= resolvent-factored crude bound; worst of "
                f"{cfg.trials} planted pairs",
                sharp[row],
                crude[row],
                tol * (1.0 + np.abs(crude[row])),
            )
        )
    records.append(_scalar_saturation_record())
    return records


def _scalar_saturation_record() -> CheckRecord:
    space = WeightedFiniteSpace([1.0])
    pair = OperatorPair(
        H=SelfAdjointOperator([[0.0]], space),
        Hprime=SelfAdjointOperator([[0.73]], space),
        rho0=0.73,
        t0=1.31,
    )
    cert = birman_schwinger_bound(pair, 1.6)
    return CheckRecord(
        name="birman_scalar_saturation",
        detail="one-point pair H=0, H'=rho0: crude bound equals dim ker exactly",
        lhs=cert.bound_crude,
        rhs=float(cert.kernel_dim),
        passed=cert.bound_crude == float(cert.kernel_dim) == 1.0,
    )


def suite_kernel_identity(rng, cfg: SuiteConfig):
    """Fixed-point subspace of the counting operator matches ker H."""
    tol = cfg.tol("subspace_angle")

    def draw():
        shape, fields = _pair_draw(rng)
        return shape, (*fields, float(rng.uniform(0.2, 2.0)))

    mismatched = np.empty(cfg.trials, dtype=bool)
    angle = np.empty(cfg.trials)
    for (_, fiber), at, (*pair, _, t) in _grouped(draw, cfg.trials):
        result = kernel_identity_check(_pair_stack(fiber, *pair), t)
        mismatched[at] = result["dim_ker_H"] != result["dim_ker_bs"]
        angle[at] = result["max_principal_angle"]
    mismatches = int(np.count_nonzero(mismatched))
    worst_angle = float(angle[_worst_instance(angle, 0.0, scale=1.0)])
    return [
        equality_record(
            "kernel_identity_dims",
            f"kernel dimensions agree on {cfg.trials} planted pairs",
            mismatches,
            0.0,
        ),
        inequality_record(
            "kernel_identity_subspace",
            f"largest principal angle between the two kernels (allowed {tol:g})",
            worst_angle,
            tol,
            0.0,
        ),
    ]


def suite_weyl(rng, cfg: SuiteConfig):
    """Eigenvalue power sums below singular value power sums, p >= 1."""
    tol = cfg.tol("chain")
    exponents = (1.0, 1.5, 2.0)

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 2, N_POINTS_MAX, 1, FIBER_MAX)
        dim = n_points * fiber
        return (n_points, fiber), (weights, rng.standard_normal((dim, dim)))

    lhs, rhs = np.empty((2, len(exponents), cfg.trials))
    for (_, fiber), at, (weights, matrices) in _grouped(draw, cfg.trials):
        operators = WeightedOperator(matrices, WeightedFiniteSpace(weights), fiber)
        for row, check in enumerate(weyl_inequality_check(operators, exponents)):
            lhs[row, at], rhs[row, at] = check["eigenvalue_power_sum"], check["singular_power_sum"]
    return [
        _worst(
            f"weyl_p{p:g}",
            f"sum |eig|^p <= sum s^p on {cfg.trials} non-normal operators",
            lhs[row],
            rhs[row],
            tol * (1.0 + np.abs(rhs[row])),
        )
        for row, p in enumerate(exponents)
    ]


def suite_hs_factorization(rng, cfg: SuiteConfig):
    """||V T||_HS <= sqrt(n) ||V||_{2,HS} ||T||_{2,inf} on random inputs."""
    tol = cfg.tol("factorization")

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 1, N_POINTS_MAX, 1, FIBER_MAX)
        values = _potential_values(rng, n_points, fiber)
        dim = n_points * fiber
        return (n_points, fiber), (weights, values, rng.standard_normal((dim, dim)))

    lhs, rhs = np.empty((2, cfg.trials))
    for (_, fiber), at, (weights, values, matrices) in _grouped(draw, cfg.trials):
        space = WeightedFiniteSpace(weights)
        potentials = MatrixPotential(values, space)
        result = hs_factorization_check(potentials, WeightedOperator(matrices, space, fiber))
        lhs[at], rhs[at] = result["lhs"], result["rhs"]
    records = [
        _worst(
            "hs_factorization",
            f"multiplication-after-smoothing HS bound on {cfg.trials} random "
            "potential/operator pairs",
            lhs,
            rhs,
            tol * (1.0 + np.abs(rhs)),
        )
    ]
    # Scalar case with integer data where both sides coincide exactly.
    space = WeightedFiniteSpace([1.0])
    potential = MatrixPotential(np.array([[[3.0]]]), space)
    op = WeightedOperator([[-2.0]], space, 1)
    result = hs_factorization_check(potential, op)
    records.append(
        equality_record(
            "hs_factorization_scalar_equality",
            "one-point scalar case |v tau| = |v||tau| exactly",
            result["lhs"],
            result["rhs"],
        )
    )
    return records


def _potential_values(rng, n_points: int, fiber: int, scale=1.0, nonneg=False) -> np.ndarray:
    """(N, n, n) values of a random symmetric potential, or of a V >= 0."""
    vals = rng.standard_normal((n_points, fiber, fiber))
    if nonneg:
        return np.einsum("xij,xkj->xik", vals, vals) * (scale / fiber)
    return 0.5 * (vals + vals.transpose(0, 2, 1)) * scale


def suite_duhamel(rng, cfg: SuiteConfig):
    """Order-32 quadrature of the interaction integral vs direct difference."""
    tol = cfg.tol("duhamel")
    trials = min(cfg.trials, max(100, cfg.trials // 5))

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 2, 12, 1, 3)
        H = _planted_draw(rng, n_points * fiber, 0, low=0.0, high=10.0)
        values = _potential_values(rng, n_points, fiber, scale=1.5)
        return (n_points, fiber), (weights, *H, values, float(rng.uniform(0.1, 0.5)))

    err, allowed = np.empty((2, trials))
    for (_, fiber), at, (weights, gauss, evals, values, t0) in _grouped(draw, trials):
        H = _planted(WeightedFiniteSpace(weights), fiber, gauss, evals)
        potentials = MatrixPotential(values, H.space)
        perturbed = potentials.added_to(H)
        direct = heat_difference(H, perturbed, 2 * t0)
        approx = duhamel_difference(H, potentials, t0, 32, perturbed=perturbed)
        error = WeightedOperator(approx.matrix - direct.matrix, H.space, fiber)
        err[at] = hs_norm(error)
        allowed[at] = tol * (1.0 + hs_norm(direct))
    return [
        _worst(
            "duhamel_quadrature",
            f"order-32 quadrature error vs allowed {tol:g}*(1+scale), "
            f"{trials} random pairs",
            err,
            allowed,
            0.0,
            scale=1.0,
        )
    ]


def suite_semigroup_difference_bound(rng, cfg: SuiteConfig):
    """Two-sided ultracontractive HS bound on semigroup differences."""
    tol = cfg.tol("factorization")

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 2, N_POINTS_MAX, 1, FIBER_MAX)
        H = _planted_draw(rng, n_points * fiber, 0, low=0.0, high=10.0)
        values = _potential_values(rng, n_points, fiber, scale=2.0)
        t0 = float(rng.uniform(0.1, 1.0))
        return (n_points, fiber), (weights, *H, values, t0)

    lhs, rhs = np.empty((2, cfg.trials))
    for (_, fiber), at, (weights, gauss, evals, values, t0) in _grouped(draw, cfg.trials):
        H = _planted(WeightedFiniteSpace(weights), fiber, gauss, evals)
        result = semigroup_difference_bound_check(H, MatrixPotential(values, H.space), t0)
        lhs[at], rhs[at] = result["lhs"], result["rhs"]
    return [
        _worst(
            "semigroup_difference_bound",
            f"HS norm of the difference vs factorized bound, {cfg.trials} "
            "random (H, V) pairs",
            lhs,
            rhs,
            tol * (1.0 + np.abs(rhs)),
        )
    ]


def _gauss_22_integral(mu, t0):
    """int_0^{t0} e^(-s mu) ds by the order-32 Gauss-Legendre rule.

    The rule's error is t0^65 (32!)^4 / (65 (64!)^3) times the 64th
    derivative of the integrand somewhere in [0, t0], so for mu >= 0 it
    is at most t0 (mu t0)^64 (32!)^4 / (65 (64!)^3): below 1e-38 for
    mu t0 <= 24 and t0 <= 3, the range ``suite_22_integral`` draws from.
    Elementwise over arrays of mu and t0.
    """
    nodes, weights = _gauss_legendre(32)
    half = 0.5 * np.asarray(t0, dtype=float)
    return half * np.vecdot(np.exp((-mu * half)[..., None] * (nodes + 1.0)), weights)


def suite_22_integral(rng, cfg: SuiteConfig):
    """Closed-form 2->2 time integral vs the order-32 Gauss-Legendre rule.

    The oracle is independent of the closed form under test; see
    ``_gauss_22_integral`` for its error bound.
    """
    tol = cfg.tol("closed_form")

    def draw():
        n_points = int(rng.integers(2, N_POINTS_MAX + 1))
        weights = _random_weights(rng, n_points)
        kdim = int(rng.integers(0, 2))
        A = _planted_draw(rng, n_points, kdim, low=0.05, high=8.0)
        return (n_points, 1), (weights, *A, float(rng.uniform(0.1, 3.0)))

    err, allowed = np.empty((2, cfg.trials))
    for _, at, (weights, gauss, evals, t0) in _grouped(draw, cfg.trials):
        # semigroup_22_integral of each planted A >= 0, and its oracle.
        A = _planted(WeightedFiniteSpace(weights), 1, gauss, evals)
        oracle = _gauss_22_integral(np.maximum(0.0, A.min_eigenvalue), t0)
        err[at] = np.abs(semigroup_22_integral(A, t0) - oracle)
        allowed[at] = tol * (1.0 + np.abs(oracle))
    return [
        _worst(
            "semigroup_22_integral",
            f"closed form vs quadrature on {cfg.trials} nonnegative operators",
            err,
            allowed,
            0.0,
            scale=1.0,
        )
    ]


def suite_domination(rng, cfg: SuiteConfig):
    """Pointwise domination of connection semigroups by scalar ones."""
    tol = cfg.tol("domination")
    pairs = max(2, cfg.trials // 20)
    times = (0.1, 1.0, 10.0)

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 3, 15, 2, 3)
        edges = _connection_draw(rng, n_points, fiber)
        samples = rng.standard_normal((100, n_points, fiber))
        return (n_points, fiber), (weights, edges, samples)

    excess = np.empty((pairs, len(times)))
    for (_, fiber), at, (weights, edges, samples) in _grouped(draw, pairs):
        pair = DominatedPair(*_connection_stack(WeightedFiniteSpace(weights), fiber, edges))
        for column, t in enumerate(times):
            excess[at, column] = domination_excess(pair, t, samples)
    return [
        _worst(
            "domination_pointwise",
            f"|heat_vec f| <= heat_scal |f| pointwise, {pairs} rotation "
            f"systems x 100 functions x t in {times}",
            excess.ravel(),
            0.0,
            tol,
            scale=1.0,
        )
    ]


def suite_dominated_difference(rng, cfg: SuiteConfig):
    """Scalar-dominated HS bound chain lhs <= rhs_i <= rhs_t plus transfers."""
    tol = cfg.tol("factorization")

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 3, 15, 2, 3)
        edges = _connection_draw(rng, n_points, fiber)
        samples = rng.standard_normal((5, n_points, fiber))
        values = _potential_values(rng, n_points, fiber, scale=1.0, nonneg=True)
        t0 = float(rng.uniform(0.1, 1.0))
        return (n_points, fiber), (weights, edges, samples, values, t0)

    keys = ("lhs", "rhs_integral", "rhs_plain", "ultra_perturbed", "ultra_free", "ultra_scalar")
    results = {key: np.empty(cfg.trials) for key in keys}
    for (_, fiber), at, (weights, edges, samples, values, t0) in _grouped(draw, cfg.trials):
        space = WeightedFiniteSpace(weights)
        pair = DominatedPair(*_connection_stack(space, fiber, edges))
        pair = domination_check(pair, (0.5,), samples)
        potentials = MatrixPotential(values, space, nonneg=True)
        result = dominated_difference_check(pair, potentials, t0)
        for key in keys:
            results[key][at] = result[key]
    rhs_integral, rhs_plain = results["rhs_integral"], results["rhs_plain"]
    transfer = np.maximum(results["ultra_perturbed"], results["ultra_free"])
    scalar = results["ultra_scalar"]
    return [
        _worst(
            "dominated_difference_bound",
            f"HS difference vs scalar-dominated bound, {cfg.trials} systems",
            results["lhs"],
            rhs_integral,
            tol * (1.0 + np.abs(rhs_integral)),
        ),
        _worst(
            "dominated_integral_vs_plain",
            "integral-form rhs never exceeds the plain t0 rhs",
            rhs_integral,
            rhs_plain,
            tol * (1.0 + np.abs(rhs_plain)),
        ),
        _worst(
            "ultracontractivity_transfer",
            "2->inf norms of both vector semigroups below the scalar one",
            transfer,
            scalar,
            tol * (1.0 + np.abs(scalar)),
        ),
    ]


def _truncation_checks(H: SelfAdjointOperator, V: MatrixPotential, t0):
    """Truncation of a stack of V >= 0 at level ceil(max_x |V(x)|).

    Returns, per instance, the semigroup HS distance between H + V and H
    plus the truncated V, and the largest drop of the (2,HS) norm along
    the truncations at levels 1, 2, ..., level followed by V itself.  The
    levels of all instances are evaluated together; each instance reads
    only its own.
    """
    level = np.ceil(np.max(V.pointwise_operator_norms(), axis=-1))
    cut = truncate_potential(V, level).added_to(H)
    full = V.added_to(H)
    distance = np.sqrt(heat_difference_hs_bounds(full, cut, 2 * t0)[0])
    levels = np.arange(1, int(level.max()) + 1)
    truncations = truncated_hs_norms(V, levels)
    whole = hs_norm_potential(V)[:, None]
    # Instance k's norms: its first level_k truncations, then V itself.
    column = np.arange(levels.size + 1)
    sequence = np.concatenate([truncations, whole], axis=-1)
    sequence = np.where(column < level[:, None], sequence, whole)
    drops = np.where(column[1:] <= level[:, None], np.diff(sequence) * -1.0, -np.inf)
    return distance, np.max(drops, axis=-1)


def suite_truncation(rng, cfg: SuiteConfig):
    """Saturation of level truncation and monotonicity of its (2,HS) norm."""

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 2, 12, 1, 3)
        values = _potential_values(rng, n_points, fiber, scale=3.0, nonneg=True)
        H = _planted_draw(rng, n_points * fiber, 0, low=0.0, high=5.0)
        t0 = float(rng.uniform(0.1, 1.0))
        return (n_points, fiber), (weights, values, *H, t0)

    distance, drops = np.empty((2, cfg.trials))
    for (_, fiber), at, (weights, values, gauss, evals, t0) in _grouped(draw, cfg.trials):
        space = WeightedFiniteSpace(weights)
        potentials = MatrixPotential(values, space, nonneg=True)
        H = _planted(space, fiber, gauss, evals)
        distance[at], drops[at] = _truncation_checks(H, potentials, t0)
    return [
        _worst(
            "truncation_saturation",
            "semigroup HS distance is exactly zero once the level clears "
            f"max |V(x)|, {cfg.trials} random potentials",
            distance,
            0.0,
            0.0,
            scale=1.0,
        ),
        _worst(
            "truncation_monotone",
            "(2,HS) norm of the truncation is nondecreasing in the level",
            drops,
            0.0,
            1e-12,
            scale=1.0,
        ),
    ]


def suite_positive_parts(rng, cfg: SuiteConfig):
    """Pointwise positive-part calculus after diagonalization."""

    def draw():
        n_points, fiber, weights = _shape_draw(rng, 1, 15, 1, FIBER_MAX)
        return (n_points, fiber), (weights, _potential_values(rng, n_points, fiber, 2.0))

    names = ("reconstruction", "orthogonal", "nonnegative")
    sides = {name: np.empty((2, cfg.trials)) for name in names}
    points = (-3, -2, -1)
    for _, at, (weights, values) in _grouped(draw, cfg.trials):
        space = WeightedFiniteSpace(weights)
        diag = pointwise_diagonalize(MatrixPotential(values, space))
        plus, minus = diag.positive_part(space).values, diag.negative_part(space).values
        scale = 1.0 + np.max(np.abs(values), axis=points)
        recon = np.max(np.abs(plus - minus - values), axis=points)
        prod = np.max(np.abs(np.einsum("...xij,...xjk->...xik", plus, minus)), axis=points)
        min_eig = np.minimum(
            np.min(np.linalg.eigvalsh(plus), axis=(-2, -1)),
            np.min(np.linalg.eigvalsh(minus), axis=(-2, -1)),
        )
        sides["reconstruction"][:, at] = recon, 1e-10 * scale
        sides["orthogonal"][:, at] = prod, 1e-10 * scale**2
        sides["nonnegative"][:, at] = -min_eig, 1e-10 * scale
    details = ("V = V_+ - V_- pointwise", "V_+ V_- = 0 pointwise", "both parts positive semidefinite")
    return [
        _worst(f"positive_parts_{name}", detail, *sides[name], 0.0, scale=1.0)
        for name, detail in zip(names, details)
    ]


def suite_prefactor(rng, cfg: SuiteConfig):
    """Sharp bound prefactor never exceeds the loose 4n/rho0^2 form."""
    trials = max(100, cfg.trials)
    sharp, loose = np.empty((2, trials))
    for trial in range(trials):
        rho0 = float(rng.uniform(0.01, 10.0))
        t0 = float(rng.uniform(0.01, 10.0))
        sharp[trial], loose[trial] = prefactors(rho0, t0)
    return [
        _worst(
            "prefactor_comparison",
            f"sharp prefactor <= loose prefactor on {trials} random (rho0, t0)",
            sharp,
            loose,
            0.0,
            scale=1.0 + loose,
        )
    ]


SUITE_BUILDERS = (
    ("birman_schwinger", suite_birman_schwinger),
    ("kernel_identity", suite_kernel_identity),
    ("weyl", suite_weyl),
    ("hs_factorization", suite_hs_factorization),
    ("duhamel", suite_duhamel),
    ("semigroup_difference_bound", suite_semigroup_difference_bound),
    ("22_integral", suite_22_integral),
    ("domination", suite_domination),
    ("dominated_difference", suite_dominated_difference),
    ("truncation", suite_truncation),
    ("positive_parts", suite_positive_parts),
    ("prefactor", suite_prefactor),
)


def run_abstract_suites(config: SuiteConfig) -> RunReport:
    """All abstract-inequality suites, deterministically seeded."""
    report = RunReport(command="verify-abstract", config=config.as_dict())
    seeds = np.random.SeedSequence(config.seed).spawn(len(SUITE_BUILDERS))
    for (name, builder), seed in zip(SUITE_BUILDERS, seeds):
        rng = np.random.default_rng(seed)
        report.extend(builder(rng, config))
    return report
