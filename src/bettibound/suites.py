"""Seeded randomized suites for the abstract operator inequalities.

Each suite draws its instances from a dedicated child generator of the
configured seed, runs every instance through the corresponding check,
and condenses the outcome into worst-case records: the reported lhs/rhs
pair belongs to the instance with the smallest normalized margin, and
the record passes only if no instance violated its slack.  Identical
configurations therefore produce identical records.
"""

from __future__ import annotations

import math

import numpy as np

from .birman import (
    OperatorPair,
    birman_schwinger_bound,
    kernel_identity_check,
    planted_kernel_operator,
    random_weighted_space,
    weyl_inequality_check,
)
from .measure import (
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    heat_difference,
    heat_difference_hs_squared,
    hs_norm,
)
from .perturbation import (
    MatrixPotential,
    _gauss_legendre,
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
from .pipeline import prefactors
from .report import CheckRecord, RunReport, SuiteConfig

__all__ = ["run_abstract_suites", "SUITE_BUILDERS"]


class _Worst:
    """Track the instance whose normalized margin (rhs-lhs)/scale is smallest."""

    def __init__(self):
        self.lhs = 0.0
        self.rhs = 0.0
        self.key = None
        self.violations = 0

    def update(self, lhs: float, rhs: float, slack: float, scale: float = None):
        if scale is None:
            scale = 1.0 + abs(rhs)
        key = (rhs - lhs) / scale
        if self.key is None or key < self.key:
            self.key = key
            self.lhs, self.rhs = float(lhs), float(rhs)
        if lhs > rhs + slack:
            self.violations += 1

    def record(self, name: str, detail: str) -> CheckRecord:
        return CheckRecord(
            name=name,
            detail=detail,
            lhs=self.lhs,
            rhs=self.rhs,
            margin=self.rhs - self.lhs,
            passed=self.violations == 0,
        )


def _random_pair(rng, cfg: SuiteConfig):
    n_points = int(rng.integers(2, cfg.n_points_max + 1))
    fiber = int(rng.integers(1, cfg.fiber_max + 1))
    space = random_weighted_space(rng, n_points)
    dim = n_points * fiber
    kdim = int(rng.integers(0, min(4, dim - 1) + 1))
    H = planted_kernel_operator(rng, space, fiber, kdim)
    rho0 = float(rng.uniform(0.2, 2.0))
    bump = planted_kernel_operator(rng, space, fiber, kernel_dim=0, low=0.0, high=2.0)
    Hp = SelfAdjointOperator(
        H.matrix + rho0 * np.eye(dim) + bump.matrix, space, fiber
    )
    t0 = float(rng.uniform(0.2, 2.0))
    return OperatorPair(H=H, Hprime=Hp, rho0=rho0, t0=t0), kdim


def suite_birman_schwinger(rng, cfg: SuiteConfig):
    """Kernel-count chain dim ker H <= sharp <= crude over planted pairs."""
    tol = cfg.tol("chain")
    worst = {
        (p, kind): _Worst() for p in (1.0, 2.0) for kind in ("kernel", "crude")
    }
    for _ in range(cfg.trials):
        pair, kdim = _random_pair(rng, cfg)
        for p in (1.0, 2.0):
            cert = birman_schwinger_bound(pair, p)
            slack_sharp = tol * (1.0 + abs(cert.bound_sharp))
            slack_crude = tol * (1.0 + abs(cert.bound_crude))
            worst[(p, "kernel")].update(float(kdim), cert.bound_sharp, slack_sharp)
            worst[(p, "crude")].update(cert.bound_sharp, cert.bound_crude, slack_crude)
    records = []
    for p in (1.0, 2.0):
        records.append(
            worst[(p, "kernel")].record(
                f"birman_kernel_vs_sharp_p{p:g}",
                f"dim ker H <= Schatten-{p:g} power sum of the kernel-counting "
                f"operator; worst of {cfg.trials} planted pairs",
            )
        )
        records.append(
            worst[(p, "crude")].record(
                f"birman_sharp_vs_crude_p{p:g}",
                "sharp bound <= resolvent-factored crude bound; worst of "
                f"{cfg.trials} planted pairs",
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
        margin=float(cert.kernel_dim) - cert.bound_crude,
        passed=cert.bound_crude == float(cert.kernel_dim) == 1.0,
    )


def suite_kernel_identity(rng, cfg: SuiteConfig):
    """Fixed-point subspace of the counting operator matches ker H."""
    tol = cfg.tol("subspace_angle")
    worst_angle = _Worst()
    mismatches = 0
    for _ in range(cfg.trials):
        pair, _ = _random_pair(rng, cfg)
        t = float(rng.uniform(0.2, 2.0))
        result = kernel_identity_check(pair, t)
        if result["dim_ker_H"] != result["dim_ker_bs"]:
            mismatches += 1
        worst_angle.update(result["max_principal_angle"], 0.0, tol, scale=1.0)
    return [
        CheckRecord(
            name="kernel_identity_dims",
            detail=f"kernel dimensions agree on {cfg.trials} planted pairs",
            lhs=float(mismatches),
            rhs=0.0,
            margin=-float(mismatches),
            passed=mismatches == 0,
        ),
        CheckRecord(
            name="kernel_identity_subspace",
            detail="largest principal angle between the two kernels "
            f"(allowed {tol:g})",
            lhs=worst_angle.lhs,
            rhs=tol,
            margin=tol - worst_angle.lhs,
            passed=worst_angle.lhs <= tol,
        ),
    ]


def suite_weyl(rng, cfg: SuiteConfig):
    """Eigenvalue power sums below singular value power sums, p >= 1."""
    tol = cfg.tol("chain")
    exponents = (1.0, 1.5, 2.0)
    worst = {p: _Worst() for p in exponents}
    for _ in range(cfg.trials):
        n_points = int(rng.integers(2, cfg.n_points_max + 1))
        fiber = int(rng.integers(1, cfg.fiber_max + 1))
        space = random_weighted_space(rng, n_points)
        dim = n_points * fiber
        op = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
        for p, result in zip(exponents, weyl_inequality_check(op, exponents)):
            lhs, rhs = result["eigenvalue_power_sum"], result["singular_power_sum"]
            worst[p].update(lhs, rhs, tol * (1.0 + abs(rhs)))
    return [
        worst[p].record(
            f"weyl_p{p:g}",
            f"sum |eig|^p <= sum s^p on {cfg.trials} non-normal operators",
        )
        for p in exponents
    ]


def suite_hs_factorization(rng, cfg: SuiteConfig):
    """||V T||_HS <= sqrt(n) ||V||_{2,HS} ||T||_{2,inf} on random inputs."""
    tol = cfg.tol("factorization")
    worst = _Worst()
    for _ in range(cfg.trials):
        n_points = int(rng.integers(1, cfg.n_points_max + 1))
        fiber = int(rng.integers(1, cfg.fiber_max + 1))
        space = random_weighted_space(rng, n_points)
        vals = rng.standard_normal((n_points, fiber, fiber))
        vals = 0.5 * (vals + vals.transpose(0, 2, 1))
        potential = MatrixPotential(vals, space)
        dim = n_points * fiber
        op = WeightedOperator(rng.standard_normal((dim, dim)), space, fiber)
        result = hs_factorization_check(potential, op)
        worst.update(result["lhs"], result["rhs"], tol * (1.0 + abs(result["rhs"])))
    records = [
        worst.record(
            "hs_factorization",
            f"multiplication-after-smoothing HS bound on {cfg.trials} random "
            "potential/operator pairs",
        )
    ]
    # Scalar case with integer data where both sides coincide exactly.
    space = WeightedFiniteSpace([1.0])
    potential = MatrixPotential(np.array([[[3.0]]]), space)
    op = WeightedOperator([[-2.0]], space, 1)
    result = hs_factorization_check(potential, op)
    records.append(
        CheckRecord(
            name="hs_factorization_scalar_equality",
            detail="one-point scalar case |v tau| = |v||tau| exactly",
            lhs=result["lhs"],
            rhs=result["rhs"],
            margin=result["rhs"] - result["lhs"],
            passed=result["lhs"] == result["rhs"],
        )
    )
    return records


def _random_potential(rng, space, fiber, scale=1.0, nonneg=False):
    vals = rng.standard_normal((space.point_count, fiber, fiber))
    if nonneg:
        vals = np.einsum("xij,xkj->xik", vals, vals) * (scale / fiber)
    else:
        vals = 0.5 * (vals + vals.transpose(0, 2, 1)) * scale
    return MatrixPotential(vals, space, nonneg=nonneg)


def suite_duhamel(rng, cfg: SuiteConfig):
    """Order-32 quadrature of the interaction integral vs direct difference."""
    tol = cfg.tol("duhamel")
    worst = _Worst()
    trials = min(cfg.trials, max(100, cfg.trials // 5))
    for _ in range(trials):
        n_points = int(rng.integers(2, min(cfg.n_points_max, 12) + 1))
        fiber = int(rng.integers(1, min(cfg.fiber_max, 3) + 1))
        space = random_weighted_space(rng, n_points)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
        potential = _random_potential(rng, space, fiber, scale=1.5)
        t0 = float(rng.uniform(0.1, 0.5))
        perturbed = potential.added_to(H)
        direct = heat_difference(H, perturbed, 2 * t0)
        approx = duhamel_difference(H, potential, t0, 32, perturbed=perturbed)
        err = hs_norm(WeightedOperator(approx.matrix - direct.matrix, space, fiber))
        allowed = tol * (1.0 + hs_norm(direct))
        worst.update(err, allowed, 0.0, scale=1.0)
    return [
        worst.record(
            "duhamel_quadrature",
            f"order-32 quadrature error vs allowed {tol:g}*(1+scale), "
            f"{trials} random pairs",
        )
    ]


def suite_semigroup_difference_bound(rng, cfg: SuiteConfig):
    """Two-sided ultracontractive HS bound on semigroup differences."""
    tol = cfg.tol("factorization")
    worst = _Worst()
    for _ in range(cfg.trials):
        n_points = int(rng.integers(2, cfg.n_points_max + 1))
        fiber = int(rng.integers(1, cfg.fiber_max + 1))
        space = random_weighted_space(rng, n_points)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=10.0)
        potential = _random_potential(rng, space, fiber, scale=2.0)
        t0 = float(rng.uniform(0.1, 1.0))
        result = semigroup_difference_bound_check(H, potential, t0)
        worst.update(result["lhs"], result["rhs"], tol * (1.0 + abs(result["rhs"])))
    return [
        worst.record(
            "semigroup_difference_bound",
            f"HS norm of the difference vs factorized bound, {cfg.trials} "
            "random (H, V) pairs",
        )
    ]


def _gauss_22_integral(mu: float, t0: float) -> float:
    """int_0^{t0} e^(-s mu) ds by the order-32 Gauss-Legendre rule.

    The rule's error is t0^65 (32!)^4 / (65 (64!)^3) times the 64th
    derivative of the integrand somewhere in [0, t0], so for mu >= 0 it
    is at most t0 (mu t0)^64 (32!)^4 / (65 (64!)^3): below 1e-38 for
    mu t0 <= 24 and t0 <= 3, the range ``suite_22_integral`` draws from.
    """
    nodes, weights = _gauss_legendre(32)
    half = 0.5 * t0
    return half * float(weights @ np.exp(-mu * half * (nodes + 1.0)))


def suite_22_integral(rng, cfg: SuiteConfig):
    """Closed-form 2->2 time integral vs the order-32 Gauss-Legendre rule.

    The oracle is independent of the closed form under test; see
    ``_gauss_22_integral`` for its error bound.
    """
    tol = cfg.tol("closed_form")
    worst = _Worst()
    for _ in range(cfg.trials):
        n_points = int(rng.integers(2, cfg.n_points_max + 1))
        space = random_weighted_space(rng, n_points)
        kdim = int(rng.integers(0, 2))
        A = planted_kernel_operator(rng, space, 1, kdim, low=0.05, high=8.0)
        t0 = float(rng.uniform(0.1, 3.0))
        closed = semigroup_22_integral(A, t0)
        mu = max(0.0, A.min_eigenvalue)
        oracle = _gauss_22_integral(mu, t0)
        err = abs(closed - oracle)
        worst.update(err, tol * (1.0 + abs(oracle)), 0.0, scale=1.0)
    return [
        worst.record(
            "semigroup_22_integral",
            f"closed form vs quadrature on {cfg.trials} nonnegative operators",
        )
    ]


def suite_domination(rng, cfg: SuiteConfig):
    """Pointwise domination of connection semigroups by scalar ones."""
    tol = cfg.tol("domination")
    worst = _Worst()
    pairs = max(2, cfg.trials // 20)
    times = (0.1, 1.0, 10.0)
    for _ in range(pairs):
        n_points = int(rng.integers(3, max(4, min(cfg.n_points_max, 15)) + 1))
        fiber = int(rng.integers(2, max(3, cfg.fiber_max) + 1))
        space = random_weighted_space(rng, n_points)
        pair = connection_laplacian_pair(rng, space, fiber)
        samples = [rng.standard_normal((n_points, fiber)) for _ in range(100)]
        for t in times:
            worst.update(domination_excess(pair, t, samples), 0.0, tol, scale=1.0)
    return [
        worst.record(
            "domination_pointwise",
            f"|heat_vec f| <= heat_scal |f| pointwise, {pairs} rotation "
            f"systems x 100 functions x t in {times}",
        )
    ]


def suite_dominated_difference(rng, cfg: SuiteConfig):
    """Scalar-dominated HS bound chain lhs <= rhs_i <= rhs_t plus transfers."""
    tol = cfg.tol("factorization")
    worst_main = _Worst()
    worst_order = _Worst()
    worst_transfer = _Worst()
    for _ in range(cfg.trials):
        n_points = int(rng.integers(3, max(4, min(cfg.n_points_max, 15)) + 1))
        fiber = int(rng.integers(2, max(3, cfg.fiber_max) + 1))
        space = random_weighted_space(rng, n_points)
        pair = connection_laplacian_pair(rng, space, fiber)
        samples = [rng.standard_normal((n_points, fiber)) for _ in range(5)]
        pair = domination_check(pair, (0.5,), samples)
        potential = _random_potential(rng, space, fiber, scale=1.0, nonneg=True)
        t0 = float(rng.uniform(0.1, 1.0))
        result = dominated_difference_check(pair, potential, t0)
        worst_main.update(
            result["lhs"],
            result["rhs_integral"],
            tol * (1.0 + abs(result["rhs_integral"])),
        )
        worst_order.update(
            result["rhs_integral"],
            result["rhs_plain"],
            tol * (1.0 + abs(result["rhs_plain"])),
        )
        scalar = result["ultra_scalar"]
        worst_transfer.update(
            max(result["ultra_perturbed"], result["ultra_free"]),
            scalar,
            tol * (1.0 + abs(scalar)),
        )
    return [
        worst_main.record(
            "dominated_difference_bound",
            f"HS difference vs scalar-dominated bound, {cfg.trials} systems",
        ),
        worst_order.record(
            "dominated_integral_vs_plain",
            "integral-form rhs never exceeds the plain t0 rhs",
        ),
        worst_transfer.record(
            "ultracontractivity_transfer",
            "2->inf norms of both vector semigroups below the scalar one",
        ),
    ]


def suite_truncation(rng, cfg: SuiteConfig):
    """Saturation of level truncation and monotonicity of its (2,HS) norm."""
    worst_sat = _Worst()
    worst_mono = _Worst()
    for _ in range(cfg.trials):
        n_points = int(rng.integers(2, min(cfg.n_points_max, 12) + 1))
        fiber = int(rng.integers(1, min(cfg.fiber_max, 3) + 1))
        space = random_weighted_space(rng, n_points)
        potential = _random_potential(rng, space, fiber, scale=3.0, nonneg=True)
        H = planted_kernel_operator(rng, space, fiber, 0, low=0.0, high=5.0)
        level = float(np.ceil(potential.pointwise_operator_norms().max()))
        truncated = truncate_potential(potential, level)
        t0 = float(rng.uniform(0.1, 1.0))
        full = potential.added_to(H)
        cut = truncated.added_to(H)
        distance = math.sqrt(heat_difference_hs_squared(full, cut, 2 * t0))
        worst_sat.update(distance, 0.0, 0.0, scale=1.0)
        levels = np.arange(1, int(level) + 1)
        norms = np.append(
            truncated_hs_norms(potential, levels), hs_norm_potential(potential)
        )
        drops = float(np.max(np.diff(norms) * -1.0)) if len(norms) > 1 else 0.0
        worst_mono.update(drops, 0.0, 1e-12, scale=1.0)
    return [
        worst_sat.record(
            "truncation_saturation",
            "semigroup HS distance is exactly zero once the level clears "
            f"max |V(x)|, {cfg.trials} random potentials",
        ),
        worst_mono.record(
            "truncation_monotone",
            "(2,HS) norm of the truncation is nondecreasing in the level",
        ),
    ]


def suite_positive_parts(rng, cfg: SuiteConfig):
    """Pointwise positive-part calculus after diagonalization."""
    worst_recon = _Worst()
    worst_prod = _Worst()
    worst_psd = _Worst()
    for _ in range(cfg.trials):
        n_points = int(rng.integers(1, min(cfg.n_points_max, 15) + 1))
        fiber = int(rng.integers(1, cfg.fiber_max + 1))
        space = random_weighted_space(rng, n_points)
        potential = _random_potential(rng, space, fiber, scale=2.0)
        diag = pointwise_diagonalize(potential)
        plus = diag.positive_part(space)
        minus = diag.negative_part(space)
        scale = 1.0 + float(np.max(np.abs(potential.values)))
        recon = float(np.max(np.abs(plus.values - minus.values - potential.values)))
        prod = float(
            np.max(np.abs(np.einsum("xij,xjk->xik", plus.values, minus.values)))
        )
        min_eig = min(
            float(np.min(np.linalg.eigvalsh(plus.values))),
            float(np.min(np.linalg.eigvalsh(minus.values))),
        )
        worst_recon.update(recon, 1e-10 * scale, 0.0, scale=1.0)
        worst_prod.update(prod, 1e-10 * scale**2, 0.0, scale=1.0)
        worst_psd.update(-min_eig, 1e-10 * scale, 0.0, scale=1.0)
    return [
        worst_recon.record(
            "positive_parts_reconstruction", "V = V_+ - V_- pointwise"
        ),
        worst_prod.record("positive_parts_orthogonal", "V_+ V_- = 0 pointwise"),
        worst_psd.record(
            "positive_parts_nonnegative", "both parts positive semidefinite"
        ),
    ]


def suite_prefactor(rng, cfg: SuiteConfig):
    """Sharp bound prefactor never exceeds the loose 4n/rho0^2 form."""
    worst = _Worst()
    trials = max(100, cfg.trials)
    for _ in range(trials):
        rho0 = float(rng.uniform(0.01, 10.0))
        t0 = float(rng.uniform(0.01, 10.0))
        sharp, loose = prefactors(rho0, t0)
        worst.update(sharp, loose, 0.0, scale=1.0 + loose)
    return [
        worst.record(
            "prefactor_comparison",
            f"sharp prefactor <= loose prefactor on {trials} random (rho0, t0)",
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
