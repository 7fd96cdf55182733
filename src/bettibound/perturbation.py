"""Matrix-valued potentials and Hilbert-Schmidt bounds on semigroup differences.

A potential is a map from points to symmetric n x n matrices, acting on
L2(m; R^n) by pointwise multiplication.  Its (2,HS) norm is the weighted
L2 norm of the pointwise Hilbert-Schmidt norms,

    ||V||_{2,HS}^2 = sum_x m(x) ||V(x)||_HS^2,

and the central factorization estimate states that for any operator T
mapping L2 into L^inf,

    ||V T||_HS <= sqrt(n) ||V||_{2,HS} ||T||_{2,inf}.

Feeding T = exp(-t0 H) through the Duhamel representation

    exp(-2t0 H) - exp(-2t0 (H+V)) = int_0^{2t0} exp(-(2t0-s)(H+V)) V exp(-sH) ds

yields explicit HS bounds on the semigroup difference, in two flavors:
one using the 2->inf norms of both semigroups, and one (for V >= 0 and a
dominating scalar semigroup) using only the unperturbed scalar heat
operator.  The time integral of the 2->2 norms has the exact closed form
(1 - e^(-t0 rho0))/rho0 whenever H + V >= rho0 >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix, issparse

from .measure import (
    DimensionMismatchError,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    heat_difference,
    hs_norm,
    two_inf_norm,
)

__all__ = [
    "MatrixPotential",
    "PointwiseDiagonalization",
    "DominatedPair",
    "hs_norm_potential",
    "hs_factorization_check",
    "duhamel_difference",
    "semigroup_difference_bound_check",
    "semigroup_22_integral",
    "domination_check",
    "domination_excess",
    "dominated_difference_check",
    "truncate_potential",
    "pointwise_diagonalize",
    "connection_laplacian_pair",
    "random_graph_edges",
]

SYMMETRY_TOL = 1e-12
NONNEG_TOL = 1e-10
DOMINATION_SLACK = 1e-10
RELATIVE_SLACK = 1e-9


@dataclass(frozen=True)
class MatrixPotential:
    """Pointwise symmetric n x n matrices acting on L2(m; R^n) by multiplication."""

    values: np.ndarray
    space: WeightedFiniteSpace
    nonneg: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise DimensionMismatchError("potential values must have shape (N, n, n)")
        if vals.shape[0] != self.space.point_count:
            raise DimensionMismatchError("potential does not match the space")
        scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 0.0)
        asym = float(np.max(np.abs(vals - np.transpose(vals, (0, 2, 1)))))
        if asym > SYMMETRY_TOL * scale:
            raise ValueError(f"potential matrices are not symmetric (asymmetry {asym:.3e})")
        if self.nonneg:
            min_eig = float(np.min(np.linalg.eigvalsh(vals)))
            if min_eig < -NONNEG_TOL:
                raise ValueError(
                    f"potential claimed nonnegative but min eigenvalue is {min_eig:.3e}"
                )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def fiber(self) -> int:
        return self.values.shape[1]

    def as_operator(self) -> WeightedOperator:
        """Block-diagonal multiplication operator on stacked coordinates."""
        n_points, n = self.values.shape[:2]
        blocks = np.zeros((n_points, n, n_points, n))
        at = np.arange(n_points)
        blocks[at, :, at, :] = self.values
        return WeightedOperator(blocks.reshape(n_points * n, -1), self.space, n)

    def added_to(self, H: SelfAdjointOperator) -> SelfAdjointOperator:
        """H + V, with its own checked eigensolve.

        V goes onto the diagonal blocks of a copy of H's matrix, so no
        dense V is built; the sum equals ``H.matrix + V.as_operator().matrix``.
        A CSR H gives a CSR sum: V is added as a sparse block diagonal.
        """
        if not H.space.same_as(self.space) or H.fiber != self.fiber:
            raise DimensionMismatchError("potential and operator live on different spaces")
        n_points, n = self.values.shape[:2]
        at = np.arange(n_points)
        if issparse(H.matrix):
            index = (at[:, None] * n + np.arange(n)).reshape(n_points, n, 1)
            rows, cols = np.broadcast_arrays(index, index.transpose(0, 2, 1))
            blocks = coo_matrix(
                (self.values.ravel(), (rows.ravel(), cols.ravel())), H.matrix.shape
            )
            return SelfAdjointOperator(H.matrix + blocks, H.space, n)
        matrix = H.matrix + 0.0
        matrix.reshape(n_points, n, n_points, n)[at, :, at, :] += self.values
        return SelfAdjointOperator(matrix, H.space, n)

    def pointwise_operator_norms(self) -> np.ndarray:
        """Fiber operator norm |V(x)| = largest absolute eigenvalue, per point."""
        return np.max(np.abs(np.linalg.eigvalsh(self.values)), axis=1)

    @staticmethod
    def constant(space: WeightedFiniteSpace, matrix: np.ndarray, nonneg: bool = False):
        mat = np.asarray(matrix, dtype=float)
        vals = np.broadcast_to(mat, (space.point_count, *mat.shape)).copy()
        return MatrixPotential(vals, space, nonneg=nonneg)

    @staticmethod
    def from_scalar_field(space: WeightedFiniteSpace, field: np.ndarray, nonneg: bool = False):
        """Scalar multiplication potential (fiber n = 1)."""
        vals = np.asarray(field, dtype=float).reshape(-1, 1, 1)
        return MatrixPotential(vals, space, nonneg=nonneg)


def hs_norm_potential(V: MatrixPotential) -> float:
    """(2,HS) norm: sqrt of the weighted sum of squared Frobenius norms.

    Both summation orders (per point, then weight; per matrix entry over
    the space) are evaluated and must agree, as an internal consistency
    check of the weighted structure.
    """
    w = V.space.weights
    per_point = float(np.sum(w * np.sum(V.values**2, axis=(1, 2))))
    per_entry = float(np.sum(np.sum(w[:, None, None] * V.values**2, axis=0)))
    if abs(per_point - per_entry) > 1e-12 * (1.0 + abs(per_point)):
        raise AssertionError("the two (2,HS) accumulation orders disagree")
    return float(np.sqrt(per_point))


def hs_factorization_check(V: MatrixPotential, T: WeightedOperator) -> dict:
    """||V T||_HS <= sqrt(n) ||V||_{2,HS} ||T||_{2,inf}, both sides reported."""
    if not V.space.same_as(T.space) or V.fiber != T.fiber:
        raise DimensionMismatchError("potential and operator live on different spaces")
    lhs = hs_norm(V.as_operator().compose(T))
    rhs = float(np.sqrt(V.fiber)) * hs_norm_potential(V) * two_inf_norm(T)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + RELATIVE_SLACK * abs(rhs)}


def duhamel_difference(
    H: SelfAdjointOperator,
    V: MatrixPotential,
    t: float,
    quadrature_order: int = 32,
) -> WeightedOperator:
    """Gauss-Legendre approximation of the Duhamel integral on [0, 2t].

    Approximates exp(-2tH) - exp(-2t(H+V)) through
    int_0^{2t} exp(-(2t-s)(H+V)) V exp(-sH) ds; the error of the
    quadrature is asserted in tests, never assumed.
    """
    if t <= 0.0:
        raise ValueError("t must be strictly positive")
    if quadrature_order < 2:
        raise ValueError("quadrature order must be at least 2")
    v_op = V.as_operator()
    perturbed = V.added_to(H)
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_order)
    total = np.zeros_like(H.matrix)
    for node, weight in zip(nodes, weights):
        s = t * (node + 1.0)
        term = perturbed.semigroup(2.0 * t - s).matrix @ v_op.matrix @ H.semigroup(s).matrix
        total += weight * term
    return WeightedOperator(t * total, H.space, H.fiber)


def _rebuilt_and_perturbed(H: SelfAdjointOperator, V: MatrixPotential):
    """H rebuilt through the constructor, and H + V.

    Both take the same eigensolve path (``+ 0.0`` also turns -0.0 into
    +0.0), so a zero potential yields a bitwise-zero semigroup difference
    rather than eigensolver noise against the cached basis of H.
    """
    return SelfAdjointOperator(H.matrix + 0.0, H.space, H.fiber), V.added_to(H)


def _exact_22_integral(mu_min: float, t0: float) -> float:
    """int_0^{t0} e^(-s mu) ds for the smallest eigenvalue mu, any sign."""
    if mu_min == 0.0:
        return t0
    return float((1.0 - np.exp(-t0 * mu_min)) / mu_min)


def semigroup_22_integral(operator: SelfAdjointOperator, t0: float) -> float:
    """Closed form of int_0^{t0} ||exp(-sA)||_{2,2} ds for A >= 0.

    With rho0 = max(0, smallest eigenvalue), returns t0 when rho0 = 0 and
    (1 - e^(-t0 rho0))/rho0 otherwise.  Exact on finite spaces because
    ||exp(-sA)||_{2,2} = e^(-s min spec(A)); callers must ensure A >= 0,
    as the clamp at zero underestimates the integral for negative spectrum.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be strictly positive")
    rho0 = max(0.0, operator.min_eigenvalue)
    return _exact_22_integral(rho0, t0)


def semigroup_difference_bound_check(
    H: SelfAdjointOperator, V: MatrixPotential, t0: float
) -> dict:
    """HS bound on exp(-2t0 H) - exp(-2t0 (H+V)) via both 2->inf norms.

    The right-hand side is sqrt(n) ||V||_{2,HS} times the sum of the two
    semigroup 2->inf norms times the exact 2->2 time integral of the
    perturbed semigroup (no clamping: the integral is evaluated from the
    true smallest eigenvalue of H+V whatever its sign).
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be strictly positive")
    tol = 1e-9 * (1.0 + H.spectral_radius)
    if H.min_eigenvalue < -tol:
        raise ValueError("H must be positive semidefinite")
    rebuilt, perturbed = _rebuilt_and_perturbed(H, V)
    lhs = hs_norm(heat_difference(rebuilt, perturbed, 2.0 * t0))
    ultra_sum = two_inf_norm(rebuilt.semigroup(t0)) + two_inf_norm(perturbed.semigroup(t0))
    integral = _exact_22_integral(perturbed.min_eigenvalue, t0)
    rhs = float(np.sqrt(H.fiber)) * hs_norm_potential(V) * ultra_sum * integral
    return {
        "lhs": lhs,
        "rhs": rhs,
        "integral_22": integral,
        "holds": lhs <= rhs + RELATIVE_SLACK * abs(rhs),
    }


@dataclass(frozen=True)
class DominatedPair:
    """Vector operator H whose semigroup is dominated by a scalar one.

    Domination means |exp(-tH) f|(x) <= exp(-tH0)|f|(x) pointwise, where
    |.| is the Euclidean fiber norm and H0 acts on scalar functions over
    the same base space.  The flag records that the inequality has been
    verified numerically on samples; it is never assumed.
    """

    H: SelfAdjointOperator
    H0: SelfAdjointOperator
    domination_verified: bool = False

    def __post_init__(self):
        if self.H0.fiber != 1:
            raise ValueError("the comparison operator must act on scalar functions")
        if not self.H.space.same_as(self.H0.space):
            raise ValueError("operators do not share the base space")


def domination_check(
    pair: DominatedPair,
    t_samples,
    f_samples,
) -> DominatedPair:
    """Verify |exp(-tH) f| <= exp(-tH0)|f| pointwise on the given samples.

    ``f_samples`` is an iterable of (N, n) arrays.  Raises if any sample
    violates the inequality beyond an absolute slack of 1e-10; returns the
    pair with the verified flag set.
    """
    for t in t_samples:
        worst = domination_excess(pair, t, f_samples)
        if worst > DOMINATION_SLACK:
            raise ValueError(f"domination fails at t={t}: pointwise excess {worst:.3e}")
    return replace(pair, domination_verified=True)


def domination_excess(pair: DominatedPair, t: float, f_samples) -> float:
    """Worst pointwise excess |exp(-tH) f| - exp(-tH0)|f| over (N, n) samples f."""
    n_points = pair.H.space.point_count
    heat_vec = pair.H.semigroup(float(t))
    heat_scal = pair.H0.semigroup(float(t))
    worst = -np.inf
    for f in f_samples:
        f = np.asarray(f, dtype=float).reshape(n_points, pair.H.fiber)
        lhs = np.linalg.norm(heat_vec.apply_array(f), axis=1)
        rhs = heat_scal.apply_array(np.linalg.norm(f, axis=1).reshape(-1, 1)).reshape(-1)
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst


def dominated_difference_check(
    pair: DominatedPair, V: MatrixPotential, t0: float
) -> dict:
    """HS bound on the semigroup difference using only the scalar semigroup.

    For verified domination and V >= 0:

        lhs   = ||exp(-2t0 H) - exp(-2t0 (H+V))||_HS
        rhs_t = 2 sqrt(n) ||V||_{2,HS} ||exp(-t0 H0)||_{2,inf} * t0
        rhs_i = same with t0 replaced by the closed-form 2->2 integral,

    so lhs <= rhs_i <= rhs_t.  The two-sided ultracontractivity transfers
    ||exp(-t0 (H+V))||_{2,inf} <= ||exp(-t0 H0)||_{2,inf} and likewise for
    H are checked as well.
    """
    if not pair.domination_verified:
        raise ValueError("domination must be verified before applying the bound")
    if not V.nonneg:
        raise ValueError("the potential must be nonnegative (essential hypothesis)")
    if t0 <= 0.0:
        raise ValueError("t0 must be strictly positive")
    H = pair.H
    rebuilt, perturbed = _rebuilt_and_perturbed(H, V)
    lhs = hs_norm(heat_difference(rebuilt, perturbed, 2.0 * t0))
    scalar_ultra = two_inf_norm(pair.H0.semigroup(t0))
    base = 2.0 * float(np.sqrt(H.fiber)) * hs_norm_potential(V) * scalar_ultra
    integral = semigroup_22_integral(perturbed, t0)
    rhs_integral = base * integral
    rhs_plain = base * t0
    ultra_perturbed = two_inf_norm(perturbed.semigroup(t0))
    ultra_free = two_inf_norm(H.semigroup(t0))
    slack = RELATIVE_SLACK
    return {
        "lhs": lhs,
        "rhs_integral": rhs_integral,
        "rhs_plain": rhs_plain,
        "integral_22": integral,
        "ultra_perturbed": ultra_perturbed,
        "ultra_free": ultra_free,
        "ultra_scalar": scalar_ultra,
        "holds": (
            lhs <= rhs_integral + slack * abs(rhs_integral)
            and rhs_integral <= rhs_plain + slack * abs(rhs_plain)
            and ultra_perturbed <= scalar_ultra + slack * abs(scalar_ultra)
            and ultra_free <= scalar_ultra + slack * abs(scalar_ultra)
        ),
    }


def truncate_potential(V: MatrixPotential, k: float) -> MatrixPotential:
    """Zero out V at points where the fiber operator norm exceeds k.

    Keeps V(x) wherever |V(x)| <= k.  For k at least the largest fiber
    norm the result equals V exactly (finite saturation), and the (2,HS)
    norm is nondecreasing in k.
    """
    if k < 1.0:
        raise ValueError("truncation level must be at least 1")
    keep = V.pointwise_operator_norms() <= k
    vals = np.where(keep[:, None, None], V.values, 0.0)
    return MatrixPotential(vals, V.space, nonneg=V.nonneg)


@dataclass(frozen=True)
class PointwiseDiagonalization:
    """Per-point eigendecomposition V(x) = U(x) diag(L(x)) U(x)^T."""

    eigenvalues: np.ndarray
    frames: np.ndarray

    def __post_init__(self):
        n = self.eigenvalues.shape[1]
        eye = np.eye(n)
        ortho_defect = float(
            np.max(np.abs(np.einsum("xij,xik->xjk", self.frames, self.frames) - eye))
        )
        if ortho_defect > 1e-12:
            raise ValueError(f"frames are not orthogonal (defect {ortho_defect:.3e})")

    def reconstruct(self) -> np.ndarray:
        return np.einsum(
            "xij,xj,xkj->xik", self.frames, self.eigenvalues, self.frames
        )

    def _part(self, space: WeightedFiniteSpace, sign: float) -> MatrixPotential:
        clipped = np.clip(sign * self.eigenvalues, 0.0, None)
        vals = np.einsum("xij,xj,xkj->xik", self.frames, clipped, self.frames)
        vals = 0.5 * (vals + np.transpose(vals, (0, 2, 1)))
        return MatrixPotential(vals, space, nonneg=True)

    def positive_part(self, space: WeightedFiniteSpace) -> MatrixPotential:
        return self._part(space, 1.0)

    def negative_part(self, space: WeightedFiniteSpace) -> MatrixPotential:
        return self._part(space, -1.0)


def pointwise_diagonalize(V: MatrixPotential) -> PointwiseDiagonalization:
    """Eigenvalues ascending and orthogonal frames for every point.

    The reconstruction U(x) L(x) U(x)^T must match V(x) to 1e-10 times the
    scale of V; this is asserted here rather than left to callers.
    """
    evals, frames = np.linalg.eigh(V.values)
    diag = PointwiseDiagonalization(eigenvalues=evals, frames=frames)
    residual = float(np.max(np.abs(diag.reconstruct() - V.values)))
    scale = max(1.0, float(np.max(np.abs(V.values))) if V.values.size else 0.0)
    if residual > 1e-10 * scale:
        raise AssertionError(f"pointwise reconstruction failed (residual {residual:.3e})")
    return diag


def random_graph_edges(rng: np.random.Generator, n_points: int, extra: int = None):
    """Connected random graph: a random spanning tree plus extra chords."""
    edges = set()
    order = rng.permutation(n_points)
    for i in range(1, n_points):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    if extra is None:
        extra = max(1, n_points // 2)
    attempts = 0
    while len(edges) < n_points - 1 + extra and attempts < 20 * extra:
        a, b = rng.integers(0, n_points, size=2)
        attempts += 1
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return sorted(edges)


def connection_laplacian_pair(
    rng: np.random.Generator,
    space: WeightedFiniteSpace,
    fiber: int,
    edges=None,
) -> DominatedPair:
    """Discrete connection Laplacian and its scalar comparison Laplacian.

    (Hf)(x) = m(x)^(-1) sum_y w_xy (f(x) - R_xy f(y)) with orthogonal edge
    rotations satisfying R_yx = R_xy^T; H0 is the scalar graph Laplacian
    with the same weights and measure.  The scalar semigroup dominates the
    vector one for any choice of rotations; the pair is returned
    unverified and should go through ``domination_check``.
    """
    n_points = space.point_count
    if edges is None:
        edges = random_graph_edges(rng, n_points)
    n = fiber
    dim = n_points * n
    h = np.zeros((dim, dim))
    h0 = np.zeros((n_points, n_points))
    inv_m = 1.0 / space.weights
    for a, b in edges:
        w = float(rng.uniform(0.2, 2.0))
        rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sa, sb = slice(a * n, (a + 1) * n), slice(b * n, (b + 1) * n)
        h[sa, sa] += w * inv_m[a] * np.eye(n)
        h[sb, sb] += w * inv_m[b] * np.eye(n)
        h[sa, sb] -= w * inv_m[a] * rot
        h[sb, sa] -= w * inv_m[b] * rot.T
        h0[a, a] += w * inv_m[a]
        h0[b, b] += w * inv_m[b]
        h0[a, b] -= w * inv_m[a]
        h0[b, a] -= w * inv_m[b]
    H = SelfAdjointOperator(h, space, fiber=n)
    H0 = SelfAdjointOperator(h0, space, fiber=1)
    return DominatedPair(H=H, H0=H0)
