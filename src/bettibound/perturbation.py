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

Everything is read from the eigendata of H and H + V.  The Duhamel
quadrature is summed in the two eigenbases: with H = Q_H diag(lambda) Q_H^T
and H + V = Q_P diag(mu) Q_P^T (conjugated to Euclidean form), its Gauss
sum is Q_P [(Q_P^T V Q_H) o K] Q_H^T, where o is the entrywise product and
K_ij = sum_k w_k e^(-(2t - s_k) mu_i) e^(-s_k lambda_j) (the
Daleckii-Krein form of the integral).  The HS norm of the semigroup
difference is read from the two spectra by ``heat_difference_hs_squared``.

Each check is written once, over an optional leading stack axis: a
``MatrixPotential`` holds one potential or a stack of T of one shape, as a
``measure.SelfAdjointOperator`` holds one operator or a stack, and a
``DominatedPair`` one pair or a stack.  One instance gives Python
numbers; a stack, which the randomized suites check one shape group at a
time, gives the (T,) arrays of its instances' numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.sparse import coo_matrix, issparse

from .measure import (
    DimensionMismatchError,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    _block_row_two_inf,
    _conjugate,
    _dense,
    _first,
    _frobenius,
    _read_only,
    _unstacked,
    heat_difference_hs_squared,
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
    "truncated_hs_norms",
    "pointwise_diagonalize",
    "connection_laplacian_pair",
]

SYMMETRY_TOL = 1e-12
NONNEG_TOL = 1e-10
DOMINATION_SLACK = 1e-10
RELATIVE_SLACK = 1e-9


@dataclass(frozen=True)
class MatrixPotential:
    """Pointwise symmetric n x n matrices acting on L2(m; R^n) by multiplication.

    ``values`` is (N, n, n) on a space of N points, or (T, N, n, n) on a
    stack of T spaces ((T, N) weights): a stack of T potentials, each
    checked at its own scale.
    """

    values: np.ndarray
    space: WeightedFiniteSpace
    nonneg: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (3, 4) or vals.shape[-1] != vals.shape[-2]:
            raise DimensionMismatchError(
                "potential values must have shape (N, n, n) or (T, N, n, n)"
            )
        if vals.shape[:-2] != self.space.weights.shape:
            raise DimensionMismatchError("potential does not match the space")
        _check_potential(vals, self.nonneg)
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def fiber(self) -> int:
        return self.values.shape[-1]

    def as_operator(self) -> WeightedOperator:
        """Block-diagonal multiplication operator on stacked coordinates."""
        return WeightedOperator(_block_diagonal(self.values), self.space, self.fiber)

    def added_to(self, H: SelfAdjointOperator, cutoff: float = math.inf) -> SelfAdjointOperator:
        """H + V, with its own checked eigensolve; H itself when V is zero.

        The sum equals ``H.matrix + V.as_operator().matrix``, but V goes
        onto the diagonal blocks of a copy of H's matrix, so no dense V is
        built; a CSR H gives a CSR sum, with V added as a sparse block
        diagonal.  A finite ``cutoff`` makes it hold only its eigenpairs
        below it (``SelfAdjointOperator``).  For a stack, the instances
        whose V is zero everywhere keep H's eigendata, so their semigroup
        differences are exactly zero.
        """
        _check_same_space(H, self)
        values = self.values
        zero = ~np.any(values, axis=(-3, -2, -1))
        if np.all(zero):
            return H
        n_points, n = values.shape[-3:-1]
        at = np.arange(n_points)
        if issparse(H.matrix):
            index = (at[:, None] * n + np.arange(n)).reshape(n_points, n, 1)
            rows, cols = np.broadcast_arrays(index, index.transpose(0, 2, 1))
            blocks = coo_matrix((values.ravel(), (rows.ravel(), cols.ravel())), H.matrix.shape)
            matrix = H.matrix + blocks
        else:
            matrix = H.matrix + 0.0
            # The advanced indices are split by a slice, so the points come first.
            diagonal = matrix.reshape(*matrix.shape[:-2], n_points, n, n_points, n)
            diagonal[..., at, :, at, :] += np.moveaxis(values, -3, 0)
        perturbed = SelfAdjointOperator(matrix, H.space, n, cutoff)
        if np.any(zero):
            return SelfAdjointOperator._with_spectrum(
                H.space,
                n,
                np.where(zero[:, None], H.eigenvalues, perturbed.eigenvalues),
                np.where(zero[:, None, None], H._euclidean_vectors, perturbed._euclidean_vectors),
            )
        return perturbed

    def pointwise_operator_norms(self) -> np.ndarray:
        """Fiber operator norm |V(x)| = largest absolute eigenvalue, per point."""
        return _pointwise_norms(self.values)

    @staticmethod
    def from_scalar_field(space: WeightedFiniteSpace, field: np.ndarray, nonneg: bool = False):
        """Scalar multiplication potential (fiber n = 1)."""
        vals = np.asarray(field, dtype=float).reshape(-1, 1, 1)
        return MatrixPotential(vals, space, nonneg=nonneg)


def _check_same_space(H: WeightedOperator, V: MatrixPotential):
    if not H.space.same_as(V.space) or H.fiber != V.fiber:
        raise DimensionMismatchError("potential and operator live on different spaces")


def _check_potential(values: np.ndarray, nonneg: bool):
    """Raise ValueError unless every V(x) is symmetric, and >= 0 when claimed.

    ``values`` is (N, n, n), or a (T, N, n, n) stack whose instances are
    checked each at its own scale; the error names the first failing one.
    At fiber 1 the eigenvalues are the values themselves.
    """
    axes = (-3, -2, -1)
    scale = np.maximum(1.0, np.max(np.abs(values), axis=axes, initial=0.0))
    asym = np.max(np.abs(values - values.swapaxes(-1, -2)), axis=axes, initial=0.0)
    failed = asym > SYMMETRY_TOL * scale
    if np.any(failed):
        (asym,) = _first(failed, asym)
        raise ValueError(f"potential matrices are not symmetric (asymmetry {asym:.3e})")
    if nonneg:
        eigs = values[..., 0] if values.shape[-1] == 1 else np.linalg.eigvalsh(values)
        min_eig = np.min(eigs, axis=(-2, -1), initial=np.inf)
        failed = min_eig < -NONNEG_TOL
        if np.any(failed):
            (min_eig,) = _first(failed, min_eig)
            raise ValueError(f"potential claimed nonnegative but min eigenvalue is {min_eig:.3e}")


def _block_diagonal(values: np.ndarray) -> np.ndarray:
    """The stacked matrix of multiplication by V, with V(x) on the diagonal
    blocks; (N, n, n) values give (d, d), a (T, N, n, n) stack (T, d, d)."""
    *lead, n_points, n, _ = values.shape
    blocks = np.zeros((*lead, n_points, n, n_points, n))
    at = np.arange(n_points)
    # The advanced indices are split by a slice, so the points come first.
    blocks[..., at, :, at, :] = np.moveaxis(values, -3, 0)
    return blocks.reshape(*lead, n_points * n, -1)


def _pointwise_norms(values: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of each V(x), for (..., N, n, n) values."""
    return np.max(np.abs(np.linalg.eigvalsh(values)), axis=-1)


def _hs_squared(values: np.ndarray, weights: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Squared (2,HS) norms of a potential restricted to the points of each row of ``keep``.

    Both summation orders (per point, then weight; per matrix entry over
    the space) are evaluated and must agree, as an internal consistency
    check of the weighted structure.  ``values`` is (N, n, n), ``weights``
    (N,) and ``keep`` an (L, N) boolean array; with a leading stack axis on
    all three, each instance gets its (L,) norms.
    """
    squares = values**2
    per_point = np.sum(
        np.where(keep, (weights * np.sum(squares, axis=(-2, -1)))[..., None, :], 0.0), axis=-1
    )
    weighted = (weights[..., None, None] * squares)[..., None, :, :, :]
    entries = np.where(keep[..., None, None], weighted, 0.0)
    per_entry = np.sum(np.sum(entries, axis=-3), axis=(-2, -1))
    if np.any(np.abs(per_point - per_entry) > 1e-12 * (1.0 + np.abs(per_point))):
        raise AssertionError("the two (2,HS) accumulation orders disagree")
    return per_point


def hs_norm_potential(V: MatrixPotential) -> float:
    """(2,HS) norm: sqrt of the weighted sum of squared Frobenius norms.

    A stack of potentials gives the (T,) norms of its instances.
    """
    weights = V.space.weights
    keep = np.ones((*weights.shape[:-1], 1, weights.shape[-1]), dtype=bool)
    return _unstacked(np.sqrt(_hs_squared(V.values, weights, keep)[..., 0]))


def truncated_hs_norms(V: MatrixPotential, levels) -> np.ndarray:
    """(2,HS) norms of ``truncate_potential(V, k)`` for every k in ``levels``.

    Each truncation keeps V(x) or 0 at every point, so it is read from V's
    checked values without building a potential per level; the norms are
    bit-identical to ``hs_norm_potential`` of each truncation.
    """
    levels = np.asarray(levels, dtype=float).reshape(-1)
    if np.any(levels < 1.0):
        raise ValueError("truncation level must be at least 1")
    keep = V.pointwise_operator_norms()[None, :] <= levels[:, None]
    return np.sqrt(_hs_squared(V.values, V.space.weights, keep))


def hs_factorization_check(V: MatrixPotential, T: WeightedOperator) -> dict:
    """||V T||_HS <= sqrt(n) ||V||_{2,HS} ||T||_{2,inf}, both sides reported.

    A stack of potentials and operators gives (T,) arrays.
    """
    _check_same_space(T, V)
    n, matrix = V.fiber, _dense(T.matrix)
    lhs = _frobenius(_conjugate(_block_diagonal(V.values) @ matrix, T._sqrt_w))
    rhs = np.sqrt(n) * hs_norm_potential(V) * _block_row_two_inf(matrix, T._sqrt_w, n)
    holds = lhs <= rhs + RELATIVE_SLACK * np.abs(rhs)
    return {"lhs": _unstacked(lhs), "rhs": _unstacked(rhs), "holds": _unstacked(holds)}


@lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    """Read-only nodes and weights of the order-``order`` rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def duhamel_difference(
    H: SelfAdjointOperator,
    V: MatrixPotential,
    t,
    quadrature_order: int = 32,
    perturbed: SelfAdjointOperator | None = None,
) -> WeightedOperator:
    """Gauss-Legendre approximation of the Duhamel integral on [0, 2t].

    Approximates exp(-2tH) - exp(-2t(H+V)) through
    int_0^{2t} exp(-(2t-s)(H+V)) V exp(-sH) ds.  With the rule's nodes
    s_k and weights w_k on [0, 2t], the eigenvalues lambda of H and mu of
    H + V, and Q_H, Q_P their Euclidean eigenvectors, the Gauss sum of the
    conjugated integrand is

        Q_P [(Q_P^T V Q_H) o K] Q_H^T,
        K = (e^(-(2t-s_k) mu_i) w_k) @ (e^(-s_k lambda_j))^T,

    three small products and no heat matrix at any node.  It is the same
    quadrature, not the closed form; its error is asserted in tests,
    never assumed.  A caller that already holds ``V.added_to(H)`` passes
    it as ``perturbed`` to save its eigensolve.  Stacks of operators and
    potentials take one time t or (T,) times.
    """
    if perturbed is None:
        perturbed = V.added_to(H)
    t = np.asarray(t, dtype=float)[..., None]
    if np.any(t <= 0.0):
        raise ValueError("t must be strictly positive")
    if quadrature_order < 2:
        raise ValueError("quadrature order must be at least 2")
    nodes, weights = _gauss_legendre(quadrature_order)
    s = t * (nodes + 1.0)
    left = np.exp(-(perturbed.eigenvalues[..., :, None] * (2.0 * t - s)[..., None, :])) * weights
    right = np.exp(-(H.eigenvalues[..., :, None] * s[..., None, :]))
    # With the m-orthonormal bases U = M^(-1/2) Q, the sum is
    # U_P [(U_P^T M V U_H) o K] U_H^T M, and U_P^T M V U_H = Q_P^T V Q_H
    # because V is block diagonal with one weight per block.
    u_p, u_h = perturbed.basis, H.basis
    w = H.space.stacked_weights(H.fiber)
    coupling = u_p.swapaxes(-1, -2) @ (w[..., :, None] * _block_diagonal(V.values)) @ u_h
    kernel = left @ right.swapaxes(-1, -2)
    total = u_p @ (coupling * kernel) @ u_h.swapaxes(-1, -2)
    return WeightedOperator(_read_only(t[..., None] * total * w[..., None, :]), H.space, H.fiber)


def _exact_22_integral(mu_min, t0):
    """int_0^{t0} e^(-s mu) ds for the smallest eigenvalue mu, any sign.

    Elementwise over arrays of mu and t0.
    """
    mu_min, t0 = np.broadcast_arrays(np.asarray(mu_min, dtype=float), np.asarray(t0, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = (1.0 - np.exp(-t0 * mu_min)) / mu_min
    return np.where(mu_min == 0.0, t0, value)


def semigroup_22_integral(operator: SelfAdjointOperator, t0) -> float:
    """Closed form of int_0^{t0} ||exp(-sA)||_{2,2} ds for A >= 0.

    With rho0 = max(0, smallest eigenvalue), returns t0 when rho0 = 0 and
    (1 - e^(-t0 rho0))/rho0 otherwise.  Exact on finite spaces because
    ||exp(-sA)||_{2,2} = e^(-s min spec(A)); callers must ensure A >= 0,
    as the clamp at zero underestimates the integral for negative spectrum.
    A stack of operators, with one t0 or (T,) times, gives (T,) integrals.
    """
    if np.any(np.asarray(t0) <= 0.0):
        raise ValueError("t0 must be strictly positive")
    rho0 = np.maximum(0.0, operator.min_eigenvalue)
    return _unstacked(_exact_22_integral(rho0, t0))


def semigroup_difference_bound_check(H: SelfAdjointOperator, V: MatrixPotential, t0) -> dict:
    """HS bound on exp(-2t0 H) - exp(-2t0 (H+V)) via both 2->inf norms.

    The right-hand side is sqrt(n) ||V||_{2,HS} times the sum of the two
    semigroup 2->inf norms times the exact 2->2 time integral of the
    perturbed semigroup (no clamping: the integral is evaluated from the
    true smallest eigenvalue of H+V whatever its sign).  Everything is read
    from H's own eigendata and one eigensolve of H + V.  Stacks of
    operators and potentials, with one t0 or (T,) times, give (T,) arrays.
    """
    _check_same_space(H, V)
    t0 = np.asarray(t0, dtype=float)
    if np.any(t0 <= 0.0):
        raise ValueError("t0 must be strictly positive")
    if np.any(H.min_eigenvalue < -H.zero_threshold()):
        raise ValueError("H must be positive semidefinite")
    perturbed = V.added_to(H)
    lhs = np.sqrt(heat_difference_hs_squared(H, perturbed, 2.0 * t0))
    ultra_sum = two_inf_norm(H.semigroup(t0)) + two_inf_norm(perturbed.semigroup(t0))
    integral = _exact_22_integral(perturbed.min_eigenvalue, t0)
    rhs = np.sqrt(H.fiber) * hs_norm_potential(V) * ultra_sum * integral
    result = {
        "lhs": lhs,
        "rhs": rhs,
        "integral_22": integral,
        "holds": lhs <= rhs + RELATIVE_SLACK * np.abs(rhs),
    }
    return {key: _unstacked(value) for key, value in result.items()}


@dataclass(frozen=True)
class DominatedPair:
    """Vector operator H whose semigroup is dominated by a scalar one.

    Domination means |exp(-tH) f|(x) <= exp(-tH0)|f|(x) pointwise, where
    |.| is the Euclidean fiber norm and H0 acts on scalar functions over
    the same base space.  The flag records that the inequality has been
    verified numerically on samples; it is never assumed.  H and H0 may be
    stacks of T operators on one stack of spaces: a stack of T pairs.
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

    ``f_samples`` is as ``domination_excess`` takes it.  Raises if any
    sample violates the inequality beyond an absolute slack of 1e-10,
    naming the first instance of a stack that does; returns the pair with
    the verified flag set.
    """
    f_samples = list(f_samples)
    for t in t_samples:
        worst = domination_excess(pair, t, f_samples)
        failed = worst > DOMINATION_SLACK
        if np.any(failed):
            (worst,) = _first(failed, worst)
            raise ValueError(f"domination fails at t={t}: pointwise excess {worst:.3e}")
    return replace(pair, domination_verified=True)


def domination_excess(pair: DominatedPair, t: float, f_samples) -> float:
    """Worst pointwise excess |exp(-tH) f| - exp(-tH0)|f| over samples f; -inf for none.

    ``f_samples`` is an iterable of (N, n) arrays f, or for a stack of
    pairs a (T, S, N, n) array of S samples per instance, which gives the
    (T,) worst excesses.  Each sample is one gemv with each heat matrix,
    as ``apply_array`` runs it.
    """
    H, H0 = pair.H, pair.H0
    shape = (H.space.point_count, H.fiber)
    each = (-1, *shape) if H.space.weights.ndim > 1 else shape
    rows = [np.asarray(f, dtype=float).reshape(each) for f in f_samples]
    samples = np.array(rows).reshape(len(rows), *each)
    heat_vec = H.semigroup(t).matrix[..., None, :, :]
    heat_scal = H0.semigroup(t).matrix[..., None, :, :]
    moved = heat_vec @ samples.reshape(*samples.shape[:-2], -1, 1)
    lhs = np.linalg.norm(moved.reshape(samples.shape), axis=-1)
    rhs = (heat_scal @ np.linalg.norm(samples, axis=-1)[..., None])[..., 0]
    return _unstacked(np.max(lhs - rhs, axis=(-2, -1), initial=-np.inf))


def dominated_difference_check(pair: DominatedPair, V: MatrixPotential, t0) -> dict:
    """HS bound on the semigroup difference using only the scalar semigroup.

    For verified domination and V >= 0:

        lhs   = ||exp(-2t0 H) - exp(-2t0 (H+V))||_HS
        rhs_t = 2 sqrt(n) ||V||_{2,HS} ||exp(-t0 H0)||_{2,inf} * t0
        rhs_i = same with t0 replaced by the closed-form 2->2 integral,

    so lhs <= rhs_i <= rhs_t.  The two-sided ultracontractivity transfers
    ||exp(-t0 (H+V))||_{2,inf} <= ||exp(-t0 H0)||_{2,inf} and likewise for
    H are checked as well.  As in ``semigroup_difference_bound_check``, H's
    own eigendata and one eigensolve of H + V serve every term, and stacks
    of pairs and potentials, with one t0 or (T,) times, give (T,) arrays.
    """
    if not pair.domination_verified:
        raise ValueError("domination must be verified before applying the bound")
    if not V.nonneg:
        raise ValueError("the potential must be nonnegative (essential hypothesis)")
    H, H0 = pair.H, pair.H0
    _check_same_space(H, V)
    t0 = np.asarray(t0, dtype=float)
    if np.any(t0 <= 0.0):
        raise ValueError("t0 must be strictly positive")
    perturbed = V.added_to(H)
    lhs = np.sqrt(heat_difference_hs_squared(H, perturbed, 2.0 * t0))
    scalar_ultra = two_inf_norm(H0.semigroup(t0))
    base = 2.0 * np.sqrt(H.fiber) * hs_norm_potential(V) * scalar_ultra
    integral = _exact_22_integral(np.maximum(0.0, perturbed.min_eigenvalue), t0)
    rhs_integral = base * integral
    rhs_plain = base * t0
    ultra_perturbed = two_inf_norm(perturbed.semigroup(t0))
    ultra_free = two_inf_norm(H.semigroup(t0))
    slack = RELATIVE_SLACK
    result = {
        "lhs": lhs,
        "rhs_integral": rhs_integral,
        "rhs_plain": rhs_plain,
        "integral_22": integral,
        "ultra_perturbed": ultra_perturbed,
        "ultra_free": ultra_free,
        "ultra_scalar": scalar_ultra,
        "holds": (
            (lhs <= rhs_integral + slack * np.abs(rhs_integral))
            & (rhs_integral <= rhs_plain + slack * np.abs(rhs_plain))
            & (ultra_perturbed <= scalar_ultra + slack * np.abs(scalar_ultra))
            & (ultra_free <= scalar_ultra + slack * np.abs(scalar_ultra))
        ),
    }
    return {key: _unstacked(value) for key, value in result.items()}


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
    """Per-point eigendecomposition V(x) = U(x) diag(L(x)) U(x)^T.

    ``eigenvalues`` is (N, n) and ``frames`` (N, n, n), or (T, N, n) and
    (T, N, n, n) for a stack of potentials.
    """

    eigenvalues: np.ndarray
    frames: np.ndarray

    def __post_init__(self):
        eye = np.eye(self.eigenvalues.shape[-1])
        gram = np.einsum("...xij,...xik->...xjk", self.frames, self.frames)
        ortho_defect = float(np.max(np.abs(gram - eye)))
        if ortho_defect > 1e-12:
            raise ValueError(f"frames are not orthogonal (defect {ortho_defect:.3e})")

    def reconstruct(self) -> np.ndarray:
        return np.einsum(
            "...xij,...xj,...xkj->...xik", self.frames, self.eigenvalues, self.frames
        )

    def part_values(self, sign: float) -> np.ndarray:
        """Values of the positive (sign 1) or negative (sign -1) part, symmetrized."""
        clipped = np.clip(sign * self.eigenvalues, 0.0, None)
        vals = np.einsum("...xij,...xj,...xkj->...xik", self.frames, clipped, self.frames)
        return 0.5 * (vals + vals.swapaxes(-1, -2))

    def positive_part(self, space: WeightedFiniteSpace) -> MatrixPotential:
        return MatrixPotential(self.part_values(1.0), space, nonneg=True)

    def negative_part(self, space: WeightedFiniteSpace) -> MatrixPotential:
        return MatrixPotential(self.part_values(-1.0), space, nonneg=True)


def pointwise_diagonalize(V: MatrixPotential) -> PointwiseDiagonalization:
    """Eigenvalues ascending and orthogonal frames for every point.

    The reconstruction U(x) L(x) U(x)^T must match V(x) to 1e-10 times the
    scale of V, each instance of a stack at its own scale; this is asserted
    here rather than left to callers.
    """
    values = V.values
    evals, frames = np.linalg.eigh(values)
    diag = PointwiseDiagonalization(eigenvalues=evals, frames=frames)
    axes = (-3, -2, -1)
    residual = np.max(np.abs(diag.reconstruct() - values), axis=axes)
    scale = np.maximum(1.0, np.max(np.abs(values), axis=axes, initial=0.0))
    failed = residual > 1e-10 * scale
    if np.any(failed):
        (residual,) = _first(failed, residual)
        raise AssertionError(f"pointwise reconstruction failed (residual {residual:.3e})")
    return diag


def random_graph_edges(rng: np.random.Generator, n_points: int):
    """Connected random graph: a random spanning tree plus about n_points // 2 chords."""
    edges = set()
    order = rng.permutation(n_points)
    for i in range(1, n_points):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
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
) -> DominatedPair:
    """Discrete connection Laplacian and its scalar comparison Laplacian.

    (Hf)(x) = m(x)^(-1) sum_y w_xy (f(x) - R_xy f(y)) with orthogonal edge
    rotations satisfying R_yx = R_xy^T; H0 is the scalar graph Laplacian
    with the same weights and measure.  The scalar semigroup dominates the
    vector one for any choice of rotations; the pair is returned
    unverified and should go through ``domination_check``.  This is
    ``_connection_draw`` and then ``_connection_stack``.
    """
    H, H0 = _connection_stack(space, fiber, [_connection_draw(rng, space.point_count, fiber)])
    return DominatedPair(H=H, H0=H0)


def _connection_draw(rng: np.random.Generator, n_points: int, fiber: int):
    """The draws of one connection Laplacian: a random graph, then per edge
    a weight and the Gaussian matrix its rotation comes from."""
    a, b = np.array(random_graph_edges(rng, n_points), dtype=int).reshape(-1, 2).T
    w, gauss = np.empty(a.size), np.empty((a.size, fiber, fiber))
    for k in range(a.size):
        w[k] = rng.uniform(0.2, 2.0)
        gauss[k] = rng.standard_normal((fiber, fiber))
    return a, b, w, gauss


def _connection_stack(space: WeightedFiniteSpace, fiber: int, draws) -> tuple:
    """(H, H0), the connection Laplacians of ``draws`` on ``space``.

    On a stack of T spaces ``draws`` holds T ``_connection_draw`` results
    and H, H0 are stacks; on one space it holds one.  All rotations come
    from one stacked QR, and both matrices are assembled by one scatter
    each, every entry accumulating its edges' terms in edge order, as a
    loop would.
    """
    weights = space.weights.reshape(-1, space.point_count)
    n_stack, n_points = weights.shape
    n = fiber
    owner = np.repeat(np.arange(n_stack), [draw[0].size for draw in draws])
    a, b, w, gauss = (np.concatenate(part) for part in zip(*draws))
    rot, _ = np.linalg.qr(gauss)
    inv_m = 1.0 / weights
    wa, wb = w * inv_m[owner, a], w * inv_m[owner, b]
    ends = np.stack([a, b], axis=1).ravel()
    end_owner = np.repeat(owner, 2)
    degree = np.stack([wa, wb], axis=1).ravel()
    h = np.zeros((n_stack, n_points, n, n_points, n))
    fiber_at = np.arange(n)
    diagonal = (end_owner[:, None], ends[:, None], fiber_at, ends[:, None], fiber_at)
    np.add.at(h, diagonal, degree[:, None])
    np.subtract.at(h, (owner, a, slice(None), b), wa[:, None, None] * rot)
    np.subtract.at(h, (owner, b, slice(None), a), wb[:, None, None] * rot.transpose(0, 2, 1))
    h0 = np.zeros((n_stack, n_points, n_points))
    np.add.at(h0, (end_owner, ends, ends), degree)
    np.subtract.at(h0, (owner, a, b), wa)
    np.subtract.at(h0, (owner, b, a), wb)
    lead = space.weights.shape[:-1]
    H = SelfAdjointOperator(h.reshape(*lead, n_points * n, -1), space, n)
    return H, SelfAdjointOperator(h0.reshape(*lead, n_points, n_points), space, 1)
