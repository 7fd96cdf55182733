"""Kernel-dimension bounds from Schatten norms of semigroup differences.

For self-adjoint H >= 0 and H' >= rho0 > 0 on the same weighted space, the
difference D_t = exp(-tH) - exp(-tH') controls the kernel of H through the
Birman-Schwinger principle:

    ker(H) = ker((I - exp(-tH'))^(-1) D_t - I),

and, for any p > 0,

    dim ker(H) <= || (I - exp(-t0 H'))^(-1) D_t0 ||_Sp^p
               <= (1 - exp(-rho0 t0))^(-p) || D_t0 ||_Sp^p.

The sharp bound is the p-th power sum of singular values of the
Birman-Schwinger operator; the crude bound replaces the resolvent factor
by its worst-case spectral bound.  Weyl's inequality between eigenvalue
and singular-value power sums, which drives the counting step, is exposed
as its own check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import issparse

from .measure import (
    OperatorStack,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    _conjugate,
    _first,
    _read_only,
    _single,
    _singular_values,
    heat_difference,
    heat_difference_hs_bounds,
    schatten_power_sum,
)

__all__ = [
    "OperatorPair",
    "KernelBoundCertificate",
    "birman_schwinger_operator",
    "kernel_identity_check",
    "crude_kernel_bound",
    "crude_hs_enclosure",
    "birman_schwinger_bound",
    "weyl_inequality_check",
    "principal_angles",
    "planted_kernel_operator",
    "random_weighted_space",
]

SUBSPACE_ANGLE_TOL = 1e-7


@dataclass(frozen=True)
class OperatorPair:
    """H >= 0 and H' >= rho0 > 0 on a common weighted space."""

    H: SelfAdjointOperator
    Hprime: SelfAdjointOperator
    rho0: float
    t0: float

    def __post_init__(self):
        if not self.H.space.same_as(self.Hprime.space) or self.H.fiber != self.Hprime.fiber:
            raise ValueError("pair members live on different spaces")
        _check_pair(self.H, self.Hprime, self.rho0, self.t0)

    @cached_property
    def _stacks(self) -> tuple[OperatorStack, OperatorStack]:
        """H and H' as stacks of one, for the stacked kernels."""
        return OperatorStack.of(self.H), OperatorStack.of(self.Hprime)

    @cached_property
    def _heat_difference(self) -> np.ndarray:
        """The (1, d, d) matrix of exp(-t0 H) - exp(-t0 H'), built once per pair."""
        return _read_only(_heat_difference_matrices(*self._stacks, self.t0))

    @cached_property
    def birman_schwinger_singular_values(self) -> np.ndarray:
        """Singular values of the Birman-Schwinger operator at t0, descending.

        Computed once per pair, so the sharp bound costs one SVD for every
        exponent p.
        """
        return _read_only(_bs_singular_values(*self._stacks, self.t0, self._heat_difference)[0])


def _check_pair(H, Hprime, rho0, t0):
    """Raise ValueError unless rho0, t0 > 0, H >= 0 and H' >= rho0.

    ``H`` and ``Hprime`` are ``SelfAdjointOperator``s with float rho0 and
    t0, or ``OperatorStack``s with (T,) arrays, checked per instance; the
    error names the first instance that fails.
    """
    if np.any(np.asarray(rho0) <= 0.0) or np.any(np.asarray(t0) <= 0.0):
        raise ValueError("rho0 and t0 must be strictly positive")
    failed = H.min_eigenvalue < -H.zero_threshold()
    if np.any(failed):
        (low,) = _first(failed, H.min_eigenvalue)
        raise ValueError(f"H must be nonnegative (min eigenvalue {low:.3e})")
    failed = Hprime.min_eigenvalue < rho0 - Hprime.zero_threshold()
    if np.any(failed):
        low, rho0 = _first(failed, Hprime.min_eigenvalue, rho0)
        raise ValueError(f"H' must be bounded below by rho0={rho0} (min eigenvalue {low:.3e})")


@dataclass(frozen=True)
class KernelBoundCertificate:
    """dim ker(H) together with the sharp and crude Schatten bounds.

    Whether the chain dim ker(H) <= sharp <= crude holds is not judged
    here: ``suites.suite_birman_schwinger`` records it at the run's
    tolerance.
    """

    kernel_dim: int
    bound_sharp: float
    bound_crude: float
    p: float


def birman_schwinger_operator(pair: OperatorPair, t: float) -> WeightedOperator:
    """(I - exp(-tH'))^(-1) D_t, the operator whose fixed points are ker(H).

    The inverse is applied through the spectral decomposition of H', never
    by a generic linear solve; it exists because the spectrum of exp(-tH')
    stays inside [0, e^(-rho0 t)].  ``_bs_matrices`` on a stack of one.
    """
    difference = _heat_difference_matrices(*pair._stacks, t)
    matrix = _bs_matrices(*pair._stacks, t, difference)[0]
    return WeightedOperator(matrix, pair.H.space, pair.H.fiber)


def _heat_difference_matrices(H: OperatorStack, Hprime: OperatorStack, t) -> np.ndarray:
    """The (T, d, d) matrices of exp(-t_k H_k) - exp(-t_k H'_k), as ``heat_difference``."""
    return H.semigroup(t).matrix - Hprime.semigroup(t).matrix


def _bs_matrices(H: OperatorStack, Hprime: OperatorStack, t, difference) -> np.ndarray:
    """The (T, d, d) matrices of the stacked ``birman_schwinger_operator``,
    from ``difference``, the ``_heat_difference_matrices`` at t."""
    column = Hprime._per_instance(t)
    if np.any(np.exp(-column * Hprime.eigenvalues) >= 1.0):
        raise ValueError("I - exp(-tH') is singular: H' has spectrum <= 0")
    inv = Hprime.spectral_function(lambda w: 1.0 / (1.0 - np.exp(-column * w)))
    return inv.matrix @ difference


def _bs_singular_values(H: OperatorStack, Hprime: OperatorStack, t, difference) -> np.ndarray:
    """(T, d) singular values of the Birman-Schwinger operators, descending,
    from ``difference`` as ``_bs_matrices`` takes it."""
    return _singular_values(_conjugate(_bs_matrices(H, Hprime, t, difference), H._sqrt_w))


def kernel_identity_check(pair: OperatorPair, t: float) -> dict:
    """Compare ker(H) with the fixed-point space of the BS operator.

    Returns the two kernel dimensions, the largest principal angle between
    the spanned subspaces (in the weighted geometry), and whether both the
    dimensions and the subspaces agree.  ``_kernel_identities`` on a stack
    of one.
    """
    return _single(_kernel_identities(*pair._stacks, [t]))


def _kernel_identities(H: OperatorStack, Hprime: OperatorStack, t) -> dict:
    """Stacked ``kernel_identity_check`` at times t (T,): each entry a (T,) array.

    The instances whose two kernels have the same dimension k > 0 share
    one stacked principal-angle computation per k.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be strictly positive")
    ker_h = H.kernel_mask()
    fixed = _bs_matrices(H, Hprime, t, _heat_difference_matrices(H, Hprime, t)) - np.eye(
        ker_h.shape[-1]
    )
    # Kernel of a non-self-adjoint operator: smallest singular directions
    # of the conjugated matrix, with the same zero-tolerance rule used for
    # eigenvalues.
    sqrt_w = H._sqrt_w
    conj = _conjugate(fixed, sqrt_w)
    _, s, vt = np.linalg.svd(conj)
    ker_bs = s <= 1e-9 * (1.0 + s[:, :1])
    dim_h, dim_bs = np.count_nonzero(ker_h, axis=-1), np.count_nonzero(ker_bs, axis=-1)
    max_angle = np.where(dim_h == dim_bs, 0.0, np.pi / 2)
    for k in np.unique(dim_h[(dim_h == dim_bs) & (dim_h > 0)]):
        at = np.flatnonzero((dim_h == k) & (dim_bs == k))
        # The kernel columns of each basis and rows of each V^T, in order.
        cols = np.nonzero(ker_h[at])[1].reshape(at.size, k)
        rows = np.nonzero(ker_bs[at])[1].reshape(at.size, k)
        basis_h = np.take_along_axis(H.basis[at], cols[:, None, :], axis=-1)
        null = np.take_along_axis(vt[at], rows[:, :, None], axis=-2).swapaxes(-1, -2)
        basis_bs = null / sqrt_w[at, :, None]
        angles = _principal_angles(basis_h, basis_bs, sqrt_w[at])
        max_angle[at] = np.max(angles, axis=-1)
    return {
        "dim_ker_H": dim_h,
        "dim_ker_bs": dim_bs,
        "max_principal_angle": max_angle,
        "match": (dim_h == dim_bs) & (max_angle <= SUBSPACE_ANGLE_TOL),
    }


def principal_angles(
    basis_a: np.ndarray,
    basis_b: np.ndarray,
    space: WeightedFiniteSpace,
    fiber: int,
) -> np.ndarray:
    """Principal angles between two subspaces of the weighted space.

    Inputs are column bases (need not be orthonormal); both are
    re-orthonormalized in the weighted inner product first.
    """
    return _principal_angles(basis_a, basis_b, np.sqrt(space.stacked_weights(fiber)))


def _principal_angles(basis_a, basis_b, sqrt_w) -> np.ndarray:
    """``principal_angles`` from the square roots of the stacked weights;
    (T, d, k) bases with (T, d) roots give (T, k) angles."""
    qa, _ = np.linalg.qr(sqrt_w[..., :, None] * basis_a)
    qb, _ = np.linalg.qr(sqrt_w[..., :, None] * basis_b)
    sigma = np.linalg.svd(qa.swapaxes(-1, -2) @ qb, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))


def birman_schwinger_bound(pair: OperatorPair, p: float) -> KernelBoundCertificate:
    """dim ker(H) and the sharp and crude (``crude_kernel_bound``) bounds at exponent p.

    The sharp bound is the p-th power sum of the pair's cached
    ``birman_schwinger_singular_values``.  ``_kernel_count_bounds`` on a
    stack of one, with the pair's heat difference built once.
    """
    singular = pair.birman_schwinger_singular_values[None]
    kernel, sharp, crude = _kernel_count_bounds(
        *pair._stacks, pair.rho0, pair.t0, p, singular, pair._heat_difference
    )
    return KernelBoundCertificate(
        kernel_dim=int(kernel[0]), bound_sharp=float(sharp[0]), bound_crude=float(crude[0]), p=p
    )


def _kernel_count_bounds(
    H: OperatorStack, Hprime: OperatorStack, rho0, t0, p: float, singular, difference
):
    """Stacked ``birman_schwinger_bound``: (T,) kernel dimensions, sharp and crude bounds.

    ``singular`` holds the (T, d) ``_bs_singular_values`` at t0 and
    ``difference`` the ``_heat_difference_matrices`` at t0, which both
    serve every exponent p.  The crude bound is ``crude_kernel_bound``'s
    arithmetic per instance: at p = 2 from the spectra, at other p from
    ``difference``.
    """
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    rho0, t0 = np.asarray(rho0, dtype=float), np.asarray(t0, dtype=float)
    gap = 1.0 - np.exp(-rho0 * t0)
    if p == 2.0:
        crude = H.heat_difference_hs_squared(Hprime, t0, gap)
    else:
        scaled = difference / H._per_instance(gap)[..., None]
        crude = np.sum(_singular_values(_conjugate(scaled, H._sqrt_w)) ** p, axis=-1)
    return H.kernel_dim(), np.sum(singular**p, axis=-1), crude


def crude_kernel_bound(pair: OperatorPair, p: float) -> float:
    """(1 - e^(-rho0 t0))^(-p) ||D_t0||_Sp^p, an upper bound on dim ker(H).

    D_t0 is scaled by 1/(1 - e^(-rho0 t0)) before its norm is taken, so
    the scalar saturation case (H = 0, H' = rho0 on one point) comes out
    as exactly 1.0.  At p = 2 the squared Hilbert-Schmidt norm is read from
    the two cached spectra (``crude_hs_enclosure``), with no dense D; for
    an H' that holds only its eigenpairs below a cut-off it is the upper
    end of that enclosure.  Any other p takes the singular values of the
    dense D, and H' must hold every pair.
    """
    if p == 2.0:
        return crude_hs_enclosure(pair)[0]
    gap = 1.0 - np.exp(-pair.rho0 * pair.t0)
    diff = heat_difference(pair.H, pair.Hprime, pair.t0)
    scaled = WeightedOperator(diff.matrix / gap, pair.H.space, pair.H.fiber)
    return schatten_power_sum(scaled, p)


def crude_hs_enclosure(pair: OperatorPair) -> tuple[float, float]:
    """(upper, lower) ends of an enclosure of ``crude_kernel_bound(pair, 2)``.

    The ends of ``heat_difference_hs_bounds`` for D_t0 scaled by
    1/(1 - e^(-rho0 t0)): both are the bound itself when H' holds every
    eigenpair, and the upper end bounds dim ker(H) when H' holds only its
    eigenpairs below a cut-off.
    """
    gap = 1.0 - np.exp(-pair.rho0 * pair.t0)
    return heat_difference_hs_bounds(pair.H, pair.Hprime, pair.t0, gap)


def weyl_inequality_check(operator: WeightedOperator, exponents) -> list:
    """sum |lambda_i|^p <= sum s_i^p for an arbitrary operator, one dict per p >= 1.

    Eigenvalues may be complex; both sides are computed in the weighted
    metric (the conjugated matrix is similar to the operator, so the
    eigenvalues agree).  The eigenvalues and singular values are computed
    once for all ``exponents``.  ``_weyl_power_sums`` on a stack of one.
    """
    conj = operator.conjugated()
    conj = conj.toarray() if issparse(conj) else conj
    lhs, rhs = _weyl_power_sums(conj[None], exponents)
    return [
        {
            "eigenvalue_power_sum": float(eig[0]),
            "singular_power_sum": float(sing[0]),
            "holds": bool(eig[0] <= sing[0] + 1e-9 * (1.0 + abs(sing[0]))),
        }
        for eig, sing in zip(lhs, rhs)
    ]


def _weyl_power_sums(conj: np.ndarray, exponents):
    """(P, T) sums of |eigenvalue|^p and of s^p over a (T, n, n) stack of
    conjugated matrices, one row per exponent p >= 1."""
    if any(p < 1.0 for p in exponents):
        raise ValueError("Weyl's inequality needs p >= 1")
    moduli = np.abs(np.linalg.eigvals(conj))
    svals = _singular_values(conj)
    lhs = np.array([np.sum(moduli**p, axis=-1) for p in exponents])
    rhs = np.array([np.sum(svals**p, axis=-1) for p in exponents])
    return lhs, rhs


def random_weighted_space(rng: np.random.Generator, n_points: int) -> WeightedFiniteSpace:
    """Weights log-uniform in [e^-1, e], keeping conditioning mild."""
    return WeightedFiniteSpace(np.exp(rng.uniform(-1.0, 1.0, size=n_points)))


def planted_kernel_operator(
    rng: np.random.Generator,
    space: WeightedFiniteSpace,
    fiber: int,
    kernel_dim: int,
    low: float = 0.1,
    high: float = 10.0,
) -> SelfAdjointOperator:
    """Nonnegative operator with an exactly known kernel dimension.

    A random m-orthonormal frame is combined with eigenvalues consisting
    of ``kernel_dim`` zeros and the rest uniform in [low, high]; the gap
    at ``low`` keeps the planted kernel well separated.  This is
    ``_planted_draw`` and then ``_planted_stack`` on a stack of one.
    """
    gauss, evals = _planted_draw(rng, space.point_count * fiber, kernel_dim, low, high)
    stack = _planted_stack(space.weights[None], fiber, gauss[None], evals[None])
    return stack.operator(0, space)


def _planted_draw(rng, dim: int, kernel_dim: int, low: float = 0.1, high: float = 10.0):
    """The draws of one planted operator: the Gaussian matrix its frame
    comes from, then its eigenvalues, sorted."""
    if kernel_dim > dim:
        raise ValueError("kernel dimension exceeds the space dimension")
    gauss = rng.standard_normal((dim, dim))
    evals = np.concatenate([np.zeros(kernel_dim), rng.uniform(low, high, size=dim - kernel_dim)])
    evals.sort()
    return gauss, evals


def _planted_stack(weights, fiber: int, gauss, evals) -> OperatorStack:
    """The planted operators of (T, d, d) Gaussian matrices and (T, d)
    eigenvalues: one stacked QR, then ``OperatorStack.from_spectrum``."""
    q, _ = np.linalg.qr(gauss)
    return OperatorStack.from_spectrum(weights, fiber, evals, q)
