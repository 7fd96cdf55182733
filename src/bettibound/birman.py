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
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    _conjugate,
    _first,
    _read_only,
    _single,
    _singular_values,
    _stack_of_one,
    heat_difference_hs_bounds,
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
    def _heat_difference(self) -> np.ndarray:
        """The (d, d) matrix of exp(-t0 H) - exp(-t0 H'), built once per pair."""
        return _read_only(_heat_difference_matrices(self.H, self.Hprime, self.t0))

    @cached_property
    def birman_schwinger_singular_values(self) -> np.ndarray:
        """Singular values of the Birman-Schwinger operator at t0, descending.

        Computed once per pair, so the sharp bound costs one SVD for every
        exponent p.
        """
        return _read_only(_bs_singular_values(self.H, self.Hprime, self.t0, self._heat_difference))


def _check_pair(H, Hprime, rho0, t0):
    """Raise ValueError unless rho0, t0 > 0, H >= 0 and H' >= rho0.

    ``H`` and ``Hprime`` are ``SelfAdjointOperator``s with float rho0 and
    t0, or stacks of them with (T,) arrays, checked per instance; the
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
    stays inside [0, e^(-rho0 t)].
    """
    difference = _heat_difference_matrices(pair.H, pair.Hprime, t)
    matrix = _bs_matrices(pair.H, pair.Hprime, t, difference)
    return WeightedOperator(matrix, pair.H.space, pair.H.fiber)


def _heat_difference_matrices(H, Hprime, t) -> np.ndarray:
    """The matrix of exp(-tH) - exp(-tH'), as ``heat_difference``; for
    stacks the (T, d, d) matrices at one time t or (T,) times."""
    return H.semigroup(t).matrix - Hprime.semigroup(t).matrix


def _bs_matrices(H, Hprime, t, difference) -> np.ndarray:
    """The matrix of ``birman_schwinger_operator`` (per instance of a
    stack too), from ``difference``, the ``_heat_difference_matrices`` at t."""
    column = np.asarray(t, dtype=float)[..., None]
    if np.any(np.exp(-column * Hprime.eigenvalues) >= 1.0):
        raise ValueError("I - exp(-tH') is singular: H' has spectrum <= 0")
    inv = Hprime.spectral_function(lambda w: 1.0 / (1.0 - np.exp(-column * w)))
    return inv.matrix @ difference


def _bs_singular_values(H, Hprime, t, difference) -> np.ndarray:
    """Singular values of the Birman-Schwinger operator, descending, (T, d)
    for stacks, from ``difference`` as ``_bs_matrices`` takes it."""
    return _singular_values(_conjugate(_bs_matrices(H, Hprime, t, difference), H._sqrt_w))


def kernel_identity_check(pair: OperatorPair, t: float) -> dict:
    """Compare ker(H) with the fixed-point space of the BS operator.

    Returns the two kernel dimensions, the largest principal angle between
    the spanned subspaces (in the weighted geometry), and whether both the
    dimensions and the subspaces agree.  ``_kernel_identities`` on a stack
    of one.
    """
    stacks = _stack_of_one(pair.H), _stack_of_one(pair.Hprime)
    return _single(_kernel_identities(*stacks, [t]))


def _kernel_identities(H, Hprime, t) -> dict:
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
    ``birman_schwinger_singular_values``; ``_kernel_count_bounds`` on the
    pair, with its heat difference built once.
    """
    singular = pair.birman_schwinger_singular_values
    kernel, sharp, crude = _kernel_count_bounds(
        pair.H, pair.Hprime, pair.rho0, pair.t0, p, singular, pair._heat_difference
    )
    return KernelBoundCertificate(
        kernel_dim=kernel, bound_sharp=float(sharp), bound_crude=float(crude), p=p
    )


def _kernel_count_bounds(H, Hprime, rho0, t0, p: float, singular, difference):
    """``birman_schwinger_bound``'s kernel dimension, sharp and crude bounds.

    ``singular`` holds the ``_bs_singular_values`` at t0 and
    ``difference`` the ``_heat_difference_matrices`` at t0, which both
    serve every exponent p.  On stacks, with (T,) rho0 and t0, each is
    the (T,) array of the instances' values.
    """
    crude = _crude_bounds(H, Hprime, rho0, t0, p, difference)[0]
    return H.kernel_dim(), np.sum(singular**p, axis=-1), crude


def _crude_bounds(H, Hprime, rho0, t0, p: float, difference):
    """(upper, lower) ends of (1 - e^(-rho0 t0))^(-p) ||D_t0||_Sp^p, per instance of a stack too.

    D_t0 = exp(-t0 H) - exp(-t0 H') is scaled by 1/(1 - e^(-rho0 t0))
    before its norm is taken.  At p = 2 the ends are those of
    ``heat_difference_hs_bounds``, read from the two spectra; at any other
    p both are the p-th power sum of the singular values of
    ``difference``, the matrix of D_t0 (``_heat_difference_matrices``).
    """
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    gap = 1.0 - np.exp(-np.asarray(rho0, dtype=float) * t0)
    if p == 2.0:
        return heat_difference_hs_bounds(H, Hprime, t0, gap)
    scaled = difference / gap[..., None, None]
    crude = np.sum(_singular_values(_conjugate(scaled, H._sqrt_w)) ** p, axis=-1)
    return crude, crude


def crude_kernel_bound(pair: OperatorPair, p: float) -> float:
    """(1 - e^(-rho0 t0))^(-p) ||D_t0||_Sp^p, an upper bound on dim ker(H).

    D_t0 is scaled by 1/(1 - e^(-rho0 t0)) before its norm is taken, so
    the scalar saturation case (H = 0, H' = rho0 on one point) comes out
    as exactly 1.0.  At p = 2 the squared Hilbert-Schmidt norm is read from
    the two cached spectra (``crude_hs_enclosure``), with no dense D; for
    an H' that holds only its eigenpairs below a cut-off it is the upper
    end of that enclosure.  Any other p takes the singular values of the
    dense D (``_crude_bounds``), and H' must hold every pair.
    """
    if p == 2.0:
        return crude_hs_enclosure(pair)[0]
    bound = _crude_bounds(pair.H, pair.Hprime, pair.rho0, pair.t0, p, pair._heat_difference)
    return float(bound[0])


def crude_hs_enclosure(pair: OperatorPair) -> tuple[float, float]:
    """(upper, lower) ends of an enclosure of ``crude_kernel_bound(pair, 2)``.

    The ends of ``heat_difference_hs_bounds`` for D_t0 scaled by
    1/(1 - e^(-rho0 t0)): both are the bound itself when H' holds every
    eigenpair, and the upper end bounds dim ker(H) when H' holds only its
    eigenpairs below a cut-off.
    """
    return _crude_bounds(pair.H, pair.Hprime, pair.rho0, pair.t0, 2.0, None)


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
    ``_planted_draw`` and then ``_planted``.
    """
    draw = _planted_draw(rng, space.point_count * fiber, kernel_dim, low, high)
    return _planted(space, fiber, *draw)


def _planted_draw(rng, dim: int, kernel_dim: int, low: float = 0.1, high: float = 10.0):
    """The draws of one planted operator: the Gaussian matrix its frame
    comes from, then its eigenvalues, sorted."""
    if kernel_dim > dim:
        raise ValueError("kernel dimension exceeds the space dimension")
    gauss = rng.standard_normal((dim, dim))
    evals = np.concatenate([np.zeros(kernel_dim), rng.uniform(low, high, size=dim - kernel_dim)])
    evals.sort()
    return gauss, evals


def _planted(space, fiber: int, gauss, evals) -> SelfAdjointOperator:
    """The planted operator of a (d, d) Gaussian matrix and (d,) eigenvalues
    on ``space``, or the stack of (T, d, d) and (T, d) ones on a stack of
    spaces: one QR, then ``SelfAdjointOperator.from_spectrum``."""
    q, _ = np.linalg.qr(gauss)
    return SelfAdjointOperator.from_spectrum(space, evals, q, fiber)
