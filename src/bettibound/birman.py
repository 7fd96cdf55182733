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
    heat_difference,
    heat_difference_hs_squared,
    schatten_power_sum,
    singular_values,
)

__all__ = [
    "OperatorPair",
    "KernelBoundCertificate",
    "birman_schwinger_operator",
    "kernel_identity_check",
    "crude_kernel_bound",
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
        if self.rho0 <= 0.0 or self.t0 <= 0.0:
            raise ValueError("rho0 and t0 must be strictly positive")
        if not self.H.space.same_as(self.Hprime.space) or self.H.fiber != self.Hprime.fiber:
            raise ValueError("pair members live on different spaces")
        if self.H.min_eigenvalue < -self.H.zero_threshold():
            raise ValueError(
                f"H must be nonnegative (min eigenvalue {self.H.min_eigenvalue:.3e})"
            )
        if self.Hprime.min_eigenvalue < self.rho0 - self.Hprime.zero_threshold():
            raise ValueError(
                f"H' must be bounded below by rho0={self.rho0} "
                f"(min eigenvalue {self.Hprime.min_eigenvalue:.3e})"
            )

    @cached_property
    def birman_schwinger_singular_values(self) -> np.ndarray:
        """Singular values of the Birman-Schwinger operator at t0, descending.

        Computed once per pair, so the sharp bound costs one SVD for every
        exponent p.
        """
        return singular_values(birman_schwinger_operator(self, self.t0))


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
    if np.any(np.exp(-t * pair.Hprime.eigenvalues) >= 1.0):
        raise ValueError("I - exp(-tH') is singular: H' has spectrum <= 0")
    inv = pair.Hprime.spectral_function(lambda w: 1.0 / (1.0 - np.exp(-t * w)))
    return inv.compose(heat_difference(pair.H, pair.Hprime, t))


def kernel_identity_check(pair: OperatorPair, t: float) -> dict:
    """Compare ker(H) with the fixed-point space of the BS operator.

    Returns the two kernel dimensions, the largest principal angle between
    the spanned subspaces (in the weighted geometry), and whether both the
    dimensions and the subspaces agree.
    """
    if t <= 0.0:
        raise ValueError("t must be strictly positive")
    ker_h = pair.H.kernel_basis()
    bs = birman_schwinger_operator(pair, t)
    fixed = bs.matrix - np.eye(bs.dim)
    # Kernel of a non-self-adjoint operator: smallest singular directions
    # of the conjugated matrix, with the same zero-tolerance rule used for
    # eigenvalues.
    sqrt_w = np.sqrt(pair.H.space.stacked_weights(pair.H.fiber))
    conj = (sqrt_w[:, None] * fixed) / sqrt_w[None, :]
    u, s, vt = np.linalg.svd(conj)
    thresh = 1e-9 * (1.0 + (s[0] if s.size else 0.0))
    null_euclid = vt[s <= thresh].T
    ker_bs = null_euclid / sqrt_w[:, None]

    dim_h = ker_h.shape[1]
    dim_bs = ker_bs.shape[1]
    if dim_h == dim_bs == 0:
        max_angle = 0.0
    elif dim_h != dim_bs:
        max_angle = float(np.pi / 2)
    else:
        max_angle = float(np.max(principal_angles(ker_h, ker_bs, pair.H.space, pair.H.fiber)))
    return {
        "dim_ker_H": dim_h,
        "dim_ker_bs": dim_bs,
        "max_principal_angle": max_angle,
        "match": dim_h == dim_bs and max_angle <= SUBSPACE_ANGLE_TOL,
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
    sqrt_w = np.sqrt(space.stacked_weights(fiber))
    qa, _ = np.linalg.qr(sqrt_w[:, None] * basis_a)
    qb, _ = np.linalg.qr(sqrt_w[:, None] * basis_b)
    sigma = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))


def birman_schwinger_bound(pair: OperatorPair, p: float) -> KernelBoundCertificate:
    """dim ker(H) and the sharp and crude (``crude_kernel_bound``) bounds at exponent p.

    The sharp bound is the p-th power sum of the pair's cached
    ``birman_schwinger_singular_values``.
    """
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    return KernelBoundCertificate(
        kernel_dim=pair.H.kernel_dim(),
        bound_sharp=float(np.sum(pair.birman_schwinger_singular_values**p)),
        bound_crude=crude_kernel_bound(pair, p),
        p=p,
    )


def crude_kernel_bound(pair: OperatorPair, p: float) -> float:
    """(1 - e^(-rho0 t0))^(-p) ||D_t0||_Sp^p, an upper bound on dim ker(H).

    D_t0 is scaled by 1/(1 - e^(-rho0 t0)) before its norm is taken, so
    the scalar saturation case (H = 0, H' = rho0 on one point) comes out
    as exactly 1.0.  At p = 2 the squared Hilbert-Schmidt norm is read from
    the two cached spectra (``heat_difference_hs_squared``), with no dense
    D; any other p takes the singular values of the dense D.
    """
    gap = 1.0 - np.exp(-pair.rho0 * pair.t0)
    if p == 2.0:
        return heat_difference_hs_squared(pair.H, pair.Hprime, pair.t0, gap)
    diff = heat_difference(pair.H, pair.Hprime, pair.t0)
    scaled = WeightedOperator(diff.matrix / gap, pair.H.space, pair.H.fiber)
    return schatten_power_sum(scaled, p)


def weyl_inequality_check(operator: WeightedOperator, exponents) -> list:
    """sum |lambda_i|^p <= sum s_i^p for an arbitrary operator, one dict per p >= 1.

    Eigenvalues may be complex; both sides are computed in the weighted
    metric (the conjugated matrix is similar to the operator, so the
    eigenvalues agree).  The eigenvalues and singular values are computed
    once for all ``exponents``.
    """
    if any(p < 1.0 for p in exponents):
        raise ValueError("Weyl's inequality needs p >= 1")
    conj = operator.conjugated()
    moduli = np.abs(np.linalg.eigvals(conj.toarray() if issparse(conj) else conj))
    svals = singular_values(operator)
    results = []
    for p in exponents:
        lhs = float(np.sum(moduli**p))
        rhs = float(np.sum(svals**p))
        results.append({
            "eigenvalue_power_sum": lhs,
            "singular_power_sum": rhs,
            "holds": lhs <= rhs + 1e-9 * (1.0 + abs(rhs)),
        })
    return results


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
    at ``low`` keeps the planted kernel well separated.
    """
    dim = space.point_count * fiber
    if kernel_dim > dim:
        raise ValueError("kernel dimension exceeds the space dimension")
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    evals = np.concatenate(
        [np.zeros(kernel_dim), rng.uniform(low, high, size=dim - kernel_dim)]
    )
    evals.sort()
    return SelfAdjointOperator.from_spectrum(space, evals, q, fiber)
