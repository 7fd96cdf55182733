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

Each check is one function over an optional leading stack axis: an
``OperatorPair`` holds one pair or a stack of T pairs of one shape (stacks
of ``measure.SelfAdjointOperator``, with rho0 and t0 floats or (T,)
arrays), and a ``WeightedOperator`` one matrix or a stack.  One instance
gives Python numbers; a stack, which the randomized suites check one
shape group at a time, gives the (T,) arrays of its instances' numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .measure import (
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    _conjugate,
    _dense,
    _first,
    _read_only,
    _singular_values,
    _unstacked,
    heat_difference,
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
    """H >= 0 and H' >= rho0 > 0 on a common weighted space.

    H and H' may be stacks of T operators (``SelfAdjointOperator``), with
    rho0 and t0 floats or (T,) arrays: every instance is checked, and the
    error names the numbers of the first one that fails.
    """

    H: SelfAdjointOperator
    Hprime: SelfAdjointOperator
    rho0: float
    t0: float

    def __post_init__(self):
        H, Hprime, rho0 = self.H, self.Hprime, self.rho0
        if not H.space.same_as(Hprime.space) or H.fiber != Hprime.fiber:
            raise ValueError("pair members live on different spaces")
        if np.any(np.asarray(rho0) <= 0.0) or np.any(np.asarray(self.t0) <= 0.0):
            raise ValueError("rho0 and t0 must be strictly positive")
        failed = H.min_eigenvalue < -H.zero_threshold()
        if np.any(failed):
            (low,) = _first(failed, H.min_eigenvalue)
            raise ValueError(f"H must be nonnegative (min eigenvalue {low:.3e})")
        failed = Hprime.min_eigenvalue < rho0 - Hprime.zero_threshold()
        if np.any(failed):
            low, rho0 = _first(failed, Hprime.min_eigenvalue, rho0)
            raise ValueError(f"H' must be bounded below by rho0={rho0} (min eigenvalue {low:.3e})")

    @cached_property
    def _heat_difference(self) -> np.ndarray:
        """The matrix of exp(-t0 H) - exp(-t0 H'), built once per pair."""
        return heat_difference(self.H, self.Hprime, self.t0).matrix

    @cached_property
    def birman_schwinger_singular_values(self) -> np.ndarray:
        """Singular values of the Birman-Schwinger operator at t0, descending.

        Computed once per pair, so the sharp bound costs one SVD for every
        exponent p.
        """
        operator = birman_schwinger_operator(self, self.t0)
        return _read_only(_singular_values(operator.conjugated()))


@dataclass(frozen=True)
class KernelBoundCertificate:
    """dim ker(H) together with the sharp and crude Schatten bounds.

    For a stack of pairs each field but p is the (T,) array of the
    instances' values.  Whether the chain dim ker(H) <= sharp <= crude
    holds is not judged here: ``suites.suite_birman_schwinger`` records it
    at the run's tolerance.
    """

    kernel_dim: int
    bound_sharp: float
    bound_crude: float
    p: float


def birman_schwinger_operator(pair: OperatorPair, t) -> WeightedOperator:
    """(I - exp(-tH'))^(-1) D_t, the operator whose fixed points are ker(H).

    The inverse is applied through the spectral decomposition of H', never
    by a generic linear solve; it exists because the spectrum of exp(-tH')
    stays inside [0, e^(-rho0 t)].  A stack of pairs takes one time t or
    (T,) times; at the pair's own t0, D_t0 is the pair's cached one.
    """
    H, Hprime = pair.H, pair.Hprime
    column = np.asarray(t, dtype=float)[..., None]
    if np.any(np.exp(-column * Hprime.eigenvalues) >= 1.0):
        raise ValueError("I - exp(-tH') is singular: H' has spectrum <= 0")
    if np.array_equal(t, pair.t0):
        difference = pair._heat_difference
    else:
        difference = heat_difference(H, Hprime, t).matrix
    inv = Hprime.spectral_function(lambda w: 1.0 / (1.0 - np.exp(-column * w)))
    return WeightedOperator(_read_only(inv.matrix @ difference), H.space, H.fiber)


def kernel_identity_check(pair: OperatorPair, t) -> dict:
    """Compare ker(H) with the fixed-point space of the BS operator.

    Returns the two kernel dimensions, the largest principal angle between
    the spanned subspaces (in the weighted geometry), and whether both the
    dimensions and the subspaces agree: Python numbers for one pair, (T,)
    arrays for a stack of pairs at one time t or (T,) times.  The instances
    whose two kernels have the same dimension k > 0 share one stacked
    principal-angle computation per k.
    """
    if np.any(np.asarray(t) <= 0.0):
        raise ValueError("t must be strictly positive")
    H = pair.H
    lead, d = H.eigenvalues.shape[:-1], H.dim
    fixed = birman_schwinger_operator(pair, t).matrix - np.eye(d)
    # Kernel of a non-self-adjoint operator: smallest singular directions
    # of the conjugated matrix, with the same zero-tolerance rule used for
    # eigenvalues.
    _, s, vt = np.linalg.svd(_conjugate(fixed, H._sqrt_w))
    # Instances are picked by index below: one pair is a stack of one there.
    ker_h = H.kernel_mask().reshape(-1, d)
    ker_bs = (s <= 1e-9 * (1.0 + s[..., :1])).reshape(-1, d)
    vt, basis, sqrt_w = vt.reshape(-1, d, d), H.basis.reshape(-1, d, d), H._sqrt_w.reshape(-1, d)
    dim_h, dim_bs = np.count_nonzero(ker_h, axis=-1), np.count_nonzero(ker_bs, axis=-1)
    max_angle = np.where(dim_h == dim_bs, 0.0, np.pi / 2)
    for k in np.unique(dim_h[(dim_h == dim_bs) & (dim_h > 0)]):
        at = np.flatnonzero((dim_h == k) & (dim_bs == k))
        # The kernel columns of each basis and rows of each V^T, in order.
        cols = np.nonzero(ker_h[at])[1].reshape(at.size, k)
        rows = np.nonzero(ker_bs[at])[1].reshape(at.size, k)
        basis_h = np.take_along_axis(basis[at], cols[:, None, :], axis=-1)
        null = np.take_along_axis(vt[at], rows[:, :, None], axis=-2).swapaxes(-1, -2)
        basis_bs = null / sqrt_w[at, :, None]
        angles = _principal_angles(basis_h, basis_bs, sqrt_w[at])
        max_angle[at] = np.max(angles, axis=-1)
    result = {
        "dim_ker_H": dim_h,
        "dim_ker_bs": dim_bs,
        "max_principal_angle": max_angle,
        "match": (dim_h == dim_bs) & (max_angle <= SUBSPACE_ANGLE_TOL),
    }
    return {key: _unstacked(value.reshape(lead)) for key, value in result.items()}


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
    ``birman_schwinger_singular_values``, and the crude bound at p != 2
    reads the pair's cached heat difference, so every exponent reuses
    both.  A stack of pairs gives (T,) arrays.
    """
    sharp = np.sum(pair.birman_schwinger_singular_values**p, axis=-1)
    return KernelBoundCertificate(
        kernel_dim=pair.H.kernel_dim(),
        bound_sharp=_unstacked(sharp),
        bound_crude=_unstacked(_crude_bounds(pair, p)[0]),
        p=p,
    )


def _crude_bounds(pair: OperatorPair, p: float):
    """(upper, lower) ends of (1 - e^(-rho0 t0))^(-p) ||D_t0||_Sp^p, per instance of a stack too.

    D_t0 = exp(-t0 H) - exp(-t0 H') is scaled by 1/(1 - e^(-rho0 t0))
    before its norm is taken.  At p = 2 the ends are those of
    ``heat_difference_hs_bounds``, read from the two spectra; at any other
    p both are the p-th power sum of the singular values of the pair's
    cached matrix of D_t0.
    """
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    gap = 1.0 - np.exp(-np.asarray(pair.rho0, dtype=float) * pair.t0)
    if p == 2.0:
        return heat_difference_hs_bounds(pair.H, pair.Hprime, pair.t0, gap)
    scaled = pair._heat_difference / gap[..., None, None]
    crude = np.sum(_singular_values(_conjugate(scaled, pair.H._sqrt_w)) ** p, axis=-1)
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
    return _unstacked(_crude_bounds(pair, p)[0])


def crude_hs_enclosure(pair: OperatorPair) -> tuple[float, float]:
    """(upper, lower) ends of an enclosure of ``crude_kernel_bound(pair, 2)``.

    The ends of ``heat_difference_hs_bounds`` for D_t0 scaled by
    1/(1 - e^(-rho0 t0)): both are the bound itself when H' holds every
    eigenpair, and the upper end bounds dim ker(H) when H' holds only its
    eigenpairs below a cut-off.
    """
    return _crude_bounds(pair, 2.0)


def weyl_inequality_check(operator: WeightedOperator, exponents) -> list:
    """sum |lambda_i|^p <= sum s_i^p for an arbitrary operator, one dict per p >= 1.

    Eigenvalues may be complex; both sides are computed in the weighted
    metric (the conjugated matrix is similar to the operator, so the
    eigenvalues agree).  The eigenvalues and singular values are computed
    once for all ``exponents``.  An operator on a stack of spaces gives
    (T,) arrays in each dict.
    """
    if any(p < 1.0 for p in exponents):
        raise ValueError("Weyl's inequality needs p >= 1")
    conj = _dense(operator.conjugated())
    moduli = np.abs(np.linalg.eigvals(conj))
    svals = _singular_values(conj)
    checks = []
    for p in exponents:
        eig, sing = np.sum(moduli**p, axis=-1), np.sum(svals**p, axis=-1)
        checks.append(
            {
                "eigenvalue_power_sum": _unstacked(eig),
                "singular_power_sum": _unstacked(sing),
                "holds": _unstacked(eig <= sing + 1e-9 * (1.0 + np.abs(sing))),
            }
        )
    return checks


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
