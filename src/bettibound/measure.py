"""Weighted finite measure spaces and operators on vector-valued L2.

Everything downstream works over a finite set of N points with strictly
positive weights m(x).  Functions take values in R^n (the fiber) and are
held as N x n arrays; the inner product is the weighted one,

    <f, g>_m = sum_x m(x) f(x).g(x).

Operators act on the stacked coordinates (point-major, so index x*n + i
addresses fiber coordinate i at point x).  An operator A is self-adjoint
on L2(m) exactly when the conjugated matrix

    S = M^(1/2) A M^(-1/2),    M = diag(weights repeated per fiber slot),

is symmetric.  All singular value and eigenvalue computations here run on
S, so a single Euclidean symmetric eigensolver serves for all weighted
geometry.  Self-adjoint operators keep their eigendata, and their
semigroups and shifts come from it by spectral calculus.  A matrix is
dense, or CSR (the DEC Laplacians); a CSR matrix is densified only as the
input of an eigensolve, and its eigendata are checked by a residual that
costs O(nnz N).  The eigensolve runs in place: LAPACK overwrites that one
dense symmetrized copy with the eigenvectors, so it keeps about three
N x N arrays alive (the copy and the solver's workspace), not five.  An
operator built with a finite cut-off sigma holds only its K eigenpairs
below sigma: K is the inertia of S - sigma I, from a sparse
factorization, and xSYEVR computes only those pairs (and the first one
above sigma, which must confirm K) in the same buffer, with an N x K
eigenvector array.  ``from_spectrum`` takes such K pairs computed
elsewhere (the edge Laplacian's, from its Hodge pieces) and certifies K
by the same inertia; a count that is not confirmed raises
``CutOffRefused``.  Every eigenvalue count of the package is that one
factorization (``_ordered_inertia``): ``certified_kernel`` counts the
kernel of a sparse symmetric matrix with it too, and certifies the count
by residuals of Ritz pairs from a shift-invert Lanczos run on the same
factor, with no dense eigensolve.  ``heat_difference_hs_bounds`` then
encloses the Hilbert-Schmidt norm of a heat difference over the pairs
either operator dropped, whose heat weights are at most e^(-t sigma),
and ``heat_two_inf_norm`` bounds a 2->inf norm over them from above;
``pipeline`` picks each sigma from a relative weight eta, so neither the
p = 2 Schatten path nor the main bound builds an N x N eigenvector
array.
A ``SelfAdjointOperator`` also holds a stack of T small operators of one
shape, for the randomized suites: its space then has (T, N) weights, and
every method runs the same arithmetic, with the same checks, once per
stack.

Norms provided:

* ``schatten_norm(A, p)``: the l^p norm of the singular values of S.
* ``two_inf_norm(A)``: the L2(m) -> L^inf norm with Euclidean fiber norm,
  which for a kernel operator is the largest weighted L2 norm of a kernel
  row, read from the dense matrix of any operator.
* ``heat_two_inf_norm(A, t)``: the same norm of exp(-tA), from A's
  spectrum at any fiber (one gemv per call at fiber 1), and at fiber 1 an
  upper bound on it from the pairs of a partial A.  It is the one
  spectral 2->inf norm: the main bound and the perturbation checks both
  read it.
* ``operator_norm(A)``: the ordinary L2(m) -> L2(m) norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_matrix, identity, issparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, eigsh, splu

__all__ = [
    "WeightedFiniteSpace",
    "WeightedOperator",
    "SelfAdjointOperator",
    "CutOffRefused",
    "heat_difference",
    "heat_difference_hs_bounds",
    "heat_two_inf_norm",
    "singular_values",
    "schatten_norm",
    "schatten_power_sum",
    "hs_norm",
    "operator_norm",
    "two_inf_norm",
]

# An eigenvalue counts as zero iff |lambda| <= ZERO_TOL * (1 + r), for r the
# largest absolute row sum of the symmetrized conjugated matrix (``_radius_bound``).
ZERO_TOL = 1e-9

SELFADJOINT_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
# Columns of S Q - Q diag(evals) corrected per step, to bound the temporary.
_RESIDUAL_BLOCK = 256


class DimensionMismatchError(ValueError):
    """Operands live on different spaces or have incompatible shapes."""


class CutOffRefused(ValueError):
    """A cut-off its inertia count does not certify: the count and the
    eigendata disagree, or the shifted factorization cannot be read.  At
    an infinite cut-off no count is taken, so a refused build is made
    once more there (``pipeline._below``)."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class WeightedFiniteSpace:
    """Finite measure space: N points carrying strictly positive weights.

    ``weights`` is (N,), or (T, N) for a stack of T spaces of N points each
    (the space of a stack of operators, ``SelfAdjointOperator``).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, ndmin=1)
        if w.shape[-1] == 0:
            raise ValueError("space needs at least one point")
        if not np.all(w > 0.0):
            raise ValueError("all weights must be strictly positive")
        if not np.all(np.isfinite(w.sum(axis=-1))):
            raise ValueError("total mass must be finite and positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def point_count(self) -> int:
        return self.weights.shape[-1]

    def stacked_weights(self, fiber: int) -> np.ndarray:
        """Weight of each stacked coordinate (each m(x) repeated fiber times)."""
        return np.repeat(self.weights, fiber, axis=-1)

    def same_as(self, other: "WeightedFiniteSpace") -> bool:
        return self.weights.shape == other.weights.shape and np.array_equal(
            self.weights, other.weights
        )


def _freeze(matrix: csr_matrix) -> csr_matrix:
    """``matrix`` in canonical form, with its three arrays made read-only."""
    matrix.sum_duplicates()
    for part in (matrix.data, matrix.indices, matrix.indptr):
        _read_only(part)
    return matrix


def _is_frozen(matrix) -> bool:
    """True for a float CSR matrix that ``_freeze`` has made read-only."""
    return (
        isinstance(matrix, csr_matrix)
        and matrix.dtype == float
        and matrix.has_canonical_format
        and not any(p.flags.writeable for p in (matrix.data, matrix.indices, matrix.indptr))
    )


def _stored(matrix):
    """A read-only float copy of ``matrix``: CSR if it is sparse, else dense.

    A frozen CSR matrix (``_freeze``), or a read-only float array that owns
    its data (``_read_only`` of a new array), is kept as it is: its owner
    has given up writing to it.
    """
    if _is_frozen(matrix) or (
        isinstance(matrix, np.ndarray)
        and matrix.dtype == float
        and matrix.flags.owndata
        and not matrix.flags.writeable
    ):
        return matrix
    if issparse(matrix):
        return _freeze(csr_matrix(matrix, dtype=float, copy=True))
    return _read_only(np.array(matrix, dtype=float))


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if issparse(matrix) else matrix


def _conjugate(matrix, sqrt_w):
    """M^(1/2) A M^(-1/2): entry (sqrt(w_i) a_ij) / sqrt(w_j).

    A CSR matrix stays CSR with the same pattern, and each stored value is
    computed exactly as the dense route computes it.  A dense (T, d, d)
    stack with (T, d) ``sqrt_w`` is conjugated matrix by matrix.
    """
    if issparse(matrix):
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        data = (sqrt_w[rows] * matrix.data) / sqrt_w[matrix.indices]
        return csr_matrix((data, matrix.indices, matrix.indptr), matrix.shape)
    return (sqrt_w[..., :, None] * matrix) / sqrt_w[..., None, :]


class WeightedOperator:
    """A linear operator on L2(m; R^n), held as its stacked matrix.

    The matrix is dense, or CSR when it is given as a scipy sparse matrix;
    every method treats both alike, entry by entry.
    """

    def __init__(self, matrix, space: WeightedFiniteSpace, fiber: int = 1):
        if fiber < 1:
            raise ValueError("fiber dimension must be at least 1")
        mat = _stored(matrix)
        dim = space.point_count * fiber
        if mat.shape != (*space.weights.shape[:-1], dim, dim):
            raise DimensionMismatchError(
                f"matrix of shape {mat.shape} does not act on a space of "
                f"stacked dimension {dim}"
            )
        self.matrix = mat
        self.space = space
        self.fiber = fiber
        self._sqrt_w = np.sqrt(space.stacked_weights(fiber))

    @property
    def dim(self) -> int:
        return self._sqrt_w.shape[-1]

    def conjugated(self):
        """M^(1/2) A M^(-1/2), entry (sqrt(w_i) a_ij) / sqrt(w_j), CSR for a
        CSR operator; symmetric iff A is self-adjoint on L2(m)."""
        return _conjugate(self.matrix, self._sqrt_w)

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        return (self.matrix @ vals.reshape(-1)).reshape(vals.shape)

    def _check_compatible(self, other):
        """Raise DimensionMismatchError unless ``other``, an operator or a
        potential, acts on this space with this fiber."""
        if not self.space.same_as(other.space) or self.fiber != other.fiber:
            raise DimensionMismatchError("operands live on different spaces")


def _frobenius(matrix):
    """The Frobenius norm, summed as ``np.linalg.norm`` sums it.

    A (T, m, n) stack gives the (T,) norms of its matrices, each summed as
    the 2-D matrix alone would be.
    """
    if not issparse(matrix) and matrix.ndim > 2:
        flat = matrix.reshape(*matrix.shape[:-2], -1)
        return np.sqrt(np.vecdot(flat, flat))
    flat = (matrix.data if issparse(matrix) else matrix).ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _first(failed, *values):
    """The entries of ``values`` at the first instance where ``failed`` holds.

    ``failed`` and each value are scalars or (T,) arrays: error messages
    name the numbers of the first failing instance of a stack.
    """
    at = np.flatnonzero(failed)[0]
    return [np.ravel(value)[at] for value in values]


def _unstacked(value):
    """A value with no stack axis as a Python number; per-instance arrays as they are."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def _orthogonality_loss(q):
    """||Q^T Q - I||_F, from one SYRK; (T,) losses for a (T, m, n) stack."""
    gram = q.swapaxes(-1, -2) @ q
    gram.reshape(*gram.shape[:-2], -1)[..., :: gram.shape[-1] + 1] -= 1.0
    return _frobenius(gram)


def _residual_norms(evals, q, conj) -> np.ndarray:
    """Column norms of R = S Q - Q diag(evals), S being ``conj`` (dense or CSR).

    R costs O(nnz N) for a CSR S.  Only R itself is N x N; its columns are
    corrected in blocks.  Dense (T, N, N) stacks of S and Q with (T, N)
    eigenvalues give (T, N) norms.
    """
    residual = conj @ q
    for start in range(0, q.shape[-1], _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        residual[..., cols] -= q[..., cols] * evals[..., None, cols]
    return np.sqrt(np.einsum("...ij,...ij->...j", residual, residual))


def _reconstruction_bound(residual_norms: np.ndarray, scale, loss):
    """||R||_F sqrt(1 + loss) + scale loss, an upper bound on ||S - Q diag(evals) Q^T||_F.

    ``residual_norms`` are the column norms of R = S Q - Q diag(evals)
    (``_residual_norms``), ``scale`` is ||S||_F and ``loss`` is
    ``_orthogonality_loss(q)``.  Since
    S - Q diag(evals) Q^T = S (I - Q Q^T) + R Q^T, with
    ||I - Q Q^T||_2 = ||Q^T Q - I||_2 and ||Q||_2^2 <= 1 + ||Q^T Q - I||_2
    for square Q, the bound holds with no N x N reconstruction built.
    Stacked inputs ((T, N) norms, (T,) scales and losses) give (T,) bounds.
    """
    residual = np.sqrt(np.vecdot(residual_norms, residual_norms))
    return residual * np.sqrt(1.0 + loss) + scale * loss


def _check_eigendata(evals, q, conj=None):
    """Raise ValueError unless Q diag(evals) Q^T is a sound decomposition.

    The eigenvalues must be finite and the orthogonality loss
    ||Q^T Q - I||_F at most 1e-10.  With ``conj``, the conjugated matrix S
    being decomposed (dense or CSR), S must also be symmetric to 1e-10
    relative to ||S||_F, and ``_reconstruction_bound`` on ||S - Q diag(evals) Q^T||_F
    must be at most 1e-10 max(||S||_F, 1): the bound is never below that
    reconstruction residual, so the check accepts nothing a 1e-10
    reconstruction check would reject.  An N x K ``q`` (K < N, the
    pairs below a cut-off) cannot reconstruct S: its bound is the
    residual term ||R||_F sqrt(1 + loss) alone.

    Returns the column norms of R = S Q - Q diag(evals), read-only (None
    without ``conj``), and the orthogonality loss.  With a leading stack
    axis ((T, N) eigenvalues, dense (T, N, N) Q and S), every instance is
    checked against its own scale and the numbers come back per instance;
    the error names the first instance that fails.
    """
    if conj is not None:
        scale = _frobenius(conj)
        if issparse(conj):
            asym = float(abs(conj - conj.T).max()) if conj.size else 0.0
        else:
            asym = np.max(np.abs(conj - conj.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
        failed = (asym > SELFADJOINT_TOL * np.maximum(scale, 1e-300)) & (asym > 1e-14)
        if np.any(failed):
            asym, scale = _first(failed, asym, scale)
            raise ValueError(
                f"operator is not self-adjoint on the weighted space "
                f"(asymmetry {asym:.3e} vs scale {scale:.3e})"
            )
    loss = _orthogonality_loss(q)
    failed = ~(np.all(np.isfinite(evals), axis=-1) & (loss <= RECONSTRUCTION_TOL))
    if np.any(failed):
        (first_loss,) = _first(failed, loss)
        raise ValueError(f"eigendata not finite and orthonormal (loss {first_loss:.3e})")
    if conj is None:
        return None, loss
    residual_norms = _residual_norms(evals, q, conj)
    complete = q.shape[-1] == q.shape[-2]
    bound = _reconstruction_bound(residual_norms, scale if complete else 0.0, loss)
    failed = ~(bound <= RECONSTRUCTION_TOL * np.maximum(scale, 1.0))
    if np.any(failed):
        bound, scale = _first(failed, bound, scale)
        raise ValueError(
            f"spectral decomposition does not reconstruct the operator "
            f"(residual bound {bound:.3e} vs scale {scale:.3e})"
        )
    return _read_only(residual_norms), loss


def _eigh_in_place(conj, count=None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and C-ordered eigenvectors of (S + S^T) / 2.

    The one dense eigensolve of the package: every operator, stack, cut-off
    and Rayleigh-Ritz block is solved here.  ``conj`` is S, dense or CSR,
    or a dense (T, d, d) stack.  The symmetrized matrix is built in one
    buffer owned here (``_symmetric_part``); being exactly symmetric, its
    transpose is the same matrix in Fortran order, so LAPACK reads it with
    no copy, from the lower triangle as ``np.linalg.eigh`` reads it.

    * A stack is solved by numpy's stacked ``eigh`` (xSYEVD per matrix).
    * Without ``count``, xSYEVD overwrites the buffer with every
      eigenvector.  Live at once are that buffer and xSYEVD's
      1 + 6N + 2N^2 workspace, where ``np.linalg.eigh`` of a dense input
      also keeps the input, its Fortran copy and a separate output.
    * With ``count``, xSYEVR with ``range='I'`` reduces the buffer to
      tridiagonal form in place, computes eigenvalues 1 to ``count`` of
      that form by bisection and their eigenvectors by inverse iteration
      (xSTEBZ and xSTEIN; its MRRR path serves only the whole spectrum),
      and maps them back: besides the buffer, the N x count vectors and
      O(N) workspace are alive.

    The C-ordered copy, on which later products and sums rely for their
    bits, is made once the workspace is freed.  Raises LinAlgError if the
    LAPACK driver fails or finds fewer pairs than asked for.
    """
    sym = _dense(_symmetric_part(conj))
    if sym.ndim > 2:
        return np.linalg.eigh(sym)
    if count is None:
        evals, evecs, info = lapack.dsyevd(sym.T, compute_v=1, lower=1, overwrite_a=1)
        found = count = evals.size
    else:
        evals, evecs, found, _, info = lapack.dsyevr(
            sym.T, compute_v=1, range="I", lower=1, il=1, iu=count, overwrite_a=1
        )
        evals = evals[:count]
    if info != 0 or found != count:
        raise np.linalg.LinAlgError(
            f"symmetric eigensolve failed (LAPACK info {info}, {found} of {count} pairs)"
        )
    return evals, np.ascontiguousarray(evecs)


# Fill-reducing ordering of an inertia count's factorization: SuperLU's
# minimum degree on the pattern of A^T + A, applied to a matrix already put
# in reverse Cuthill-McKee order (``_ordered_inertia``).  The banded preorder
# removes the minimum-degree ordering's blow-up on the icosphere family;
# measured on L1 (2 vCPUs, one BLAS thread), RCM+MMD factored the sphere at
# resolution 5 (E 30720) in 0.31 s and 4.3M factor nonzeros, COLAMD in
# 1.05 s and 8.1M, and bumpy-sphere(3) in 8 ms against 17 ms; the RCM
# order and the permuted copy cost 7 ms and 0.6 ms.  Both keep every
# pivot on the diagonal.
_ORDERING = "MMD_AT_PLUS_A"


def _inertia(permuted: csr_matrix, sigma: float):
    """A symmetric factorization of P S P^T - sigma I and its count of negative pivots.

    ``permuted`` is S in a fixed symmetric order P (``_ordered_inertia``), so
    the matrix factored is P (S - sigma I) P^T, congruent to S - sigma I.
    SuperLU in symmetric mode with diagonal pivots (``splu`` with
    ``diag_pivot_thresh=0``) factors it as Q L D L^T Q^T, with D the
    diagonal of U; by Sylvester's law of inertia the negative pivots count
    the eigenvalues of S below sigma.  A factorization that left the
    diagonal (``perm_r != perm_c``) or met an exactly zero pivot (sigma an
    eigenvalue, say) raises ``CutOffRefused``, a ValueError.
    """
    try:
        lu = splu(
            (permuted - sigma * identity(permuted.shape[0], format="csr")).tocsc(),
            permc_spec=_ORDERING,
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise CutOffRefused(f"inertia count failed at the shift {sigma:.6g}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise CutOffRefused("inertia count failed: the factorization pivoted off the diagonal")
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _ordered_inertia(s: csr_matrix, sigma: float) -> tuple:
    """(order, P S P^T, factor, j) for a symmetric CSR S and a shift sigma.

    The one way an eigenvalue count is taken: S is put in its reverse
    Cuthill-McKee order P, and P (S - sigma I) P^T is factored by
    ``_inertia``, whose j negative pivots are the eigenvalues of S below
    sigma.  The order and P S P^T are returned for a second shift or
    solves with the factor (``certified_kernel``).
    """
    order = reverse_cuthill_mckee(s, symmetric_mode=True)
    permuted = s[order][:, order]
    return order, permuted, *_inertia(permuted, sigma)


def _symmetric_part(conj):
    """(S + S^T) / 2 of a CSR or dense S, per matrix of a (T, d, d) stack, as a new matrix."""
    half = conj + (conj.T if issparse(conj) else conj.swapaxes(-1, -2))
    half *= 0.5
    return half


def _radius_bound(conj):
    """r, the largest absolute row sum of (S + S^T) / 2, for S dense or CSR.

    r bounds the spectral radius of the symmetrized matrix in O(nnz), with
    no eigenvalue; a (T, d, d) stack gives the (T,) bounds of its instances.
    Every row is summed sequentially in index order, so a CSR matrix and
    its dense copy give the same bits: a CSR product with a vector of
    ones, and column sums of the symmetric dense matrix (numpy adds whole
    rows in order along the first axis, where it sums along the last one
    pairwise).
    """
    half = abs(_symmetric_part(conj))
    if issparse(half):
        return float(np.max(half @ np.ones(half.shape[0])))
    return _unstacked(np.max(np.sum(half, axis=-2), axis=-1))


def _count_below(conj, cutoff: float) -> int:
    """The number of eigenvalues of (S + S^T) / 2 below ``cutoff``.

    A cut-off at or above the radius bound (``_radius_bound``) counts all
    N eigenvalues with no factorization.  Otherwise the count is the
    inertia of the symmetrized matrix, as a CSR matrix, shifted by the
    cut-off (``_ordered_inertia``).
    """
    if cutoff >= _radius_bound(conj):
        return conj.shape[-1]
    return _ordered_inertia(csr_matrix(_symmetric_part(conj)), cutoff)[-1]


# Shift of the kernel count, relative to the spectral radius bound: a
# thousand zero thresholds above zero, so every eigenvalue counted as zero
# lies below it, and small enough that an eigenvalue between the threshold
# and the shift, which costs a second factorization, is rare.
_LANCZOS_SHIFT = 1e-6


def _ritz_pairs_below(
    s: csr_matrix, lu, order: np.ndarray, sigma: float, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """The j Ritz pairs of S below sigma, given ``lu``, the factor of
    P (S - sigma I) P^T for the symmetric order ``order`` (P x = x[order]).

    Shift-invert Lanczos (``eigsh`` about sigma, from a fixed start vector,
    so runs repeat) applies ``lu`` through P as its inverse, and keeps the
    j most negative values of (S - sigma I)^(-1), which belong to the j
    eigenvalues below sigma.  An order within four of j is eigensolved
    densely instead, keeping the j lowest pairs.
    """
    n = s.shape[0]
    if j + 4 >= n:
        theta, x = _eigh_in_place(s)
        return theta[:j], x[:, :j]

    def solve(b):
        x = np.empty(b.shape)
        x[order] = lu.solve(b[order])
        return x

    inverse = LinearOperator(s.shape, matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    return eigsh(s, k=j, sigma=sigma, which="SA", OPinv=inverse, v0=v0)


def certified_kernel(s: csr_matrix) -> tuple[np.ndarray, float, float]:
    """A basis of ker S for a symmetric CSR matrix S, counted sparsely and certified.

    An eigenvalue counts as zero iff |lam| <= tau = ZERO_TOL (1 + r), where
    r, the largest absolute row sum of (S + S^T) / 2 (``_radius_bound``),
    is an O(nnz) upper bound on the spectral radius: tau is the threshold
    of ``SelfAdjointOperator.kernel_dim`` for the operator with conjugated
    matrix S.  The count starts from inertia: P (S - sigma I) P^T, with P
    the reverse Cuthill-McKee order of S and sigma = 1e-6 (1 + r) above
    tau, is factored once (``_ordered_inertia``, the count of a partial
    ``SelfAdjointOperator`` too); its j negative pivots are the
    eigenvalues below sigma.  If j = 0 the count is 0 and no Lanczos run
    is needed.  Otherwise the j Ritz pairs below sigma come from one
    Lanczos run on that same factor (``_ritz_pairs_below``).  The count k
    is the number of Ritz values theta with |theta| <= tau, and it stands
    when

    (i) with X the k counted Ritz vectors, R = S X - X diag(theta) and
        e = ||X^T X - I||_F < 1,
            (sqrt(1 + e) max |theta| + ||R||_F) / sqrt(1 - e) <= tau.
        Then ||S v|| <= tau ||v|| on the span of X, so by Courant-Fischer
        for S^2 at least k eigenvalues of S lie in [-tau, tau].  The left
        side is never below Kahan's residual bound
        |theta_j| + ||R||_F sqrt(1 + e) (Parlett, *The Symmetric
        Eigenvalue Problem*, ch. 11);
    (ii) exactly k eigenvalues of S lie below sigma: S - sigma I has
        exactly k negative pivots (Sylvester's law of inertia).  When a
        Ritz value lies in (tau, sigma), so j > k, S is factored once more,
        in the same order P, at sigma halfway between tau and the lowest
        such Ritz value, and that factor's negative pivots are compared
        with k; there is no third factorization.

    Together: exactly k eigenvalues lie in [-tau, tau], and none below
    -tau or between tau and sigma.  A count that fails either check, or a
    factorization that left the diagonal, raises ValueError.  Like every
    check, both are evaluated in floating point.  Returns (X, n x k, the
    left side of (i), sigma); the bound is 0 when k = 0.
    """
    radius = _radius_bound(s)
    tau = ZERO_TOL * (1.0 + radius)
    sigma = _LANCZOS_SHIFT * (1.0 + radius)
    order, permuted, lu, below = _ordered_inertia(s, sigma)
    if not below:
        return np.empty((s.shape[0], 0)), 0.0, sigma
    theta, x = _ritz_pairs_below(s, lu, order, sigma, below)
    counted = np.abs(theta) <= tau
    k = int(np.count_nonzero(counted))
    kernel, values = x[:, counted], theta[counted]
    bound = 0.0
    if k:
        loss = _orthogonality_loss(kernel)
        residual = _frobenius(s @ kernel - kernel * values)
        bound = math.inf
        if loss < 1.0:
            top = float(np.max(np.abs(values)))
            bound = (math.sqrt(1.0 + loss) * top + residual) / math.sqrt(1.0 - loss)
        if not bound <= tau:
            raise ValueError(
                f"kernel count {k} not certified: Ritz residual bound {bound:.3e} "
                f"exceeds the zero threshold {tau:.3e}"
            )
    above = theta[theta > tau]
    if above.size:
        sigma = 0.5 * (tau + float(above.min()))
        below = _inertia(permuted, sigma)[1]
    if below != k:
        raise ValueError(
            f"kernel count {k} not certified: {below} eigenvalues lie below "
            f"the shift {sigma:.3e} (zero threshold {tau:.3e})"
        )
    return kernel, bound, sigma


def _ascending(eigenvalues, euclidean_vectors):
    """Eigenpairs sorted stably ascending, per row of a (T, N) stack too.

    The eigenvalues come back as a new array.  Eigenvalues that are already
    ascending keep the very same eigenvector array; permuted columns come
    back Fortran-ordered, as ``q[:, order]`` gives them (the layout sets
    the bits of later products).
    """
    evals = np.asarray(eigenvalues, dtype=float)
    order = np.argsort(evals, axis=-1, kind="stable")
    # Row k of a stack is reordered by row k of ``order``.
    at = (np.arange(order.shape[0])[:, None], order) if order.ndim == 2 else order
    if np.any(order != np.arange(order.shape[-1])):
        euclidean_vectors = euclidean_vectors.swapaxes(-1, -2)[at].swapaxes(-1, -2)
    return evals[at], euclidean_vectors


def _spectral_matrix(eigenvalues, euclidean_vectors, sqrt_w) -> np.ndarray:
    """The stacked matrix M^(-1/2) Q diag(w) Q^T M^(1/2), per matrix of a stack too."""
    q = euclidean_vectors
    conj = (q * eigenvalues[..., None, :]) @ q.swapaxes(-1, -2)
    return (conj / sqrt_w[..., :, None]) * sqrt_w[..., None, :]


def _overlap_sum(f, g, scale, overlap):
    """sum_ij overlap_ij ((f_i - g_j) / scale)^2, per instance of a stack too.

    ``f`` and ``g`` are (..., N), ``overlap`` is (..., N, N) and ``scale``
    a float or a (..., 1, 1) array.
    """
    terms = f[..., :, None] - g[..., None, :]
    terms /= scale
    terms *= terms
    terms *= overlap
    return terms.sum(axis=(-2, -1))


def _time_column(t) -> np.ndarray:
    """A semigroup time, or (T,) times, as a column against eigenvalues."""
    column = np.asarray(t, dtype=float)[..., None]
    if np.any(column < 0.0):
        raise ValueError("semigroup time must be nonnegative")
    return column


class SelfAdjointOperator(WeightedOperator):
    """Self-adjoint operator held by its weighted spectral decomposition.

    The decomposition A = U diag(w) U^T M has eigenvalues w ascending and
    columns of U orthonormal in the weighted inner product (U^T M U = I).
    An operator built from a matrix, dense or CSR, runs one symmetric
    eigensolve in place (``_eigh_in_place``); only its input is dense, and
    its eigenvectors overwrite that input.  Construction verifies that the
    conjugated matrix S is self-adjoint, that the eigenvectors Q have
    orthogonality loss ||Q^T Q - I||_F <= 1e-10, and that the residual
    R = S Q - Q diag(w) and that loss bound ||S - Q diag(w) Q^T||_F by
    1e-10 max(||S||_F, 1) (see ``_check_eigendata``); no N x N
    reconstruction is built.  ``from_spectrum`` takes eigendata computed
    elsewhere, checks their orthogonality loss and, given the operator's
    matrix as well (as for the edge Laplacian assembled from its Hodge
    pieces), runs the same checks against it.  Operators derived by
    spectral calculus (``spectral_function`` and its callers) share that
    checked eigenbasis and build their dense matrix only when ``matrix``
    is first read.

    A checked construction keeps the numbers its check computed, read-only:
    ``orthogonality_loss`` = ||Q^T Q - I||_F and, when a matrix was
    checked, ``residual_norms``, the column norms of R (so ||R||_F is their
    Euclidean norm).  Both are None where no check ran (derived
    operators), and ``residual_norms`` is None for eigendata checked
    without their matrix.

    Every operator, full, partial or a stack, counts an eigenvalue as zero
    below one threshold, ZERO_TOL (1 + r) for r the radius bound: the
    largest absolute row sum of (S + S^T) / 2 (``_radius_bound``), which
    needs no eigenvalue.

    A finite ``cutoff`` sigma asks only for the K eigenpairs below it.  K
    is the inertia of S - sigma I (``_count_below``: a sparse factorization
    in reverse Cuthill-McKee order, none when sigma is at or above r).
    When K = N the operator is the one the default sigma = inf gives, bit
    for bit.  Otherwise it is *partial*: xSYEVR computes the K + 1 lowest
    pairs in place (``_eigh_in_place`` with a count), exactly K of them
    must lie below sigma (``_hold_below``: the solver counts K as
    well), and the K kept pairs pass ``_check_eigendata`` with the N x K
    Q: finite, orthogonality loss <= 1e-10 and ||R||_F sqrt(1 + loss) <=
    1e-10 max(||S||_F, 1).  A count the solver does not confirm, or an
    inertia that cannot be read, raises ``CutOffRefused`` (a ValueError),
    a failed check ValueError.  ``min_eigenvalue`` is sigma when K = 0
    (every eigenvalue is at or above it), and every method that needs all
    pairs (``spectral_function`` and the semigroups, ``kernel_basis``,
    ``heat_two_inf_norm`` at fiber > 1) raises ValueError; its ``matrix``
    is the one it was built from, which needs no pair, so ``two_inf_norm``
    reads it as any operator's.  ``squared_overlap`` reads its K kept
    vectors, ``heat_difference_hs_bounds`` encloses its heat difference
    with another operator, full or partial, from the K pairs and sigma,
    and ``heat_two_inf_norm`` at fiber 1 bounds the 2->inf norm of its
    semigroup from above; ``from_spectrum`` with a cut-off builds a
    partial operator from K pairs computed elsewhere.

    A stack of T operators of one shape is the same type with a leading
    axis: its space has (T, N) weights, ``eigenvalues`` are (T, d) and the
    eigenvectors (T, d, d), d = N * fiber.  A dense (T, d, d) matrix is
    eigensolved by ``_eigh_in_place`` too, through numpy's stacked
    ``eigh``, and ``_check_eigendata`` checks each instance at its own
    scale; ``from_spectrum`` takes stacked eigendata.  Every method runs
    its arithmetic over the leading axis: numpy's stacked LAPACK and BLAS
    calls treat each matrix as the 2-D call does, so every instance gets
    the bits it would get alone.  Where one operator gives a Python
    number, a stack gives the (T,) array of its instances' numbers.  A
    stack holds every eigenpair.
    """

    # (other eigenvector array, squared overlap) of the last ``squared_overlap``.
    _overlap = None
    # (residual column norms, orthogonality loss) of the construction's check.
    _check_numbers = (None, None)
    # sigma of a partial operator; a full operator has all pairs.
    cutoff = math.inf

    def __init__(self, matrix, space, fiber=1, cutoff=math.inf):
        super().__init__(matrix, space, fiber)
        conj = self.conjugated()
        if conj.ndim > 2 and cutoff < math.inf:
            raise ValueError("a stack of operators takes no cut-off")
        count = self.dim if cutoff == math.inf else _count_below(conj, cutoff)
        if count == self.dim:
            evals, evecs = _eigh_in_place(conj)
        else:
            evals, evecs = _eigh_in_place(conj, count + 1)
            self._hold_below(cutoff, count, evals, 1)
            evals, evecs = evals[:count], np.ascontiguousarray(evecs[:, :count])
        self._check_numbers = _check_eigendata(evals, evecs, conj)
        self.eigenvalues = _read_only(evals)
        self._euclidean_vectors = _read_only(evecs)

    @classmethod
    def from_spectrum(
        cls,
        space: WeightedFiniteSpace,
        eigenvalues: np.ndarray,
        euclidean_vectors: np.ndarray,
        fiber: int = 1,
        matrix: np.ndarray | None = None,
        cutoff: float = math.inf,
    ) -> "SelfAdjointOperator":
        """U diag(w) U^T M from eigendata of the conjugated matrix.

        ``euclidean_vectors`` must be Euclidean-orthonormal (the
        eigenvectors of the conjugated symmetric matrix); eigenvalues are
        sorted ascending here.  Raises ValueError unless the eigendata are
        finite and ||Q^T Q - I||_F <= 1e-10.  The eigenvector array is kept,
        not copied, and made read-only.  On a stack of spaces the
        eigendata are stacked too, and each instance is checked.

        ``matrix``, when given, is the operator's matrix (dense or CSR),
        kept as ``matrix``: the eigendata must then pass the checks of a
        construction from a matrix (self-adjoint, and the residual bound of
        ``_check_eigendata`` on ||S - Q diag(w) Q^T||_F within relative
        tolerance 1e-10).

        A finite ``cutoff`` sigma, which needs ``matrix``, takes the K
        pairs below it as an N x K array: each must lie below sigma and the
        inertia of S - sigma I (``_count_below``) must count exactly K
        eigenvalues below it (``_hold_below``), else ``CutOffRefused``, and
        they pass the N x K checks of ``_check_eigendata``.  The operator is
        then partial, as one built from its matrix with this cut-off; when
        K = N it is full.
        """
        evals = np.asarray(eigenvalues, dtype=float)
        q = np.asarray(euclidean_vectors, dtype=float)
        dim = space.point_count * fiber
        square = (*space.weights.shape[:-1], dim, dim)
        columns = dim if cutoff == math.inf else evals.shape[-1]
        if (
            fiber < 1
            or evals.shape != (*square[:-2], columns)
            or q.shape != (*square[:-1], columns)
            or (matrix is not None and np.shape(matrix) != square)
        ):
            raise DimensionMismatchError("eigendata do not match the space and fiber")
        if cutoff < math.inf and (matrix is None or len(square) > 2):
            raise ValueError("eigendata below a cut-off need one operator's matrix")
        op = cls._with_spectrum(space, fiber, evals, q)
        conj = None
        if matrix is not None:
            op.matrix = _stored(matrix)
            conj = op.conjugated()
        op._check_numbers = _check_eigendata(op.eigenvalues, op._euclidean_vectors, conj)
        if cutoff < math.inf:
            op._hold_below(cutoff, _count_below(conj, cutoff), op.eigenvalues, 0)
        return op

    def _hold_below(self, cutoff: float, count: int, evals: np.ndarray, past: int) -> None:
        """Certify ``count``, the inertia of S - cutoff I, against eigendata,
        and make the operator partial at ``cutoff`` when ``count`` < N.

        The one certification of a cut-off, for both constructors: exactly
        ``count`` of the ascending ``evals`` must lie below ``cutoff``, and
        ``past`` more at or above it (one for the solver's K + 1 lowest
        pairs, none for K pairs computed elsewhere), else ``CutOffRefused``.
        """
        below = int(np.count_nonzero(evals < cutoff))
        if not below == count == evals.size - past:
            raise CutOffRefused(
                f"cut-off {cutoff:.6g} not certified: the inertia counts {count} "
                f"eigenvalues below it, the eigendata {below} of {evals.size}"
            )
        if count < self.dim:
            self.cutoff = cutoff

    @classmethod
    def _with_spectrum(cls, space, fiber, eigenvalues, euclidean_vectors):
        """Unchecked constructor; sorts the eigenpairs stably ascending.

        Eigenvalues that are already ascending keep the very same
        eigenvector array (``_ascending``), not a copy.
        """
        evals, euclidean_vectors = _ascending(eigenvalues, euclidean_vectors)
        op = cls.__new__(cls)
        op.space, op.fiber = space, fiber
        op._sqrt_w = np.sqrt(space.stacked_weights(fiber))
        op.eigenvalues = _read_only(evals)
        op._euclidean_vectors = _read_only(euclidean_vectors)
        return op

    @property
    def residual_norms(self) -> np.ndarray | None:
        """Column norms of S Q - Q diag(eigenvalues) from the construction's check."""
        return self._check_numbers[0]

    @property
    def orthogonality_loss(self) -> float | None:
        """||Q^T Q - I||_F from the construction's check."""
        return self._check_numbers[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense stacked matrix; built from the spectrum for derived operators."""
        return _read_only(_spectral_matrix(self.eigenvalues, self._euclidean_vectors, self._sqrt_w))

    @property
    def basis(self) -> np.ndarray:
        """m-orthonormal eigenvectors as columns, matching ``eigenvalues``."""
        return self._euclidean_vectors / self._sqrt_w[..., :, None]

    @property
    def partial(self) -> bool:
        """True when only the eigenpairs below a finite ``cutoff`` are held."""
        return self.cutoff < math.inf

    def _require_full(self, what: str) -> None:
        if self.partial:
            raise ValueError(
                f"{what} needs every eigenpair; this operator holds only the "
                f"{self.eigenvalues.size} of {self.dim} below the cut-off {self.cutoff:.6g}"
            )

    @property
    def min_eigenvalue(self) -> float:
        if not self.eigenvalues.size:
            return float(self.cutoff)
        return _unstacked(self.eigenvalues[..., 0])

    @cached_property
    def _zero_threshold(self):
        return _unstacked(ZERO_TOL * (1.0 + _radius_bound(self.conjugated())))

    def zero_threshold(self) -> float:
        """ZERO_TOL (1 + r), r the radius bound of the conjugated matrix
        (``_radius_bound``), the same for a full and a partial operator;
        (T,) thresholds for a stack.  Computed once per operator."""
        return self._zero_threshold

    def kernel_mask(self) -> np.ndarray:
        """Flags of the eigenvalues that count as zero, (T, d) for a stack."""
        return np.abs(self.eigenvalues) <= np.expand_dims(self.zero_threshold(), -1)

    def kernel_dim(self) -> int:
        return _unstacked(np.count_nonzero(self.kernel_mask(), axis=-1))

    def kernel_basis(self) -> np.ndarray:
        """m-orthonormal basis of the kernel (columns; may be empty)."""
        self._require_full("kernel_basis")
        return self.basis[:, self.kernel_mask()]

    @cached_property
    def _squared_basis(self) -> tuple[np.ndarray, np.ndarray | None]:
        """U**2 elementwise, for U the m-orthonormal ``basis`` (N x K), and,
        for a partial operator, the weight max(0, 1/m_x - sum_k U_xk^2) its
        dropped columns hold in each row (None for a full one); built once,
        read-only."""
        u = self.basis
        u *= u
        lacking = None
        if self.partial:
            lacking = _read_only(np.maximum(0.0, 1.0 / self.space.weights - u.sum(axis=1)))
        return _read_only(u), lacking

    def squared_overlap(self, other: "SelfAdjointOperator") -> np.ndarray:
        """(Q_other^T Q)**2 elementwise, for Q the Euclidean eigenvectors: K_other x K.

        Entry (i, j) is the squared cosine between eigenvector i of
        ``other`` and eigenvector j of this operator in the weighted metric;
        for full operators the matrix is doubly stochastic, and for partial
        ones it is the block of their kept vectors.  The product for the
        last ``other`` eigenbasis is kept, so repeated calls cost nothing.
        """
        basis = other._euclidean_vectors
        cached = self._overlap
        if cached is None or cached[0] is not basis:
            overlap = basis.swapaxes(-1, -2) @ self._euclidean_vectors
            cached = (basis, _read_only(np.square(overlap, out=overlap)))
            self._overlap = cached
        return cached[1]

    def spectral_function(self, f) -> "SelfAdjointOperator":
        """f(A) by spectral calculus: eigenvalues f(w) on the cached eigenbasis.

        ``f`` maps the eigenvalue array elementwise.  No eigensolve runs and
        no check is repeated: the basis came from a checked construction.
        """
        self._require_full("spectral_function")
        values = f(self.eigenvalues)
        return self._with_spectrum(self.space, self.fiber, values, self._euclidean_vectors)

    def semigroup(self, t) -> "SelfAdjointOperator":
        """exp(-t A) via spectral calculus; shares the cached eigenbasis.

        A stack takes one time t or (T,) times, one per instance.
        """
        column = _time_column(t)
        return self.spectral_function(lambda w: np.exp(-column * w))

    def shifted(self, c: float) -> "SelfAdjointOperator":
        """A + c in place of A, reusing the eigenbasis."""
        return self.spectral_function(lambda w: w + c)


def heat_difference(A, B, t) -> WeightedOperator:
    """exp(-tA) - exp(-tB) for SelfAdjointOperators A, B, from their cached spectra.

    For stacks, the (T, d, d) differences at one time t or (T,) times.  The
    difference is the new array the subtraction makes, kept read-only and
    not copied again.
    """
    A._check_compatible(B)
    difference = A.semigroup(t).matrix - B.semigroup(t).matrix
    return WeightedOperator(_read_only(difference), A.space, A.fiber)


def heat_difference_hs_bounds(A, B, t, scale=1.0) -> tuple:
    """(upper, lower) ends of an enclosure of ||(exp(-tA) - exp(-tB)) / scale||_HS^2.

    Both ends are read from the cached spectra in O(N^2), with no dense
    difference.  With f = exp(-t eig(A)), g = exp(-t eig(B)) and the
    squared overlap C = (Q_A^T Q_B)**2, the squared norm is
    sum_ij C_ij ((f_i - g_j)/scale)^2: every term is nonnegative, so
    nothing cancels.  Every pair takes this route: an operator that shares
    A's eigenvector array (A shifted, say) and one that holds an equal copy
    of it give the same bits.  Two
    operators whose eigenvalues and eigenvectors are bitwise equal (say,
    two eigensolves of the same matrix) are the same operator and give
    exactly 0.0, not the rounding of C's off-diagonal entries; the
    eigenvalues are compared first, so operators with different spectra
    pay only that O(N) comparison.  A negative time raises ValueError.

    For a full A and B both ends are the squared norm itself.  A partial
    operator (its K pairs below the cut-off sigma, ``SelfAdjointOperator``)
    leaves its heat weights past K in [0, e^(-t sigma)], and its missing
    eigenvectors' squared overlaps known only through the row and column
    sums of C = (Q_A^T Q_B)**2, which is K_A x K_B.  Each sum can
    be moved by rounding and by the orthogonality loss e of the other
    operator's vectors, by up to e either way.  With f^ = e^(-t sigma_A)
    and g^ = e^(-t sigma_B) (0 for a full B), r_i = max(0, 1 - sum_j C_ij)
    for A's kept pairs and s_j = max(0, 1 - sum_i C_ij) for B's,

        known = sum_{i<=K_A, j<=K_B} C_ij ((f_i - g_j)/scale)^2,

    a partial B adds (its dropped pairs against A's kept ones)

        to upper  sum_i (r_i + e_B) (max(f_i, g^)/scale)^2,
        to lower  sum_i max(0, r_i - e_B) (max(f_i - g^, 0)/scale)^2,

    and a partial A adds (its dropped pairs against B's kept ones, and at
    most N overlap between the pairs both dropped)

        to upper  sum_j (s_j + e_A) (max(g_j, f^)/scale)^2 + N (max(f^, g^)/scale)^2,
        to lower  sum_j max(0, s_j - e_A) (max(g_j - f^, 0)/scale)^2.

    Every term is nonnegative, and the value lies between the two ends,
    so an enclosure narrower than eta relative to its upper end puts that
    end within eta of the value.  A full A adds no term, so its ends are
    exactly the partial-B ones, and A is B gives exactly 0.0.  The
    K_A x K_B overlap is one gemm, kept on B for the next call with the
    same A.  On stacks (which hold every pair) each end is the (T,) array
    of the instances' ends.
    """
    A._check_compatible(B)
    column = _time_column(t)
    same = A.eigenvalues.shape == B.eigenvalues.shape and np.all(
        A.eigenvalues == B.eigenvalues, axis=-1
    )
    if np.any(same):
        same = same & np.all(A._euclidean_vectors == B._euclidean_vectors, axis=(-2, -1))
        if np.all(same):
            zero = _unstacked(np.zeros(np.shape(same)))
            return zero, zero
    f = np.exp(-column * A.eigenvalues)
    g = np.exp(-column * B.eigenvalues)
    scale = np.asarray(scale, dtype=float)[..., None]
    overlap = B.squared_overlap(A)
    upper = lower = known = np.where(same, 0.0, _overlap_sum(f, g, scale[..., None], overlap))
    tail_b = math.exp(-t * B.cutoff) if B.partial else 0.0
    if B.partial:
        up, low = _dropped_terms(f, overlap.sum(axis=-1), B.orthogonality_loss, tail_b, scale)
        upper, lower = known + up, known + low
    if A.partial:
        tail_a = math.exp(-t * A.cutoff)
        up, low = _dropped_terms(g, overlap.sum(axis=-2), A.orthogonality_loss, tail_a, scale)
        upper = upper + up + A.dim * (max(tail_a, tail_b) / scale[..., 0]) ** 2
        lower = lower + low
    return _unstacked(upper), _unstacked(lower)


def _dropped_terms(kept, overlap_sums, loss, tail, scale):
    """What one operator's dropped pairs add to the ends of ``heat_difference_hs_bounds``.

    ``kept`` are the other operator's kept heat weights, ``overlap_sums``
    the squared overlaps of each of their vectors with the dropping
    operator's kept vectors, summed, ``loss`` the dropping operator's
    orthogonality loss and ``tail`` its heat weight at the cut-off.
    """
    rest = np.maximum(0.0, 1.0 - overlap_sums)
    upper = np.sum((rest + loss) * (np.maximum(kept, tail) / scale) ** 2, axis=-1)
    lower = np.sum(
        np.maximum(0.0, rest - loss) * (np.maximum(kept - tail, 0.0) / scale) ** 2, axis=-1
    )
    return upper, lower


def heat_two_inf_norm(A: SelfAdjointOperator, t) -> float:
    """||exp(-tA)||_{2->inf} for a SelfAdjointOperator A, from its spectrum.

    The squared norm at x is the largest eigenvalue of
    U_x diag(e^(-2 t w)) U_x^T, U_x the fiber rows of x in the
    m-orthonormal basis U; the norm is the square root of its largest
    value over x.  e^(-2 t w_0), w_0 the lowest eigenvalue, is factored out
    of every weight and restored in log space, so a negative w_0 at a large
    t gives inf, with no overflow warning.

    At fiber 1 the squared norm at x is sum_k e^(-2 t w_k) U_xk^2, one gemv
    against ``A._squared_basis`` (built on the first call), so no N x N
    array is built after the first call.  A partial A holds only its K
    pairs below sigma; every eigenvalue it dropped is at least sigma, and
    its dropped columns of U hold 1/m_x - sum_{k<=K} U_xk^2 of row x, so

        sum_{k<=K} e^(-2 t w_k) U_xk^2 + e^(-2 t sigma) max(0, 1/m_x - sum_{k<=K} U_xk^2)

    bounds the squared norm at x from above; the squared basis is N x K
    then.  At fiber n > 1 the n x n Gram matrix of each point is
    eigensolved, which needs every pair.  A stack of operators, at one
    time t or (T,) times, gives the (T,) norms of its instances, each from
    the arithmetic one operator gets alone.
    """
    column = _time_column(t)
    low = np.asarray(A.min_eigenvalue)[..., None]
    weights = np.exp(-2.0 * column * (A.eigenvalues - low))
    if A.fiber == 1:
        squared, lacking = A._squared_basis
        peak = (squared @ weights[..., None])[..., 0]
        if lacking is not None:
            peak += np.exp(-2.0 * column * (A.cutoff - low)) * lacking
    else:
        A._require_full("heat_two_inf_norm at fiber > 1")
        basis = A.basis
        rows = basis.reshape(*basis.shape[:-2], -1, A.fiber, basis.shape[-1])
        gram = np.einsum("...xak,...k,...xbk->...xab", rows, weights, rows)
        peak = np.linalg.eigvalsh(gram)[..., -1]
    with np.errstate(over="ignore"):
        norm = np.exp(0.5 * np.log(np.max(peak, axis=-1)) - column[..., 0] * low[..., 0])
    return _unstacked(norm)


def singular_values(operator: WeightedOperator) -> np.ndarray:
    """Singular values in the weighted metric, descending.

    Uses |eigenvalues| of the symmetric part (``_symmetric_part``) when the
    conjugated matrix is symmetric to 1e-13 relative (cheaper and exact for
    self-adjoint operators), otherwise a full SVD.  An operator on a stack
    of T spaces gives (T, d) values, each matrix taking the path it would
    take alone.
    """
    conj = _dense(operator.conjugated())
    stack = conj.reshape(-1, *conj.shape[-2:])
    asym = np.max(np.abs(stack - stack.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(stack), axis=(-2, -1), initial=0.0)
    symmetric = asym <= 1e-13 * np.maximum(scale, 1.0)
    values = np.empty(stack.shape[:-1])
    if np.any(symmetric):
        moduli = np.abs(np.linalg.eigvalsh(_symmetric_part(stack[symmetric])))
        values[symmetric] = np.sort(moduli, axis=-1)[..., ::-1]
    if not np.all(symmetric):
        values[~symmetric] = np.linalg.svd(stack[~symmetric], compute_uv=False)
    return values.reshape(conj.shape[:-1])


def schatten_power_sum(operator: WeightedOperator, p: float) -> float:
    """sum_i s_i(A)^p, the p-th power of the Schatten norm, computed directly."""
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    s = singular_values(operator)
    return float(np.sum(s**p))


def schatten_norm(operator: WeightedOperator, p: float) -> float:
    """l^p norm of the weighted singular values; quasi-norm for p in (0,1)."""
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    if p < 1.0:
        warnings.warn(
            f"p={p} < 1 gives a quasi-norm without the triangle inequality",
            stacklevel=2,
        )
    s = singular_values(operator)
    if s.size == 0:
        return 0.0
    top = float(s[0])
    if top == 0.0:
        return 0.0
    # Scale out the largest singular value so s^p cannot overflow/underflow.
    return float(top * np.sum((s / top) ** p) ** (1.0 / p))


def hs_norm(operator: WeightedOperator) -> float:
    """Hilbert-Schmidt norm (Schatten p=2) in the weighted metric."""
    return _frobenius(operator.conjugated())


def operator_norm(operator: WeightedOperator) -> float:
    """L2(m) -> L2(m) operator norm (largest weighted singular value)."""
    s = singular_values(operator)
    return float(s[0]) if s.size else 0.0


def two_inf_norm(operator: WeightedOperator) -> float:
    """L2(m) -> L^inf norm with the Euclidean norm on fibers.

    Exact on finite spaces: the block row of A at point x, mapped through
    M^(-1/2), has largest singular value equal to sup over the weighted
    unit ball of |Af(x)|; the norm is the max over points.  For a scalar
    kernel operator this is max_x of the weighted L2 norm of the kernel
    row k(x, .).  Read from the dense ``matrix`` of any operator, a partial
    ``SelfAdjointOperator`` included (its matrix is the one it was built
    from); the spectral route for a semigroup is ``heat_two_inf_norm``.  A
    stack of operators gives the (T,) norms of its instances.  All block
    rows go through one stacked call: a norm at fiber 1, else an SVD.
    """
    scaled = _dense(operator.matrix) * (1.0 / operator._sqrt_w)[..., None, :]
    blocks = scaled.reshape(*scaled.shape[:-2], -1, operator.fiber, scaled.shape[-1])
    if operator.fiber == 1:
        values = np.sqrt(np.vecdot(blocks[..., 0, :], blocks[..., 0, :]))
    else:
        values = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    return _unstacked(np.maximum(0.0, np.max(values, axis=-1)))
