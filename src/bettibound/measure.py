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
``CutOffRefused``.  ``heat_difference_hs_bounds`` then encloses the
Hilbert-Schmidt norm of a heat difference over the pairs either operator
dropped, whose heat weights are at most e^(-t sigma), and
``heat_two_inf_norm`` bounds a 2->inf norm over them from above;
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
  row.  ``heat_two_inf_norm(A, t)`` gives the norm of exp(-tA) at fiber 1
  from A's spectrum, one gemv per call, and an upper bound on it from
  the pairs of a partial A.
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
from scipy.sparse.linalg import splu

__all__ = [
    "WeightedFiniteSpace",
    "WeightedOperator",
    "SelfAdjointOperator",
    "CutOffRefused",
    "heat_difference",
    "heat_difference_hs_bounds",
    "heat_difference_hs_squared",
    "heat_two_inf_norm",
    "singular_values",
    "schatten_norm",
    "schatten_power_sum",
    "hs_norm",
    "operator_norm",
    "two_inf_norm",
]

# An eigenvalue counts as zero iff |lambda| <= ZERO_TOL * (1 + spectral radius).
ZERO_TOL = 1e-9

SELFADJOINT_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
# Columns of S Q - Q diag(evals) corrected per step, to bound the temporary.
_RESIDUAL_BLOCK = 256


class DimensionMismatchError(ValueError):
    """Operands live on different spaces or have incompatible shapes."""


class CutOffRefused(ValueError):
    """A cut-off its inertia count does not certify: the count and the
    eigendata disagree, or the shifted factorization cannot be read.  A
    larger cut-off may be certified; at or above the radius bound no
    count is needed."""


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

    def compose(self, other: "WeightedOperator") -> "WeightedOperator":
        self._check_compatible(other)
        return WeightedOperator(self.matrix @ other.matrix, self.space, self.fiber)

    def _check_compatible(self, other: "WeightedOperator"):
        if not self.space.same_as(other.space) or self.fiber != other.fiber:
            raise DimensionMismatchError("operators live on different spaces")


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


def _eigh_in_place(conj) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and C-ordered eigenvectors of (S + S^T) / 2.

    ``conj`` is S, dense or CSR.  The symmetrized matrix is built in one
    buffer owned here, with the bits of ``0.5 * (conj + conj.T)``, and
    LAPACK's xSYEVD overwrites that buffer with the eigenvectors: being
    exactly symmetric, its transpose is the same matrix in Fortran order,
    so no copy is made, and the lower triangle is read as
    ``np.linalg.eigh`` reads it.  Live at once are that buffer and xSYEVD's
    1 + 6N + 2N^2 workspace, where ``np.linalg.eigh`` of a dense input also
    keeps the input, its Fortran copy and a separate output.  The C-ordered
    copy, on which later products and sums rely for their bits, is made
    once the workspace is freed.  Raises LinAlgError if xSYEVD fails.
    """
    sym = _dense(conj + conj.T)
    sym *= 0.5
    evals, evecs, info = lapack.dsyevd(sym.T, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"symmetric eigensolve failed (xSYEVD info {info})")
    return evals, np.ascontiguousarray(evecs)


def _eigh_lowest_in_place(conj, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` lowest eigenpairs of (S + S^T) / 2, ascending, C-ordered.

    The symmetrized buffer is built as ``_eigh_in_place`` builds it, and
    LAPACK's xSYEVR with ``range='I'`` reduces it to tridiagonal form in
    place, then computes eigenvalues 1 to ``count`` of that form by
    bisection and their eigenvectors by inverse iteration (xSTEBZ and
    xSTEIN; its MRRR path serves only the whole spectrum) and maps them
    back: besides the buffer, the N x count vectors and O(N) workspace
    are alive.  Raises LinAlgError if xSYEVR fails or finds fewer pairs.
    """
    sym = _dense(conj + conj.T)
    sym *= 0.5
    evals, evecs, found, _, info = lapack.dsyevr(
        sym.T, compute_v=1, range="I", lower=1, il=1, iu=count, overwrite_a=1
    )
    if info != 0 or found != count:
        raise np.linalg.LinAlgError(
            f"symmetric eigensolve failed (xSYEVR info {info}, {found} of {count} pairs)"
        )
    return evals[:count], np.ascontiguousarray(evecs)


# Fill-reducing ordering of an inertia count's factorization: SuperLU's
# minimum degree on the pattern of A^T + A, applied to a matrix already put
# in reverse Cuthill-McKee order (``_rcm_ordered``).  The banded preorder
# removes the minimum-degree ordering's blow-up on the icosphere family;
# measured on L1 (2 vCPUs, one BLAS thread), RCM+MMD factored the sphere at
# resolution 5 (E 30720) in 0.31 s and 4.3M factor nonzeros, COLAMD in
# 1.05 s and 8.1M, and bumpy-sphere(3) in 8 ms against 17 ms; the RCM
# order and the permuted copy cost 7 ms and 0.6 ms.  Both keep every
# pivot on the diagonal.
_ORDERING = "MMD_AT_PLUS_A"


def _rcm_ordered(s: csr_matrix) -> tuple[np.ndarray, csr_matrix]:
    """The reverse Cuthill-McKee order of a symmetric CSR S and P S P^T in it."""
    order = reverse_cuthill_mckee(s, symmetric_mode=True)
    return order, s[order][:, order]


def _inertia(permuted: csr_matrix, sigma: float):
    """A symmetric factorization of P S P^T - sigma I and its count of negative pivots.

    ``permuted`` is S in a fixed symmetric order P (``_rcm_ordered``), so
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


def _count_below(conj, cutoff: float) -> tuple[int, float]:
    """(eigenvalues of (S + S^T) / 2 below ``cutoff``, the radius bound r).

    r, the largest absolute row sum of the symmetrized matrix, bounds its
    spectral radius in O(nnz); a cut-off at or above it counts all N
    eigenvalues with no factorization.  Otherwise the count is the
    inertia of the symmetrized matrix, as a CSR matrix in reverse
    Cuthill-McKee order, shifted by the cut-off (``_inertia``).
    """
    half = csr_matrix(conj + conj.T) * 0.5
    radius = float(abs(half).sum(axis=1).max())
    if cutoff >= radius:
        return half.shape[0], radius
    return _inertia(_rcm_ordered(half)[1], cutoff)[1], radius


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


def _spectral_two_inf(basis, eigenvalues, fiber):
    """||U diag(w) U^T M||_{2->inf} from the m-orthonormal basis U and w.

    The squared norm at x is the largest eigenvalue of U_x diag(w^2) U_x^T,
    U_x the fiber rows of x; at fiber 1 it is sum_k w_k^2 U_xk^2, one gemv.
    A (T, N, N) stack of bases with (T, N) eigenvalues gives (T,) norms.
    """
    w2 = eigenvalues**2
    if fiber == 1:
        return np.sqrt(np.max(((basis * basis) @ w2[..., None])[..., 0], axis=-1))
    rows = basis.reshape(*basis.shape[:-2], -1, fiber, basis.shape[-1])
    gram = np.einsum("...xak,...k,...xbk->...xab", rows, w2, rows)
    return np.sqrt(np.maximum(np.max(np.linalg.eigvalsh(gram), axis=(-2, -1)), 0.0))


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

    A finite ``cutoff`` sigma asks only for the K eigenpairs below it.  K
    is the inertia of S - sigma I (``_count_below``: a sparse factorization
    in reverse Cuthill-McKee order, none when sigma is at or above the
    radius bound r, the largest absolute row sum).  When K = N the
    operator is the one the default sigma = inf gives, bit for bit.
    Otherwise it is *partial*: xSYEVR computes the K + 1 lowest pairs in
    place (``_eigh_lowest_in_place``), the (K+1)-th must lie at or above
    sigma and the K-th below it (so the solver counts K as well), and the
    K kept pairs pass ``_check_eigendata`` with the N x K Q: finite,
    orthogonality loss <= 1e-10 and ||R||_F sqrt(1 + loss) <=
    1e-10 max(||S||_F, 1).  A count the solver does not confirm, or an
    inertia that cannot be read, raises ``CutOffRefused`` (a ValueError),
    a failed check ValueError.  Its zero threshold comes from r,
    ``min_eigenvalue`` is sigma when K = 0 (every eigenvalue is at or
    above it), and every method that needs all pairs
    (``spectral_function`` and the semigroups, ``kernel_basis``,
    ``squared_overlap``, ``two_inf_norm``) raises
    ValueError; its ``matrix`` is the one it was built from, which needs
    no pair.  ``heat_difference_hs_bounds`` encloses its heat difference
    with another operator, full or partial, from the K pairs and sigma,
    and ``heat_two_inf_norm`` bounds the 2->inf norm of its semigroup
    from above; ``from_spectrum`` with a cut-off builds a partial
    operator from K pairs computed elsewhere.

    A stack of T operators of one shape is the same type with a leading
    axis: its space has (T, N) weights, ``eigenvalues`` are (T, d) and the
    eigenvectors (T, d, d), d = N * fiber.  A dense (T, d, d) matrix is
    symmetrized as ``_eigh_in_place`` symmetrizes it and eigensolved by
    xSYEVD through numpy's stacked ``eigh``, and ``_check_eigendata``
    checks each instance at its own scale; ``from_spectrum`` takes stacked
    eigendata.  Every method runs its arithmetic over the leading axis:
    numpy's stacked LAPACK and BLAS calls treat each matrix as the 2-D
    call does, so every instance gets the bits it would get alone.  Where
    one operator gives a Python number, a stack gives the (T,) array of
    its instances' numbers.  A stack holds every eigenpair.
    """

    # (other eigenvector array, squared overlap) of the last ``squared_overlap``.
    _overlap = None
    # (residual column norms, orthogonality loss) of the construction's check.
    _check_numbers = (None, None)
    # sigma of a partial operator, and its radius bound; a full operator has all pairs.
    cutoff = math.inf
    _radius_bound = None

    def __init__(self, matrix, space, fiber=1, cutoff=math.inf):
        super().__init__(matrix, space, fiber)
        conj = self.conjugated()
        if conj.ndim > 2 and cutoff < math.inf:
            raise ValueError("a stack of operators takes no cut-off")
        count, radius = (self.dim, None) if cutoff == math.inf else _count_below(conj, cutoff)
        if conj.ndim > 2:
            sym = conj + conj.swapaxes(-1, -2)
            sym *= 0.5
            evals, evecs = np.linalg.eigh(sym)
        elif count == self.dim:
            evals, evecs = _eigh_in_place(conj)
        else:
            evals, evecs = _eigh_lowest_in_place(conj, count + 1)
            if not (evals[count] >= cutoff and (count == 0 or evals[count - 1] < cutoff)):
                found = int(np.count_nonzero(evals < cutoff))
                raise CutOffRefused(
                    f"cut-off {cutoff:.6g} not certified: the inertia counts {count} "
                    f"eigenvalues below it, the solver {found}"
                    f"{' or more' if found > count else ''}"
                )
            evals, evecs = evals[:count], np.ascontiguousarray(evecs[:, :count])
            self.cutoff, self._radius_bound = cutoff, radius
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
        pairs below it as an N x K array: each must lie below sigma, the
        inertia of S - sigma I (``_count_below``) must count exactly K
        eigenvalues below it, else ``CutOffRefused``, and they pass the N x K
        checks of ``_check_eigendata``.  The operator is then partial, as
        one built from its matrix with this cut-off; when K = N it is full.
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
            count, radius = _count_below(conj, cutoff)
            below = int(np.count_nonzero(op.eigenvalues < cutoff))
            if not count == below == columns:
                raise CutOffRefused(
                    f"cut-off {cutoff:.6g} not certified: the inertia counts {count} "
                    f"eigenvalues below it, the eigendata {below} of {columns}"
                )
            if count < dim:
                op.cutoff, op._radius_bound = cutoff, radius
        return op

    @classmethod
    def _with_spectrum(cls, space, fiber, eigenvalues, euclidean_vectors):
        """Unchecked constructor; sorts the eigenpairs stably ascending.

        Eigenvalues that are already ascending keep the very same
        eigenvector array (``_ascending``), which
        ``heat_difference_hs_bounds`` recognises as a shared eigenbasis.
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
    def spectral_radius(self) -> float:
        self._require_full("spectral_radius")
        return _unstacked(np.max(np.abs(self.eigenvalues), axis=-1))

    @property
    def min_eigenvalue(self) -> float:
        if not self.eigenvalues.size:
            return float(self.cutoff)
        return _unstacked(self.eigenvalues[..., 0])

    def zero_threshold(self) -> float:
        radius = self._radius_bound if self.partial else self.spectral_radius
        return _unstacked(ZERO_TOL * (1.0 + radius))

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
        """(Q_other^T Q)**2 elementwise, for Q the Euclidean eigenvectors.

        Entry (i, j) is the squared cosine between eigenvector i of
        ``other`` and eigenvector j of this operator in the weighted metric;
        the matrix is doubly stochastic.  The product for the last
        ``other`` eigenbasis is kept, so repeated calls cost nothing.
        """
        self._require_full("squared_overlap")
        other._require_full("squared_overlap")
        return self._squared_overlap(other)

    def _squared_overlap(self, other: "SelfAdjointOperator") -> np.ndarray:
        """``squared_overlap`` for partial operators too: K_other x K."""
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
        column = np.asarray(t, dtype=float)[..., None]
        if np.any(column < 0.0):
            raise ValueError("semigroup time must be nonnegative")
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


def heat_difference_hs_squared(A, B, t, scale=1.0):
    """||(exp(-tA) - exp(-tB)) / scale||_HS^2 from the cached spectra, in O(N^2).

    With f = exp(-t eig(A)), g = exp(-t eig(B)) and the squared overlap
    C = (Q_A^T Q_B)**2, the squared norm is sum_ij C_ij ((f_i - g_j)/scale)^2:
    every term is nonnegative, so nothing cancels.  When B shares the
    eigenvector array of A (B is A, or A shifted), C is the identity and no
    matrix product runs.  Two operators whose eigenvalues and eigenvectors
    are bitwise equal (say, two eigensolves of the same matrix) are the
    same operator and give exactly 0.0, not the rounding of C's
    off-diagonal entries; the eigenvalues are compared first, so operators
    with different spectra pay only that O(N) comparison.  For a partial
    A or B this is the upper end of ``heat_difference_hs_bounds``; for stacks,
    the (T,) values of the instances, with t and scale floats or (T,)
    arrays.
    """
    return heat_difference_hs_bounds(A, B, t, scale)[0]


def heat_difference_hs_bounds(A, B, t, scale=1.0) -> tuple:
    """(upper, lower) ends of an enclosure of ``heat_difference_hs_squared(A, B, t, scale)``.

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
    same = A.eigenvalues.shape == B.eigenvalues.shape and np.all(
        A.eigenvalues == B.eigenvalues, axis=-1
    )
    if np.any(same):
        same = same & np.all(A._euclidean_vectors == B._euclidean_vectors, axis=(-2, -1))
        if np.all(same):
            zero = _unstacked(np.zeros(np.shape(same)))
            return zero, zero
    column = np.asarray(t, dtype=float)[..., None]
    f = np.exp(-column * A.eigenvalues)
    g = np.exp(-column * B.eigenvalues)
    scale = np.asarray(scale, dtype=float)[..., None]
    if A._euclidean_vectors is B._euclidean_vectors:
        known = np.sum(((f - g) / scale) ** 2, axis=-1)
    else:
        overlap = B._squared_overlap(A)
        known = _overlap_sum(f, g, scale[..., None], overlap)
    upper = lower = known = np.where(same, 0.0, known)
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


def heat_two_inf_norm(A: SelfAdjointOperator, t: float) -> float:
    """||exp(-tA)||_{2->inf} for a SelfAdjointOperator A at fiber 1, in one gemv.

    The value of ``two_inf_norm(A.semigroup(t))``: the squared norm at x is
    sum_k e^(-2 t w_k) U_xk^2, read from ``A._squared_basis`` (built on the
    first call) in ascending eigenvalue order, so no N x N array is built
    after the first call.  A partial A holds only its K pairs below sigma;
    every eigenvalue it dropped is at least sigma, and its dropped columns
    of U hold 1/m_x - sum_{k<=K} U_xk^2 of row x, so

        sum_{k<=K} e^(-2 t w_k) U_xk^2 + e^(-2 t sigma) max(0, 1/m_x - sum_{k<=K} U_xk^2)

    bounds the squared norm at x from above, and the returned norm is the
    square root of its largest value.  The squared basis is N x K then.
    e^(-2 t w_min) is factored out of every weight and restored in log
    space, so a negative w_min at a large t gives inf, with no overflow
    warning.
    """
    if A.fiber != 1:
        raise DimensionMismatchError("heat_two_inf_norm needs a scalar fiber")
    if t < 0.0:
        raise ValueError("semigroup time must be nonnegative")
    squared, lacking = A._squared_basis
    low = A.min_eigenvalue
    peak = squared @ np.exp(-2.0 * t * (A.eigenvalues - low))
    if lacking is not None:
        peak += math.exp(-2.0 * t * (A.cutoff - low)) * lacking
    try:
        return math.exp(0.5 * math.log(float(np.max(peak))) - t * low)
    except OverflowError:
        return math.inf


def singular_values(operator: WeightedOperator) -> np.ndarray:
    """Singular values in the weighted metric, descending.

    Uses |eigenvalues| when the conjugated matrix is symmetric (cheaper and
    exact for self-adjoint operators), otherwise a full SVD.
    """
    return _singular_values(_dense(operator.conjugated()))


def _singular_values(conj) -> np.ndarray:
    """Weighted singular values, descending, of conjugated matrices: (n,)
    for an (n, n) matrix, (T, n) for a (T, n, n) stack; each matrix takes
    the path ``singular_values`` takes for it."""
    stack = conj.reshape(-1, *conj.shape[-2:])
    asym = np.max(np.abs(stack - stack.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(stack), axis=(-2, -1), initial=0.0)
    symmetric = asym <= 1e-13 * np.maximum(scale, 1.0)
    values = np.empty(stack.shape[:-1])
    if np.any(symmetric):
        sym = stack[symmetric]
        moduli = np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.swapaxes(-1, -2))))
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
    row k(x, .).  A ``SelfAdjointOperator`` U diag(w) U^T M is read from its
    spectrum in O(N^2): the squared norm at x is the largest eigenvalue of
    U_x diag(w^2) U_x^T (U_x the fiber rows of x), at fiber 1 the sum
    sum_k w_k^2 U_xk^2.  A stack of operators gives the (T,) norms of its
    instances.
    """
    n = operator.fiber
    if isinstance(operator, SelfAdjointOperator):
        operator._require_full("two_inf_norm")
        return _unstacked(_spectral_two_inf(operator.basis, operator.eigenvalues, n))
    return float(_block_row_two_inf(_dense(operator.matrix), operator._sqrt_w, n))


def _block_row_two_inf(matrix: np.ndarray, sqrt_w: np.ndarray, fiber: int):
    """``two_inf_norm`` of the operator with this dense matrix, from its block rows.

    The (n, dim) block row of each point, mapped through M^(-1/2), gives
    its norm at n = 1 and else its largest singular value; all points go
    through one stacked call.  A (T, d, d) stack with (T, d) ``sqrt_w``
    gives (T,) norms.
    """
    scaled = matrix * (1.0 / sqrt_w)[..., None, :]
    blocks = scaled.reshape(*scaled.shape[:-2], -1, fiber, scaled.shape[-1])
    if fiber == 1:
        values = np.sqrt(np.vecdot(blocks[..., 0, :], blocks[..., 0, :]))
    else:
        values = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    return np.maximum(0.0, np.max(values, axis=-1))
