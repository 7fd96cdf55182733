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
N x N arrays alive (the copy and the solver's workspace), not five.

Norms provided:

* ``schatten_norm(A, p)``: the l^p norm of the singular values of S.
* ``two_inf_norm(A)``: the L2(m) -> L^inf norm with Euclidean fiber norm,
  which for a kernel operator is the largest weighted L2 norm of a kernel
  row.  ``heat_two_inf_norm(A, t)`` gives the norm of exp(-tA) at fiber 1
  from A's spectrum, one gemv per call.
* ``operator_norm(A)``: the ordinary L2(m) -> L2(m) norm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_matrix, issparse

__all__ = [
    "WeightedFiniteSpace",
    "WeightedOperator",
    "SelfAdjointOperator",
    "heat_difference",
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class WeightedFiniteSpace:
    """Finite measure space: N points carrying strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValueError("space needs at least one point")
        if not np.all(w > 0.0):
            raise ValueError("all weights must be strictly positive")
        if not np.isfinite(w.sum()) or w.sum() <= 0.0:
            raise ValueError("total mass must be finite and positive")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def point_count(self) -> int:
        return self.weights.size

    def stacked_weights(self, fiber: int) -> np.ndarray:
        """Weight of each stacked coordinate (each m(x) repeated fiber times)."""
        return np.repeat(self.weights, fiber)

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

    A frozen CSR matrix (``_freeze``) is kept as it is: no one can change it.
    """
    if _is_frozen(matrix):
        return matrix
    if issparse(matrix):
        return _freeze(csr_matrix(matrix, dtype=float, copy=True))
    return _read_only(np.array(matrix, dtype=float))


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if issparse(matrix) else matrix


def _entrywise(matrix, entry):
    """``matrix`` with each a_ij replaced by entry(i, j, a_ij).

    ``entry`` works on index and value arrays that broadcast together.  A
    CSR matrix stays CSR with the same pattern, and each stored value is
    computed exactly as the dense route computes it.
    """
    if issparse(matrix):
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        data = entry(rows, matrix.indices, matrix.data)
        return csr_matrix((data, matrix.indices, matrix.indptr), matrix.shape)
    # Tuple indices: v[rows] is the view v[:, None], v[cols] is v[None, :].
    rows, cols = (slice(None), None), (None, slice(None))
    return entry(rows, cols, matrix)


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
        if mat.shape != (dim, dim):
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
        return self._sqrt_w.size

    def conjugated(self):
        """M^(1/2) A M^(-1/2), entry (sqrt(w_i) a_ij) / sqrt(w_j), CSR for a
        CSR operator; symmetric iff A is self-adjoint on L2(m)."""
        s = self._sqrt_w
        return _entrywise(self.matrix, lambda i, j, a: (s[i] * a) / s[j])

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        return (self.matrix @ vals.reshape(-1)).reshape(vals.shape)

    def compose(self, other: "WeightedOperator") -> "WeightedOperator":
        self._check_compatible(other)
        return WeightedOperator(self.matrix @ other.matrix, self.space, self.fiber)

    def _check_compatible(self, other: "WeightedOperator"):
        if not self.space.same_as(other.space) or self.fiber != other.fiber:
            raise DimensionMismatchError("operators live on different spaces")


def _frobenius(matrix) -> float:
    """The Frobenius norm, summed as ``np.linalg.norm`` sums it."""
    flat = (matrix.data if issparse(matrix) else matrix).ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _orthogonality_loss(q: np.ndarray) -> float:
    """||Q^T Q - I||_F, from one SYRK."""
    gram = q.T @ q
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return _frobenius(gram)


def _residual_norms(evals, q, conj) -> np.ndarray:
    """Column norms of R = S Q - Q diag(evals), S being ``conj`` (dense or CSR).

    R costs O(nnz N) for a CSR S.  Only R itself is N x N; its columns are
    corrected in blocks.
    """
    residual = conj @ q
    for start in range(0, q.shape[1], _RESIDUAL_BLOCK):
        cols = slice(start, start + _RESIDUAL_BLOCK)
        residual[:, cols] -= q[:, cols] * evals[cols]
    return np.sqrt(np.einsum("ij,ij->j", residual, residual))


def _reconstruction_bound(residual_norms: np.ndarray, scale: float, loss: float) -> float:
    """||R||_F sqrt(1 + loss) + scale loss, an upper bound on ||S - Q diag(evals) Q^T||_F.

    ``residual_norms`` are the column norms of R = S Q - Q diag(evals)
    (``_residual_norms``), ``scale`` is ||S||_F and ``loss`` is
    ``_orthogonality_loss(q)``.  Since
    S - Q diag(evals) Q^T = S (I - Q Q^T) + R Q^T, with
    ||I - Q Q^T||_2 = ||Q^T Q - I||_2 and ||Q||_2^2 <= 1 + ||Q^T Q - I||_2
    for square Q, the bound holds with no N x N reconstruction built.
    """
    return math.sqrt(residual_norms.dot(residual_norms)) * math.sqrt(1.0 + loss) + scale * loss


def _check_eigendata(evals, q, conj=None):
    """Raise ValueError unless Q diag(evals) Q^T is a sound decomposition.

    The eigenvalues must be finite and the orthogonality loss
    ||Q^T Q - I||_F at most 1e-10.  With ``conj``, the conjugated matrix S
    being decomposed (dense or CSR), S must also be symmetric to 1e-10
    relative to ||S||_F, and ``_reconstruction_bound`` on ||S - Q diag(evals) Q^T||_F
    must be at most 1e-10 max(||S||_F, 1): the bound is never below that
    reconstruction residual, so the check accepts nothing a 1e-10
    reconstruction check would reject.

    Returns the column norms of R = S Q - Q diag(evals), read-only (None
    without ``conj``), and the orthogonality loss.
    """
    if conj is not None:
        scale = _frobenius(conj)
        asym = float(abs(conj - conj.T).max()) if conj.size else 0.0
        if asym > SELFADJOINT_TOL * max(scale, 1e-300) and asym > 1e-14:
            raise ValueError(
                f"operator is not self-adjoint on the weighted space "
                f"(asymmetry {asym:.3e} vs scale {scale:.3e})"
            )
    loss = _orthogonality_loss(q)
    if not (np.all(np.isfinite(evals)) and loss <= RECONSTRUCTION_TOL):
        raise ValueError(f"eigendata not finite and orthonormal (loss {loss:.3e})")
    if conj is None:
        return None, loss
    residual_norms = _residual_norms(evals, q, conj)
    bound = _reconstruction_bound(residual_norms, scale, loss)
    if not bound <= RECONSTRUCTION_TOL * max(scale, 1.0):
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
    """

    # (other eigenvector array, squared overlap) of the last ``squared_overlap``.
    _overlap = None
    # (residual column norms, orthogonality loss) of the construction's check.
    _check_numbers = (None, None)

    def __init__(self, matrix, space, fiber=1):
        super().__init__(matrix, space, fiber)
        conj = self.conjugated()
        evals, evecs = _eigh_in_place(conj)
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
    ) -> "SelfAdjointOperator":
        """U diag(w) U^T M from eigendata of the conjugated matrix.

        ``euclidean_vectors`` must be Euclidean-orthonormal (the
        eigenvectors of the conjugated symmetric matrix); eigenvalues are
        sorted ascending here.  Raises ValueError unless the eigendata are
        finite and ||Q^T Q - I||_F <= 1e-10.  The eigenvector array is kept,
        not copied, and made read-only.

        ``matrix``, when given, is the operator's matrix (dense or CSR),
        kept as ``matrix``: the eigendata must then pass the checks of a
        construction from a matrix (self-adjoint, and the residual bound of
        ``_check_eigendata`` on ||S - Q diag(w) Q^T||_F within relative
        tolerance 1e-10).
        """
        evals = np.asarray(eigenvalues, dtype=float)
        q = np.asarray(euclidean_vectors, dtype=float)
        dim = space.point_count * fiber
        square = (dim, dim)
        if (
            fiber < 1
            or evals.shape != (dim,)
            or q.shape != square
            or (matrix is not None and np.shape(matrix) != square)
        ):
            raise DimensionMismatchError("eigendata do not match the space and fiber")
        op = cls._with_spectrum(space, fiber, evals, q)
        conj = None
        if matrix is not None:
            op.matrix = _stored(matrix)
            conj = op.conjugated()
        op._check_numbers = _check_eigendata(op.eigenvalues, op._euclidean_vectors, conj)
        return op

    @classmethod
    def _with_spectrum(cls, space, fiber, eigenvalues, euclidean_vectors):
        """Unchecked constructor; sorts the eigenpairs stably ascending.

        Eigenvalues that are already ascending keep the very same
        eigenvector array, which ``heat_difference_hs_squared`` recognises
        as a shared eigenbasis.
        """
        evals = np.asarray(eigenvalues, dtype=float)
        order = np.argsort(evals, kind="stable")
        if np.any(order != np.arange(order.size)):
            euclidean_vectors = euclidean_vectors[:, order]
        op = cls.__new__(cls)
        op.space, op.fiber = space, fiber
        op._sqrt_w = np.sqrt(space.stacked_weights(fiber))
        op.eigenvalues = _read_only(evals[order])
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
        q = self._euclidean_vectors
        conj = (q * self.eigenvalues[None, :]) @ q.T
        return _read_only((conj / self._sqrt_w[:, None]) * self._sqrt_w[None, :])

    @property
    def basis(self) -> np.ndarray:
        """m-orthonormal eigenvectors as columns, matching ``eigenvalues``."""
        return self._euclidean_vectors / self._sqrt_w[:, None]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def zero_threshold(self) -> float:
        return ZERO_TOL * (1.0 + self.spectral_radius)

    def kernel_dim(self) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) <= self.zero_threshold()))

    def kernel_basis(self) -> np.ndarray:
        """m-orthonormal basis of the kernel (columns; may be empty)."""
        mask = np.abs(self.eigenvalues) <= self.zero_threshold()
        return self.basis[:, mask]

    @cached_property
    def _squared_basis(self) -> np.ndarray:
        """U**2 elementwise, for U the m-orthonormal ``basis``; built once, read-only."""
        u = self.basis
        u *= u
        return _read_only(u)

    def squared_overlap(self, other: "SelfAdjointOperator") -> np.ndarray:
        """(Q_other^T Q)**2 elementwise, for Q the Euclidean eigenvectors.

        Entry (i, j) is the squared cosine between eigenvector i of
        ``other`` and eigenvector j of this operator in the weighted metric;
        the matrix is doubly stochastic.  The product for the last
        ``other`` eigenbasis is kept, so repeated calls cost nothing.
        """
        basis = other._euclidean_vectors
        cached = self._overlap
        if cached is None or cached[0] is not basis:
            overlap = basis.T @ self._euclidean_vectors
            cached = (basis, _read_only(np.square(overlap, out=overlap)))
            self._overlap = cached
        return cached[1]

    def spectral_function(self, f) -> "SelfAdjointOperator":
        """f(A) by spectral calculus: eigenvalues f(w) on the cached eigenbasis.

        ``f`` maps the eigenvalue array elementwise.  No eigensolve runs and
        no check is repeated: the basis came from a checked construction.
        """
        values = f(self.eigenvalues)
        return self._with_spectrum(self.space, self.fiber, values, self._euclidean_vectors)

    def semigroup(self, t: float) -> "SelfAdjointOperator":
        """exp(-t A) via spectral calculus; shares the cached eigenbasis."""
        if t < 0.0:
            raise ValueError("semigroup time must be nonnegative")
        return self.spectral_function(lambda w: np.exp(-t * w))

    def shifted(self, c: float) -> "SelfAdjointOperator":
        """A + c in place of A, reusing the eigenbasis."""
        return self.spectral_function(lambda w: w + c)


def heat_difference(A, B, t: float) -> WeightedOperator:
    """exp(-tA) - exp(-tB) for SelfAdjointOperators A, B, from their cached spectra."""
    A._check_compatible(B)
    return WeightedOperator(A.semigroup(t).matrix - B.semigroup(t).matrix, A.space, A.fiber)


def heat_difference_hs_squared(A, B, t: float, scale: float = 1.0) -> float:
    """||(exp(-tA) - exp(-tB)) / scale||_HS^2 from the cached spectra, in O(N^2).

    With f = exp(-t eig(A)), g = exp(-t eig(B)) and the squared overlap
    C = (Q_A^T Q_B)**2, the squared norm is sum_ij C_ij ((f_i - g_j)/scale)^2:
    every term is nonnegative, so nothing cancels.  When B shares the
    eigenvector array of A (B is A, or A shifted), C is the identity and no
    matrix product runs.  Two operators whose eigenvalues and eigenvectors
    are bitwise equal (say, two eigensolves of the same matrix) are the
    same operator and give exactly 0.0, not the rounding of C's
    off-diagonal entries; the eigenvalues are compared first, so operators
    with different spectra pay only that O(N) comparison.
    """
    A._check_compatible(B)
    if np.array_equal(A.eigenvalues, B.eigenvalues) and np.array_equal(
        A._euclidean_vectors, B._euclidean_vectors
    ):
        return 0.0
    f = np.exp(-t * A.eigenvalues)
    g = np.exp(-t * B.eigenvalues)
    if A._euclidean_vectors is B._euclidean_vectors:
        return float(np.sum(((f - g) / scale) ** 2))
    terms = np.subtract.outer(f, g)
    terms /= scale
    terms *= terms
    terms *= B.squared_overlap(A)
    return float(terms.sum())


def heat_two_inf_norm(A: SelfAdjointOperator, t: float) -> float:
    """||exp(-tA)||_{2->inf} for a SelfAdjointOperator A at fiber 1, in one gemv.

    The value of ``two_inf_norm(A.semigroup(t))``: the squared norm at x is
    sum_k e^(-2 t w_k) U_xk^2, read from ``A._squared_basis`` (built on the
    first call) in ascending eigenvalue order, so no N x N array is built
    after the first call.
    """
    if A.fiber != 1:
        raise DimensionMismatchError("heat_two_inf_norm needs a scalar fiber")
    if t < 0.0:
        raise ValueError("semigroup time must be nonnegative")
    heat = np.exp(-t * A.eigenvalues)
    return float(np.sqrt(np.max(A._squared_basis @ (heat * heat))))


def singular_values(operator: WeightedOperator) -> np.ndarray:
    """Singular values in the weighted metric, descending.

    Uses |eigenvalues| when the conjugated matrix is symmetric (cheaper and
    exact for self-adjoint operators), otherwise a full SVD.
    """
    conj = _dense(operator.conjugated())
    asym = float(np.max(np.abs(conj - conj.T))) if conj.size else 0.0
    scale = float(np.max(np.abs(conj))) if conj.size else 0.0
    if asym <= 1e-13 * max(scale, 1.0):
        vals = np.abs(np.linalg.eigvalsh(0.5 * (conj + conj.T)))
        return np.sort(vals)[::-1]
    return np.linalg.svd(conj, compute_uv=False)


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
    sum_k w_k^2 U_xk^2.
    """
    n = operator.fiber
    if isinstance(operator, SelfAdjointOperator):
        u = operator.basis
        w2 = operator.eigenvalues**2
        if n == 1:
            return float(np.sqrt(np.max((u * u) @ w2)))
        rows = u.reshape(operator.space.point_count, n, -1)
        gram = np.einsum("xak,k,xbk->xab", rows, w2, rows)
        return float(np.sqrt(max(float(np.max(np.linalg.eigvalsh(gram))), 0.0)))
    inv_sqrt = 1.0 / operator._sqrt_w
    scaled = _dense(operator.matrix) * inv_sqrt[None, :]
    best = 0.0
    for x in range(operator.space.point_count):
        block = scaled[x * n : (x + 1) * n, :]
        if n == 1:
            val = float(np.linalg.norm(block))
        else:
            val = float(np.linalg.svd(block, compute_uv=False)[0])
        best = max(best, val)
    return best
