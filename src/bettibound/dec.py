"""Discrete exterior calculus on closed triangulated surfaces.

The chain complex is carried by sparse integer incidence matrices d0
(edges x vertices) and d1 (faces x edges), read straight off the mesh's
edge table, with d1 d0 = 0 exactly.  Diagonal Hodge
stars come from the barycentric dual: star0 holds vertex dual areas,
star1 the ratio of barycentric dual edge length to primal edge length
(always positive, at the price of first-order accuracy), star2 the
inverse face areas.  From these,

    L0 = star0^(-1) d0^T star1 d0                 on vertex functions,
    L1 = d0 star0^(-1) d0^T star1 + star1^(-1) d1^T star2 d1   on edge functions,
    L2 = d1 star1^(-1) d1^T star2                 on face functions,

all self-adjoint and positive semidefinite in their star-weighted L2
spaces.  L1 is never eigensolved as an E x E matrix: since d1 d0 = 0 its
two terms annihilate each other (the Hodge decomposition; Desbrun,
Hirani, Leok and Marsden, "Discrete Exterior Calculus", 2005), so its
eigenpairs are L0's nonzero ones mapped through d0, L2's nonzero ones
mapped through the codifferential, and a Rayleigh-Ritz basis of the
small rest.  All three Laplacians are CSR matrices, each built once per
surface with read-only arrays and handed to every reader; only the
inputs of the L0 and L2 eigensolves are dense.

The kernel of L1 consists of the harmonic edge functions, whose
dimension equals the first Betti number.  Route (a) of the Betti oracle
counts it on L1's own CSR matrix with no dense eigensolve
(``_certified_kernel_dim``, which counts ker L0 as well).  One sparse
symmetric factorization of L1 shifted just above the zero threshold, in
reverse Cuthill-McKee order, gives, by Sylvester's law of inertia, the
number j of eigenvalues below the shift; j = 0 certifies an empty
kernel outright.  Otherwise a shift-invert Lanczos run on that same
factor gives the j Ritz pairs below the shift, certified by their
residuals; only an eigenvalue between the threshold and the shift costs
a second factorization.  The certified Ritz vectors are kept on the
DEC.  L1's eigenpairs are assembled only for the Schatten certificate
(``DECOperators.laplacian1``), checked against the same matrix by
residual and orthogonality loss (``measure``): at p = 2 only those below
a cut-off, an E x K array whose harmonic block starts from the kept
Ritz vectors, certified by the Hodge count of the inertia of L1 - sigma
I; all E of them, an E x E array, otherwise.  Route (b), an
independent combinatorial count b1 = E - rank(d0) - rank(d1),
cross-checks route (a).  Both ranks are exact: component counts of the
patterns of d0^T d0 and d1 d1^T, not float ranks.

Curvature enters through vertex angle defects: K(v) multiplied by the
dual area is 2*pi minus the incident angle sum, and the defects sum to
2*pi times the Euler characteristic (discrete Gauss-Bonnet).  On a
surface the Ricci endomorphism is K times the identity on the two
dimensional cotangent fiber, which is what the bound pipeline feeds into
the matrix potential machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, eigsh

from .measure import (
    ZERO_TOL,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    _freeze,
    _frobenius,
    _inertia,
    _orthogonality_loss,
    _rcm_ordered,
    _read_only,
)
from .mesh import AnalyticSurface, MeshError, TriangleMesh

__all__ = [
    "DECOperators",
    "CurvatureField",
    "build_dec",
    "gaussian_curvature",
    "betti1_oracle",
    "betti1_rank_count",
    "check_connected_manifold",
    "kernel_dim_0forms",
    "ricci_potential",
    "schrodinger_comparison",
]

GAUSS_BONNET_TOL = 1e-9


@dataclass(frozen=True)
class DECOperators:
    """Sparse integer incidence matrices and diagonal Hodge stars of a mesh."""

    mesh: TriangleMesh
    d0: csr_matrix
    d1: csr_matrix
    star0: np.ndarray
    star1: np.ndarray
    star2: np.ndarray
    _matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.any(self.star0 <= 0) or np.any(self.star1 <= 0) or np.any(self.star2 <= 0):
            raise MeshError("Hodge star entries must be strictly positive")
        if self.incidence_composition_max() != 0:
            raise MeshError("d1 d0 does not vanish; incidence assembly is broken")

    def incidence_composition_max(self) -> int:
        """max |(d1 d0)_ij|, exact: every entry is a small integer."""
        return int(abs(self.d1 @ self.d0).max())

    # Function spaces weighted by the stars.
    def vertex_space(self) -> WeightedFiniteSpace:
        return WeightedFiniteSpace(self.star0)

    def edge_space(self) -> WeightedFiniteSpace:
        return WeightedFiniteSpace(self.star1)

    def face_space(self) -> WeightedFiniteSpace:
        return WeightedFiniteSpace(self.star2)

    # The Laplacians are CSR, each built on its first call and then
    # kept with read-only arrays (``measure._freeze``), so every reader
    # shares one matrix.  Each stored entry is computed exactly as the
    # dense formula computes it (a row divided by its star, not
    # multiplied by the reciprocal), so ``toarray()`` gives the dense
    # matrix bit for bit.

    def _kept(self, name: str, build) -> csr_matrix:
        if name not in self._matrices:
            self._matrices[name] = _freeze(build())
        return self._matrices[name]

    def laplacian0_matrix(self) -> csr_matrix:
        return self._kept(
            "laplacian0", lambda: _divide_rows(self.d0.T @ diags(self.star1) @ self.d0, self.star0)
        )

    def laplacian1_matrix(self) -> csr_matrix:
        def build():
            # Each entry of either product sums at most two exact terms (+-1
            # times a star), so the summation order cannot change a bit.
            factor = _divide_rows(self.d0.T @ diags(self.star1), self.star0)
            upper = _divide_rows(self.d1.T @ diags(self.star2) @ self.d1, self.star1)
            return (self.d0 @ factor + upper).tocsr()

        return self._kept("laplacian1", build)

    def laplacian2_matrix(self) -> csr_matrix:
        def build():
            lap = (self.d1 @ diags(1.0 / self.star1) @ self.d1.T).tocsr()
            lap.data *= self.star2[lap.indices]
            return lap

        return self._kept("laplacian2", build)

    def laplacian0(self, cutoff: float = math.inf) -> SelfAdjointOperator:
        return SelfAdjointOperator(self.laplacian0_matrix(), self.vertex_space(), cutoff=cutoff)

    def laplacian2(self, cutoff: float = math.inf) -> SelfAdjointOperator:
        return SelfAdjointOperator(self.laplacian2_matrix(), self.face_space(), cutoff=cutoff)

    @cached_property
    def harmonic_ritz_vectors(self) -> np.ndarray:
        """The certified Ritz vectors of ker L1, E x b1 in conjugated coordinates.

        The Lanczos run of ``_certified_kernel`` on L1's conjugated CSR
        matrix, made once per DEC: ``betti1_oracle`` counts its columns,
        and ``laplacian1`` below a cut-off starts its harmonic block from
        them.
        """
        s1 = WeightedOperator(self.laplacian1_matrix(), self.edge_space()).conjugated()
        return _read_only(_certified_kernel(s1)[0])

    def hodge_factors(self) -> tuple[csr_matrix, csr_matrix]:
        """C = star1^(1/2) d0 star0^(-1/2) and B = star2^(1/2) d1 star1^(-1/2), CSR.

        In the conjugated (Euclidean) coordinates L0 is C^T C, L2 is B B^T
        and L1 is C C^T + B^T B, up to the rounding of the star scalings;
        B C vanishes to the same rounding because d1 d0 = 0.
        """
        s0, s1, s2 = np.sqrt(self.star0), np.sqrt(self.star1), np.sqrt(self.star2)
        c = diags(s1) @ self.d0 @ diags(1.0 / s0)
        b = diags(s2) @ self.d1 @ diags(1.0 / s1)
        return c, b

    def laplacian1(self, cutoff: float = math.inf) -> SelfAdjointOperator:
        """L1 assembled from its Hodge pieces: all E eigenpairs, or those below ``cutoff``.

        With C and B from ``hodge_factors``, the conjugated L1 is
        C C^T + B^T B, and the two terms annihilate each other because
        d1 d0 = 0.  So its orthonormal eigenvectors are

        * C w / |C w|, eigenvalue lam, for each eigenpair (lam, w) of the
          conjugated L0 above L0's zero threshold;
        * B^T y / |B^T y|, eigenvalue mu, for each eigenpair (mu, y) of the
          conjugated L2 above L2's zero threshold;
        * a Rayleigh-Ritz basis of the h dimensional rest: the harmonic
          1-forms, plus, when every pair is kept, any pair a threshold
          misjudged, with its true eigenvalue.

        |C w| is sqrt(lam) in exact arithmetic; the computed norm keeps the
        columns orthonormal to rounding, where sqrt(lam) would leave a
        defect of order eps * (spectral radius / lam).  ``from_spectrum``
        checks the eigenvectors against L1's assembled CSR matrix, which the
        operator keeps, through the residual S1 Q - Q diag(evals) in
        O(nnz E) and the orthogonality loss Q^T Q - I; no E x E matrix is
        densified.  L0 and L2 are eigensolved here, in that order, and only
        their nonzero eigenpairs are kept, so their eigenvectors are freed
        when this returns.  Only the Schatten certificate reads L1's
        eigenpairs: its kernel dimension alone comes from ``betti1_oracle``.

        With the default cut-off every pair is kept, in an E x E array, and
        the rest, h = E - n0 - n2, starts from a fixed random block.  A
        finite cut-off sigma asks L0 and L2 only for their pairs below it
        (``SelfAdjointOperator(..., cutoff=sigma)``, V x V and F x F
        xSYEVR), and the rest is the b1 harmonic forms, started from the
        oracle's Ritz vectors (``harmonic_ritz_vectors``, no second Lanczos
        run).  The result is partial, with an E x K array, K = b1 + k0 + k2
        for the k0 and k2 nonzero pairs of L0 and L2 below sigma, and
        ``from_spectrum`` certifies the Hodge count: the inertia of
        L1 - sigma I must be exactly K, else ValueError.  When L0 and L2
        keep every pair, so does L1, and it is the full operator, bit for
        bit.
        """
        c, b = self.hodge_factors()
        lam, w = _nonzero_eigenpairs(self.laplacian0(cutoff))
        mu, y = _nonzero_eigenpairs(self.laplacian2(cutoff))
        ne = self.mesh.edge_count
        if cutoff < math.inf and self.harmonic_ritz_vectors.shape[1] + lam.size + mu.size < ne:
            block = self.harmonic_ritz_vectors.copy()
            h = block.shape[1]
        else:
            cutoff = math.inf
            h = _rest_dim(ne, lam.size, mu.size)
            block = _ritz_start(ne, h)
        width = h + lam.size + mu.size

        # Known columns, stably sorted, fill q[:, h:]; the rest fills q[:, :h].
        known = np.concatenate([lam, mu])
        order = np.argsort(known, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(h, width)
        q = np.empty((ne, width))
        q[:, slot[: lam.size]] = _unit_columns(c @ w)
        q[:, slot[lam.size :]] = _unit_columns(b.T @ y)
        ritz = np.empty(0)
        if h:
            span = q[:, h:]
            for _ in range(2):
                block -= span @ (span.T @ block)
            ritz, q[:, :h] = _rayleigh_ritz(c, b, block)
        evals = np.concatenate([ritz, known[order]])
        return SelfAdjointOperator.from_spectrum(
            self.edge_space(), evals, q, matrix=self.laplacian1_matrix(), cutoff=cutoff
        )


def _divide_rows(product, star: np.ndarray) -> csr_matrix:
    """The sparse ``product`` as CSR, with row i divided by star[i]."""
    matrix = product.tocsr()
    matrix.data /= np.repeat(star, np.diff(matrix.indptr))
    return matrix


def _nonzero_eigenpairs(op: SelfAdjointOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above the zero threshold, with their eigenvectors in
    conjugated (Euclidean-orthonormal) coordinates."""
    start = int(np.searchsorted(op.eigenvalues, op.zero_threshold(), side="right"))
    sqrt_w = np.sqrt(op.space.weights)[:, None]
    return op.eigenvalues[start:], op.basis[:, start:] * sqrt_w


def _unit_columns(block: np.ndarray) -> np.ndarray:
    """``block`` with each column scaled to unit length, in place."""
    block /= np.linalg.norm(block, axis=0)
    return block


def _rest_dim(ne: int, n0: int, n2: int) -> int:
    """h = E - n0 - n2, the dimension L1's exact and coexact pairs leave."""
    h = ne - n0 - n2
    if h < 0:
        raise ValueError(f"{n0} exact and {n2} coexact eigenpairs exceed {ne} edges")
    return h


def _ritz_start(ne: int, h: int) -> np.ndarray:
    """The fixed random E x h block the Rayleigh-Ritz basis starts from."""
    return np.random.default_rng(0).standard_normal((ne, h))


def _rayleigh_ritz(c, b, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ritz values and vectors of C C^T + B^T B on the span of ``block``."""
    basis = np.linalg.qr(block)[0]
    image = c @ (c.T @ basis) + b.T @ (b @ basis)
    projected = basis.T @ image
    ritz, rotation = np.linalg.eigh(0.5 * (projected + projected.T))
    return ritz, basis @ rotation


def _incidence(columns: np.ndarray, signs: np.ndarray, width: int) -> csr_matrix:
    """CSR matrix whose row i holds signs[i, k] in column columns[i, k]."""
    rows, per_row = columns.shape
    indptr = np.arange(0, rows * per_row + 1, per_row)
    return csr_matrix((signs.ravel(), columns.ravel(), indptr), (rows, width), copy=True)


def build_dec(mesh: TriangleMesh) -> DECOperators:
    """Assemble incidence matrices and barycentric Hodge stars."""
    ne, nv = mesh.edge_count, mesh.vertex_count
    d0 = _incidence(mesh.edges, np.tile([-1, 1], (ne, 1)), nv)
    d1 = _incidence(mesh.face_edges, mesh.face_signs, ne)

    # Barycentric dual edge: centroid to edge midpoint in each adjacent
    # face has length median/3, and the median is metric data,
    # m = sqrt(2a^2 + 2b^2 - c^2)/2 toward the side of length c.
    el = mesh.edge_lengths[mesh.face_edges]
    dual_contrib = np.zeros(ne)
    for k in range(3):
        c = el[:, k]
        a = el[:, (k + 1) % 3]
        b = el[:, (k + 2) % 3]
        median = 0.5 * np.sqrt(np.maximum(2 * a**2 + 2 * b**2 - c**2, 0.0))
        np.add.at(dual_contrib, mesh.face_edges[:, k], median / 3.0)
    star1 = dual_contrib / mesh.edge_lengths

    return DECOperators(
        mesh=mesh,
        d0=d0,
        d1=d1,
        star0=mesh.dual_areas.copy(),
        star1=star1,
        star2=1.0 / mesh.face_areas,
    )


@dataclass(frozen=True)
class CurvatureField:
    """Gaussian curvature per vertex, from angle defects or a closed form."""

    mesh: TriangleMesh
    values: np.ndarray

    def gauss_bonnet_residual(self) -> float:
        total = float(np.sum(self.values * self.mesh.dual_areas))
        return abs(total - 2.0 * np.pi * self.mesh.euler_characteristic)

    def min(self) -> float:
        return float(self.values.min())


def gaussian_curvature(
    mesh: TriangleMesh, source: str = "angle-defect", surface: AnalyticSurface = None
) -> CurvatureField:
    """Angle-defect curvature, or the analytic one sampled at vertices.

    The angle-defect field satisfies discrete Gauss-Bonnet by construction
    up to rounding; the residual is verified here so that downstream
    certificates never run on an inconsistent mesh.
    """
    if source == "angle-defect":
        values = mesh.angle_defects() / mesh.dual_areas
        field = CurvatureField(mesh, values)
        residual = field.gauss_bonnet_residual()
        if residual > GAUSS_BONNET_TOL * max(1.0, abs(mesh.euler_characteristic)):
            raise MeshError(f"Gauss-Bonnet residual {residual:.3e} exceeds tolerance")
        return field
    if source == "analytic":
        if surface is None:
            raise ValueError("analytic curvature needs the generating surface")
        return CurvatureField(mesh, surface.curvature_values(mesh))
    raise ValueError(f"unknown curvature source {source!r}")


def _vertex_components(dec: DECOperators) -> int:
    """Components of the pattern of d0^T d0: vertices joined through shared edges."""
    return connected_components(dec.d0.T @ dec.d0, directed=False)[0]


def check_connected_manifold(dec: DECOperators) -> None:
    """Raise ``MeshError`` unless the mesh is connected with no pinched vertex.

    ``TriangleMesh`` already checks that every edge lies in exactly two
    faces with opposite directions.  A closed connected 2-manifold also
    needs a single vertex component (c_v = 1 in ``betti1_rank_count``) and
    a link at each vertex that is one cycle.  The link test counts the
    components of the corner graph, whose nodes are the 3F (face, corner)
    pairs; each edge joins the corners of its two faces at each of its
    endpoints.  The corners at a vertex form one component per cycle of
    its link, so a closed manifold has exactly V components.
    """
    mesh = dec.mesh
    c_v = _vertex_components(dec)
    if c_v != 1:
        raise MeshError(f"surface not connected: {c_v} vertex components")
    # Side 3f + k runs from corner 3f + k to corner 3f + (k+1) % 3; the two
    # sides of an edge run in opposite directions, so the tail corner of
    # one meets the head corner of the other.
    sides = np.argsort(mesh.face_edges.ravel(), kind="stable").reshape(-1, 2)
    heads = sides - sides % 3 + (sides % 3 + 1) % 3
    n_corners = 3 * mesh.face_count
    joins = csr_matrix(
        (np.ones(2 * len(sides)),
         (np.concatenate([sides[:, 0], heads[:, 0]]),
          np.concatenate([heads[:, 1], sides[:, 1]]))),
        (n_corners, n_corners),
    )
    n_fans, fan = connected_components(joins, directed=False)
    if n_fans != mesh.vertex_count:
        vertex_fans = np.unique(np.stack([mesh.faces.ravel(), fan], axis=1), axis=0)
        cycles = np.bincount(vertex_fans[:, 0], minlength=mesh.vertex_count)
        v = int(np.argmax(cycles != 1))
        raise MeshError(
            f"surface not a manifold: the link of vertex {v} has {cycles[v]} "
            "cycles, not one"
        )


def betti1_rank_count(dec: DECOperators) -> int:
    """b1 = E - rank(d0) - rank(d1) over the simplicial chain complex, exactly.

    rank(d0) = V - c_v, with c_v the components of the pattern of d0^T d0
    (vertices joined through shared edges).  rank(d1) = F - c_f, with c_f
    the components of the pattern of d1 d1^T (faces joined through shared
    edges): each edge of a ``TriangleMesh`` lies in exactly two faces with
    opposite signs, so a 2-cycle is constant on each such component.
    """
    (ne, nv), nf = dec.d0.shape, dec.d1.shape[0]
    c_v = _vertex_components(dec)
    c_f = connected_components(dec.d1 @ dec.d1.T, directed=False)[0]
    return int(ne - (nv - c_v) - (nf - c_f))


# Shift of the inertia count, relative to the spectral radius bound: a
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
        theta, x = np.linalg.eigh(s.toarray())
        return theta[:j], x[:, :j]

    def solve(b):
        x = np.empty(b.shape)
        x[order] = lu.solve(b[order])
        return x

    inverse = LinearOperator(s.shape, matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    return eigsh(s, k=j, sigma=sigma, which="SA", OPinv=inverse, v0=v0)


def _certified_kernel_dim(s: csr_matrix) -> tuple[int, float, float]:
    """(dim ker S, the residual bound, sigma) of ``_certified_kernel``."""
    kernel, bound, sigma = _certified_kernel(s)
    return kernel.shape[1], bound, sigma


def _certified_kernel(s: csr_matrix) -> tuple[np.ndarray, float, float]:
    """A basis of ker S for a symmetric CSR matrix S, counted sparsely and certified.

    An eigenvalue counts as zero iff |lam| <= tau = ZERO_TOL (1 + r), where
    r, the largest absolute row sum of S, is an O(nnz) upper bound on the
    spectral radius (so tau is never below the threshold of
    ``SelfAdjointOperator.kernel_dim``).  The count starts from inertia:
    S is put once in reverse Cuthill-McKee order P, and P (S - sigma I)
    P^T, with sigma = 1e-6 (1 + r) above tau, is factored once
    (``measure._inertia``, shared with the cut-off of a partial
    ``SelfAdjointOperator``); its j negative pivots are the eigenvalues below
    sigma.  If j = 0 the count is 0 and no Lanczos run is needed.
    Otherwise the j Ritz pairs below sigma come from one Lanczos run on
    that same factor (``_ritz_pairs_below``).  The count k is the number
    of Ritz values theta with |theta| <= tau, and it stands when

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
    radius = float(abs(s).sum(axis=1).max())
    tau = ZERO_TOL * (1.0 + radius)
    sigma = _LANCZOS_SHIFT * (1.0 + radius)
    order, permuted = _rcm_ordered(s)
    lu, below = _inertia(permuted, sigma)
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


def kernel_dim_0forms(dec: DECOperators) -> int:
    """dim ker L0 (one per connected component), counted by
    ``_certified_kernel_dim`` on L0's conjugated CSR matrix: one
    factorization and a Lanczos run for the one pair below its shift."""
    s0 = WeightedOperator(dec.laplacian0_matrix(), dec.vertex_space()).conjugated()
    return _certified_kernel_dim(s0)[0]


def betti1_oracle(mesh: TriangleMesh, dec: DECOperators = None) -> int:
    """First Betti number by two independent routes, which must agree.

    Route (a): dimension of the kernel of the edge Laplacian L1, counted
    on L1's conjugated CSR matrix by an inertia count and, for a nonempty
    kernel, certified Ritz pairs (``_certified_kernel``, whose vectors the
    DEC keeps as ``harmonic_ritz_vectors``), under the scale-invariant
    zero tolerance; no dense eigensolve runs and no E x E array is built.
    Route (b): rank-nullity over the chain complex.  Neither route reads
    the other's count.
    Disagreement raises, since it signals a meshing or tolerance bug
    rather than a soft numerical issue.  ``dec`` is built from the mesh
    unless the caller has it.
    """
    if dec is None:
        dec = build_dec(mesh)
    combinatorial = betti1_rank_count(dec)
    harmonic = dec.harmonic_ritz_vectors.shape[1]
    if harmonic != combinatorial:
        raise MeshError(
            f"Betti oracles disagree: harmonic kernel {harmonic} vs "
            f"combinatorial count {combinatorial}"
        )
    return harmonic


def ricci_potential(curvature: CurvatureField, rho0: float) -> float:
    """||(Ric - rho0)_-||_{2,HS}, the (2,HS) norm of the curvature shortfall.

    On a surface Ric = K * identity on the 2-dimensional cotangent fiber,
    so the negative part of Ric - rho0 is (rho0 - K)_+ times the identity
    and its squared pointwise HS norm is 2 (rho0 - K)_+^2.
    """
    if rho0 <= 0.0:
        raise ValueError("rho0 must be strictly positive")
    shortfall = np.clip(rho0 - curvature.values, 0.0, None)
    density = 2.0 * shortfall**2
    return float(np.sqrt(np.sum(curvature.mesh.dual_areas * density)))


def schrodinger_comparison(
    dec: DECOperators, rho: np.ndarray, cutoff: float = math.inf
) -> SelfAdjointOperator:
    """The comparison operator L0 + rho on star0-weighted vertex functions.

    A finite ``cutoff`` keeps only its eigenpairs below it
    (``SelfAdjointOperator(..., cutoff=sigma)``, a V x K array).
    """
    rho = np.asarray(rho, dtype=float).reshape(-1)
    if rho.size != dec.mesh.vertex_count:
        raise ValueError("rho must be a vertex function")
    matrix = dec.laplacian0_matrix() + diags(rho)
    return SelfAdjointOperator(matrix, dec.vertex_space(), cutoff=cutoff)
