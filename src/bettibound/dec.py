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
two terms annihilate each other (the Hodge decomposition), so its
eigenpairs are L0's nonzero ones mapped through d0, L2's nonzero ones
mapped through the codifferential, and a Rayleigh-Ritz basis of the
small rest, all checked against L1's assembled CSR matrix by their
residual and orthogonality loss (``measure``).  All three Laplacians are
CSR matrices; only the inputs of the L0 and L2 eigensolves are dense.
The kernel of L1 consists of the harmonic edge functions, whose
dimension equals the first Betti number.  Route (a) of the Betti oracle
is the spectral kernel count of this Hodge-assembled L1; route (b), an
independent combinatorial count b1 = E - rank(d0) - rank(d1),
cross-checks it.  Both ranks are exact: component counts of the patterns
of d0^T d0 and d1 d1^T, not float ranks.

Curvature enters through vertex angle defects: K(v) multiplied by the
dual area is 2*pi minus the incident angle sum, and the defects sum to
2*pi times the Euler characteristic (discrete Gauss-Bonnet).  On a
surface the Ricci endomorphism is K times the identity on the two
dimensional cotangent fiber, which is what the bound pipeline feeds into
the matrix potential machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components

from .measure import SelfAdjointOperator, WeightedFiniteSpace
from .mesh import AnalyticSurface, MeshError, TriangleMesh

__all__ = [
    "DECOperators",
    "CurvatureField",
    "build_dec",
    "gaussian_curvature",
    "betti1_oracle",
    "betti1_rank_count",
    "ricci_potential",
    "RicciPotentialData",
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

    # The Laplacians are CSR.  Each stored entry is computed exactly as
    # the dense formula computes it (a row divided by its star, not
    # multiplied by the reciprocal), so ``toarray()`` gives the dense
    # matrix bit for bit.

    def laplacian0_matrix(self) -> csr_matrix:
        return _divide_rows(self.d0.T @ diags(self.star1) @ self.d0, self.star0)

    def laplacian1_matrix(self) -> csr_matrix:
        # Each entry of either product sums at most two exact terms (+-1
        # times a star), so the summation order cannot change a bit.
        factor = _divide_rows(self.d0.T @ diags(self.star1), self.star0)
        upper = _divide_rows(self.d1.T @ diags(self.star2) @ self.d1, self.star1)
        return (self.d0 @ factor + upper).tocsr()

    def laplacian2_matrix(self) -> csr_matrix:
        lap = (self.d1 @ diags(1.0 / self.star1) @ self.d1.T).tocsr()
        lap.data *= self.star2[lap.indices]
        return lap

    def laplacian0(self) -> SelfAdjointOperator:
        return SelfAdjointOperator(self.laplacian0_matrix(), self.vertex_space())

    def laplacian2(self) -> SelfAdjointOperator:
        return SelfAdjointOperator(self.laplacian2_matrix(), self.face_space())

    def laplacian1(self, laplacian0: SelfAdjointOperator | None = None) -> SelfAdjointOperator:
        """L1 assembled from its Hodge pieces, with no eigensolve of an E x E matrix.

        With C = star1^(1/2) d0 star0^(-1/2) and B = star2^(1/2) d1 star1^(-1/2),
        the conjugated L1 is C C^T + B^T B, and the two terms annihilate each
        other because d1 d0 = 0.  So its orthonormal eigenvectors are

        * C w / |C w|, eigenvalue lam, for each eigenpair (lam, w) of the
          conjugated L0 above L0's zero threshold;
        * B^T y / |B^T y|, eigenvalue mu, for each eigenpair (mu, y) of the
          conjugated L2 above L2's zero threshold;
        * a Rayleigh-Ritz basis of the h = E - n0 - n2 dimensional rest: the
          harmonic 1-forms, plus any pair a threshold misjudged, with its
          true eigenvalue.

        |C w| is sqrt(lam) in exact arithmetic; the computed norm keeps the
        columns orthonormal to rounding, where sqrt(lam) would leave a
        defect of order eps * (spectral radius / lam).  ``from_spectrum``
        checks the result against L1's assembled CSR matrix, which the
        operator keeps, through the residual S1 Q - Q diag(evals) in
        O(nnz E) and the orthogonality loss Q^T Q - I; no E x E matrix is
        densified.  ``laplacian0`` is ``self.laplacian0()`` unless the
        caller has it already.
        """
        if laplacian0 is None:
            laplacian0 = self.laplacian0()
        s0, s1, s2 = np.sqrt(self.star0), np.sqrt(self.star1), np.sqrt(self.star2)
        c = diags(s1) @ self.d0 @ diags(1.0 / s0)
        b = diags(s2) @ self.d1 @ diags(1.0 / s1)
        lam, w = _nonzero_eigenpairs(laplacian0)
        mu, y = _nonzero_eigenpairs(self.laplacian2())
        ne = self.mesh.edge_count
        h = ne - lam.size - mu.size
        if h < 0:
            raise ValueError(
                f"{lam.size} exact and {mu.size} coexact eigenpairs exceed {ne} edges"
            )

        # Known columns, stably sorted, fill q[:, h:]; the rest fills q[:, :h].
        known = np.concatenate([lam, mu])
        order = np.argsort(known, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(h, ne)
        q = np.empty((ne, ne))
        q[:, slot[: lam.size]] = _unit_columns(c @ w)
        q[:, slot[lam.size :]] = _unit_columns(b.T @ y)
        ritz = np.empty(0)
        if h:
            span = q[:, h:]
            block = np.random.default_rng(0).standard_normal((ne, h))
            for _ in range(2):
                block -= span @ (span.T @ block)
            basis = np.linalg.qr(block)[0]
            image = c @ (c.T @ basis) + b.T @ (b @ basis)
            projected = basis.T @ image
            ritz, rotation = np.linalg.eigh(0.5 * (projected + projected.T))
            q[:, :h] = basis @ rotation
        evals = np.concatenate([ritz, known[order]])
        return SelfAdjointOperator.from_spectrum(
            self.edge_space(), evals, q, matrix=self.laplacian1_matrix()
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
    source: str  # "angle-defect" or "analytic"

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
        field = CurvatureField(mesh, values, source)
        residual = field.gauss_bonnet_residual()
        if residual > GAUSS_BONNET_TOL * max(1.0, abs(mesh.euler_characteristic)):
            raise MeshError(f"Gauss-Bonnet residual {residual:.3e} exceeds tolerance")
        return field
    if source == "analytic":
        if surface is None:
            raise ValueError("analytic curvature needs the generating surface")
        return CurvatureField(mesh, surface.curvature_values(mesh), source)
    raise ValueError(f"unknown curvature source {source!r}")


def betti1_rank_count(dec: DECOperators) -> int:
    """b1 = E - rank(d0) - rank(d1) over the simplicial chain complex, exactly.

    rank(d0) = V - c_v, with c_v the components of the pattern of d0^T d0
    (vertices joined through shared edges).  rank(d1) = F - c_f, with c_f
    the components of the pattern of d1 d1^T (faces joined through shared
    edges): each edge of a ``TriangleMesh`` lies in exactly two faces with
    opposite signs, so a 2-cycle is constant on each such component.
    """
    (ne, nv), nf = dec.d0.shape, dec.d1.shape[0]
    c_v = connected_components(dec.d0.T @ dec.d0, directed=False)[0]
    c_f = connected_components(dec.d1 @ dec.d1.T, directed=False)[0]
    return int(ne - (nv - c_v) - (nf - c_f))


def betti1_oracle(mesh: TriangleMesh, dec: DECOperators = None, laplacian1=None) -> int:
    """First Betti number by two independent routes, which must agree.

    Route (a): dimension of the kernel of the edge Laplacian L1, assembled
    from its Hodge pieces (``DECOperators.laplacian1``) and checked against
    its sparse matrix by residual, under the scale-invariant zero
    tolerance.  Route (b): rank-nullity over the
    chain complex.  Disagreement raises, since it signals a meshing or
    tolerance bug rather than a soft numerical issue.  ``dec`` and
    ``laplacian1`` are built from the mesh unless the caller has them.
    """
    if dec is None:
        dec = build_dec(mesh)
    if laplacian1 is None:
        laplacian1 = dec.laplacian1()
    harmonic = laplacian1.kernel_dim()
    combinatorial = betti1_rank_count(dec)
    if harmonic != combinatorial:
        raise MeshError(
            f"Betti oracles disagree: harmonic kernel {harmonic} vs "
            f"combinatorial count {combinatorial}"
        )
    return harmonic


@dataclass(frozen=True)
class RicciPotentialData:
    """Pointwise data of the curvature shortfall potential (Ric - rho0)_-.

    On a surface Ric = K * identity on the 2-dimensional cotangent fiber,
    so the negative part of Ric - rho0 is (rho0 - K)_+ times the identity
    and its squared pointwise HS norm is 2 (rho0 - K)_+^2.
    """

    rho: np.ndarray
    hs_density_sq: np.ndarray
    norm_2hs: float
    shortfall: np.ndarray


def ricci_potential(curvature: CurvatureField, rho0: float) -> RicciPotentialData:
    """rho = K and the (2,HS) norm of the curvature shortfall below rho0."""
    if rho0 <= 0.0:
        raise ValueError("rho0 must be strictly positive")
    k = curvature.values
    shortfall = np.clip(rho0 - k, 0.0, None)
    density = 2.0 * shortfall**2
    norm_sq = float(np.sum(curvature.mesh.dual_areas * density))
    return RicciPotentialData(
        rho=k.copy(),
        hs_density_sq=density,
        norm_2hs=float(np.sqrt(norm_sq)),
        shortfall=shortfall,
    )


def schrodinger_comparison(dec: DECOperators, rho: np.ndarray) -> SelfAdjointOperator:
    """The comparison operator L0 + rho on star0-weighted vertex functions."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    if rho.size != dec.mesh.vertex_count:
        raise ValueError("rho must be a vertex function")
    matrix = dec.laplacian0_matrix() + diags(rho)
    return SelfAdjointOperator(matrix, dec.vertex_space())
