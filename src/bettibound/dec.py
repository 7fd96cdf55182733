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
small rest.  All three Laplacians are CSR matrices; only the inputs of
the L0 and L2 eigensolves are dense.

The kernel of L1 consists of the harmonic edge functions, whose
dimension equals the first Betti number.  Route (a) of the Betti oracle
counts it from L0's and L2's eigendata and the Rayleigh-Ritz block
alone, and certifies the count against L1's CSR matrix with bounds
built from the checks those eigensolves already ran, so no E x E array
is built (``_harmonic_kernel``).  All E eigenpairs, an E x E array
checked against the same matrix by residual and orthogonality loss
(``measure``), are assembled only for the Schatten certificate
(``DECOperators.laplacian1``).  Route (b), an independent combinatorial
count b1 = E - rank(d0) - rank(d1), cross-checks route (a).  Both ranks
are exact: component counts of the patterns of d0^T d0 and d1 d1^T,
not float ranks.

Curvature enters through vertex angle defects: K(v) multiplied by the
dual area is 2*pi minus the incident angle sum, and the defects sum to
2*pi times the Euler characteristic (discrete Gauss-Bonnet).  On a
surface the Ricci endomorphism is K times the identity on the two
dimensional cotangent fiber, which is what the bound pipeline feeds into
the matrix potential machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import connected_components

from .measure import (
    RECONSTRUCTION_TOL,
    ZERO_TOL,
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    _frobenius,
    _orthogonality_loss,
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

    def laplacian1(
        self,
        laplacian0: SelfAdjointOperator | None = None,
        laplacian2: SelfAdjointOperator | None = None,
    ) -> SelfAdjointOperator:
        """L1 with all E eigenpairs, assembled from its Hodge pieces.

        With C and B from ``hodge_factors``, the conjugated L1 is
        C C^T + B^T B, and the two terms annihilate each other because
        d1 d0 = 0.  So its orthonormal eigenvectors are

        * C w / |C w|, eigenvalue lam, for each eigenpair (lam, w) of the
          conjugated L0 above L0's zero threshold;
        * B^T y / |B^T y|, eigenvalue mu, for each eigenpair (mu, y) of the
          conjugated L2 above L2's zero threshold;
        * a Rayleigh-Ritz basis of the h = E - n0 - n2 dimensional rest: the
          harmonic 1-forms, plus any pair a threshold misjudged, with its
          true eigenvalue.

        |C w| is sqrt(lam) in exact arithmetic; the computed norm keeps the
        columns orthonormal to rounding, where sqrt(lam) would leave a
        defect of order eps * (spectral radius / lam).  The eigenvectors
        fill an E x E array, which ``from_spectrum`` checks against L1's
        assembled CSR matrix, which the operator keeps, through the
        residual S1 Q - Q diag(evals) in O(nnz E) and the orthogonality
        loss Q^T Q - I; no E x E matrix is densified.  Only the Schatten
        certificate needs all of L1's eigenpairs: its kernel dimension
        alone comes from ``betti1_oracle`` with no E x E array.
        ``laplacian0`` and ``laplacian2`` are ``self.laplacian0()`` and
        ``self.laplacian2()`` unless the caller has them.
        """
        if laplacian0 is None:
            laplacian0 = self.laplacian0()
        if laplacian2 is None:
            laplacian2 = self.laplacian2()
        c, b = self.hodge_factors()
        lam, w = _nonzero_eigenpairs(laplacian0)
        mu, y = _nonzero_eigenpairs(laplacian2)
        ne = self.mesh.edge_count
        h = _rest_dim(ne, lam.size, mu.size)

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
            block = _ritz_start(ne, h)
            for _ in range(2):
                block -= span @ (span.T @ block)
            ritz, q[:, :h] = _rayleigh_ritz(c, b, block)
        evals = np.concatenate([ritz, known[order]])
        return SelfAdjointOperator.from_spectrum(
            self.edge_space(), evals, q, matrix=self.laplacian1_matrix()
        )


def _divide_rows(product, star: np.ndarray) -> csr_matrix:
    """The sparse ``product`` as CSR, with row i divided by star[i]."""
    matrix = product.tocsr()
    matrix.data /= np.repeat(star, np.diff(matrix.indptr))
    return matrix


def _nonzero_start(op: SelfAdjointOperator) -> int:
    """Index of the first eigenvalue above the zero threshold."""
    return int(np.searchsorted(op.eigenvalues, op.zero_threshold(), side="right"))


def _nonzero_eigenpairs(op: SelfAdjointOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues above the zero threshold, with their eigenvectors in
    conjugated (Euclidean-orthonormal) coordinates."""
    start = _nonzero_start(op)
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


def _norm2_bound(matrix) -> float:
    """sqrt(||A||_1 ||A||_inf), an upper bound on the spectral norm of a sparse A."""
    entries = abs(matrix)
    return math.sqrt(float(entries.sum(axis=0).max()) * float(entries.sum(axis=1).max()))


def _hodge_block_bounds(op: SelfAdjointOperator, start: int, delta: float):
    """Bounds for the columns X v_j / |X v_j| that one Laplacian S ~ X^T X lends L1.

    (lam_j, v_j) are op's eigenpairs from ``start`` on, in Euclidean
    coordinates (V their columns), S is op's conjugated matrix and
    ``delta`` >= ||X^T X - S||_2.  With g and r_j op's stored
    orthogonality loss and residual column norms and s = sqrt(1 + g),
    a_j = r_j + delta s bounds |p_j|, p_j = X^T X v_j - lam_j v_j.  So
    |X v_j|^2 = lam_j |v_j|^2 + v_j^T p_j >= kappa lam_j with
    kappa = 1 - g - s max_j a_j / lam_j.  For the normalized block
    U = X V D^-1 (D the exact column norms) the Gram entry (i, j), i != j,
    equals (G_ij lam_j + v_i^T p_j) / (d_i d_j) with G = V^T V - I, and
    also (G_ij lam_i + v_j^T p_i) / (d_i d_j); taking the form whose
    residual belongs to the smaller eigenvalue gives

        ||U^T U - I||_F <= (g + sqrt(2) s ||a / lam||) / kappa   (gram).

    Also ||P D^-1||_F <= ||a / sqrt(lam)|| / sqrt(kappa) (res),
    ||V D^-1||_F <= s ||1 / sqrt(lam)|| / sqrt(kappa) (fro) and
    ||V D^-1||_2 <= s / sqrt(kappa min lam) (spec), P the columns p_j.
    Returns (gram, res, fro, spec, 1 / sqrt(kappa)), all infinite unless
    kappa > 0.
    """
    if op.residual_norms is None:
        raise ValueError("the Hodge pieces of L1 need eigendata checked against their matrix")
    lam = op.eigenvalues[start:]
    g = op.orthogonality_loss
    s = math.sqrt(1.0 + g)
    a = op.residual_norms[start:] + delta * s
    kappa = 1.0 - g - s * float(np.max(a / lam, initial=0.0))
    if not kappa > 0.0:
        return (math.inf,) * 5
    root = 1.0 / math.sqrt(kappa)
    gram = (g + math.sqrt(2.0) * s * float(np.linalg.norm(a / lam))) / kappa
    residual = root * float(np.linalg.norm(a / np.sqrt(lam)))
    frobenius = root * s * float(np.linalg.norm(1.0 / np.sqrt(lam)))
    spectral = root * s / math.sqrt(float(np.min(lam, initial=math.inf)))
    return gram, residual, frobenius, spectral, root


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


def _harmonic_kernel(
    dec: DECOperators, laplacian0: SelfAdjointOperator, laplacian2: SelfAdjointOperator
) -> tuple[int, float, float]:
    """dim ker L1 from L0's and L2's eigendata, with no E x E or E x (E - h) array.

    Returns (dimension, loss bound, residual bound).  L1's eigenvalues are
    those of ``DECOperators.laplacian1``: L0's nonzero ones lam (Euclidean
    eigenvectors W), L2's nonzero ones mu (eigenvectors Y) and the Ritz
    values theta of an h = E - n0 - n2 dimensional block Z.  Z starts from
    the same random block as there, freed of the exact span C W and the
    coexact span B^T Y (C, B from ``hodge_factors``) by the projectors
    C W diag(1/lam) W^T C^T and B^T Y diag(1/mu) Y^T B, applied twice in
    factored form: O(nnz h + V n0 h + F n2 h).  The dimension counts the
    |e| <= 1e-9 (1 + max |e|) among theta, lam and mu, the zero threshold
    of ``SelfAdjointOperator.kernel_dim`` on the same list.

    The count stands as a spectral count of L1's matrix because the
    basis Q = [Z, C W D^-1, B^T Y E^-1] (D, E the exact column norms)
    passes the checks ``from_spectrum`` runs on the full assembly:
    ||Q^T Q - I||_F <= 1e-10 and
    ||R||_F sqrt(1 + ||Q^T Q - I||_F) + ||S1||_F ||Q^T Q - I||_F
    <= 1e-10 max(||S1||_F, 1), with R = S1 Q - Q diag(theta, lam, mu) and
    S1 the conjugated CSR matrix of L1.  Neither Q^T Q nor R is formed;
    each is bounded, and the bounds must pass instead (else ValueError).
    The inputs are L0's and L2's stored check numbers, through
    ``_hodge_block_bounds``; d0 >= ||C^T C - S0||_2, d2 >= ||B B^T - S2||_2,
    k >= ||B C||_2 (B C vanishes up to the rounding of the star
    scalings), ||C||_2 and ||B||_2, each sqrt(||.||_1 ||.||_inf) in O(nnz);
    d1 = ||S1 - (C C^T + B^T B)||_F in O(nnz); and, of Z itself,
    ||Z^T Z - I||_F, ||S1 Z - Z diag(theta)||_F, C^T Z and B Z.

    With p = C^T C w - lam w, an exact column's residual is
    (C p + B^T (B C) w) / |C w| - (C C^T + B^T B - S1) C w / |C w|, and
    with p' = B B^T y - mu y a coexact column's is
    (B^T p' + C (B C)^T y) / |B^T y| - (C C^T + B^T B - S1) B^T y / |B^T y|;
    the cross Gram entries are w^T (B C)^T y / (|C w| |B^T y|), and Z
    meets the two blocks in (C^T Z)^T W D^-1 and (B Z)^T Y E^-1.  With
    (gram, res, fro, spec, root) of ``_hodge_block_bounds`` for L0
    (suffix 0) and L2 (suffix 2), zu = root0 ||(C^T Z)^T W diag(lam)^(-1/2)||_F,
    zy = root2 ||(B Z)^T Y diag(mu)^(-1/2)||_F and
    uy = k min(fro0 spec2, spec0 fro2), so

        ||Q^T Q - I||_F^2 <= ||Z^T Z - I||_F^2 + gram0^2 + gram2^2
                             + 2 (zu^2 + zy^2 + uy^2),
        ||R||_F^2 <= ||S1 Z - Z diag(theta)||_F^2
                     + (||C||_2 res0 + ||B||_2 k fro0 + d1 sqrt(1 + gram0))^2
                     + (||B||_2 res2 + ||C||_2 k fro2 + d1 sqrt(1 + gram2))^2.

    Like the checks of ``measure`` they replace, the bounds are evaluated
    in floating point.  On the builtins they exceed the quantities they
    bound by factors of about 3 to 60.
    """
    c, b = dec.hodge_factors()
    start0, start2 = _nonzero_start(laplacian0), _nonzero_start(laplacian2)
    lam, w = laplacian0.eigenvalues[start0:], laplacian0._euclidean_vectors[:, start0:]
    mu, y = laplacian2.eigenvalues[start2:], laplacian2._euclidean_vectors[:, start2:]
    ne = dec.mesh.edge_count
    h = _rest_dim(ne, lam.size, mu.size)

    ritz, z = np.empty(0), np.empty((ne, 0))
    if h:
        block = _ritz_start(ne, h)
        for _ in range(2):
            block -= c @ (w @ ((w.T @ (c.T @ block)) / lam[:, None]))
            block -= b.T @ (y @ ((y.T @ (b @ block)) / mu[:, None]))
        ritz, z = _rayleigh_ritz(c, b, block)
    evals = np.concatenate([ritz, lam, mu])
    radius = float(np.max(np.abs(evals), initial=0.0))
    dim = int(np.count_nonzero(np.abs(evals) <= ZERO_TOL * (1.0 + radius)))

    s1 = WeightedOperator(dec.laplacian1_matrix(), dec.edge_space()).conjugated()
    scale = _frobenius(s1)
    norm_c, norm_b, k = _norm2_bound(c), _norm2_bound(b), _norm2_bound(b @ c)
    delta1 = _frobenius(c @ c.T + b.T @ b - s1)
    gram0, res0, fro0, spec0, root0 = _hodge_block_bounds(
        laplacian0, start0, _norm2_bound(c.T @ c - laplacian0.conjugated())
    )
    gram2, res2, fro2, spec2, root2 = _hodge_block_bounds(
        laplacian2, start2, _norm2_bound(b @ b.T - laplacian2.conjugated())
    )
    zz = zu = zy = rz = 0.0
    if h:
        zz = _orthogonality_loss(z)
        zu = root0 * _frobenius((c.T @ z).T @ w / np.sqrt(lam))
        zy = root2 * _frobenius((b @ z).T @ y / np.sqrt(mu))
        rz = _frobenius(s1 @ z - z * ritz)
    uy = k * min(fro0 * spec2, spec0 * fro2)
    loss = math.sqrt(zz**2 + gram0**2 + gram2**2 + 2.0 * (zu**2 + zy**2 + uy**2))
    ru = norm_c * res0 + norm_b * k * fro0 + delta1 * math.sqrt(1.0 + gram0)
    ry = norm_b * res2 + norm_c * k * fro2 + delta1 * math.sqrt(1.0 + gram2)
    residual = math.sqrt(rz**2 + ru**2 + ry**2) * math.sqrt(1.0 + loss) + scale * loss
    if not (np.all(np.isfinite(evals)) and loss <= RECONSTRUCTION_TOL):
        raise ValueError(
            f"Hodge eigendata of L1 not finite and orthonormal (loss bound {loss:.3e})"
        )
    if not residual <= RECONSTRUCTION_TOL * max(scale, 1.0):
        raise ValueError(
            f"Hodge eigendata of L1 does not reconstruct the operator "
            f"(residual bound {residual:.3e} vs scale {scale:.3e})"
        )
    return dim, loss, residual


def betti1_oracle(
    mesh: TriangleMesh,
    dec: DECOperators = None,
    laplacian0: SelfAdjointOperator = None,
    laplacian2: SelfAdjointOperator = None,
) -> int:
    """First Betti number by two independent routes, which must agree.

    Route (a): dimension of the kernel of the edge Laplacian L1, counted
    from L0's and L2's eigendata and certified against L1's sparse matrix
    (``_harmonic_kernel``), under the scale-invariant zero tolerance; no
    E x E array is built.  Route (b): rank-nullity over the chain
    complex.  Disagreement raises, since it signals a meshing or
    tolerance bug rather than a soft numerical issue.  ``dec``,
    ``laplacian0`` and ``laplacian2`` are built from the mesh unless the
    caller has them.
    """
    if dec is None:
        dec = build_dec(mesh)
    if laplacian0 is None:
        laplacian0 = dec.laplacian0()
    if laplacian2 is None:
        laplacian2 = dec.laplacian2()
    harmonic = _harmonic_kernel(dec, laplacian0, laplacian2)[0]
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
