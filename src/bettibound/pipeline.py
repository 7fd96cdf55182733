"""End-to-end certified upper bounds on the first Betti number of a surface.

The main bound combines three certified ingredients on a closed surface
of fiber dimension n = 2:

    b1  <=  4 n / (rho0 (1 + e^(-t0 rho0)))^2
            * || (Ric - rho0)_- ||_{2,HS}^2
            * || exp(-t0 (L0 + rho)) ||_{2,inf}^2

for any rho0 > 0 and t0 > 0, where rho is the pointwise smallest Ricci
eigenvalue (the Gauss curvature on surfaces) and L0 + rho is the scalar
comparison Schroedinger operator.  Its looser form with the prefactor
4 n rho0^(-2) is a corollary (``prefactors``), not a second certificate,
so a report gives the sharp bound only.

A second, operator-level certificate applies the Schatten kernel bound
directly to the edge Laplacian L1 with a synthetic nonnegative edge
potential W chosen so that L1 + W >= rho0 (checked spectrally, never
assumed):

    b1  <=  (1 - e^(-2 rho0 t0))^(-p) || e^(-2 t0 L1) - e^(-2 t0 (L1+W)) ||_Sp^p.

One grid loop (``parameter_sweep``) evaluates a sweep on a prepared
surface and computes each factor once at the level it depends on.  A
report states each number once as well: the surface's own numbers once
(``SurfaceData.describe``), and per point only what varies per point
and the checks that can fail.  Preparing a surface eigensolves nothing:
the Betti oracle counts dim ker L1 on L1's sparse matrix, certified by
an inertia count and, when the kernel is not empty, by Ritz residuals.  An
eigenpair lam of the comparison operator L0 + K enters the main bound
only through its heat weight e^(-2 t0 lam), so, with eta = 1e-12, the
sweep holds L0 + K only below

    sigma_C = rho_bar + [ln(1/eta) + ln(vol max_x 1/m_x)] / (2 min t0),

rho_bar its mean curvature (the Rayleigh quotient of the constants):
the inertia of L0 + K - sigma_C counts the K pairs below it, xSYEVR
computes only those, and no V x V eigenvector array is built.  The
pairs it drops add at most eta of ||e^(-t0 (L0+K))||^2_{2->inf} at
every t0 of the sweep, and the norm is the upper bound from the kept
pairs and that tail, one gemv per distinct t0 against the squared
V x K basis (``measure.heat_two_inf_norm``).  A refused cut-off is
built once more at sigma = inf, where the operator holds every pair
(``_below``).

The Schatten certificate is one row computation per rho0 (W depends on
rho0 only, and so does the (2,HS) norm of the potential).  The row
reads L1 below a cut-off sigma_A, assembled from the eigenpairs of its
Hodge pieces L0 and the face Laplacian L2 below sigma_A and from the
Betti oracle's Ritz vectors, and certified by the Hodge count: the
inertia of L1 - sigma_A must count exactly those pairs.  It eigensolves
L1 + W below sigma = max(sigma_A, 2 rho0): the inertia of
L1 + W - sigma counts the K pairs below it, and xSYEVR computes only
those.  At p = 2 the Hilbert-Schmidt norm of the semigroup difference
comes from the two spectra in O(N^2) per point, with no dense heat
matrix, and an eigenpair of either operator enters it only through its
heat weight e^(-2 t0 mu).  So the row runs once, at
sigma_A = ln(1/eta) / (2 min t0): every dropped pair weighs at most
eta, no E x E eigenvector array is built, and each bound is the upper
end of an enclosure over the dropped pairs
(``measure.heat_difference_hs_bounds``), which bounds the certificate
from above however wide the enclosure is.  Every other p runs the row at
sigma_A = inf and takes the singular values of the dense difference.
A refused count of L1 or of L1 + W rebuilds that operator alone at
sigma = inf, and a partial L1 against a full L1 + W is enclosed the
same way.  W >= 0 holds by
construction (clipped, and checked by ``MatrixPotential``).  That
L1 + W clears rho0 is checked where every pair is checked, in the
``birman.OperatorPair`` each point of the row builds, on the lowest pair
of L1 + W (or its cut-off, when none lies below it); a failed check is
the row's note.

The sweep owns every operator it builds: it drops the comparison
operator once the 2->inf norms are taken, the first row that needs L1
builds it for every later row, and each L1 + W lives inside its own
row, so a sweep holds one L1 and one L1 + W at a time.  The prepared
surface (``SurfaceData``) holds no operator, so ``betti_bound``, the
same loop on a 1 x 1 grid, builds its own at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .birman import OperatorPair, crude_bounds
from .dec import (
    CurvatureField,
    DECOperators,
    build_dec,
    betti1_oracle,
    check_connected_manifold,
    gaussian_curvature,
    kernel_dim_0forms,
    ricci_potential,
    schrodinger_comparison,
)
from .measure import CutOffRefused, SelfAdjointOperator, heat_two_inf_norm
from .mesh import AnalyticSurface, MeshError, TriangleMesh
from .perturbation import MatrixPotential
from .report import CheckRecord, equality_record, inequality_record

__all__ = [
    "SURFACE_FIBER_DIM",
    "SOUNDNESS_SLACK",
    "BettiBoundInputs",
    "BettiBoundReport",
    "SurfaceData",
    "prepare_surface",
    "prefactors",
    "betti_bound",
    "synthetic_edge_potential",
    "parameter_sweep",
]

# 1-forms on a surface have two-dimensional fibers.
SURFACE_FIBER_DIM = 2
# Default relative slack of a soundness record (``betti_bound``).
SOUNDNESS_SLACK = 1e-9
# The Schatten p = 2 row drops only eigenpairs of L1 and L1 + W with heat
# weight at most eta (``_heat_cutoff``), and the main bound only pairs of
# L0 + K that add at most eta of its squared norm (``_comparison_cutoff``).
_ETA = 1e-12


def _check_grid(rho0_values: list[float], t0_values: list[float], p: float) -> None:
    """Every parameter finite and strictly positive, and every sharp prefactor finite.

    The prefactor denominator (rho0 (1 + e^(-t0 rho0)))^2 only grows as
    t0 falls, so the smallest t0 decides whether it overflows (rho0 too
    large) and the largest whether it underflows or the prefactor
    overflows (rho0 too small), for every t0 of the grid.
    """
    for name, values in (("rho0", rho0_values), ("t0", t0_values), ("p", [p])):
        for value in values:
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
    for rho0 in rho0_values:
        for t0 in (min(t0_values), max(t0_values)):
            try:
                sharp, _ = prefactors(rho0, t0)
            except OverflowError:
                raise ValueError(
                    f"rho0 is too large: the prefactor denominator (rho0 (1 + e^(-t0 rho0)))^2 "
                    f"overflows at rho0={rho0!r}, t0={t0!r}"
                ) from None
            except ZeroDivisionError:
                sharp = math.inf
            if sharp == math.inf:
                raise ValueError(
                    f"rho0 is too small: the prefactor 4n/(rho0 (1 + e^(-t0 rho0)))^2 "
                    f"is not finite at rho0={rho0!r}, t0={t0!r}"
                )


@dataclass(frozen=True)
class BettiBoundInputs:
    """A surface (analytic or already meshed) plus the bound parameters."""

    surface: AnalyticSurface | TriangleMesh
    rho0: float
    t0: float
    p: float = 2.0
    resolution: int | None = None
    compute_schatten: bool = True

    def __post_init__(self):
        _check_grid([self.rho0], [self.t0], self.p)


@dataclass(frozen=True)
class BettiBoundReport:
    """One grid point: its parameters, the oracle, both bounds, the factors
    of the main bound that vary per point, and its check records.

    ``intermediate`` holds the potential's (2,HS) norm, the comparison
    semigroup's 2->inf norm, the sharp prefactor and the curvature
    minimum.  The surface, p and every other number that does not vary
    per point are the run report's, once (``SurfaceData.describe``).
    The point passes exactly when all of its ``records`` pass.  They are
    not in ``as_dict``, because the run report lists them at its top level.
    """

    rho0: float
    t0: float
    b1_oracle: int
    bound_main: float
    bound_schatten: float | None
    intermediate: dict = field(default_factory=dict)
    notes: tuple = ()
    records: tuple[CheckRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        return {
            "rho0": self.rho0,
            "t0": self.t0,
            "b1_oracle": self.b1_oracle,
            "bound_main": self.bound_main,
            "bound_schatten": self.bound_schatten,
            "intermediate": dict(self.intermediate),
            "pass": self.passed,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class SurfaceData:
    """Mesh-level quantities shared by every grid point of a sweep.

    ``b1`` is the harmonic oracle's count, checked against the chain
    complex, and ``kernel_dim_0forms`` the same certified count for L0;
    neither eigensolves anything.  No operator is held here: each sweep
    builds, below its own cut-offs, the operators its bounds read
    (``parameter_sweep``).  Nothing here depends on rho0 or t0.
    """

    mesh: TriangleMesh
    dec: DECOperators
    curvature: CurvatureField
    b1: int
    kernel_dim_0forms: int

    def describe(self) -> dict:
        """The surface block of a report: the mesh's ``describe`` plus both
        homology counts, the Gauss-Bonnet residual and the curvature minimum.

        Preparing the surface has already raised if the two Betti oracles
        disagree, d1 d0 does not vanish or the Gauss-Bonnet residual is too
        large.
        """
        return {
            **self.mesh.describe(),
            "betti1": self.b1,
            "betti0_kernel": self.kernel_dim_0forms,
            "gauss_bonnet_residual": self.curvature.gauss_bonnet_residual(),
            "curvature_min": self.curvature.min(),
        }


def prepare_surface(
    surface: AnalyticSurface | TriangleMesh, resolution: int | None = None
) -> SurfaceData:
    """Mesh, DEC operators, angle-defect curvature, and both homology oracles.

    A mesh that is disconnected, pinched at a vertex, or whose angle
    defects miss discrete Gauss-Bonnet is rejected with a ``MeshError``.
    The angle defects are the only curvature a certificate reads.  No
    eigensolve runs: ``betti1_oracle`` counts b1, and
    ``kernel_dim_0forms`` dim ker L0, on sparse matrices with certified
    counts.  Each sweep eigensolves the comparison operator L0 + K, and
    the Schatten certificate assembles L1, below the sweep's cut-offs
    (``parameter_sweep``).  The L0 and L2 eigendata an assembly reads
    are freed once it returns.
    """
    if isinstance(surface, TriangleMesh):
        mesh = surface
    else:
        mesh = surface.mesh(resolution) if resolution is not None else surface.mesh()
    dec = build_dec(mesh)
    check_connected_manifold(dec)
    return SurfaceData(
        mesh=mesh,
        dec=dec,
        curvature=gaussian_curvature(mesh),
        b1=betti1_oracle(mesh, dec),
        kernel_dim_0forms=kernel_dim_0forms(dec),
    )


def prefactors(rho0: float, t0: float) -> tuple[float, float]:
    """(sharp, loose) prefactors 4n/(rho0(1+e^(-t0 rho0)))^2 and 4n/rho0^2, n = 2.

    The sharp one never exceeds the loose one since 1 + e^(-t0 rho0) >= 1.
    """
    if rho0 <= 0.0 or t0 <= 0.0:
        raise ValueError("rho0 and t0 must be strictly positive")
    n = SURFACE_FIBER_DIM
    sharp = 4.0 * n / (rho0 * (1.0 + math.exp(-t0 * rho0))) ** 2
    loose = 4.0 * n / rho0**2
    return sharp, loose


def betti_bound(inputs: BettiBoundInputs, data: SurfaceData | None = None) -> BettiBoundReport:
    """The grid loop (``parameter_sweep``) on the 1 x 1 grid of ``inputs``.

    ``data``, when given, is the prepared surface, which holds no
    operator: each call eigensolves its own comparison operator, L1 and
    L1 + W, below the cut-offs of its t0.
    """
    if data is None:
        data = prepare_surface(inputs.surface, inputs.resolution)
    (report,) = parameter_sweep(data, [inputs.rho0], [inputs.t0], inputs.p, inputs.compute_schatten)
    return report


def synthetic_edge_potential(
    dec: DECOperators, curvature: CurvatureField, rho0: float
) -> MatrixPotential:
    """Nonnegative edge potential (rho0 - kappa)_+ for the operator bound.

    ``kappa`` is the curvature interpolated to edge midpoints: the mean of
    its values at an edge's two end vertices.  The shortfall is clipped at
    zero, and the potential is built with ``nonneg=True``, so
    ``MatrixPotential`` checks W >= 0.  Whether L1 plus this potential
    clears rho0 is decided spectrally (``birman.OperatorPair``); no
    geometric identity is assumed for the discrete L1.
    """
    ends = dec.mesh.edges
    kappa = 0.5 * (curvature.values[ends[:, 0]] + curvature.values[ends[:, 1]])
    shortfall = np.clip(rho0 - kappa, 0.0, None)
    return MatrixPotential.from_scalar_field(dec.edge_space(), shortfall, nonneg=True)


def parameter_sweep(
    data: SurfaceData,
    rho0_values,
    t0_values,
    p: float = 2.0,
    compute_schatten: bool = True,
    soundness_slack: float = SOUNDNESS_SLACK,
) -> list[BettiBoundReport]:
    """The reports of the (rho0, t0) grid on a prepared surface, rho0 outer, t0 inner.

    The grid is checked first (``_check_grid``).  Each factor is computed
    once at the level it depends on: the comparison operator below the
    grid's cut-off (``_comparison_cutoff``), dropped once the 2->inf norm
    of its semigroup is taken per distinct t0; L1 below the Schatten
    cut-off, built by the first row; the potential norm and the Schatten
    row per rho0 (``_schatten_row``); the prefactor and the Schatten power
    sum per point.  A point's records, in order: soundness_main,
    soundness_schatten (when computed) and vanishing_criterion (when the
    curvature is everywhere above rho0).  A soundness record passes when
    b1 <= bound + soundness_slack * (1 + |bound|).  A point whose Schatten
    bound is omitted carries its row's notes.
    """
    rho0_values = [float(r) for r in rho0_values]
    t0_values = [float(t) for t in t0_values]
    if not rho0_values or not t0_values:
        raise ValueError("the parameter grid must be nonempty")
    _check_grid(rho0_values, t0_values, p)
    comparison = _below(
        partial(schrodinger_comparison, data.dec, data.curvature.values),
        _comparison_cutoff(data, t0_values),
    )
    two_inf = {t0: heat_two_inf_norm(comparison, t0) for t0 in dict.fromkeys(t0_values)}
    del comparison  # freed before the Schatten rows build L1
    sigma_a = _heat_cutoff(t0_values) if p == 2.0 else math.inf
    # Built by the first row that reads it; a failed build is not kept.
    laplacian1 = cache(partial(_below, data.dec.laplacian1, sigma_a))
    curvature_min = data.curvature.min()
    reports = []
    for rho0 in rho0_values:
        potential_norm = ricci_potential(data.curvature, rho0)
        schatten, notes = [None] * len(t0_values), ()
        if compute_schatten:
            schatten, notes = _schatten_row(data, laplacian1, sigma_a, rho0, t0_values, p)
        for t0, bound_schatten in zip(t0_values, schatten):
            ultra = two_inf[t0]
            prefactor, _ = prefactors(rho0, t0)
            # A float product overflows to inf where ``ultra**2`` would raise.
            bound_main = prefactor * potential_norm**2 * (ultra * ultra)

            tag = f"rho0={rho0:g},t0={t0:g}"
            soundness = [("main", "the certified product bound", bound_main)]
            if bound_schatten is not None:
                soundness.append(("schatten", "the operator-level bound", bound_schatten))
            records = [
                inequality_record(
                    f"soundness_{kind}[{tag}]",
                    f"homology oracle below {what}",
                    float(data.b1),
                    bound,
                    soundness_slack * (1.0 + abs(bound)),
                )
                for kind, what, bound in soundness
            ]
            if curvature_min > rho0:
                records.append(
                    equality_record(
                        f"vanishing_criterion[{tag}]",
                        "curvature everywhere above rho0 forces a zero bound",
                        bound_main,
                        0.0,
                    )
                )
            reports.append(
                BettiBoundReport(
                    rho0=rho0,
                    t0=t0,
                    b1_oracle=data.b1,
                    bound_main=bound_main,
                    bound_schatten=bound_schatten,
                    intermediate={
                        "potential_norm_2hs": potential_norm,
                        "comparison_two_inf": ultra,
                        "prefactor_sharp": prefactor,
                        "curvature_min": curvature_min,
                    },
                    notes=notes if bound_schatten is None else (),
                    records=tuple(records),
                )
            )
    return reports


def _heat_cutoff(t0_values: list[float]) -> float:
    """ln(1/eta) / (2 min t0): above it e^(-2 t0 lam) <= eta for every t0 of the row."""
    return math.log(1.0 / _ETA) / (2.0 * min(t0_values))


def _comparison_cutoff(data: SurfaceData, t0_values: list[float]) -> float:
    """The cut-off below which the main bound holds L0 + K:

        sigma_C = rho_bar + [ln(1/eta) + ln(vol max_x 1/m_x)] / (2 min t0),

    for rho_bar = sum_x m_x K_x / vol the mean curvature, m the vertex
    weights and vol = sum_x m_x.  L0 annihilates the constants, so rho_bar
    is their Rayleigh quotient for L0 + K, and the lowest eigenvalue lam_0
    of L0 + K is at most rho_bar.  The pairs dropped below sigma_C add at
    most e^(-2 t sigma_C) max_x 1/m_x to the squared 2->inf norm of
    e^(-tA) (``heat_two_inf_norm``), which is at least e^(-2 t lam_0) / vol,
    so at most eta of it at every t >= min t0.
    """
    weights = data.dec.star0
    vol = float(np.sum(weights))
    mean_curvature = float(np.sum(weights * data.curvature.values)) / vol
    spread = math.log(vol / float(np.min(weights)))
    return mean_curvature + (math.log(1.0 / _ETA) + spread) / (2.0 * min(t0_values))


def _below(build, cutoff: float) -> SelfAdjointOperator:
    """``build(cutoff)``, or ``build(inf)`` when its inertia count refuses the
    cut-off (``CutOffRefused``): at sigma = inf no count is taken and
    every pair is held."""
    try:
        return build(cutoff)
    except CutOffRefused:
        return build(math.inf)


def _schatten_row(
    data: SurfaceData, laplacian1, sigma_a: float, rho0: float, t0_values: list[float], p: float
) -> tuple[list, tuple]:
    """The Schatten bound at (rho0, t0) for each t0, and the row's notes.

    ``laplacian1()`` gives L1 below ``sigma_a`` (``_below``), and the row
    eigensolves L1 + W = ``potential.added_to(L1, sigma)`` below
    sigma = max(sigma_a, 2 rho0), or with every pair when that count is
    refused; it lives only inside the row.  Every pair dropped below
    sigma_a has heat weight e^(-2 t0 sigma_a) at most eta, and sigma lies
    above rho0, so an L1 + W with no pair below sigma clears rho0.  Each
    bound is the upper end of its ``crude_bounds`` at exponent p, which
    is at least the certificate's value however wide the enclosure; at
    sigma_a = inf (every p but 2) both operators hold every pair and the
    enclosure is the value itself.  A ValueError from building L1 or
    L1 + W, or from the check that L1 + W clears rho0 (in the first
    ``birman.OperatorPair`` of the row), makes every bound of the row
    None, and its message is the one note.  A ValueError from one point's
    ``crude_bounds`` (a scale 1 - e^(-2 rho0 t0) that rounds to zero)
    makes that point's bound None and adds its message to the notes; the
    other points keep their bounds.  A ``MeshError`` (a full L1's kernel
    against ``b1``, or L1's pairs against its E dimensions) is not the
    row's failure and is raised.
    """
    potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
    try:
        lap1 = laplacian1()
        perturbed = _below(partial(potential.added_to, lap1), max(sigma_a, 2.0 * rho0))
        bounds, notes = [], []
        for t0 in t0_values:
            pair = OperatorPair(lap1, perturbed, rho0, 2.0 * t0)
            try:
                bounds.append(crude_bounds(pair, p)[0])
            except ValueError as exc:
                bounds.append(None)
                notes.append(f"schatten bound omitted: {exc}")
    except MeshError:
        raise
    except ValueError as exc:
        return [None] * len(t0_values), (f"schatten bound omitted: {exc}",)
    return bounds, tuple(notes)
