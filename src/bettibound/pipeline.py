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
V x K basis (``measure.heat_two_inf_norm``).  A refused cut-off doubles
its margin above rho_bar; past the radius bound the operator holds
every pair.

The Schatten certificate is one row computation per rho0 (W depends on
rho0 only, and so does the (2,HS) norm of the potential).  The row
reads L1 below a cut-off sigma_A, assembled from the eigenpairs of its
Hodge pieces L0 and the face Laplacian L2 below sigma_A and from the
Betti oracle's Ritz vectors, and certified by the Hodge count: the
inertia of L1 - sigma_A must count exactly those pairs, and a refused
count gives every pair of L1 instead.  It eigensolves
L1 + W below sigma = max(sigma_A, 2 rho0): the inertia of
L1 + W - sigma counts the K pairs below it, and xSYEVR computes only
those.  At p = 2 the Hilbert-Schmidt norm of the semigroup difference
comes from the two spectra in O(N^2) per point, with no dense heat
matrix, and an eigenpair of either operator enters it only through its
heat weight e^(-2 t0 mu).  So the row first runs at
sigma_A = ln(1/eta) / (2 min t0): every dropped pair weighs at most
eta, no E x E eigenvector array is built, and each bound is the upper
end of an enclosure over the dropped pairs
(``measure.heat_difference_hs_bounds``).  If the cut-off of L1 + W is
refused, or some t0's enclosure is wider than eta relative to its upper
end, the row runs again at sigma_A = inf, where L1 and L1 + W hold
every pair and the enclosure is the value itself.  Every other p runs
the row once at sigma_A = inf and takes the singular values of the
dense difference.  A failed check that L1 + W clears rho0 is the row's
note, and the lowest pair of a cut-off L1 + W already decides it.

The prepared surface (``SurfaceData``) holds one comparison operator
and one L1, each below its cut-off or with every pair, for any later
call whose cut-offs are no larger, so the loop holds one L1 and one
L1 + W at a time, and ``betti_bound``, the same loop on a 1 x 1 grid,
shares them from one call to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .birman import OperatorPair, crude_hs_enclosure, crude_kernel_bound
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
    "schatten_operator",
    "synthetic_edge_potential",
    "parameter_sweep",
]

# 1-forms on a surface have two-dimensional fibers.
SURFACE_FIBER_DIM = 2
# Default relative slack of a soundness record (``betti_bound``).
SOUNDNESS_SLACK = 1e-9
# The Schatten p = 2 row's cut-offs drop only eigenpairs of L1 and L1 + W
# with heat weight at most eta, and each bound's enclosure must end within
# eta of each other, relative to the upper end (``_row_bounds``).
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
    curvature_source: str = "angle-defect"
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
    neither eigensolves anything.  Each operator is eigensolved when
    first read.  The main bound reads the comparison operator L0 + K
    only below a cut-off (``comparison_below``), and the Schatten
    certificate reads L1 below one (``laplacian1_below``), which at an
    infinite cut-off is every pair (``laplacian1``).  Each such operator
    is held here, one per kind, and serves every later call whose
    cut-off is no larger than the one held, so point-by-point
    ``betti_bound`` calls share it; a call that needs a larger cut-off
    replaces it.  Nothing that depends on rho0 is kept here, and t0
    enters only through the cut-offs.
    """

    mesh: TriangleMesh
    dec: DECOperators
    curvature: CurvatureField
    b1: int
    kernel_dim_0forms: int
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def comparison_below(self, cutoff: float) -> SelfAdjointOperator:
        """L0 + K with (at least) its eigenpairs below ``cutoff``, held.

        ``SelfAdjointOperator(..., cutoff=sigma)``: a V x K array.  A
        refused cut-off (``CutOffRefused``) doubles its margin above the
        mean curvature rho_bar, sigma -> rho_bar + 2 (sigma - rho_bar),
        until one is certified; at or above the operator's radius bound
        it holds every pair.
        """
        mean = self._mean_curvature

        def build(sigma):
            while True:
                try:
                    return schrodinger_comparison(self.dec, self.curvature.values, sigma)
                except CutOffRefused:
                    if math.isnan(sigma):
                        raise
                    sigma = mean + 2.0 * (sigma - mean)

        return self._held_below("comparison", cutoff, build)

    @property
    def _mean_curvature(self) -> float:
        """rho_bar = sum_x m_x K_x / sum_x m_x, for m the vertex weights.

        L0 annihilates the constants, so rho_bar is their Rayleigh
        quotient for L0 + K: the lowest eigenvalue of L0 + K is at most
        rho_bar.
        """
        weights = self.dec.star0
        return float(np.sum(weights * self.curvature.values) / np.sum(weights))

    @property
    def laplacian1(self) -> SelfAdjointOperator:
        """L1 with every eigenpair: ``laplacian1_below(inf)``, held in place of any partial L1."""
        return self.laplacian1_below(math.inf)

    def laplacian1_below(self, cutoff: float) -> SelfAdjointOperator:
        """L1 with (at least) its eigenpairs below ``cutoff``, held.

        ``DECOperators.laplacian1(cutoff)``: below a finite cut-off an
        E x K array certified by the Hodge count, and a refused count
        (any ValueError) gives every pair instead.  With every pair the
        eigenvectors fill an E x E array, and the kernel dimension must
        equal ``b1``: the full assembly and the harmonic oracle count it
        from separate computations, and a disagreement raises
        ``MeshError``.  (L1 below a cut-off starts its harmonic block from
        the oracle's Ritz vectors, so its check is the Hodge count.)  A
        full assembly that fails its own eigendata check is attempted
        twice before its ValueError escapes.
        """

        def build(sigma):
            try:
                lap1 = self.dec.laplacian1(sigma)
            except ValueError:  # a refused Hodge count: every pair instead
                lap1 = self.dec.laplacian1()
            if not lap1.partial and lap1.kernel_dim() != self.b1:
                raise MeshError(
                    f"Betti oracles disagree: assembled L1 kernel {lap1.kernel_dim()} "
                    f"vs harmonic oracle {self.b1}"
                )
            return lap1

        return self._held_below("laplacian1", cutoff, build)

    def _held_below(self, kind, cutoff, build) -> SelfAdjointOperator:
        """The ``kind`` operator held, when its cut-off is at least ``cutoff``;
        else ``build(cutoff)``, held in its place."""
        held = self._held.pop(kind, None)
        if held is None or held.cutoff < cutoff:
            del held  # freed before its successor is built
            held = build(cutoff)
        self._held[kind] = held
        return held


def prepare_surface(
    surface: AnalyticSurface | TriangleMesh,
    resolution: int | None = None,
    curvature_source: str = "angle-defect",
) -> SurfaceData:
    """Mesh, DEC operators, curvature field, and both homology oracles.

    A mesh that is disconnected or pinched at a vertex is rejected with a
    ``MeshError``.  No eigensolve runs: ``betti1_oracle`` counts b1, and
    ``kernel_dim_0forms`` dim ker L0, on sparse matrices with certified
    counts.  The comparison operator L0 + K is eigensolved below a
    cut-off when a bound first reads it, and again only for a larger
    cut-off.  The Schatten certificate assembles L1 below a cut-off, or
    with every pair, held the same way.  The L0 and L2 eigendata an
    assembly reads are freed once it returns.
    """
    if isinstance(surface, TriangleMesh):
        mesh = surface
        analytic = None
    else:
        analytic = surface
        mesh = surface.mesh(resolution) if resolution is not None else surface.mesh()
    dec = build_dec(mesh)
    check_connected_manifold(dec)
    if curvature_source == "analytic" and analytic is None:
        raise ValueError("analytic curvature requires an analytic surface")
    curvature = gaussian_curvature(mesh, curvature_source, analytic)
    return SurfaceData(
        mesh=mesh,
        dec=dec,
        curvature=curvature,
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


def betti_bound(
    inputs: BettiBoundInputs,
    data: SurfaceData | None = None,
    soundness_slack: float = SOUNDNESS_SLACK,
) -> BettiBoundReport:
    """The grid loop (``parameter_sweep``) on the 1 x 1 grid of ``inputs``.

    ``data``, when given, is the prepared surface.  The comparison
    operator and L1, below their cut-offs or with every pair, are held on
    it, so a later call reuses them unless its t0 is smaller than every
    earlier one's (``SurfaceData``); each call eigensolves its own
    L1 + W.
    """
    if data is None:
        data = prepare_surface(inputs.surface, inputs.resolution, inputs.curvature_source)
    (report,) = parameter_sweep(
        data, [inputs.rho0], [inputs.t0], inputs.p, inputs.compute_schatten, soundness_slack
    )
    return report


def synthetic_edge_potential(
    dec: DECOperators,
    curvature: CurvatureField,
    rho0: float,
    edge_scalar: np.ndarray | None = None,
) -> MatrixPotential:
    """Nonnegative edge potential (rho0 - kappa)_+ for the operator bound.

    ``kappa`` defaults to the curvature interpolated to edge midpoints.
    Whether L1 plus this potential clears rho0 is decided spectrally by
    the caller; no geometric identity is assumed for the discrete L1.
    """
    if edge_scalar is None:
        ends = dec.mesh.edges
        edge_scalar = 0.5 * (curvature.values[ends[:, 0]] + curvature.values[ends[:, 1]])
    shortfall = np.clip(rho0 - np.asarray(edge_scalar, dtype=float), 0.0, None)
    return MatrixPotential.from_scalar_field(dec.edge_space(), shortfall, nonneg=True)


def schatten_operator(
    H: SelfAdjointOperator, V: MatrixPotential, rho0: float, cutoff: float = math.inf
) -> SelfAdjointOperator:
    """H + V for a nonnegative V, verified spectrally to clear rho0.

    A failed check raises ``ValueError``.  V goes onto the diagonal of a
    copy of H's matrix (``MatrixPotential.added_to``); a V that is zero
    everywhere gives H itself, with no eigensolve, so the semigroup
    difference of the certificate is exactly zero.  A finite ``cutoff``
    keeps only the eigenpairs of H + V below it; with none below it, its
    lowest eigenvalue is at least the cut-off, and that is what is checked.
    """
    if not V.nonneg:
        raise ValueError("the edge potential must be nonnegative")
    perturbed = V.added_to(H, cutoff)
    if perturbed.min_eigenvalue < rho0 - perturbed.zero_threshold():
        raise ValueError(
            f"spectral check failed: min eig of the shifted operator is "
            f"{perturbed.min_eigenvalue:.6g} < rho0={rho0:.6g}"
        )
    return perturbed


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
    grid's cut-off (``_comparison_cutoff``) and the 2->inf norm of its
    semigroup per distinct t0, the potential norm and the Schatten row per
    rho0 (``_schatten_row``), the prefactor and the Schatten power sum per
    point.  A point's records, in order: soundness_main,
    soundness_schatten (when computed) and vanishing_criterion (when the
    curvature is everywhere above rho0).  A soundness record passes when
    b1 <= bound + soundness_slack * (1 + |bound|).
    """
    rho0_values = [float(r) for r in rho0_values]
    t0_values = [float(t) for t in t0_values]
    if not rho0_values or not t0_values:
        raise ValueError("the parameter grid must be nonempty")
    _check_grid(rho0_values, t0_values, p)
    comparison = data.comparison_below(_comparison_cutoff(data, t0_values))
    two_inf = {t0: heat_two_inf_norm(comparison, t0) for t0 in dict.fromkeys(t0_values)}
    curvature_min = data.curvature.min()
    reports = []
    for rho0 in rho0_values:
        potential_norm = ricci_potential(data.curvature, rho0)
        schatten, notes = [None] * len(t0_values), ()
        if compute_schatten:
            schatten, notes = _schatten_row(data, rho0, t0_values, p)
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
                    notes=notes,
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

    for rho_bar the mean curvature (``SurfaceData._mean_curvature``) and
    vol = sum_x m_x.  The pairs dropped below sigma_C add at most
    e^(-2 t sigma_C) max_x 1/m_x to the squared 2->inf norm of e^(-tA)
    (``heat_two_inf_norm``), which is at least e^(-2 t lam_0) / vol
    with lam_0 <= rho_bar, so at most eta of it at every t >= min t0.
    """
    weights = data.dec.star0
    spread = math.log(float(np.sum(weights)) / float(np.min(weights)))
    return data._mean_curvature + (math.log(1.0 / _ETA) + spread) / (2.0 * min(t0_values))


def _schatten_row(
    data: SurfaceData, rho0: float, t0_values: list[float], p: float
) -> tuple[list, tuple]:
    """The Schatten bound at (rho0, t0) for each t0, and the row's notes.

    At p = 2 the row runs below sigma_A = ln(1/eta) / (2 min t0)
    (``_row_bounds``), and again at sigma_A = inf, with every pair, only
    when that cut-off is refused or an enclosure is too wide; every other
    p runs at sigma_A = inf.  The partial L1 is freed before the full one
    is built, and each L1 + W lives only inside ``_row_bounds``, so a
    sweep holds one L1 and one L1 + W (with the squared overlap it keeps)
    at a time.  When the check that L1 + W clears rho0 fails, every bound
    of the row is None and the one note says why.  A ``MeshError`` (the
    full L1's kernel against ``b1``) is not the row's failure and is
    raised.
    """
    potential = synthetic_edge_potential(data.dec, data.curvature, rho0)
    try:
        bounds = None
        if p == 2.0:
            bounds = _row_bounds(data, potential, rho0, t0_values, p, _heat_cutoff(t0_values))
        if bounds is None:
            bounds = _row_bounds(data, potential, rho0, t0_values, p, math.inf)
    except MeshError:
        raise
    except ValueError as exc:
        return [None] * len(t0_values), (f"schatten bound omitted: {exc}",)
    return bounds, ()


def _row_bounds(data, potential, rho0, t0_values, p, sigma_a) -> list | None:
    """The Schatten bound for each t0 from L1 below ``sigma_a`` and L1 + W
    below sigma = max(sigma_a, 2 rho0), or None when a finite cut-off does
    not certify them to eta.

    Every pair dropped below sigma_a has heat weight e^(-2 t0 sigma_a) at
    most eta, and sigma lies above rho0, so an L1 + W with no pair below
    sigma clears rho0.  At p = 2 each bound is the upper end of its
    ``crude_hs_enclosure``; an enclosure wider than eta relative to that
    end, or a cut-off the inertia count and the solver do not agree on
    (``CutOffRefused``), gives None.  At sigma_a = inf both operators hold
    every pair, no count is taken and each enclosure is the value itself.
    Any other ValueError, the check that L1 + W clears rho0 among them, is
    the row's own failure and is raised.
    """
    lap1 = data.laplacian1_below(sigma_a)
    try:
        perturbed = schatten_operator(lap1, potential, rho0, max(sigma_a, 2.0 * rho0))
    except CutOffRefused:
        return None
    pairs = (OperatorPair(lap1, perturbed, rho0, 2.0 * t0) for t0 in t0_values)
    if p != 2.0:
        return [crude_kernel_bound(pair, p) for pair in pairs]
    enclosures = [crude_hs_enclosure(pair) for pair in pairs]
    if sigma_a < math.inf and not all(up - low <= _ETA * up for up, low in enclosures):
        return None
    return [upper for upper, _ in enclosures]
