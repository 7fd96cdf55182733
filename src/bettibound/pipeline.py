"""End-to-end certified upper bounds on the first Betti number of a surface.

The main bound combines three certified ingredients on a closed surface
of fiber dimension n = 2:

    b1  <=  4 n / (rho0 (1 + e^(-t0 rho0)))^2
            * || (Ric - rho0)_- ||_{2,HS}^2
            * || exp(-t0 (L0 + rho)) ||_{2,inf}^2

for any rho0 > 0 and t0 > 0, where rho is the pointwise smallest Ricci
eigenvalue (the Gauss curvature on surfaces) and L0 + rho is the scalar
comparison Schroedinger operator.  The looser variant replaces the
prefactor by 4 n rho0^(-2); both are reported, soundness is checked for
the sharper one.

A second, operator-level certificate applies the Schatten kernel bound
directly to the edge Laplacian L1 with a synthetic nonnegative edge
potential W chosen so that L1 + W >= rho0 (checked spectrally, never
assumed):

    b1  <=  (1 - e^(-2 rho0 t0))^(-p) || e^(-2 t0 L1) - e^(-2 t0 (L1+W)) ||_Sp^p.

Every grid point is read from spectra computed before it: L0, the face
Laplacian L2 and L0 + K are eigensolved once per surface, L1 is assembled
from the eigenpairs of L0 and L2 (its Hodge pieces) with no eigensolve of
its own, and L1 + W is eigensolved once per rho0 (W depends on rho0 only).
The 2->inf norm of e^(-t0 (L0+K)) and, at p = 2, the Hilbert-Schmidt
norm of the semigroup difference come from those spectra in O(N^2) per
point, with no dense heat matrix; other p take the singular values of the
dense difference.

A Li-Yau style variant with user-supplied dimensional constants is
reported for comparison only and never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .birman import OperatorPair, crude_kernel_bound
from .dec import (
    CurvatureField,
    DECOperators,
    build_dec,
    betti1_oracle,
    gaussian_curvature,
    ricci_potential,
    schrodinger_comparison,
)
from .measure import SelfAdjointOperator, two_inf_norm
from .mesh import AnalyticSurface, TriangleMesh
from .perturbation import MatrixPotential
from .report import DEFAULT_TOLERANCES, CheckRecord, equality_record, inequality_record

__all__ = [
    "SURFACE_FIBER_DIM",
    "BettiBoundInputs",
    "BettiBoundReport",
    "SurfaceData",
    "prepare_surface",
    "prefactors",
    "betti_bound",
    "schatten_betti_bound",
    "schatten_operator",
    "synthetic_edge_potential",
    "li_yau_betti_bound",
    "parameter_sweep",
]

# 1-forms on a surface have two-dimensional fibers.
SURFACE_FIBER_DIM = 2


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
        if self.rho0 <= 0.0 or self.t0 <= 0.0:
            raise ValueError("rho0 and t0 must be strictly positive")


@dataclass(frozen=True)
class BettiBoundReport:
    """All inputs, intermediate norms, bound values, oracle, and check records.

    The point passes exactly when all of its ``records`` pass.  They are
    not in ``as_dict``, because the run report lists them at its top level.
    """

    surface: str
    rho0: float
    t0: float
    p: float
    b1_oracle: int
    bound_main: float
    bound_main_abstract: float
    bound_schatten: float | None
    bound_liyau: float | None
    intermediate: dict = field(default_factory=dict)
    notes: tuple = ()
    records: tuple[CheckRecord, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        return {
            "surface": self.surface,
            "rho0": self.rho0,
            "t0": self.t0,
            "p": self.p,
            "b1_oracle": self.b1_oracle,
            "bound_main": self.bound_main,
            "bound_main_abstract": self.bound_main_abstract,
            "bound_schatten": self.bound_schatten,
            "bound_liyau": self.bound_liyau,
            "intermediate": dict(self.intermediate),
            "pass": self.passed,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class SurfaceData:
    """Mesh-level quantities shared by every grid point of a sweep."""

    mesh: TriangleMesh
    dec: DECOperators
    curvature: CurvatureField
    b1: int
    kernel_dim_0forms: int
    description: str
    laplacian1: SelfAdjointOperator
    _schatten_slot: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def volume(self) -> float:
        return self.mesh.total_area

    @cached_property
    def comparison(self) -> SelfAdjointOperator:
        """The comparison operator L0 + K, eigensolved when first read."""
        return schrodinger_comparison(self.dec, self.curvature.values)

    def schatten_operator(self, rho0: float) -> SelfAdjointOperator:
        """L1 + W for the synthetic edge potential W at rho0 (``schatten_operator``).

        One slot keeps the operator for the last rho0 asked for, so a sweep
        with rho0 in its outer loop eigensolves L1 + W once per rho0 and
        holds one such operator at a time; W itself is not kept.  A failed
        spectral check is kept too, and raised again as the same
        ``ValueError``.
        """
        slot = self._schatten_slot
        if slot.get("rho0") != rho0:
            slot.clear()
            try:
                potential = synthetic_edge_potential(self.dec, self.curvature, rho0)
                slot["operator"] = schatten_operator(self.laplacian1, potential, rho0)
            except ValueError as exc:
                slot["error"] = str(exc)
            slot["rho0"] = rho0
        if "error" in slot:
            raise ValueError(slot["error"])
        return slot["operator"]


def prepare_surface(
    surface: AnalyticSurface | TriangleMesh,
    resolution: int | None = None,
    curvature_source: str = "angle-defect",
) -> SurfaceData:
    """Mesh, DEC operators, curvature field, and both homology oracles.

    Eigensolves L0 and the face Laplacian L2; the comparison operator
    L0 + K is eigensolved once, when a bound first reads it.  L1 is
    assembled from L0's and L2's eigenpairs (``DECOperators.laplacian1``),
    so no E x E matrix is eigensolved here.
    """
    if isinstance(surface, TriangleMesh):
        mesh = surface
        analytic = None
        description = f"mesh({mesh.vertex_count}v,{mesh.edge_count}e,{mesh.face_count}f)"
    else:
        analytic = surface
        mesh = surface.mesh(resolution) if resolution is not None else surface.mesh()
        description = f"{surface.name}({mesh.vertex_count}v,{mesh.edge_count}e)"
    dec = build_dec(mesh)
    if curvature_source == "analytic" and analytic is None:
        raise ValueError("analytic curvature requires an analytic surface")
    curvature = gaussian_curvature(mesh, curvature_source, analytic)
    lap0 = dec.laplacian0()
    lap1 = dec.laplacian1(lap0)
    b1 = betti1_oracle(mesh, dec, laplacian1=lap1)
    return SurfaceData(
        mesh=mesh,
        dec=dec,
        curvature=curvature,
        b1=b1,
        kernel_dim_0forms=lap0.kernel_dim(),
        description=description,
        laplacian1=lap1,
    )


def prefactors(rho0: float, t0: float, n: int = SURFACE_FIBER_DIM) -> tuple[float, float]:
    """(sharp, loose) prefactors 4n/(rho0(1+e^(-t0 rho0)))^2 and 4n/rho0^2.

    The sharp one never exceeds the loose one since 1 + e^(-t0 rho0) >= 1.
    """
    if rho0 <= 0.0 or t0 <= 0.0:
        raise ValueError("rho0 and t0 must be strictly positive")
    sharp = 4.0 * n / (rho0 * (1.0 + math.exp(-t0 * rho0))) ** 2
    loose = 4.0 * n / rho0**2
    return sharp, loose


def betti_bound(
    inputs: BettiBoundInputs,
    data: SurfaceData | None = None,
    liyau_curvature_floor: float | None = None,
    liyau_c: float = 1.0,
    liyau_alpha: float = 1.0,
    soundness_slack: float = DEFAULT_TOLERANCES["soundness"],
) -> BettiBoundReport:
    """Evaluate the main bound (and companions) and check b1 <= bound.

    The report's records, in order: soundness_main, soundness_schatten
    (when computed), vanishing_criterion (when the curvature is everywhere
    above rho0) and prefactor.  A soundness record passes when
    b1 <= bound + soundness_slack * (1 + |bound|).
    """
    if data is None:
        data = prepare_surface(inputs.surface, inputs.resolution, inputs.curvature_source)
    rho0, t0 = inputs.rho0, inputs.t0
    notes = []

    potential = ricci_potential(data.curvature, rho0)
    ultra = two_inf_norm(data.comparison.semigroup(t0))
    sharp_pref, loose_pref = prefactors(rho0, t0)
    bound_main = sharp_pref * potential.norm_2hs**2 * ultra**2
    bound_loose = loose_pref * potential.norm_2hs**2 * ultra**2

    bound_schatten = None
    if inputs.compute_schatten:
        try:
            perturbed = data.schatten_operator(rho0)
            bound_schatten = schatten_betti_bound(
                data.laplacian1, perturbed, rho0, t0, inputs.p
            )
        except ValueError as exc:
            notes.append(f"schatten bound omitted: {exc}")

    bound_liyau = None
    if liyau_curvature_floor is not None:
        bound_liyau = li_yau_betti_bound(
            data.curvature,
            rho0,
            curvature_floor=liyau_curvature_floor,
            volume=data.volume,
            diameter=data.mesh.diameter_estimate(),
            c_n=liyau_c,
            alpha_n=liyau_alpha,
        )
        notes.append("liyau bound uses uncertified user constants; not asserted")

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
    if data.curvature.min() > rho0:
        records.append(
            equality_record(
                f"vanishing_criterion[{tag}]",
                "curvature everywhere above rho0 forces a zero bound",
                bound_main,
                0.0,
            )
        )
    records.append(
        inequality_record(
            f"prefactor[{tag}]",
            "sharp prefactor below the loose 4n/rho0^2 form",
            sharp_pref,
            loose_pref,
            0.0,
        )
    )

    intermediate = {
        "potential_norm_2hs": potential.norm_2hs,
        "comparison_two_inf": ultra,
        "integral_22": (1.0 - math.exp(-t0 * rho0)) / rho0,
        "prefactor_sharp": sharp_pref,
        "prefactor_loose": loose_pref,
        "kernel_dim_0forms": data.kernel_dim_0forms,
        "kernel_dim_1forms": data.b1,
        "curvature_min": data.curvature.min(),
        "diameter_estimate": data.mesh.diameter_estimate(),
        "volume": data.volume,
    }
    return BettiBoundReport(
        surface=data.description,
        rho0=rho0,
        t0=t0,
        p=inputs.p,
        b1_oracle=data.b1,
        bound_main=bound_main,
        bound_main_abstract=bound_loose,
        bound_schatten=bound_schatten,
        bound_liyau=bound_liyau,
        intermediate=intermediate,
        notes=tuple(notes),
        records=tuple(records),
    )


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
    H: SelfAdjointOperator, V: MatrixPotential, rho0: float
) -> SelfAdjointOperator:
    """H + V for a nonnegative V, verified spectrally to clear rho0.

    A failed check raises ``ValueError``.  V goes onto the diagonal of a
    copy of H's matrix (``MatrixPotential.added_to``); a V that is zero
    everywhere gives H itself, with no eigensolve, so the semigroup
    difference of the certificate is exactly zero.
    """
    if not V.nonneg:
        raise ValueError("the edge potential must be nonnegative")
    perturbed = V.added_to(H) if np.any(V.values) else H
    tol = 1e-9 * (1.0 + perturbed.spectral_radius)
    if perturbed.min_eigenvalue < rho0 - tol:
        raise ValueError(
            f"spectral check failed: min eig of the shifted operator is "
            f"{perturbed.min_eigenvalue:.6g} < rho0={rho0:.6g}"
        )
    return perturbed


def schatten_betti_bound(
    H: SelfAdjointOperator,
    perturbed: SelfAdjointOperator,
    rho0: float,
    t0: float,
    p: float,
) -> float:
    """Operator-level kernel bound (1-e^(-2 rho0 t0))^(-p) ||D_{2t0}||_Sp^p.

    ``perturbed`` is H + V, as built and checked by ``schatten_operator(H,
    V, rho0)``.  H >= 0 and perturbed >= rho0 are verified spectrally (a
    failure raises ``ValueError``).  The value is
    ``birman.crude_kernel_bound`` at time 2 t0; whether it dominates
    dim ker H is a record of ``betti_bound``.
    """
    if p <= 0.0:
        raise ValueError("Schatten exponent must be positive")
    pair = OperatorPair(H=H, Hprime=perturbed, rho0=rho0, t0=2.0 * t0)
    return crude_kernel_bound(pair, p)


def li_yau_betti_bound(
    curvature: CurvatureField,
    rho0: float,
    curvature_floor: float,
    volume: float,
    diameter: float,
    c_n: float = 1.0,
    alpha_n: float = 1.0,
) -> float:
    """Heat-kernel-style bound c_n rho0^-2 ||..||^2 Vol^-1 exp(alpha_n K D^2).

    The dimensional constants are user inputs with uncertified defaults
    (1, 1); the value is for comparison only and is never asserted against
    the homology oracle.  ``curvature_floor`` must really bound the
    curvature from below: K(v) >= -curvature_floor is verified.
    """
    if curvature_floor < 0.0:
        raise ValueError("the curvature floor is a nonnegative number")
    if curvature.min() < -curvature_floor - 1e-12:
        raise ValueError(
            f"curvature bound violated: min K = {curvature.min():.6g} < "
            f"-{curvature_floor:.6g}"
        )
    potential = ricci_potential(curvature, rho0)
    return (
        c_n
        / rho0**2
        * potential.norm_2hs**2
        / volume
        * math.exp(alpha_n * curvature_floor * diameter**2)
    )


def parameter_sweep(
    surface: AnalyticSurface | TriangleMesh,
    rho0_values,
    t0_values,
    p: float = 2.0,
    resolution: int | None = None,
    curvature_source: str = "angle-defect",
    compute_schatten: bool = True,
    liyau_curvature_floor: float | None = None,
    liyau_c: float = 1.0,
    liyau_alpha: float = 1.0,
    soundness_slack: float = DEFAULT_TOLERANCES["soundness"],
) -> dict:
    """Evaluate the bound over the (rho0, t0) grid in deterministic order.

    The surface is prepared once and L1 + W eigensolved once per rho0
    (``SurfaceData.schatten_operator``); the Li-Yau arguments and the
    soundness slack go to ``betti_bound``.
    Returns the report list (rho0 outer loop, t0 inner) plus the index and
    value of the smallest main bound.
    """
    rho0_values = [float(r) for r in rho0_values]
    t0_values = [float(t) for t in t0_values]
    if not rho0_values or not t0_values:
        raise ValueError("the parameter grid must be nonempty")
    data = prepare_surface(surface, resolution, curvature_source)
    reports = []
    for rho0 in rho0_values:
        for t0 in t0_values:
            inputs = BettiBoundInputs(
                surface=surface,
                rho0=rho0,
                t0=t0,
                p=p,
                resolution=resolution,
                curvature_source=curvature_source,
                compute_schatten=compute_schatten,
            )
            reports.append(
                betti_bound(
                    inputs,
                    data,
                    liyau_curvature_floor,
                    liyau_c,
                    liyau_alpha,
                    soundness_slack,
                )
            )
    best = int(np.argmin([r.bound_main for r in reports]))
    return {
        "reports": reports,
        "argmin_index": best,
        "min_bound_main": reports[best].bound_main,
        "all_pass": all(r.passed for r in reports),
    }
