"""Certified first-Betti-number bounds on triangulated closed surfaces.

The library verifies, exactly on finite weighted measure spaces, the
operator inequalities that drive kernel-dimension bounds from Schatten
norms of heat semigroup differences, and applies them end to end to
compute certified upper bounds on b1 of closed surfaces, cross-checked
against independent homology oracles.
"""

from .measure import (
    SelfAdjointOperator,
    WeightedFiniteSpace,
    WeightedOperator,
    hs_norm,
    operator_norm,
    schatten_norm,
    two_inf_norm,
)
from .birman import (
    KernelBoundCertificate,
    OperatorPair,
    birman_schwinger_bound,
    kernel_identity_check,
    planted_kernel_operator,
    weyl_inequality_check,
)
from .perturbation import (
    DominatedPair,
    MatrixPotential,
    PointwiseDiagonalization,
    connection_laplacian_pair,
    domination_check,
    dominated_difference_check,
    duhamel_difference,
    hs_factorization_check,
    hs_norm_potential,
    pointwise_diagonalize,
    semigroup_22_integral,
    semigroup_difference_bound_check,
    truncate_potential,
)
from .mesh import (
    AnalyticSurface,
    BumpySphere,
    FlatTorus,
    RoundSphere,
    TorusOfRevolution,
    TriangleMesh,
    builtin_mesh,
    builtin_surface,
    flat_torus_mesh,
    genus2_mesh,
    icosphere_mesh,
    load_mesh,
    read_off,
    read_obj,
    revolution_torus_mesh,
    write_off,
)
from .dec import (
    CurvatureField,
    DECOperators,
    betti1_oracle,
    build_dec,
    gaussian_curvature,
    ricci_potential,
    schrodinger_comparison,
)
from .pipeline import (
    BettiBoundInputs,
    BettiBoundReport,
    betti_bound,
    parameter_sweep,
    prefactors,
    prepare_surface,
    synthetic_edge_potential,
)
from .report import RunReport, SuiteConfig, serialize_json
from .suites import run_abstract_suites

__version__ = "0.1.0"
