"""Translationally equivariant minimal Lagrangian surfaces in CP^2.

A numerical library for constructing, evaluating, verifying and classifying
the associated family of these surfaces: Jacobi-elliptic metric factor,
explicit Iwasawa factorization of the degree-one potential, closed-form
horizontal lifts to S^5, and cylinder/torus periodicity certificates.
"""

from .elliptic import JacobiTriple, complete_K, jacobi
from .immersion import (
    ChartError,
    GeometryReport,
    GridSample,
    LiftSample,
    RegimeError,
    lift_at,
    phase_integrals,
    project_chart,
    sample_grid,
    verify_geometry,
)
from .iwasawa import (
    SingularLocusError,
    beta_integrals,
    extended_frame,
    iwasawa_frame,
    omega_matrix,
    q_factor,
)
from .metric import MetricSample, first_integral_residual, gauss_residual, metric_at
from .periodicity import (
    PeriodVerdict,
    RationalCertificate,
    classify_cylinder,
    classify_torus,
    monodromy_phases,
    rational_approx,
)
from .potential import (
    DerivedConstants,
    EigenSystem,
    FlatCliffordError,
    HyperplaneDegenerateError,
    SurfaceClass,
    SurfaceClassError,
    SurfaceParams,
    TotallyGeodesicError,
    classify,
    derive_constants,
    eigensystem,
    potential_matrix,
    regime_of,
)

__version__ = "0.1.0"

__all__ = [
    "JacobiTriple", "complete_K", "jacobi",
    "SurfaceParams", "DerivedConstants", "EigenSystem", "SurfaceClass",
    "SurfaceClassError", "TotallyGeodesicError", "FlatCliffordError",
    "HyperplaneDegenerateError", "classify", "derive_constants",
    "potential_matrix", "eigensystem",
    "MetricSample", "metric_at", "first_integral_residual", "gauss_residual",
    "SingularLocusError", "omega_matrix",
    "q_factor", "beta_integrals", "extended_frame", "iwasawa_frame",
    "RegimeError", "ChartError", "LiftSample", "GridSample", "GeometryReport",
    "regime_of", "lift_at",
    "phase_integrals", "project_chart", "sample_grid", "verify_geometry",
    "RationalCertificate", "PeriodVerdict",
    "rational_approx", "monodromy_phases", "classify_cylinder", "classify_torus",
    "__version__",
]
