"""Periodic billiard trajectories in an ellipse on the Minkowski plane.

The package connects three descriptions of the same closure phenomenon:

* **dynamics** -- geometric simulation of the billiard map and of its
  reflective (elliptic-periodic) closures;
* **cayley** -- Hankel-determinant conditions on the Taylor coefficients of
  ``sqrt(eps (a - x)(b + x)(gamma - x))`` deciding closure symbolically;
* **extremal** -- polynomial Pell-equation certificates, whose solutions
  equioscillate like Chebyshev/Zolotarev/Akhiezer least-deviation
  polynomials.

Caustic parameters come out of :mod:`pellipse.caustics` as exact roots of
closure polynomials in the squared semi-axes, and every value is
cross-validated along at least two of the three routes.
"""

from .caustics import (
    DISCRIMINANT_IDENTITIES,
    CausticResult,
    closed_form_caustics,
    discriminant_identity_check,
    elliptic_caustics,
    generic_caustic_scan,
    periodic_caustics,
)
from .cayley import (
    EllipticVerdict,
    PeriodicityVerdict,
    TruncatedSeries,
    case_symmetry,
    cubic_sqrt_series,
    divided_series,
    elliptic_case_test,
    hankel_test,
    is_periodic,
)
from .dynamics import (
    ClosureStatus,
    Trajectory,
    closure_status,
    first_closure,
    next_boundary_hit,
    partition_counts,
    reflect,
    simulate,
    start_on_caustic,
)
from .errors import (
    CausticDrift,
    CertificateInvalid,
    DegenerateChord,
    DomainError,
    InsufficientOrder,
    NoCertificate,
    PellipseError,
    ReflectionUndefined,
)
from .extremal import (
    PellCertificate,
    PellPair,
    ZolotarevReport,
    akhiezer_p4,
    chebyshev,
    complete_K,
    elliptic_pell_check,
    jacobi_elliptic,
    kln_partition,
    lightlike_pell_check,
    lightlike_periodic,
    pell_construct,
    pell_lift,
    zolotarev3_consistency,
)
from .geometry import (
    ALL_CONICS,
    ArcClass,
    BoundaryEllipse,
    ConicClass,
    EllipticCoords,
    LineImplicit,
    MVec2,
    VectorType,
    boundary_arc_class,
    caustic_of_line,
    classify_conic,
    elliptic_coordinates,
    line_through,
    minkowski_dot,
    tangent_line_at,
    vector_type,
)
from .svgfig import render_trajectory_svg

__version__ = "0.1.0"

__all__ = [
    "ALL_CONICS",
    "ArcClass",
    "BoundaryEllipse",
    "CausticDrift",
    "CausticResult",
    "CertificateInvalid",
    "ClosureStatus",
    "ConicClass",
    "DISCRIMINANT_IDENTITIES",
    "DegenerateChord",
    "DomainError",
    "EllipticCoords",
    "EllipticVerdict",
    "InsufficientOrder",
    "LineImplicit",
    "MVec2",
    "NoCertificate",
    "PellCertificate",
    "PellPair",
    "PellipseError",
    "PeriodicityVerdict",
    "ReflectionUndefined",
    "Trajectory",
    "TruncatedSeries",
    "VectorType",
    "ZolotarevReport",
    "akhiezer_p4",
    "boundary_arc_class",
    "case_symmetry",
    "caustic_of_line",
    "chebyshev",
    "classify_conic",
    "closed_form_caustics",
    "closure_status",
    "first_closure",
    "complete_K",
    "cubic_sqrt_series",
    "discriminant_identity_check",
    "divided_series",
    "elliptic_case_test",
    "elliptic_caustics",
    "elliptic_coordinates",
    "elliptic_pell_check",
    "generic_caustic_scan",
    "hankel_test",
    "is_periodic",
    "jacobi_elliptic",
    "kln_partition",
    "lightlike_pell_check",
    "lightlike_periodic",
    "line_through",
    "minkowski_dot",
    "next_boundary_hit",
    "partition_counts",
    "pell_construct",
    "pell_lift",
    "periodic_caustics",
    "reflect",
    "render_trajectory_svg",
    "simulate",
    "start_on_caustic",
    "tangent_line_at",
    "vector_type",
    "zolotarev3_consistency",
]
