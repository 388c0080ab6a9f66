"""Separated families, cover schedules, and epigraph geometry for
bounded convex functions on axis-aligned boxes.

The package splits into five layers:

  functions   convex function forms, evaluation, serialization
  metrics     Lp / sup / epigraph-Hausdorff distances and direction sets
  packing     well-separated families from interval systems and binary codes
  schedule    log-space refinement schedules and cover-count accounting
  verify      inequality checks, closed forms, and the assembled bounds
"""

from .functions import (
    Affine,
    ConvexFunction,
    DomainError,
    Hinge,
    LipschitzVector,
    MaxAffine,
    MaxWith,
    ParameterError,
    Rect,
    Rescaled,
    SeparableQuadratic,
    make_random_convex,
    rescale_to_unit,
    tensor_points,
    unit_rect,
)
from .metrics import (
    DistanceReport,
    GridSpec,
    direction_covering_radius,
    direction_set,
    hausdorff_epigraph,
    lp_distance,
    quadrature_grid,
    sup_grid_distance,
    vertex_grid,
)
from .packing import (
    CapPropertyReport,
    CodeSearchResult,
    IntervalSystem,
    PackingCertificate,
    PackingFamily,
    SeparationPoint,
    build_interval_system,
    build_packing_family,
    cap_function,
    cell_gap,
    cell_gap_quadrature,
    code_min_distance,
    code_target,
    greedy_binary_code,
    interval_count,
    max_eta,
    packing_certificate,
    perturbed_function,
    separation_curve,
    separation_point,
    separation_scale,
    verify_cap_properties,
)
from .schedule import (
    CoverAccounting,
    Schedule,
    ScheduleChecks,
    build_schedule,
    cover_accounting,
    log_radius_closed_form,
    schedule_checks,
)
from .verify import (
    EntropyBounds,
    LemmaReport,
    ScalingIdentityReport,
    check_l1_bound,
    check_sup_bound,
    entropy_bounds,
    gradient_mass,
    hinge_family,
    hinge_hausdorff_closed_form,
    hinge_lp_closed_form,
    scaling_identity_report,
    slice_gradient_mass,
)

__version__ = "0.1.0"

__all__ = [
    "Affine", "ConvexFunction", "DomainError", "Hinge", "LipschitzVector",
    "MaxAffine", "MaxWith", "ParameterError", "Rect", "Rescaled",
    "SeparableQuadratic", "make_random_convex", "rescale_to_unit",
    "tensor_points", "unit_rect",
    "DistanceReport", "GridSpec", "direction_covering_radius",
    "direction_set", "hausdorff_epigraph", "lp_distance", "quadrature_grid",
    "sup_grid_distance", "vertex_grid",
    "CapPropertyReport", "CodeSearchResult", "IntervalSystem",
    "PackingCertificate", "PackingFamily", "SeparationPoint",
    "build_interval_system", "build_packing_family", "cap_function",
    "cell_gap", "cell_gap_quadrature", "code_min_distance", "code_target",
    "greedy_binary_code", "interval_count", "max_eta", "packing_certificate",
    "perturbed_function", "separation_curve", "separation_point",
    "separation_scale", "verify_cap_properties",
    "CoverAccounting", "Schedule", "ScheduleChecks", "build_schedule",
    "cover_accounting", "log_radius_closed_form", "schedule_checks",
    "EntropyBounds", "LemmaReport", "ScalingIdentityReport", "check_l1_bound",
    "check_sup_bound", "entropy_bounds", "gradient_mass", "hinge_family",
    "hinge_hausdorff_closed_form", "hinge_lp_closed_form",
    "scaling_identity_report", "slice_gradient_mass",
]
