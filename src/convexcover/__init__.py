"""Separated families, cover schedules, and epigraph geometry for
bounded convex functions on axis-aligned boxes.

The package splits into six layers:

  core        errors, boxes, JSON helpers, the exact packing counts, and
              interval systems with their exact cap checks; plain Python,
              no numpy
  functions   convex function forms, evaluation, serialization
  metrics     Lp / sup / epigraph-Hausdorff distances and direction sets
  packing     the caps as function forms, and well-separated families
              from interval systems and binary codes
  schedule    log-space refinement schedules, cover-count accounting and
              the assembled bounds; no numpy
  verify      inequality checks and closed forms

The names below are loaded on first use (PEP 562), so importing the
package, core or schedule does not import numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys([
        "CapPropertyReport", "DomainError", "IntervalSystem",
        "LipschitzVector", "ParameterError", "Rect", "SeparationPoint",
        "build_interval_system", "code_min_distance", "code_target",
        "interval_count", "max_eta", "separation_curve", "separation_point",
        "separation_scale", "unit_rect", "verify_cap_properties"], "core"),
    **dict.fromkeys([
        "Affine", "ConvexFunction", "MaxAffine", "MaxWith",
        "SeparableQuadratic", "make_random_convex", "ramp",
        "rescale_to_unit", "tensor_points"], "functions"),
    **dict.fromkeys([
        "DistanceReport", "GridSpec", "direction_covering_radius",
        "direction_set", "hausdorff_epigraph", "lp_distance",
        "quadrature_grid", "sup_grid_distance", "vertex_grid"], "metrics"),
    **dict.fromkeys([
        "CodeSearchResult", "PackingCertificate", "PackingFamily",
        "build_packing_family", "cell_gap", "greedy_binary_code",
        "packing_certificate", "perturbed_function"], "packing"),
    **dict.fromkeys([
        "CoverAccounting", "EntropyBounds", "Schedule", "ScheduleChecks",
        "build_schedule", "cover_accounting", "entropy_bounds",
        "log_radius_closed_form", "schedule_checks"], "schedule"),
    **dict.fromkeys([
        "LemmaReport", "ScalingIdentityReport", "check_l1_bound",
        "check_sup_bound", "gradient_mass", "hinge_family",
        "hinge_hausdorff_closed_form", "hinge_lp_closed_form",
        "scaling_identity_report", "slice_gradient_mass"], "verify"),
}

__all__ = list(_HOMES)


def __getattr__(name):
    # read from the home module on every access, so the package never
    # holds a binding of its own that could go stale
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
