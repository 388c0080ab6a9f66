"""Numerical verification of the inequalities tying the pieces together.

Three families of checks live here. First, comparisons between function
distances and the Hausdorff distance of their epigraph slabs: the sup
distance of two functions with per-axis slope budgets G is at most
sqrt(1 + sum G_j^2) times the slab Hausdorff distance, and for functions
bounded by 1 the L1 distance is at most (1 + 20 d) times it. Second,
facts those comparisons lean on: the integral of the slope magnitude
over the ((rho, 1-rho)) inner box is at most 8 d, and each
one-dimensional slice integrates to at most 4. Third, closed forms
for ramp functions and the normalization identity for rescaled pairs.

Every estimator involved converges from below, so each check carries a
tolerance assembled from the estimators' own refinement gaps and can
refine itself a bounded number of times before reporting failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LipschitzVector, ParameterError, Rect, _report_json, unit_rect
from .functions import ConvexFunction, Hinge, rescale_to_unit
from .metrics import (
    GridSpec,
    _require_common_domain,
    _vertex_values,
    direction_covering_radius,
    hausdorff_epigraph,
    lp_distance,
    quadrature_grid,
    sup_grid_distance,
)
# entropy_bounds is bound here for callers that look it up as
# verify.entropy_bounds, as the benchmark's tracer does
from .schedule import entropy_bounds

# Height at which both checks cut the epigraphs into slabs: the sup check
# needs it above both functions, the L1 check |f|, |g| at most it.
SLAB_CEILING = 1.0


@dataclass(frozen=True)
class LemmaReport:
    """One verified inequality: lhs <= rhs within tolerance.

    slack is rhs + tolerance - lhs (nonnegative when ok); refinements
    counts how many times the estimators were refined before settling.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    slack: float
    refinements: int
    ok: bool

    def to_json(self) -> dict:
        return _report_json(self)


def _grid_max(f: ConvexFunction, n: int = 33) -> float:
    return float(_vertex_values(f, n).max())


def _grid_abs_max(f: ConvexFunction, n: int = 33) -> float:
    return float(np.abs(_vertex_values(f, n)).max())


def _combined_budget(f: ConvexFunction, g: ConvexFunction) -> LipschitzVector:
    gf, gg = f.lipschitz_budget().gamma, g.lipschitz_budget().gamma
    return LipschitzVector(tuple(max(a, b) for a, b in zip(gf, gg)))


def _hausdorff_bias(f: ConvexFunction, g: ConvexFunction,
                    n_directions: int) -> float:
    """Bound on how far the sampled Hausdorff estimate sits below the truth.

    The support gap of two slabs inside a ball of radius R is 2R-Lipschitz
    along the sphere, so its sampled maximum misses the true one by at
    most 2R times the covering radius of the direction set.
    """
    dom = f.domain
    spat = sum(max(a * a, b * b) for a, b in zip(dom.lo, dom.hi))
    height = max(SLAB_CEILING, _grid_abs_max(f), _grid_abs_max(g))
    radius = math.sqrt(spat + height * height)
    return 2.0 * radius * direction_covering_radius(dom.dim + 1, n_directions)


def _refine_until_ok(name, distance, f, g, factor, n_directions,
                     grid) -> LemmaReport:
    """distance(grid) <= factor * slab Hausdorff distance, refined on failure.

    Both sides converge from below, so the tolerance carries their
    refinement gaps plus the Hausdorff side's direction-sampling bias, on
    top of an absolute 1e-9. A failing check is refined at most twice,
    doubling the directions and the grid each time.
    """
    refinements = 0
    while True:
        lhs = distance(grid)
        ell = hausdorff_epigraph(f, g, n_directions, grid)
        if math.isinf(factor):
            rhs, tol = math.inf, math.inf
        else:
            rhs = factor * ell.value
            bias = _hausdorff_bias(f, g, n_directions)
            tol = 1e-9 + lhs.error_estimate \
                + factor * (ell.error_estimate + bias)
        ok = lhs.value <= rhs + tol
        if ok or refinements >= 2:
            return LemmaReport(name, lhs.value, rhs, tol,
                               rhs + tol - lhs.value, refinements, ok)
        refinements += 1
        n_directions *= 2
        grid = grid.refined()


def check_sup_bound(f: ConvexFunction, g: ConvexFunction,
                    n_directions: int = 2000,
                    grid: GridSpec = GridSpec(201)) -> LemmaReport:
    """sup |f - g| <= sqrt(1 + sum gamma_j^2) * slab Hausdorff distance.

    SLAB_CEILING must dominate both functions (the slabs are cut at it);
    gamma_j is the larger of the two forms' own Lipschitz budgets on axis j.
    """
    _require_common_domain(f, g)
    if SLAB_CEILING < max(_grid_max(f), _grid_max(g)):
        raise ParameterError("the slab ceiling must dominate both functions")
    factor = math.sqrt(1.0 + _combined_budget(f, g).sum_squares())
    return _refine_until_ok("sup_vs_hausdorff",
                            lambda grid: sup_grid_distance(f, g, grid),
                            f, g, factor, n_directions, grid)


def check_l1_bound(f: ConvexFunction, g: ConvexFunction,
                   n_directions: int = 2000,
                   grid: GridSpec = GridSpec(201)) -> LemmaReport:
    """L1 distance <= (1 + 20 d) * slab Hausdorff distance, for |f|,|g| <= 1.

    The constant is calibrated to functions bounded by SLAB_CEILING on
    their box; normalize first when needed.
    """
    _require_common_domain(f, g)
    if max(_grid_abs_max(f), _grid_abs_max(g)) > SLAB_CEILING + 1e-12:
        raise ParameterError("functions must be bounded by 1; normalize first")
    factor = 1.0 + 20.0 * f.domain.dim
    return _refine_until_ok("l1_vs_hausdorff",
                            lambda grid: lp_distance(f, g, 1.0, grid),
                            f, g, factor, n_directions, grid)


def gradient_mass(f: ConvexFunction, rho: float,
                  grid: GridSpec = GridSpec(101)) -> float:
    """Integral of the l1 slope magnitude over the rho-inner box.

    For a function bounded by 1 this is at most 8 d; each coordinate
    direction contributes at most 4 through its one-dimensional slices.
    """
    if not 0.0 < rho < 0.5:
        raise ParameterError("need 0 < rho < 0.5")
    w = f.domain.widths
    inner = Rect(tuple(lo + rho * wi for lo, wi in zip(f.domain.lo, w)),
                 tuple(hi - rho * wi for hi, wi in zip(f.domain.hi, w)))
    pts, wts = quadrature_grid(inner, grid)
    return float(wts @ np.abs(f.subgradients(pts)).sum(axis=1))


def slice_gradient_mass(f: ConvexFunction, axis: int, anchor,
                        rho: float, n: int = 1001) -> float:
    """Integral of |slope along one axis| over a rho-trimmed line segment.

    The anchor fixes the other coordinates; it must be strictly interior
    on them. At most 4 for a function bounded by 1.
    """
    if not 0.0 < rho < 0.5:
        raise ParameterError("need 0 < rho < 0.5")
    d = f.domain.dim
    if not 0 <= axis < d:
        raise ParameterError("axis out of range")
    anchor = np.asarray(anchor, dtype=float)
    if anchor.shape != (d,):
        raise ParameterError(f"anchor must have shape ({d},)")
    lo, hi = f.domain.lo[axis], f.domain.hi[axis]
    width = hi - lo
    a, b = lo + rho * width, hi - rho * width
    h = (b - a) / n
    ts = a + (np.arange(n) + 0.5) * h
    pts = np.broadcast_to(anchor, (n, d)).copy()
    pts[:, axis] = ts
    return float(h * np.abs(f.subgradients(pts)[:, axis]).sum())


# -- ramp closed forms -----------------------------------------------------


def hinge_lp_closed_form(alpha: float, p: float) -> float:
    """Lp norm of the ramp max(0, 1 - x/alpha) on [0, 1]: (alpha/(p+1))^(1/p)."""
    if not 0.0 < alpha <= 1.0:
        raise ParameterError("closed form needs 0 < alpha <= 1")
    if not p >= 1.0:
        raise ParameterError("need p >= 1")
    return (alpha / (p + 1.0)) ** (1.0 / p)


def hinge_hausdorff_closed_form(alpha: float) -> float:
    """Slab Hausdorff distance between the ramp and 0: alpha / sqrt(1 + alpha^2).

    The slabs (ceiling 1, domain [0, 1]) differ by the triangle under the
    ramp, and the farthest point of the larger slab is the origin, at
    exactly this distance from the ramp's hypotenuse.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError("closed form needs 0 < alpha <= 1")
    return alpha / math.sqrt(1.0 + alpha * alpha)


def hinge_family(count: int) -> tuple[Hinge, ...]:
    """Ramps with alpha = 2^-1, ..., 2^-count on [0, 1].

    Any two members are at sup distance >= 1/2: at x = 2^-k the steeper
    ramp has dropped to 0 while the flatter one still reads 1 - 2^(j-k),
    and both values are exact dyadic floats. The family shows that no
    finite sup-distance cover exists for ramps of unbounded slope.
    """
    if not 1 <= count <= 50:
        raise ParameterError("count must be in 1..50")
    dom = unit_rect(1)
    return tuple(Hinge(dom, 2.0**-j) for j in range(1, count + 1))


# -- normalization identity ------------------------------------------------


@dataclass(frozen=True)
class ScalingIdentityReport:
    """Both sides of the normalization identity at matching resolution.

    lhs is the Lp distance of the normalized pair on the unit cube; rhs
    is the raw distance times side^(-d/p) / bound. The two quadratures
    use affinely matching nodes, so difference is float noise plus the
    identity itself.
    """

    p: float
    bound: float
    side: float
    lhs: float
    rhs: float
    difference: float


def scaling_identity_report(f: ConvexFunction, g: ConvexFunction, p: float,
                            bound: float,
                            grid: GridSpec = GridSpec(101)) -> ScalingIdentityReport:
    _require_common_domain(f, g)
    if not f.domain.is_cube():
        raise ParameterError("the identity needs a cube domain")
    if not bound > 0:
        raise ParameterError("bound must be positive")
    d = f.domain.dim
    side = f.domain.widths[0]
    lhs = lp_distance(rescale_to_unit(f, bound), rescale_to_unit(g, bound),
                      p, grid).value
    raw = lp_distance(f, g, p, grid).value
    rhs = raw * side ** (-d / p) / bound
    return ScalingIdentityReport(p, bound, side, lhs, rhs, abs(lhs - rhs))
