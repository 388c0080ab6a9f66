"""Geometric refinement schedules, kept entirely in log space.

A schedule at sharpness p >= 1 and target level eta < 1 is the finite
chain of levels

    log delta_m = p * ((p+1)/(p+2))^(m-1) * log eta,   m = 1, 2, ...

which climbs toward an edge u with log u = -2 (p+1)^2 (p+2) log 2. The
depth A is the last index with delta_A < u. Each step m <= A carries a
weight alpha_m with delta_m * alpha_m^(p+1) = eta^(p+1) and a radius

    zeta_m = sqrt(eta * delta_{m+1} / (delta_m * alpha_m)),

whose closed form is log zeta_m = p / (2 (p+1)^2) * ((p+1)/(p+2))^m *
log eta. Radii at least double at each step, their squares sum below
4/3, and the weighted level increments sum below (7/3) eta^p; these are
the facts schedule_checks certifies numerically. cover_accounting turns
a schedule into the log of a covering-count bound.

Levels like eta = 2^-200 underflow as plain floats, so every quantity
here is a log; exponentiate only at the boundary and accept 0 or inf.

Schedule and the three reports are NamedTuples, like core's records, so
the CLI's schedule and bounds paths never import dataclasses (see core).

entropy_bounds assembles the headline quantities: upper and lower
bounds, in log form, on how many functions are needed to cover (or can
be packed into) the bounded convex functions on a cube at a given
distance. It needs only this module and core's exact packing counts.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    MAX_DIM,
    LipschitzVector,
    ParameterError,
    Rect,
    _report_json,
    separation_point,
    separation_scale,
)

LOG2 = math.log(2.0)

# Deepest schedule built. The depth grows like (p + 2) times the log of
# p log eta / log u, so a huge p climbs for ever (at p past about 1e16 the
# ratio (p+1)/(p+2) rounds to 1 and every level is the same). Tests and
# bounds stay below 20; a CLI run at this depth takes well under a second.
MAX_SCHEDULE_DEPTH = 10_000


def _log_add(a: float, b: float) -> float:
    # log(e^a + e^b) without overflow
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log1m_exp(x: float) -> float:
    # log(1 - e^x) for x < 0; expm1 takes over where e^x rounds to 1
    e = math.exp(x)
    return math.log1p(-e) if e < 1.0 else math.log(-math.expm1(x))


def _exp_sum(logs) -> float:
    # sum of e^v, inf once a term passes the float range
    try:
        return sum(math.exp(v) for v in logs)
    except OverflowError:
        return math.inf


def _log_edge(p: float) -> float:
    # log u = -2 (p+1)^2 (p+2) log 2
    return -2.0 * (p + 1.0) ** 2 * (p + 2.0) * LOG2


def _check_p(p: float) -> float:
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError("need finite p >= 1")
    try:  # -inf from p ~ 4.48e102 on; the square raises from ~ 1.34e154
        if math.isfinite(_log_edge(p)):
            return p
    except OverflowError:
        pass
    raise ParameterError(
        "p too large: the edge's log -2 (p+1)^2 (p+2) log 2 overflows")


class Schedule(NamedTuple):
    """Levels, weights, and radii of one refinement chain.

    log_levels holds log delta_1 .. log delta_{A+1} (the last one is past
    the edge), log_weights and log_radii hold entries for m = 1 .. A.
    log_radii is computed from the defining square root; the closed form
    is available separately for cross-checks.
    """

    p: float
    log_eta: float
    depth: int
    log_edge: float
    log_levels: tuple[float, ...]
    log_weights: tuple[float, ...]
    log_radii: tuple[float, ...]

    def to_json(self) -> dict:
        return _report_json(self)


def log_radius_closed_form(p: float, log_eta: float, m: int) -> float:
    """log zeta_m = p / (2 (p+1)^2) * ((p+1)/(p+2))^m * log eta."""
    p = _check_p(p)
    r = (p + 1.0) / (p + 2.0)
    return p / (2.0 * (p + 1.0) ** 2) * r**m * float(log_eta)


def build_schedule(p: float, log_eta: float) -> Schedule:
    """Chain levels until one clears the edge.

    Raises when no level sits below the edge (eta too large for this p),
    when level m lands within (4m + 16) u |log u| of the edge, where the
    depth would be decided by rounding rather than by the parameters, or
    when the depth would pass MAX_SCHEDULE_DEPTH.

    With u = 2^-53 and the floats p and L = log_eta taken as exact, the
    guard bounds the rounding of both sides of the comparison, relative
    to the exact values. The float r is within 3u of (p+1)/(p+2) (two
    sums and a quotient), so r^(m-1) is within 3(m-1)u of the exact
    power before pow rounds, and pow adds at most one ulp, 2u; the
    products by p and L add 2u. Level m is thus within (3m + 1)u of
    p ((p+1)/(p+2))^(m-1) L. The edge -2 (p+1)^2 (p+2) log 2 takes a
    sum, a square (a pow, 2u), a sum, two products and the rounded log 2,
    so it is within 8u. Where the guard applies, the level is within a
    relative 5e-12 of the edge (at the depth cap), so their float
    difference is exact and within (3m + 9)u |edge| of the exact one. A
    level outside the guard lies on the same side of the exact edge as
    of the float one; the margin m + 7 covers the second-order terms,
    below (3mu)^2. A fixed guard would be below one ulp of the edge from
    p of about 300 on, and refuse only exact ties there. An exact tie,
    such as the second level at p = 1 and log2 eta = -36, is always
    refused.
    """
    p = _check_p(p)
    log_eta = float(log_eta)
    if not (math.isfinite(log_eta) and log_eta < 0.0):
        raise ParameterError("need finite log_eta < 0")
    edge = _log_edge(p)
    r = (p + 1.0) / (p + 2.0)
    u = 2.0**-53

    levels = []
    while True:
        m = len(levels) + 1
        ld = p * r ** (m - 1) * log_eta
        if abs(ld - edge) <= (4 * m + 16) * u * abs(edge):
            raise ParameterError(
                "level indistinguishable from the edge; perturb eta")
        levels.append(ld)
        if ld >= edge:
            break
        if m > MAX_SCHEDULE_DEPTH:
            raise ParameterError(
                f"schedule deeper than {MAX_SCHEDULE_DEPTH} levels: p={p:g} "
                f"climbs too slowly from log_eta={log_eta:g} to the edge")
    depth = len(levels) - 1
    if depth == 0:
        raise ParameterError(
            f"eta too large: need p * log_eta < {edge}")

    levels = tuple(levels)
    weights = tuple(log_eta * (1.0 - (p / (p + 1.0)) * r ** (m - 1))
                    for m in range(1, depth + 1))
    radii = tuple(0.5 * (log_eta + levels[m] - levels[m - 1] - weights[m - 1])
                  for m in range(1, depth + 1))
    return Schedule(p, log_eta, depth, edge, levels, weights, radii)


class ScheduleChecks(NamedTuple):
    """Numerical certificate of the schedule's defining inequalities.

    dim_sums holds (d, sum of zeta^d, bound 2^d/(2^d - 1), ok) rows.
    """

    chain_ok: bool
    edge_ok: bool
    weights_monotone: bool
    identity_residual: float
    identity_ok: bool
    min_log_ratio: float
    ratio_ok: bool
    closed_form_gap: float
    closed_form_ok: bool
    log_s1: float
    log_s1_bound: float
    s1_ok: bool
    zeta_square_sum: float
    zeta_square_ok: bool
    dim_sums: tuple[tuple[int, float, float, bool], ...]
    ok: bool

    def to_json(self) -> dict:
        return _report_json(self)


def schedule_checks(sched: Schedule,
                    dims: tuple[int, ...] = (1, 2, 3)) -> ScheduleChecks:
    """Every inequality the construction relies on, checked at once.

    chain: levels strictly increase, the last crosses the edge and the
        one before stays below it.
    identity: delta_m * alpha_m^(p+1) = eta^(p+1) in log space, within tol.
    ratio: consecutive radii at least double, within ratio_slack.
    closed form: defining radii match log_radius_closed_form within tol.
    s1: delta_1 + sum alpha_m^p (delta_{m+1} - delta_m) <= (7/3) eta^p,
        within s1_slack; summed only over an increasing chain, and false
        (log_s1 inf) on any other.
    squares: sum zeta_m^2 <= 4/3; powers: sum zeta_m^d <= 2^d/(2^d-1) for
        each d in dims, which must lie in 1..MAX_DIM. A sum whose term passes
        the float range is inf, and its check false.

    tol = (A + 32) u |(p+1) log_eta|, with depth A and u = 2^-53, bounds
    the rounding of both residuals, which are 0 in exact arithmetic; a
    fixed tolerance would fail valid deep schedules, whose terms grow
    with |log_eta|. Let L = log_eta, B = (p+1)|L| and R_k = fl(r^k) for
    the float r, taken within relative error k u of r^k (any pow no worse
    than k - 1 multiplications). The three terms of one identity residual
    share R_k: the level p R_k L is within 2uB; 1 - p/(p+1) R_k is within
    4u absolutely, so (p+1) times the weight L (1 - p/(p+1) R_k) is
    within 7uB; the target is within 2uB, and the two sums add uB, so
    the residual is at most 12uB. A radius is
    0.5 (L + lv_{m+1} - lv_m - wt_m); with the R_k taken exactly it is
    p L (R_m - p/(p+1) R_{m-1}) / 2, and the closed form
    p L R_m / (2 (p+1)^2) differs from it by p^2 L R_{m-1} / (2 (p+1))
    times R_m (p+2) / ((p+1) R_{m-1}) - 1, which is at most (m + 1) uB
    (the relative errors of R_m, R_{m-1} and r). Its terms and sums
    add at most 8uB of rounding, so the gap is at most
    (m + 9) uB <= (A + 32) uB. The margin covers the second-order terms
    dropped here.

    The ratio and s1 checks compare quantities that are not 0 in exact
    arithmetic, so their slacks bound rounding at the scale of what is
    compared. Write E = |log u| for the edge. A radius
    0.5 (L + lv_{m+1} - lv_m - wt_m) cancels L against the weight, so its
    error is absolute: the weight's is at most 2u|L| + (m+2)u|lv_m|/(p+1),
    the levels' (m+3)u|lv_m|, and the three sums add u(3|L| + 2|lv_m|).
    Two neighbouring radii thus differ by their exact difference within
    5u|L| + 3(m+3)u|lv_{m-1}|. The exact difference is t log 2 with
    t = lv_m / log u >= 1, and |lv_{m-1}| = t E / r <= 1.5 t E; at the
    last pair t <= 1/r, so ratio_slack = 8u(|L| + (A+2)E) covers it, and
    a pair with larger t gains more margin than error while the slack is
    below log 2. The slack reaches log 2 / 2 at |L| = 3.9e14 for a
    shallow edge, or where (A+2)E passes 3.9e14 (p past about 3000 at
    the depth cap); past that the check cannot fail.
    log_s1 and its bound both start from the float p L. The bound adds
    log(7/3) with one rounding. The term after level m is at most the
    first term times exp(-|lv_m| / ((p+1)(p+2))) <= 4^-(p+1+k), with
    k = A-1-m, because |lv_m| >= E r^-k. A log-add of an increment below
    half an ulp leaves log_s1 unchanged, which only lowers it; a larger
    one needs 4^-(p+1+k) >= 2^-51 (|pL| >= 8), so at most 24 adds round
    up, each by at most u|pL|. A term's own error, at most (3m+11)u|pL|, enters
    scaled by its weight, in all at most (A+4) 4^-p u|pL|. Hence
    s1_slack = (26 + (A+4) 4^-p) u|pL|, against a margin near log(7/3)
    (the first term carries all but 4^-(p+1)/0.75 of s1); it reaches
    log(7/3) / 2 at |pL| = 1.5e14.
    """
    if not all(1 <= d <= MAX_DIM for d in dims):
        raise ParameterError(f"dims must be in 1..{MAX_DIM}")
    p = sched.p
    a = sched.depth
    lv, wt, rd = sched.log_levels, sched.log_weights, sched.log_radii

    chain_ok = all(lv[i] < lv[i + 1] for i in range(a))
    edge_ok = lv[a - 1] < sched.log_edge <= lv[a]
    weights_monotone = all(wt[i + 1] < wt[i] for i in range(a - 1))

    target = (p + 1.0) * sched.log_eta
    identity_residual = max(abs(lv[m] + (p + 1.0) * wt[m] - target)
                            for m in range(a))
    u = 2.0**-53
    tol = (a + 32) * u * abs(target)
    identity_ok = identity_residual <= tol

    if a >= 2:
        min_log_ratio = min(rd[m] - rd[m - 1] for m in range(1, a))
    else:
        min_log_ratio = math.inf
    ratio_slack = 8 * u * (abs(sched.log_eta)
                           + (a + 2) * abs(sched.log_edge))
    ratio_ok = min_log_ratio >= LOG2 - ratio_slack

    closed_form_gap = max(
        abs(rd[m - 1] - log_radius_closed_form(p, sched.log_eta, m))
        for m in range(1, a + 1))
    closed_form_ok = closed_form_gap <= tol

    # the increments delta_{m+1} - delta_m have logs only on an increasing
    # chain; a broken one gets log_s1 = inf, so s1 fails with the chain
    log_s1 = lv[0] if chain_ok else math.inf
    for m in range(a if chain_ok else 0):
        log_inc = lv[m + 1] + _log1m_exp(lv[m] - lv[m + 1])
        log_s1 = _log_add(log_s1, p * wt[m] + log_inc)
    log_s1_bound = math.log(7.0 / 3.0) + p * sched.log_eta
    s1_slack = (26 + (a + 4) * 4.0**-p) * u * abs(p * sched.log_eta)
    s1_ok = log_s1 <= log_s1_bound + s1_slack

    zeta_square_sum = _exp_sum(2.0 * v for v in rd)
    zeta_square_ok = zeta_square_sum <= 4.0 / 3.0

    dim_rows = []
    for d in dims:
        s = _exp_sum(d * v for v in rd)
        b = 2.0**d / (2.0**d - 1.0)
        dim_rows.append((d, s, b, s <= b))

    ok = (chain_ok and edge_ok and weights_monotone and identity_ok
          and ratio_ok and closed_form_ok and s1_ok and zeta_square_ok
          and all(row[3] for row in dim_rows))
    return ScheduleChecks(chain_ok, edge_ok, weights_monotone,
                          identity_residual, identity_ok, min_log_ratio,
                          ratio_ok, closed_form_gap, closed_form_ok,
                          log_s1, log_s1_bound, s1_ok,
                          zeta_square_sum, zeta_square_ok,
                          tuple(dim_rows), ok)


class CoverAccounting(NamedTuple):
    """Cover radius and cover-count bound implied by a schedule.

    entropy_bound caps the log of the covering count up to an unspecified
    absolute factor: with u the edge level and G the sum of per-axis slope
    budgets,

        log N <~ (2^(d+1)/(2^d - 1) + (2/u)^(d/2)) * ((G + 2) / eta)^(d/2).

    The caller applies that factor, not the library. Extreme parameters
    push the right-hand side past float range, so log_entropy_bound keeps
    its log alongside (entropy_bound is then inf). The cover radius is
    (17/3)^(1/p) * eta. scale is fixed at 1.0; cover_accounting.json
    keeps the field until the next declared schema change (ROADMAP item 1)
    removes it.
    """

    dim: int
    gamma_sum: float
    scale: float
    log_coverage_radius: float
    coverage_radius: float
    log_entropy_bound: float
    entropy_bound: float

    def to_json(self) -> dict:
        return _report_json(self)


def cover_accounting(sched: Schedule, d: int,
                     gamma_sum: float = 0.0) -> CoverAccounting:
    """Cover radius and the bound on the log covering count for dimension d."""
    if sched.depth < 1:
        raise ParameterError("schedule has no levels below the edge")
    if not 1 <= d <= MAX_DIM:
        raise ParameterError(f"dimension must be in 1..{MAX_DIM}")
    if not (gamma_sum >= 0.0):
        raise ParameterError("gamma_sum must be nonnegative (inf allowed)")

    log_cover = math.log(17.0 / 3.0) / sched.p + sched.log_eta
    if math.isinf(gamma_sum):
        log_bound = math.inf
    else:
        half_d = 0.5 * d
        log_coef = _log_add((d + 1.0) * LOG2 - math.log(2.0**d - 1.0),
                            half_d * (LOG2 - sched.log_edge))
        log_bound = log_coef + half_d * (math.log(gamma_sum + 2.0)
                                         - sched.log_eta)
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        bound = math.inf
    return CoverAccounting(d, float(gamma_sum), 1.0, log_cover,
                           math.exp(log_cover), log_bound, bound)


# -- headline bounds -------------------------------------------------------


class EntropyBounds(NamedTuple):
    """Bounds on the log cover and packing counts at one distance eps.

    Every field is a bound on a log count, so the three are directly
    comparable. log_upper caps the log cover count of the bound-B convex
    functions on the cube in Lp (None when eps is too large for the
    schedule to start; inf when the cap exceeds float range, in which
    case cover_accounting still has its log). log_lower is the log size
    of the constructed packing (None when the required level is
    inadmissible). log_lipschitz_upper caps the sup-distance cover count
    of the slope-budgeted subclass (None when no budgets are given; inf
    when a budget is infinite). The paper states these bounds up to an
    unspecified absolute factor; the caller applies it, not the library.
    """

    eps: float
    p: float
    dim: int
    log_upper: float | None
    log_lower: float | None
    log_lipschitz_upper: float | None

    def to_json(self) -> dict:
        return _report_json(self)


def entropy_bounds(eps: float, p: float, rect: Rect, bound: float,
                   gammas: LipschitzVector | None = None) -> EntropyBounds:
    """Assemble the cover and packing bounds for one (eps, p, cube, bound).

    Everything is first normalized: distances divide by bound * side^(d/p)
    (by side^0 for the sup-distance bound), slope budgets multiply by
    side / bound. The lower bound needs only an Lp distance >= L1, so one
    packing serves every p >= 1.
    """
    if not rect.is_cube():
        raise ParameterError("bounds are stated for cube domains")
    if not eps > 0:
        raise ParameterError("eps must be positive")
    # an infinite bound would normalize every level to 0, out of range
    if not (math.isfinite(bound) and bound > 0):
        raise ParameterError("bound must be positive and finite")
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError("need finite p >= 1")
    d = rect.dim
    side = rect.widths[0]
    if gammas is not None and len(gammas.gamma) != d:
        raise ParameterError("gamma length must match the dimension")
    gsum = 0.0 if gammas is None else sum(v * side / bound
                                          for v in gammas.gamma)

    try:
        scale = bound * side ** (d / p)
    except OverflowError:
        scale = math.inf
    # a product past the floats rounds to inf, and one below to 0, silently
    if not 0.0 < scale < math.inf:
        raise ParameterError("bound * side^(d/p) is outside the float range")
    eta_lp = eps / scale
    eta_pack = eta_lp / separation_scale(d)
    if not math.isfinite(eta_pack):
        raise ParameterError("eps / (bound * side^(d/p)) is too large")
    log_upper = None
    if 0.0 < eta_lp < 1.0:
        try:
            sched = build_schedule(p, math.log(eta_lp))
            log_upper = cover_accounting(sched, d, gsum).entropy_bound
        except ParameterError:
            log_upper = None

    log_lower = None
    try:
        log_lower = separation_point(eta_pack, d).log_packing
    except ParameterError:
        log_lower = None

    log_lip = None
    if gammas is not None:
        eta_sup = eps / bound
        if math.isinf(gsum):
            log_lip = math.inf
        elif 0.0 < eta_sup < 1.0:
            log_val = 0.5 * d * (math.log(gsum + 2.0) - math.log(eta_sup))
            try:
                log_lip = math.exp(log_val)
            except OverflowError:
                log_lip = math.inf
    return EntropyBounds(float(eps), float(p), d, log_upper, log_lower,
                         log_lip)
