"""Inequality checks, ramp closed forms, and the assembled bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcover import (
    Affine,
    GridSpec,
    LipschitzVector,
    MaxAffine,
    ParameterError,
    Rect,
    build_interval_system,
    build_packing_family,
    build_schedule,
    check_l1_bound,
    check_sup_bound,
    cover_accounting,
    entropy_bounds,
    gradient_mass,
    hinge_family,
    hinge_hausdorff_closed_form,
    hinge_lp_closed_form,
    lp_distance,
    make_random_convex,
    packing_certificate,
    ramp,
    scaling_identity_report,
    slice_gradient_mass,
    unit_rect,
)
from convexcover.core import SLAB_GRID_AXIS
from convexcover.verify import _hausdorff_bias

from test_metrics import _X, _ZERO, _random_pair
from test_metrics import calls  # the spy fixture, found here by name
from test_schedule import _failure_rows

LOG2 = math.log(2.0)


# -- distance-vs-Hausdorff checks ---------------------------------------------


def test_sup_bound_on_a_random_pair():
    f, g = _random_pair(1, seed=100)
    rep = check_sup_bound(f, g, n_directions=1024, grid=GridSpec(501))
    assert rep.ok
    assert rep.name == "sup_vs_hausdorff"
    assert rep.refinements == 0


def test_sup_bound_with_explicit_budgets():
    # an affine form states its budget exactly: its own slope
    f = Affine(unit_rect(1), (0.5,), -0.25)
    rep = check_sup_bound(f, _ZERO, n_directions=64, grid=GridSpec(65))
    assert rep.ok


def test_sup_bound_with_infinite_budget_is_vacuous():
    # a ramp of slope 1e200 gives sqrt(1 + 1e400) = inf as the factor
    f = ramp(unit_rect(1), 1e-200)
    rep = check_sup_bound(f, _ZERO, n_directions=16, grid=GridSpec(17))
    assert rep.ok
    assert math.isinf(rep.rhs)


def test_sup_bound_requires_a_dominating_bound():
    f, g = _random_pair(1, seed=104)
    # the slabs are cut at height 1, so a function rising above it is refused
    above = Affine(unit_rect(1), (1.0,), 0.5)
    with pytest.raises(ParameterError, match="must dominate"):
        check_sup_bound(f, above)
    other = make_random_convex(2, 0.9, 4, seed=0)
    with pytest.raises(ParameterError):
        check_sup_bound(f, other)


def test_sup_bound_tolerance_carries_the_sampling_bias():
    # the Hausdorff side samples directions, so its one-sided bias must
    # appear in the tolerance and shrink as the direction count grows
    f, g = _random_pair(1, seed=106)
    coarse = check_sup_bound(f, g, n_directions=64, grid=GridSpec(501))
    fine = check_sup_bound(f, g, n_directions=1024, grid=GridSpec(501))
    bias = _hausdorff_bias(f, g, 64)
    assert coarse.tolerance >= bias
    assert fine.tolerance < coarse.tolerance


class _UnderstatedBudget(MaxAffine):
    def lipschitz_budget(self):
        return LipschitzVector((1e-300,) * self.domain.dim)


def understated_ramp_budget():
    # a ramp of slope 16 that claims a budget of 1e-300 on each axis, so
    # the sup check's factor is 1, and the zero function
    f = ramp(unit_rect(1), 2**-4)
    return _UnderstatedBudget(f.domain, f.pieces), _ZERO


@_failure_rows("test_a_doctored_lemma_pair_fails_its_check")
def test_a_doctored_lemma_pair_fails_its_check(verdict, builder):
    rep = check_sup_bound(*globals()[builder]())
    assert not getattr(rep, verdict) and not rep.ok
    assert rep.refinements == 0  # decided at the requested resolution


def test_a_failing_check_sweeps_only_its_requested_resolution(calls):
    # the Hausdorff value and its error estimate, at n and 2n - 1 nodes,
    # and the vertex grids of those two and of the slab heights, no others
    n = 21
    rep = check_sup_bound(*understated_ramp_budget(), n_directions=64,
                          grid=GridSpec(n))
    assert not rep.ok and rep.refinements == 0
    assert sorted(len(args[0]) for _, args, _ in calls["sweeps"]) == \
        [n, 2 * n - 1]
    assert sorted(m for _, (_, m), _ in calls["grids"]) == \
        [n, SLAB_GRID_AXIS, 2 * n - 1]


def test_l1_bound_on_random_pairs():
    for d in (1, 2):
        f, g = _random_pair(d, seed=200 + d)
        rep = check_l1_bound(f, g, n_directions=256, grid=GridSpec(101))
        assert rep.ok
        assert rep.name == "l1_vs_hausdorff"


def test_l1_bound_requires_normalized_inputs():
    with pytest.raises(ParameterError):
        check_l1_bound(Affine(unit_rect(1), (0.0,), 1.5), _ZERO)
    # the slab ceiling's 1e-12 allowance admits a function at 1 + 1e-12
    edge = Affine(unit_rect(1), (0.0,), 1 + 1e-12)
    assert check_l1_bound(edge, _ZERO, n_directions=16, grid=GridSpec(17)).ok


# -- slope-mass facts ----------------------------------------------------------


def test_gradient_mass_of_a_ramp():
    f = ramp(unit_rect(1), 0.5)
    mass = gradient_mass(f, 0.05, GridSpec(2001))
    # slope -2 on [0.05, 0.5] and 0 beyond: mass 0.9 up to the kink cell
    assert abs(mass - 0.9) < 2e-3  # within the lemma's 8
    # a ramp that climbs entirely inside the trimmed-away margin
    steep = ramp(unit_rect(1), 2.0**-6)
    assert gradient_mass(steep, 0.05, GridSpec(2001)) == 0.0
    for rho in (0.5, 0.0):
        with pytest.raises(ParameterError):
            gradient_mass(f, rho)


def test_slice_gradient_mass_measures_the_climb():
    f = ramp(unit_rect(1), 0.5)
    mass = slice_gradient_mass(f, 0, [0.0], 0.05)
    # slope -2 on [0.05, 0.5]: integral 0.9, up to the straddling cell
    assert abs(mass - 0.9) < 2e-3  # within the lemma's 4


def test_slice_gradient_mass_validation():
    f = ramp(unit_rect(2), 0.5)
    # an axis past d, an anchor of the wrong shape, a rho past 1/2
    for args in ((2, [0.5, 0.5], 0.05), (0, [0.5], 0.05),
                 (0, [0.5, 0.5], 0.7)):
        with pytest.raises(ParameterError):
            slice_gradient_mass(f, *args)


# -- ramp closed forms ----------------------------------------------------------


def test_hinge_lp_closed_form_matches_quadrature():
    for alpha in (1.0, 0.25):
        for p in (1.0, 2.0):
            f = ramp(unit_rect(1), alpha)
            want = hinge_lp_closed_form(alpha, p)
            got = lp_distance(f, _ZERO, p, GridSpec(4001)).value
            assert abs(got - want) < 1e-5


def test_hinge_closed_form_validation():
    for alpha, p in ((0.0, 1.0), (1.5, 1.0), (0.5, 0.5)):
        with pytest.raises(ParameterError):
            hinge_lp_closed_form(alpha, p)
    with pytest.raises(ParameterError):
        hinge_hausdorff_closed_form(2.0)


def test_hinge_hausdorff_closed_form_values():
    assert hinge_hausdorff_closed_form(1.0) == pytest.approx(math.sqrt(0.5))
    a = 0.25
    assert hinge_hausdorff_closed_form(a) == pytest.approx(
        a / math.sqrt(1 + a * a), rel=1e-15)


def test_hinge_family_sup_separation_is_exact():
    fam = hinge_family(6)
    # C11 checks the dyadic values that set the family apart
    assert fam == tuple(ramp(unit_rect(1), 2.0**-j) for j in range(1, 7))
    for count in (0, 51):
        with pytest.raises(ParameterError):
            hinge_family(count)


# -- normalization identity -------------------------------------------------------


def test_scaling_identity_hand_case():
    dom = Rect((0.0,), (2.0,))
    f = Affine(dom, (1.0,), 0.0)
    g = Affine(dom, (0.0,), 0.0)
    rep = scaling_identity_report(f, g, 1.0, 3.0)
    assert rep.lhs == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_scaling_identity_validation():
    f = Affine(Rect((0.0,), (2.0,)), (1.0,), 0.0)
    h = Affine(Rect((0.0, 0.0), (1.0, 2.0)), (0.0, 0.0), 0.0)
    # two domains, a box that is no cube, a bound of 0
    for a, b, bound in ((f, _X, 1.0), (h, h, 1.0), (f, f, 0.0)):
        with pytest.raises(ParameterError):
            scaling_identity_report(a, b, 1.0, bound)


# -- assembled bounds ---------------------------------------------------------------


def test_entropy_bounds_in_range():
    eb = entropy_bounds(2.0**-30, 1.0, unit_rect(1), 1.0,
                        LipschitzVector((2.0,)))
    assert eb.log_upper is not None and eb.log_lower is not None
    assert eb.log_upper >= eb.log_lower > 0.0
    assert eb.log_lipschitz_upper == pytest.approx(
        math.sqrt(4.0 * 2.0**30), rel=1e-12)


def test_entropy_bounds_out_of_range_fields_are_none():
    # eps 1 has no sup-distance bound, as its level eps / bound is 1, and
    # eps 5e-324 under bound 1e300 none at all: its levels round to 0
    for eps, bound, gamma in ((0.5, 1.0, None), (1.0, 1.0, 2.0),
                              (5e-324, 1e300, 1.0)):
        eb = entropy_bounds(eps, 1.0, unit_rect(1), bound,
                            gamma and LipschitzVector((gamma,)))
        assert eb.log_upper is None
        assert eb.log_lower is None
        assert eb.log_lipschitz_upper is None


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.floats(1e-12, 1e-2), st.floats(0.1, 10.0), st.floats(0.32, 3.2))
def test_entropy_bounds_normalizes_by_bound_and_side(d, p, eps, bound, side):
    # eta_lp = eps / (bound * side^(d/p)) = 2^-21 here, too big for p = 2
    eb = entropy_bounds(2.0**-20, 2.0, Rect((0.0, 0.0), (1.0, 1.0)), 2.0)
    assert eb.log_upper is None
    assert eb.log_lower == pytest.approx(65.0**2 / 8.0, rel=1e-15)
    # the paper's scaling: the bounds at (eps, p, [0, side]^d, bound) are
    # those at (eps / (bound * side^(d/p)), p, the unit cube, 1)
    eb = entropy_bounds(eps, p, Rect((0.0,) * d, (side,) * d), bound)
    unit = entropy_bounds(eps / (bound * side ** (d / p)), p, unit_rect(d),
                          1.0)
    assert (eb.log_upper, eb.log_lower) == (unit.log_upper, unit.log_lower)


def test_entropy_bounds_infinite_budget():
    eb = entropy_bounds(2.0**-30, 1.0, unit_rect(1), 1.0,
                        LipschitzVector((math.inf,)))
    assert math.isinf(eb.log_lipschitz_upper)


def test_entropy_bounds_validation():
    # eps 0, p below 1, a box that is no cube, a gamma of the wrong length
    for eps, p, rect, gammas in (
            (0.0, 1.0, unit_rect(1), None), (0.1, 0.5, unit_rect(1), None),
            (0.1, 1.0, Rect((0.0, 0.0), (1.0, 2.0)), None),
            (0.1, 1.0, unit_rect(2), LipschitzVector((1.0,)))):
        with pytest.raises(ParameterError):
            entropy_bounds(eps, p, rect, 1.0, gammas)
    # the bounds are stated for 1 <= p < inf, as the schedule's are
    for p in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="need finite p >= 1"):
            entropy_bounds(0.1, p, unit_rect(1), 1.0)
    # an infinite bound normalizes every level to 0: all bounds None
    for bound in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            entropy_bounds(0.1, 1.0, unit_rect(1), bound)


def test_reports_write_int_inputs_as_floats():
    # a report writes each float field with repr(float), so a float
    # parameter given as an int is stored as a float, as the CLI's are
    fam = build_packing_family(build_interval_system(Fraction(1, 25), 1))
    assert packing_certificate(fam, tol=0).to_json()["tol"] == "0.0"
    eb = entropy_bounds(1, 1, Rect((0.0,), (4.0,)), 1).to_json()
    assert (eb["eps"], eb["p"]) == ("1.0", "1.0")
    assert entropy_bounds(1e-3, 1, unit_rect(1), 1).to_json()["p"] == "1.0"
    acct = cover_accounting(build_schedule(1, -100.0), 1, 0).to_json()
    assert (acct["gamma_sum"], acct["scale"]) == ("0.0", "1.0")
