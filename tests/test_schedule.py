"""Refinement schedules: construction, invariants, and cover accounting."""

import math
from pathlib import Path

import pytest

from convexcover import (
    ParameterError,
    build_schedule,
    cover_accounting,
    log_radius_closed_form,
    schedule_checks,
)
from convexcover.schedule import MAX_SCHEDULE_DEPTH, _log_edge

LOG2 = math.log(2.0)


# -- edge levels ---------------------------------------------------------------


def test_edge_levels_are_exact_binary_powers():
    for p, log2_edge in ((1.0, -24.0), (2.0, -72.0), (3.0, -160.0)):
        assert build_schedule(p, -200.0 * LOG2).log_edge == log2_edge * LOG2


# -- building the chain ----------------------------------------------------------


def test_build_schedule_known_chain():
    sched = build_schedule(1.0, -96.0 * LOG2)
    assert sched.log_levels[0] == -96.0 * LOG2
    in_log2 = [v / LOG2 for v in sched.log_levels]
    expected = [-96.0, -64.0, -128.0 / 3.0, -256.0 / 9.0, -512.0 / 27.0]
    assert in_log2 == pytest.approx(expected, rel=1e-13)
    assert len(sched.log_weights) == len(sched.log_radii) == 4


@pytest.mark.parametrize("p,log2_eta,depth", [
    (1.0, -96.0, 4),
    (3.0, -96.0, 3),
    (2.0, -200.0, 6),
    (1.0, -40.0, 2),  # the shallowest chain with a ratio of radii
])
def test_build_schedule_depths(p, log2_eta, depth):
    sched = build_schedule(p, log2_eta * LOG2)
    assert sched.depth == depth
    rd = sched.log_radii
    assert schedule_checks(sched).min_log_ratio == min(
        b - a for a, b in zip(rd, rd[1:]))


def test_build_schedule_rejects_large_eta():
    # p = 1 needs eta below 2^-24
    with pytest.raises(ParameterError):
        build_schedule(1.0, -10.0 * LOG2)


def test_build_schedule_rejects_a_level_on_the_edge():
    # at log2 eta = -36 the second level lands exactly on the p = 1 edge
    with pytest.raises(ParameterError):
        build_schedule(1.0, -36.0 * LOG2)


def test_build_schedule_validation():
    for p, log_eta in ((1.0, 0.0), (1.0, -math.inf), (0.9, -96.0 * LOG2),
                       (math.inf, -96.0 * LOG2)):
        with pytest.raises(ParameterError):
            build_schedule(p, log_eta)


def test_a_schedule_deeper_than_the_cap_is_refused():
    # at p = 1000 the depth of the target log eta = log u / (p r^(A - 1/2))
    # is A, so the cap itself is built and one level more is refused
    p = 1000.0
    r = (p + 1.0) / (p + 2.0)
    log_eta = _log_edge(p) / p / r ** (MAX_SCHEDULE_DEPTH - 0.5)
    assert build_schedule(p, log_eta).depth == MAX_SCHEDULE_DEPTH
    with pytest.raises(ParameterError, match="schedule deeper than"):
        build_schedule(p, log_eta / r)
    # r rounds to 1.0: every level is the same, below the edge
    assert (1e20 + 1.0) / (1e20 + 2.0) == 1.0
    with pytest.raises(ParameterError, match="schedule deeper than"):
        build_schedule(1e20, -1e41 * LOG2)


def test_a_p_whose_edge_overflows_is_refused():
    # the edge's log -2 (p+1)^2 (p+2) log 2, computed left to right, is
    # finite up to about 4.48e102 and -inf past it, and (p + 1)^2
    # overflows from about 1.34e154 on
    for p in (4.5e102, 1e120, 1e154, 1e200, 1.7e308):
        with pytest.raises(ParameterError, match="p too large"):
            build_schedule(p, -96.0 * LOG2)
        with pytest.raises(ParameterError, match="p too large"):
            log_radius_closed_form(p, -96.0 * LOG2, 1)
    # too large an eta for this p, but an edge that is a float
    with pytest.raises(ParameterError, match="eta too large"):
        build_schedule(4.4e102, -96.0 * LOG2)
    assert math.isfinite(log_radius_closed_form(4.4e102, -96.0 * LOG2, 1))


def test_radius_closed_form_matches_the_definition():
    sched = build_schedule(2.0, -96.0 * LOG2)
    for m in range(1, sched.depth + 1):
        closed = log_radius_closed_form(2.0, sched.log_eta, m)
        assert abs(sched.log_radii[m - 1] - closed) < 1e-12
    # first radius of the p = 1 chain is 2^-8, up to log-space rounding
    first = build_schedule(1.0, -96.0 * LOG2).log_radii[0]
    assert abs(first - (-8.0 * LOG2)) < 1e-12


# -- the checks bundle ------------------------------------------------------------


def test_schedule_checks_pass_on_a_known_chain():
    # ok joins every check's verdict; these margins hold with no slack
    checks = schedule_checks(build_schedule(1.0, -96.0 * LOG2))
    assert checks.ok and checks.identity_residual == 0.0
    assert checks.min_log_ratio >= LOG2 - 1e-12
    assert checks.log_s1 <= checks.log_s1_bound


def test_schedule_checks_pass_on_deep_schedules():
    # depths 18, 627, 3935 and 10000: the residuals grow with
    # |(p+1) log_eta| and once failed absolute tolerances of 1e-9 and
    # 1e-12; at depth 3935 min_log_ratio is 1.4e-6 short of log 2
    for p, log2_eta, depth in ((1.0, -33333.0, 18), (100.0, -1e7, 627),
                               (318.99248989955294, -44150186380.52484, 3935),
                               (1000.0, -43550141378.28572, 10_000)):
        sched = build_schedule(p, log2_eta * LOG2)
        assert sched.depth == depth
        checks = schedule_checks(sched)
        assert checks.ok
        assert checks.identity_residual > 1e-12


def _level_shifted(shift):
    # the p = 100 schedule (depth 627) with level 4 shifted by shift times
    # the rounding bound of its identity, (A + 32) 2^-53 |(p+1) log_eta|,
    # about 5e-5 here; and that bound
    sched = build_schedule(100.0, -1e7 * LOG2)
    bound = (sched.depth + 32) * 2.0**-53 * abs(101.0 * sched.log_eta)
    levels = list(sched.log_levels)
    levels[3] += shift * bound
    return sched._replace(log_levels=tuple(levels)), bound


def level_shifted_up():
    return _level_shifted(1e3)[0]


def level_shifted_down():
    return _level_shifted(-1e3)[0]


def test_schedule_checks_catch_a_shifted_level_far_past_the_bound():
    # tests/failures.txt shows identity_ok false on these two schedules
    for shift in (1e3, -1e3):
        sched, bound = _level_shifted(shift)
        assert 1e-5 < bound < 1e-4
        checks = schedule_checks(sched)
        assert checks.identity_residual == pytest.approx(abs(shift) * bound,
                                                         rel=1e-3)


_DEEP = (318.99248989955294, -44150186380.52484 * LOG2)  # depth 3935


def _slacks(sched):
    # the ratio and s1 checks' rounding slacks, and the s1 margin
    a, p, log_eta, u = sched.depth, sched.p, sched.log_eta, 2.0**-53
    ratio_slack = 8 * u * (abs(log_eta) + (a + 2) * abs(sched.log_edge))
    s1_slack = (26 + (a + 4) * 4.0**-p) * u * abs(p * log_eta)
    checks = schedule_checks(sched)
    return ratio_slack, s1_slack, checks.log_s1_bound - checks.log_s1


def _ratio_past(past):
    # the last two radii a factor 2 e^(-past * slack) apart
    sched = build_schedule(*_DEEP)
    radii = list(sched.log_radii)
    radii[-1] = radii[-2] + LOG2 - past * _slacks(sched)[0]
    return sched._replace(log_radii=tuple(radii))


def _s1_past(past):
    # the first level, the leading term of s1, raised past its bound
    sched = build_schedule(*_DEEP)
    _, s1_slack, s1_margin = _slacks(sched)
    levels = list(sched.log_levels)
    levels[0] += s1_margin + past * s1_slack
    return sched._replace(log_levels=tuple(levels))


def ratio_2_slacks_past():
    return _ratio_past(2.0)


def s1_2_slacks_past():
    return _s1_past(2.0)


def test_the_ratio_and_s1_checks_fail_past_their_slacks():
    # they fail 2 slacks past their bounds, as the ratio and s1 rows of
    # tests/failures.txt show, and pass half a slack past them
    ratio_slack, s1_slack, s1_margin = _slacks(build_schedule(*_DEEP))
    assert 1e-4 < ratio_slack < 1e-3 and 1e-2 < s1_slack < 0.1 < s1_margin
    checks = schedule_checks(_ratio_past(0.5))
    assert (checks.ratio_ok, checks.ok) == (True, True)
    checks = schedule_checks(_s1_past(0.5))
    assert (checks.s1_ok, checks.ok) == (True, True)


def test_schedule_checks_json_round_trip_keys():
    obj = schedule_checks(build_schedule(2.0, -200.0 * LOG2)).to_json()
    assert obj["ok"] is True
    assert [row[0] for row in obj["dim_sums"]] == [1, 2, 3]
    assert set(obj) >= {"chain_ok", "identity_residual", "log_s1",
                        "zeta_square_sum", "ok"}


def test_schedule_checks_refuse_dims_out_of_range():
    sched = build_schedule(1.0, -96.0 * LOG2)
    for dims in ((0,), (9,)):
        with pytest.raises(ParameterError, match=r"dims must be in 1\.\.8"):
            schedule_checks(sched, dims=dims)
    assert schedule_checks(sched, dims=(8,)).dim_sums[0][0] == 8


# -- verdicts shown false: the rows of tests/failures.txt ------------------------

_SCHED = build_schedule(1.0, -200.5 * LOG2)  # depth 6


def swapped_levels():
    lv = _SCHED.log_levels
    return _SCHED._replace(log_levels=(lv[0], lv[2], lv[1], *lv[3:]))


def equal_levels():
    lv = _SCHED.log_levels
    return _SCHED._replace(log_levels=(lv[0], lv[1], lv[1], *lv[3:]))


def edge_past_the_last_level():
    return _SCHED._replace(log_edge=_SCHED.log_levels[-1] + 1.0)


def edge_on_level_a():
    return _SCHED._replace(log_edge=_SCHED.log_levels[_SCHED.depth - 1])


def swapped_weights():
    wt = _SCHED.log_weights
    return _SCHED._replace(log_weights=(wt[1], wt[0], *wt[2:]))


def equal_weights():
    wt = _SCHED.log_weights
    return _SCHED._replace(log_weights=(wt[0], wt[0], *wt[2:]))


def shifted_first_radius():
    rd = _SCHED.log_radii
    return _SCHED._replace(log_radii=(rd[0] - 1.0, *rd[1:]))


def last_radius_1_2():
    return _SCHED._replace(log_radii=(*_SCHED.log_radii[:-1], math.log(1.2)))


def last_radius_1_05():
    return _SCHED._replace(log_radii=(*_SCHED.log_radii[:-1],
                                      math.log(1.05)))


def close_last_levels():
    # increasing, but so close that exp(-1e-300 + 5e-301) rounds to 1
    return _SCHED._replace(log_levels=(*_SCHED.log_levels[:-2],
                                       -1e-300, -5e-301))


def _read_table(name):
    """{test name: [row, ...]} from tests/<name>, each row the fields of a
    " | "-joined line under the name of the test that runs it."""
    tests = {}
    for line in Path(__file__).with_name(name).read_text().splitlines():
        if line.startswith("test_"):
            tests[line] = rows = []
        elif line and not line.startswith("#"):
            rows.append(tuple(line.split(" | ")))
    return tests


def _failure_rows(test):
    """test's rows of tests/failures.txt, parametrized by their last field."""
    rows = _read_table("failures.txt")[test]
    return pytest.mark.parametrize("verdict, builder", [r[:2] for r in rows],
                                   ids=[r[2] for r in rows])


@_failure_rows("test_a_doctored_schedule_fails_its_verdict")
def test_a_doctored_schedule_fails_its_verdict(verdict, builder):
    checks = schedule_checks(globals()[builder]())
    value = getattr(checks, verdict)
    if isinstance(value, tuple):  # rows that end in their own ok
        value = all(row[-1] for row in value)
    assert not value and not checks.ok


def test_only_the_pinned_verdicts_are_vacuous():
    # a verdict leaves this set once a failing row shows it false
    rows = _read_table("failures.txt")[
        "test_only_the_pinned_verdicts_are_vacuous"]
    assert all(reason for _, reason, _ in rows)
    assert {(verdict, item) for verdict, _, item in rows} == {
        ("lemma l1_vs_hausdorff ok", "items 3 and 21"),
        ("cap_report.json affine_checks", "FOUND 14, item 18"),
    }


# -- cover accounting -------------------------------------------------------------


def test_cover_accounting_matches_a_direct_recomputation():
    sched = build_schedule(1.0, -96.0 * LOG2)
    acct = cover_accounting(sched, 1)
    assert acct.coverage_radius == pytest.approx((17.0 / 3.0) * 2.0**-96,
                                                 rel=1e-12)
    u = 2.0**-24
    expected_log = (math.log(4.0 + math.sqrt(2.0 / u))
                    + 0.5 * math.log(2.0 * 2.0**96))
    assert acct.log_entropy_bound == pytest.approx(expected_log, rel=1e-12)
    assert acct.entropy_bound == pytest.approx(math.exp(expected_log),
                                               rel=1e-12)


def test_cover_accounting_scale_and_budgets_enter_linearly():
    # the scale field is fixed at 1.0; at d = 2 the budget sum G enters
    # the bound as the factor (G + 2) / 2
    sched = build_schedule(1.0, -96.0 * LOG2)
    base = cover_accounting(sched, 2)
    assert base.scale == 1.0
    budgeted = cover_accounting(sched, 2, gamma_sum=6.0)
    assert budgeted.entropy_bound == pytest.approx(
        base.entropy_bound * (8.0 / 2.0) ** 1.0, rel=1e-12)


def test_cover_accounting_infinite_budget_gives_an_infinite_bound():
    sched = build_schedule(1.0, -96.0 * LOG2)
    acct = cover_accounting(sched, 1, gamma_sum=math.inf)
    assert math.isinf(acct.log_entropy_bound)
    assert math.isinf(acct.entropy_bound)


def test_cover_accounting_extreme_levels_overflow_to_inf_gracefully():
    sched = build_schedule(3.0, -2000.0 * LOG2)
    acct = cover_accounting(sched, 8)
    assert math.isfinite(acct.log_entropy_bound)
    assert math.isinf(acct.entropy_bound)


def test_cover_accounting_validation():
    sched = build_schedule(1.0, -96.0 * LOG2)
    with pytest.raises(ParameterError):
        cover_accounting(sched, 0)
    with pytest.raises(ParameterError):
        cover_accounting(sched, 9)
    with pytest.raises(ParameterError):
        cover_accounting(sched, 1, gamma_sum=-1.0)
