"""Interval systems, caps, codes, and the separation certificate."""

import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexcover import (
    CapPropertyReport,
    IntervalSystem,
    PackingCertificate,
    PackingFamily,
    ParameterError,
    SeparableQuadratic,
    build_interval_system,
    build_packing_family,
    cell_gap,
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
from convexcover.functions import (
    Affine,
    tensor_points,
    unit_rect,
)
from convexcover.metrics import (
    GridSpec,
    quadrature_axes,
    quadrature_grid,
)
from convexcover.packing import (
    MAX_VALUE_BYTES,
    SPAN_LIMIT,
    SYSTEM_CELL_CAP,
    _cap_box,
    _family_values,
    _lattice_failures,
    require_certificate_budget,
)

from test_schedule import _failure_rows


# -- interval counts, decided in Q -------------------------------------------


@pytest.mark.parametrize("eta,d,k", [
    (Fraction(1, 25), 1, 5),
    (Fraction(1, 100), 1, 10),
    (Fraction(1, 400), 1, 20),
    (Fraction(1, 100), 2, 6),
    (Fraction(1, 400), 2, 13),
    (Fraction(1, 100), 3, 5),
    (1, 1, 1),
])
def test_interval_count_known_values(eta, d, k):
    assert interval_count(eta, d) == k


def test_interval_count_uses_the_exact_binary_value_of_floats():
    # float 0.04 is slightly above 1/25, so it admits one interval fewer
    assert interval_count(0.04, 1) == 4
    assert interval_count(Fraction(1, 25), 1) == 5


def test_interval_count_boundary_is_exact():
    # at eta = 4/9 and d = 2 the single interval spans [0, 2] exactly
    assert interval_count(Fraction(4, 9), 2) == 1
    with pytest.raises(ParameterError):
        interval_count(Fraction(4, 9) + Fraction(1, 10**9), 2)
    assert max_eta(2) == pytest.approx(4.0 / 9.0, rel=1e-15)


def _sum_sqrt_le(p: Fraction, q: Fraction, b: Fraction) -> bool:
    # sqrt(p) + sqrt(q) <= b, decided without leaving the rationals:
    # square once to p + q + 2 sqrt(pq) <= b^2, then square the remainder
    rem = b * b - p - q
    return rem >= 0 and 4 * p * q <= rem * rem


@settings(max_examples=300, derandomize=True, deadline=None)
@given(eta=st.fractions(min_value=Fraction(1, 10**30), max_value=1)
       | st.floats(min_value=1e-300, max_value=1.0),
       d=st.integers(1, 8))
@example(eta=Fraction(4, 9), d=2)
@example(eta=Fraction(1, 10**400), d=1)
@example(eta=3e-13, d=3)
def test_interval_count_matches_the_fraction_form(eta, d):
    # the largest k that fits, by the Fraction form the integer one replaced
    e = Fraction(eta)

    def fits(k: int) -> bool:
        kk = Fraction(k * k)
        return _sum_sqrt_le(4 * e * kk, e * (d - 1) * kk, Fraction(2))

    if not fits(1):
        with pytest.raises(ParameterError, match="eta must be at most"):
            interval_count(eta, d)
        return
    k = interval_count(eta, d)
    assert fits(k) and not fits(k + 1)


@pytest.mark.parametrize("k", [7, 2**20, 10**200], ids=["7", "2^20", "10^200"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_interval_count_is_exact_at_tiny_eta(d, k):
    # k intervals fit exactly when eta <= 4 / (k (2 + sqrt(d-1)))^2. s_lo and
    # s_hi bracket sqrt(d-1) to far more bits than k has, so an eta on or
    # just under that edge gives k and one just over it gives k - 1
    bits = 8 * k.bit_length()
    s_lo = Fraction(math.isqrt((d - 1) << 2 * bits), 1 << bits)
    s_hi = s_lo if s_lo * s_lo == d - 1 else s_lo + Fraction(1, 1 << bits)
    assert interval_count(4 / (k * (2 + s_hi)) ** 2, d) == k
    over = 4 / (k * (2 + s_lo)) ** 2 * (1 + Fraction(1, 1 << bits))
    assert interval_count(over, d) == k - 1


def test_interval_count_takes_an_eta_below_the_float_range():
    # float(eta) is 0.0 here, which the first guess for k once divided by
    assert interval_count(Fraction(1, 10**400), 1) == 10**200
    assert interval_count(Fraction(1, 10**400), 2) == 2 * 10**200 // 3
    assert separation_point(Fraction(1, 10**400), 3).log_packing == math.inf


def test_interval_count_validation():
    with pytest.raises(ParameterError):
        interval_count(Fraction(1, 25), 0)
    with pytest.raises(ParameterError):
        interval_count(Fraction(1, 25), 9)
    with pytest.raises(ParameterError):
        interval_count(0, 1)
    with pytest.raises(ParameterError):
        interval_count(1.5, 1)
    for eta in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            interval_count(eta, 1)


# -- interval placement -------------------------------------------------------


def test_build_interval_system_stays_inside_the_cube():
    sys1 = build_interval_system(Fraction(1, 25), 1)
    assert sys1.k == 5 and sys1.gap == 0.0
    last = sys1.starts[-1] + sys1.length
    assert 0.999 < last <= SPAN_LIMIT < 1.0
    for a, b in zip(sys1.starts, sys1.starts[1:]):
        assert b >= a + sys1.length - 1e-15


def test_build_interval_system_refuses_more_cells_than_its_cap():
    # eta = (2 / (3 k))^2 gives exactly k intervals per axis at d = 2
    assert SYSTEM_CELL_CAP == 256**2
    assert build_interval_system(Fraction(2, 3 * 256) ** 2, 2).n_cells == 256**2
    with pytest.raises(ParameterError, match="eta too small"):
        build_interval_system(Fraction(2, 3 * 257) ** 2, 2)
    with pytest.raises(ParameterError, match="eta too small"):
        build_interval_system(Fraction(1, 10**400), 1)


def test_build_interval_system_without_scaling():
    sys2 = build_interval_system(Fraction(1, 100), 2)
    assert sys2.k == 6 and sys2.n_cells == 36
    assert sys2.length == 0.1 and sys2.gap == 0.05
    assert sys2.starts[-1] + sys2.length == pytest.approx(0.85, abs=1e-15)


# -- caps ---------------------------------------------------------------------

# hand-checkable system with exact dyadic endpoints
_DYADIC = IntervalSystem(eta=0.0625, dim=1, k=2, length=0.25, gap=0.25,
                         starts=(0.0, 0.5))


def _cell(system, c):
    # the interval index on each axis of cell c, row-major like system.caps
    return tuple(c // system.k ** (system.dim - 1 - j) % system.k
                 for j in range(system.dim))


def _interval(system, i):
    u = system.starts[i]
    return u, u + system.length


def _chord_cap(system, c):
    # the reference cap over cell c, from its end points alone: f0's chord,
    # coefficient (u + v)/d on each axis and intercept -sum(u v)/d, in
    # that float order
    ends = [_interval(system, i) for i in _cell(system, c)]
    d = system.dim
    return Affine(system.base.domain, tuple((u + v) / d for u, v in ends),
                  -sum(u * v for u, v in ends) / d)


def test_cap_interpolates_the_chord_exactly():
    for cap in (_DYADIC.caps[1], _chord_cap(_DYADIC, 1)):
        assert cap.coeffs == (1.25,) and cap.intercept == -0.375
        # equals x^2 at both cell endpoints, exceeds it at the midpoint
        assert cap.value((0.5,)) == 0.25
        assert cap.value((0.75,)) == 0.5625
        assert cap.value((0.625,)) - 0.625**2 == 0.015625


@pytest.mark.parametrize("eta, d", [
    (Fraction(1, 25), 1),     # spans [0, 1] exactly, so shrunk to SPAN_LIMIT
    (Fraction(1, 2025), 1),
    (Fraction(1, 100), 2),
    (Fraction(1, 36), 2),
    (0.0025, 2),              # 169 cells, over the family's cell cap
    (Fraction(1, 100), 3),
    (Fraction(1, 400), 3),
    (Fraction(1, 100), 4),
])
def test_tabled_caps_equal_cap_function_bit_for_bit(eta, d):
    system = build_interval_system(eta, d)
    assert len(system.caps) == len(system.intercepts) == system.n_cells
    for i, cap in enumerate(system.caps):
        want = _chord_cap(system, i)
        assert [*map(repr, cap.coeffs)] == [*map(repr, want.coeffs)]
        # the cap checks read the intercept table, not the caps
        assert repr(system.intercepts[i]) == repr(want.intercept)
        assert repr(cap.intercept) == repr(want.intercept)
        assert cap.domain is system.base.domain


def test_perturbed_function_shapes():
    base = perturbed_function(_DYADIC, 0)
    assert isinstance(base, SeparableQuadratic)
    g = perturbed_function(_DYADIC, 0b10)
    assert g.value((0.625,)) == 0.40625  # the cap over cell 1
    assert g.value((0.125,)) == 0.125**2  # base wins away from the cap
    with pytest.raises(ParameterError):
        perturbed_function(_DYADIC, 4)
    with pytest.raises(ParameterError):
        perturbed_function(_DYADIC, -1)


def test_cell_gap_closed_form():
    assert cell_gap(Fraction(1, 4), 2) == 0.25**2 / 6.0
    assert cell_gap(Fraction(1, 25), 1) == 0.04**1.5 / 6.0


# systems that break the construction's assumptions, each on purpose
_DOCTORED = {
    # the last interval pokes past 1: its cap tops 1 at the corner
    "corner": IntervalSystem(eta=0.25, dim=1, k=2, length=0.5, gap=0.25,
                             starts=(0.0, 0.75)),
    # a cell left of 0 has a negative slope; its endpoints need a finer
    # power of two than any cap coefficient or intercept
    "negative": IntervalSystem(eta=0.01, dim=1, k=1, length=0.1, gap=0.0,
                               starts=(-0.8,)),
    # the cells over [-0.05, 0.05] have zero slopes, which are not negative
    "centered": IntervalSystem(eta=0.01, dim=2, k=2, length=0.1, gap=0.25,
                               starts=(-0.05, 0.3)),
    "overlapping": IntervalSystem(eta=0.09, dim=2, k=3, length=0.3,
                                  gap=-0.1, starts=(0.0, 0.2, 0.4)),
    "touching": IntervalSystem(eta=0.04, dim=2, k=3, length=0.2, gap=0.0,
                               starts=(0.0, 0.2, 0.4)),
    # coefficient rounding outweighs the interior margin of a 1e-9 cell
    "thin": IntervalSystem(eta=1e-18, dim=1, k=1, length=1e-9, gap=0.0,
                           starts=(0.1,)),
    # four cells on one dyadic point: every cap equals f0 exactly
    "point": IntervalSystem(eta=0.0, dim=2, k=2, length=0.0, gap=0.0,
                            starts=(0.25, 0.25)),
    # a gap 3.6 ticks short of L (sqrt(2) - 1) / 2: a cap rises above f0
    # on a cell beside it only within 3 ticks of their shared edge and
    # 1,910 of the middle of its own interval, 8,625 of that cell's 10^12
    # lattice points
    "grazing": IntervalSystem(eta=0.0625, dim=2, k=2, length=0.25,
                              gap=0.0517758, starts=(0.0, 0.3017758)),
}


def _admissible_max_eta(d):
    # max_eta(d) itself, or the float below it where rounding put it past
    # the exact edge
    eta = max_eta(d)
    try:
        interval_count(eta, d)
    except ParameterError:
        eta = math.nextafter(eta, 0.0)
    return eta


def test_cap_properties_hold_on_built_systems():
    for eta, d in [(Fraction(1, 25), 1), (Fraction(1, 100), 2)]:
        system = build_interval_system(eta, d)
        report = verify_cap_properties(system)
        assert report.ok
        assert report.total_checks == 2000 + system.n_cells


def test_cap_properties_catch_a_bad_system():
    report = verify_cap_properties(_DOCTORED["corner"])
    assert not report.ok
    assert any("corner" in msg for msg in report.failures)


def test_cap_properties_catch_negative_coefficients():
    report = verify_cap_properties(_DOCTORED["negative"])
    assert any("negative coefficient" in msg for msg in report.failures)


# -- the integer cap checks against a Fraction reference ----------------------

# the cap checks' lattice: u + a/10^6 (v - u) on each axis, a = 1..10^6 - 1
_TICKS = 10**6


def _lattice_point(system, i, a):
    u, v = map(Fraction, _interval(system, i))
    return u + Fraction(a, _TICKS) * (v - u)


def _excess(system, c, x):
    # cap c - f0 at the point x, in Fractions
    cap = _chord_cap(system, c)
    return (Fraction(cap.intercept) - sum(t * t for t in x) / system.dim
            + sum(Fraction(b) * t for b, t in zip(cap.coeffs, x)))


def _end_points(system, c):
    # the per-axis end points of cell c's lattice; cap - f0 is a sum of
    # concave per-axis terms, so its least value there is at one of them
    return itertools.product(*((_lattice_point(system, i, 1),
                                _lattice_point(system, i, _TICKS - 1))
                               for i in _cell(system, c)))


def _nearest_point(system, c, j):
    # the per-axis lattice point of cell j nearest the vertex d coeff / 2
    # of cap c's concave term on that axis, where cap c - f0 peaks on j
    cap = _chord_cap(system, c)
    out = []
    for i, coeff in zip(_cell(system, j), cap.coeffs):
        u, v = map(Fraction, _interval(system, i))
        p = system.dim * Fraction(coeff) / 2
        a = 1 if u == v else math.floor((p - u) / (v - u) * _TICKS)
        out.append(min((_lattice_point(system, i, min(max(b, 1), _TICKS - 1))
                        for b in (a, a + 1)), key=lambda x: abs(x - p)))
    return tuple(out)


def _named_cells(report):
    # the cells of the below-base failures, and the (cap, cell) pairs of
    # the above-base ones
    below, above = [], []
    for msg in report.failures:
        words = msg.replace(":", "").split()
        if msg.endswith("inside own cell"):
            below.append(int(words[1]))
        elif "above base in cell" in msg:
            above.append((int(words[1]), int(words[-1])))
    return below, above


def _assert_matches_the_lattice_in_q(system):
    # each cap fails below base where its least value over its own cell's
    # lattice is negative, and above base where its largest over another
    # cell's is positive, once per cell, naming a cell that holds the peak
    n = system.n_cells
    below, above = _named_cells(verify_cap_properties(system))
    assert below == [c for c in range(n) if min(
        _excess(system, c, x) for x in _end_points(system, c)) < 0]
    peaks = [{j: _excess(system, c, _nearest_point(system, c, j))
              for j in range(n) if j != c} for c in range(n)]
    assert [c for c, _ in above] == [
        c for c in range(n) if max(peaks[c].values(), default=0) > 0]
    assert all(peaks[c][j] == max(peaks[c].values()) for c, j in above)


_BUILT = {1: Fraction(1, 25), 2: Fraction(1, 36), 3: Fraction(1, 25),
          4: Fraction(1, 16)}


@pytest.mark.parametrize("d", sorted(_BUILT))
def test_cap_properties_match_the_fraction_reference_on_built_systems(d):
    system = build_interval_system(_BUILT[d], d)
    assert verify_cap_properties(system).ok
    _assert_matches_the_lattice_in_q(system)


@pytest.mark.parametrize("name", sorted(_DOCTORED))
def test_cap_properties_match_the_fraction_reference_on_doctored_systems(name):
    system = _DOCTORED[name]
    if name == "overlapping":
        # its report is undecided (below), and rightly not ok: cap 0
        # rises above f0 at a lattice point of cell 1
        assert _excess(system, 0, _nearest_point(system, 0, 1)) > 0
        return
    _assert_matches_the_lattice_in_q(system)


def test_every_named_failing_cell_holds_a_failing_lattice_point():
    named = 0
    for name in ("touching", "grazing"):
        system = _DOCTORED[name]
        _, above = _named_cells(verify_cap_properties(system))
        assert above
        for c, j in above:
            assert _excess(system, c, _nearest_point(system, c, j)) > 0
        named += len(above)
    assert named == 13
    system = _DOCTORED["thin"]
    below, _ = _named_cells(verify_cap_properties(system))
    assert below == [0]
    assert any(_excess(system, 0, x) < 0 for x in _end_points(system, 0))


def test_cap_properties_fail_inside_a_cell_below_rounding():
    report = verify_cap_properties(_DOCTORED["thin"])
    assert report.above_checks == 500 and report.below_checks == 0
    assert report.failures == ("cell 0: cap below base inside own cell",)


def test_cap_properties_let_equality_pass():
    # cap = f0 at every lattice point: neither strict inequality fires
    report = verify_cap_properties(_DOCTORED["point"])
    assert report.ok and report.above_checks == 500
    assert report.below_checks == 1000


def test_cap_properties_catch_overlapping_cells():
    # the intervals overlap, so the one-axis switch bounds nothing: the
    # report says so instead of clearing
    report = verify_cap_properties(_DOCTORED["overlapping"])
    assert report.below_checks == 1000 and not report.ok
    assert report.failures == (
        "undecided: spans out of order or a vertex outside its span",)


# -- the exact decision over every lattice point ------------------------------


def _refuse_draws(seed):
    raise AssertionError("the cap checks drew samples")


# every system the benchmark builds, the CI's 1,764-cell system, _BUILT,
# the one-cell system at each dim's largest eta, and the 65,536-cell cap
# at d = 1, 2, 4 and 8
_AT_THE_CAP = [(Fraction(1, 2**32), 1), (Fraction(2, 3 * 256) ** 2, 2),
               (Fraction(1, 1000), 4), (Fraction(1, 87), 8)]
_CLEARED = [(Fraction(1, 25), 1), (Fraction(1, 1225), 1),
            (Fraction(1, 1600), 1), (Fraction(1, 2025), 1),
            (Fraction(1, 25), 2), (Fraction(1, 36), 2), (Fraction(1, 49), 2),
            (0.0025, 2), (Fraction(1, 4096), 2), (_BUILT[3], 3),
            (_BUILT[4], 4),
            *((_admissible_max_eta(d), d) for d in range(1, 9)), *_AT_THE_CAP]


@pytest.mark.parametrize("eta, d", _CLEARED)
def test_the_cap_checks_draw_nothing_on_built_systems(eta, d, monkeypatch):
    system = build_interval_system(eta, d)
    n = system.n_cells
    assert n == SYSTEM_CELL_CAP or (eta, d) not in _AT_THE_CAP
    monkeypatch.setattr(np.random, "default_rng", _refuse_draws)
    assert verify_cap_properties(system) == CapPropertyReport(
        500, n, 500, 1000 if n >= 2 else 0, ())


def test_the_cap_checks_draw_nothing_at_31622_cells(monkeypatch):
    system = build_interval_system(1e-9, 1)
    monkeypatch.setattr(np.random, "default_rng", _refuse_draws)
    assert verify_cap_properties(system) == CapPropertyReport(
        500, 31622, 500, 1000, ())


@pytest.mark.parametrize("name", ["centered", "point"])
def test_the_cap_checks_clear_doctored_systems_that_hold(name, monkeypatch):
    # point: F = 0 at every lattice point, which passes both checks
    monkeypatch.setattr(np.random, "default_rng", _refuse_draws)
    assert verify_cap_properties(_DOCTORED[name]) == CapPropertyReport(
        500, 4, 500, 1000, ())


def test_the_cap_checks_fail_where_few_lattice_points_fail():
    # cap (0, 0) rises above f0 on cell (0, 1) only within 3 ticks of
    # their shared edge, yet every cap's failure is found
    system = _DOCTORED["grazing"]

    def excess(a, b):
        # cap (0, 0) - f0 at lattice point (a, b) of cell (0, 1)
        return _excess(system, 0, (_lattice_point(system, 0, a),
                                   _lattice_point(system, 1, b)))

    rising = [excess(500_000, b) > 0 for b in range(1, 6)]
    assert rising == [True, True, True, False, False]
    report = verify_cap_properties(system)
    assert not report.ok
    assert report.failures == tuple(
        f"cell {c}: cap above base in cell {j}"
        for c, j in [(0, 2), (1, 0), (2, 0), (3, 1)])


def _lattice_extremes(d, ticks, lo, width, slope):
    # per cap c, sum_j g(X_j) = F_c - d ticks B_c at every lattice point,
    # one at a time: its least value on c's own cell and its largest on
    # each other cell, by linear index; lo and width in lattice units,
    # the points being X = lo + a width
    k = len(lo)
    cells = list(itertools.product(range(k), repeat=d))
    axes = [[lo[i] + a * width[i] for a in range(1, ticks)] for i in range(k)]
    out = []
    for cell in cells:
        def g(other):
            return [sum((d * ticks * slope[i] - x) * x
                        for i, x in zip(cell, xs))
                    for xs in itertools.product(*(axes[i] for i in other))]
        out.append((min(g(cell)), {j: max(g(other))
                                   for j, other in enumerate(cells)
                                   if other != cell}))
    return out


def _caps(msgs):
    # the cap of each failure message, "cell c: ..."
    return [int(msg.split(":")[0].split()[1]) for msg in msgs]


def test_the_lattice_decision_is_exact_under_its_guards():
    # small integer tables on lattices of 1, 3 or 5 points per axis, laid
    # out as a built system's are, give or take a tick: under its guards
    # (every vertex in its own interval's lattice span, the spans in
    # order) the decision names exactly the caps that fail at some
    # lattice point, each once, and for a cap above base a cell holding
    # its peak; with a guard broken it is one undecided failure. Most
    # intercepts sit a tick either side of the edge of what the cap's own
    # cell or the other cells allow.
    rand = random.Random(5)
    counts = {"cleared": 0, "tight": 0, "guarded fails": 0, "unguarded": 0}
    for _ in range(1500):
        d = rand.choice((1, 1, 2, 2, 3))
        k = rand.choice((1, 2, 2, 3) if d < 3 else (1, 2))
        ticks = rand.choice((2, 4, 6))
        scale_k = d * ticks
        # X = lo + a width on the axis, over at + [0, w] in units of
        # scale_k; slope scale_k / 2 is the vertex, at the middle give or
        # take a few half units
        lo, width, slope = [], [], []
        at = rand.randrange(-20, 20)
        for _ in range(k):
            w = rand.choice((0, 1, 2, 3, 5, 8))
            lo.append(at * scale_k)
            width.append(w * d)
            slope.append(2 * at + w + rand.choice((-2, -1, 0, 0, 0, 1, 2)))
            at += w + rand.choice((-1, 0, 1, w // 4 + 1, w // 2 + 1))
        extremes = _lattice_extremes(d, ticks, lo, width, slope)
        icpt = []
        for low, peaks in extremes:
            high = max(peaks.values(), default=None)
            edge = rand.choice((-(low // scale_k), -(low // scale_k),
                                -(high // scale_k) if high is not None else 0,
                                rand.randrange(-400, 40)))
            icpt.append(edge + rand.choice((-1, 0, 0, 1)))
        below, above, tight = [], set(), False
        for c, (b, (low, peaks)) in enumerate(zip(icpt, extremes)):
            high = max(peaks.values(), default=None)
            if scale_k * b + low < 0:
                below.append(f"cell {c}: cap below base inside own cell")
            above |= {f"cell {c}: cap above base in cell {j}"
                      for j, v in peaks.items()
                      if v == high and scale_k * b + v > 0}
            tight |= scale_k * b + low == 0 or scale_k * b + (high or 1) == 0
        tables = [np.array(t, dtype=object) for t in (lo, width, slope, icpt)]
        intervals = np.stack(np.unravel_index(np.arange(k**d), (k,) * d),
                             axis=1)
        got = _lattice_failures(d, ticks, *tables, intervals)
        first = [u + w for u, w in zip(lo, width)]
        last = [u + (ticks - 1) * w for u, w in zip(lo, width)]
        guarded = all(f <= s * scale_k // 2 <= t
                      for f, s, t in zip(first, slope, last)) \
            and all(t <= f for t, f in zip(last, first[1:]))
        if guarded:
            # below, then one of each failing cap's peak cells
            assert got[:len(below)] == below
            rest = got[len(below):]
            assert set(rest) <= above
            assert _caps(rest) == sorted(set(_caps(above)))
        else:
            assert len(got) == 1 and got[0].startswith("undecided")
        fails = bool(below or above)
        counts["guarded fails"] += guarded and fails
        counts["unguarded"] += not guarded
        counts["cleared"] += not got
        counts["tight"] += not got and tight
    assert min(counts.values()) > 20, counts


# -- binary codes -------------------------------------------------------------


def test_code_targets():
    assert code_target(8) == 3
    assert code_target(16) == 8
    assert code_target(25) == 23
    assert code_min_distance(5) == 2
    assert code_min_distance(8) == 2
    assert code_min_distance(9) == 3
    assert code_min_distance(25) == 7
    with pytest.raises(ParameterError):
        code_target(0)
    with pytest.raises(ParameterError):
        code_min_distance(0)


def _all_pairs_apart(res):
    # exhaustive recheck of the code's promise: every pair of its words
    ws = res.words
    return (all(0 <= w < 1 << res.length for w in ws)
            and all((ws[i] ^ ws[j]).bit_count() >= res.min_distance
                    for i in range(len(ws)) for j in range(i + 1, len(ws))))


def test_greedy_code_reaches_small_targets():
    res = greedy_binary_code(20, code_min_distance(20), code_target(20))
    assert len(res.words) == 13 and res.shortfall == 0
    assert _all_pairs_apart(res)
    again = greedy_binary_code(20, code_min_distance(20), code_target(20))
    assert again.words == res.words


def test_greedy_code_reports_a_shortfall_instead_of_raising():
    # only two words of {0..3} can be 2 apart, so target 5 is unreachable
    res = greedy_binary_code(2, 2, 5, max_samples=100)
    assert len(res.words) == 2
    assert res.shortfall == 3
    assert res.samples_used == 100
    assert _all_pairs_apart(res)
    with pytest.raises(ParameterError, match="max_samples must be >= 1"):
        greedy_binary_code(2, 2, 5, max_samples=0)


def _greedy_code_reference(length, min_distance, target, seed,
                           max_samples=10**6):
    # one word at a time: kept when far from every word kept before it
    rng = np.random.default_rng(seed)
    mask = (1 << length) - 1
    words, samples = [], 0
    while len(words) < target and samples < max_samples:
        block = min(4096, max_samples - samples)
        for a, b in rng.integers(0, 1 << 32, size=(block, 2), dtype=np.uint64):
            samples += 1
            w = ((int(a) << 32) | int(b)) & mask
            if all((w ^ v).bit_count() >= min_distance for v in words):
                words.append(w)
                if len(words) == target:
                    break
    return tuple(words), samples


# budgets ending inside a 64-word chunk (100, 130) and inside the second
# 4096-draw block (4133); unreachable targets (length 1, 2 and 5 at
# distance 3) spend their whole budget
@pytest.mark.parametrize("length, min_distance, target, budget", [
    (1, 1, 2, None), (1, 1, 3, 100), (2, 2, 5, 100),
    (5, 2, 8, None), (5, 3, 5, 4133), (5, 3, 5, 130),
    (45, 12, 278, None), (45, 12, 278, 100), (45, 20, 40, 4133),
    (63, 16, 150, None), (63, 16, 150, 130),
    (64, 16, 150, None), (64, 1, 70, 100), (64, 30, 20, 4133),
])
def test_greedy_code_equals_the_one_word_at_a_time_search(
        length, min_distance, target, budget):
    kw = {} if budget is None else {"max_samples": budget}
    for seed in range(12):
        res = greedy_binary_code(length, min_distance, target, seed, **kw)
        want = _greedy_code_reference(length, min_distance, target, seed, **kw)
        assert (res.words, res.samples_used) == want, seed


def test_greedy_code_validation():
    with pytest.raises(ParameterError):
        greedy_binary_code(0, 1, 1)
    with pytest.raises(ParameterError):
        greedy_binary_code(65, 1, 1)
    with pytest.raises(ParameterError):
        greedy_binary_code(8, 0, 1)



# -- families and certificates ------------------------------------------------


def test_separation_scale():
    assert separation_scale(1) == pytest.approx(1.0 / 48.0, rel=1e-15)
    assert separation_scale(2) == pytest.approx(1.0 / 216.0, rel=1e-15)


def test_build_packing_family_small():
    fam = build_packing_family(build_interval_system(Fraction(1, 25), 1))
    assert fam.system.k == 5
    assert len(fam.functions) == len(fam.code.words) == 2
    assert fam.eps == pytest.approx(0.04 / 48.0, rel=1e-15)
    assert fam.zeta == cell_gap(Fraction(1, 25), 1)


def test_family_members_hold_the_systems_own_caps():
    # 278 functions hold 6,269 cap references, all to the 45 caps built
    # once on the system; their JSON holds each cap's one dict
    fam = build_packing_family(build_interval_system(Fraction(1, 2025), 1))
    system = fam.system
    assert len(system.caps) == system.n_cells == 45
    for i, cap in enumerate(system.caps):
        assert cap == _chord_cap(system, i)
        assert cap.domain is system.base.domain  # one unit cube, not 45
    refs = 0
    for word, f in zip(fam.code.words, fam.functions):
        base, *caps = f.parts
        assert base is system.base and f.domain is base.domain
        want = [c for i, c in enumerate(system.caps) if word >> i & 1]
        assert len(caps) == len(want)
        assert all(a is b for a, b in zip(caps, want))
        parts = f.to_json()["form"]["parts"]
        assert all(p is c.to_json() for p, c in zip(parts, f.parts))
        refs += len(caps)
    assert refs == 6269


def test_build_packing_family_respects_the_cell_cap():
    with pytest.raises(ParameterError):
        # 13^2 = 169 cells
        build_packing_family(build_interval_system(Fraction(1, 400), 2))


def test_certificate_budget_counts_the_largest_family():
    # 64 cells: up to ceil(e^8) = 2981 functions
    d2 = build_interval_system(Fraction(1, 144), 2)
    with pytest.raises(ParameterError):
        require_certificate_budget(d2)  # 2981 x 600^2 x 8 B = 8.6 GB
    require_certificate_budget(d2, grid_n=200)  # 2981 x 200^2 x 8 B
    with pytest.raises(ParameterError):
        require_certificate_budget(build_interval_system(Fraction(1, 49), 3))
    # 36 cells at d=2 (C01's largest family): 91 x 600^2 x 8 B
    require_certificate_budget(build_interval_system(Fraction(1, 100), 2))
    assert 91 * 600**2 * 8 < MAX_VALUE_BYTES < 2981 * 600**2 * 8


def test_certificate_budget_refuses_a_grid_past_max_grid_points():
    # one cell, two functions: 2 x 40^5 x 8 B = 1.6 GB is under the
    # budget, but the default 40^5 grid is never built
    d5 = build_interval_system(Fraction(1, 4), 5)
    with pytest.raises(ParameterError, match="exceeds"):
        require_certificate_budget(d5)
    require_certificate_budget(d5, grid_n=25)
    with pytest.raises(ParameterError, match="exceeds"):
        require_certificate_budget(d5, grid_n=26)


def test_packing_certificate_on_a_small_family():
    fam = build_packing_family(build_interval_system(Fraction(1, 25), 1))
    cert = packing_certificate(fam)
    assert cert.ok
    assert cert.pairs_checked == 1
    assert cert.failures == 0
    assert cert.min_hamming >= fam.code.min_distance
    assert cert.min_l1 >= cert.min_hamming * cert.zeta - cert.tol
    assert cert.separation_floor == fam.code.min_distance * fam.zeta
    assert cert.eps_consistent
    keys = set(cert.to_json())
    assert {"eta", "min_margin", "ok", "pairs_checked"} <= keys


def test_certificate_states_an_eps_past_the_separation_floor():
    fam = build_packing_family(build_interval_system(Fraction(1, 25), 1))
    # the caps of 1/25, the counts of eta 1/2500: min_distance zeta is
    # then 0.32 eps
    system = replace(fam.system, eta=fam.system.eta / 100)
    doctored = replace(fam, system=system)
    cert = packing_certificate(doctored)
    assert cert.separation_floor < cert.eps
    assert cert.failures == 0 and cert.shortfall == 0
    assert not cert.eps_consistent and not cert.ok
    assert packing_certificate(fam).eps_consistent


def _reference_certificate(family, grid_n, tol=1e-6):
    # the certificate one row and one block at a time, with Python int
    # popcounts and running minima
    system = family.system
    d = system.dim
    pts, w = quadrature_grid(unit_rect(d), GridSpec(grid_n))
    vals = np.stack([f.values(pts) for f in family.functions])
    zeta, eps, words = family.zeta, family.eps, family.code.words
    m = len(words)
    failures = pairs = 0
    min_margin = min_l1 = math.inf
    min_ham = None
    block = 16
    for i in range(m - 1):
        hams = np.array([(words[i] ^ words[j]).bit_count()
                         for j in range(i + 1, m)])
        for s in range(i + 1, m, block):
            rows = vals[s:s + block]
            l1 = np.abs(rows - vals[i]) @ w
            margin = l1 - hams[s - i - 1:s - i - 1 + len(rows)] * zeta
            pairs += len(rows)
            failures += int((margin < -tol).sum())
            min_margin = min(min_margin, float(margin.min()))
            min_l1 = min(min_l1, float(l1.min()))
        h = int(hams.min())
        min_ham = h if min_ham is None else min(min_ham, h)
    floor = family.code.min_distance * zeta
    eps_consistent = floor >= eps
    return PackingCertificate(
        eta=system.eta, dim=d, k=system.k, n_cells=system.n_cells,
        code_size=m, shortfall=family.code.shortfall,
        min_hamming=min_ham if min_ham is not None else 0,
        zeta=zeta, eps=eps, separation_floor=floor, grid_n=grid_n, tol=tol,
        pairs_checked=pairs, failures=failures, min_margin=min_margin,
        min_l1=min_l1, eps_consistent=eps_consistent,
        ok=failures == 0 and family.code.shortfall == 0 and eps_consistent)


def _first(fam, m):
    # the family of the first m words
    return replace(fam, code=replace(fam.code, words=fam.code.words[:m]),
                   functions=fam.functions[:m])


def test_certificate_equals_the_pair_by_pair_reference():
    # 16-row blocks: m = 17 and 18 put one and two rows in a second block;
    # one draw gives a one-word code, short of its target
    system = build_interval_system(Fraction(1, 1225), 1)
    n = system.n_cells
    code = greedy_binary_code(n, code_min_distance(n), code_target(n),
                              max_samples=1)
    one = PackingFamily(system, code, tuple(perturbed_function(system, w)
                                            for w in code.words))
    assert len(one.functions) == 1 and code.shortfall > 0
    fams = [one, build_packing_family(build_interval_system(Fraction(1, 25), 1))]
    wide = build_packing_family(build_interval_system(Fraction(1, 1225), 1))
    fams += [_first(wide, 17), _first(wide, 18), wide]
    assert [len(f.functions) for f in fams] == [1, 2, 17, 18, 80]
    for fam in fams:
        want = _reference_certificate(fam, 2001).to_json()
        assert packing_certificate(fam).to_json() == want
        # at tol 0 the failure count reads the sign of every margin: the
        # SPAN_LIMIT shrink leaves 1556 of the 3160 at 80 functions below 0
        want = _reference_certificate(fam, 2001, tol=0.0).to_json()
        assert packing_certificate(fam, tol=0.0).to_json() == want
    assert want["failures"] == 1556
    fam = build_packing_family(build_interval_system(Fraction(1, 36), 2))
    want = _reference_certificate(fam, 60).to_json()
    assert packing_certificate(fam, grid_n=60).to_json() == want


def test_certificate_catches_an_unseparated_family():
    fam = build_packing_family(build_interval_system(Fraction(1, 25), 1))
    # every cell of the doctored system is the first: the two words are
    # far apart, but their functions differ on one cell at most
    system = replace(fam.system, starts=(0.0,) * fam.system.k)
    doctored = replace(fam, system=system, functions=tuple(
        perturbed_function(system, w) for w in fam.code.words))
    cert = packing_certificate(doctored)
    assert cert.failures == 1
    assert not cert.ok
    assert cert.to_json() == _reference_certificate(doctored, 2001).to_json()
    # a NaN or infinite tol would let this family pass
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError):
            packing_certificate(doctored, tol=tol)


# -- verdicts shown false: the rows of tests/failures.txt ------------------------


def _family_of_eta_1_100():
    # 10 cells at d = 1: min_distance 3, zeta = 0.8 eps
    return build_packing_family(build_interval_system(Fraction(1, 100), 1))


def declared_min_distance_1():
    fam = _family_of_eta_1_100()
    return replace(fam, code=replace(fam.code, min_distance=1))


def target_past_the_words():
    fam = _family_of_eta_1_100()
    code = replace(fam.code, target_size=len(fam.code.words) + 1)
    return replace(fam, code=code)


def two_equal_words():
    fam = _family_of_eta_1_100()
    word = fam.code.words[0]
    code = replace(fam.code, words=(word, word), target_size=2)
    return replace(fam, code=code)


_FAILURES = _failure_rows("test_a_doctored_family_fails_its_certificate")


@pytest.mark.parametrize("verdict, builder", list(_FAILURES.values()),
                         ids=list(_FAILURES))
def test_a_doctored_family_fails_its_certificate(verdict, builder):
    cert = packing_certificate(globals()[builder]())
    assert not getattr(cert, verdict) and not cert.ok
    assert cert.failures == 0  # every pair still clears its Hamming floor


def test_a_pair_on_its_hamming_floor_passes_even_at_zero_tol():
    # two equal words: L1 distance 0 at Hamming distance 0, a margin of
    # exactly 0, which is not below -tol. Asserted directly, since
    # _reference_certificate leaves out ok's min_hamming clause
    cert = packing_certificate(two_equal_words(), tol=0.0)
    assert cert.failures == 0
    assert cert.min_margin == 0.0


def _near_cell_ends(system, n=201):
    # one axis of n nodes across one cell length, centred on each interval
    # endpoint; the ranges overlap, so they are merged into one sorted axis
    ends = sorted({e for i in range(system.k) for e in _interval(system, i)})
    off = np.linspace(-system.length, system.length, n)
    return np.unique(np.clip(np.add.outer(ends, off).ravel(), 0.0, 1.0))


def _assert_rows_match(system, words, axes):
    vals = _family_values(system, words, axes)
    pts = tensor_points(axes)
    assert vals.shape == (len(words), len(pts))
    for w, row in zip(words, vals):
        f = perturbed_function(system, w)
        assert row.tobytes() == f.values(pts).tobytes()


@pytest.mark.parametrize("eta,d,n", [
    (Fraction(1, 100), 1, 2001),
    (Fraction(1, 36), 2, 97),
    (Fraction(1, 36), 3, 25),
    (Fraction(1, 2025), 1, 2001),
    # the benchmark's pack families at their default certificate grids
    (Fraction(1, 25), 2, 600),
    (Fraction(1, 36), 2, 600),
    (Fraction(1, 49), 2, 600),
    (Fraction(1, 1225), 1, 2001),
    (Fraction(1, 1600), 1, 2001),
])
def test_stacked_family_values_match_each_function(eta, d, n):
    fam = build_packing_family(build_interval_system(eta, d))
    words = fam.code.words
    # word 0 is f0 alone; the vertex grid reaches the cube's faces, and
    # the midpoint grid is the certificate's own
    vertex = [np.linspace(0.0, 1.0, n)] * d
    midpoint, _ = quadrature_axes(unit_rect(d), GridSpec(n))
    for axes in (vertex, midpoint):
        _assert_rows_match(fam.system, (0,) + words, axes)
        _assert_rows_match(fam.system, (0,), axes)
        assert _family_values(fam.system, (), axes).shape == (0, n**d)
    assert [perturbed_function(fam.system, w) for w in words] == list(
        fam.functions)


def test_stacked_values_fold_caps_that_rise_above_f0_outside_their_cell():
    # at d=1 the gap is 0, and near a cell's ends its neighbours' caps rise
    # up to an ulp above f0: those nodes lie in the caps' boxes and must be
    # folded in
    fam = build_packing_family(build_interval_system(Fraction(1, 2025), 1))
    system = fam.system
    axis = _near_cell_ends(system)
    pts = axis[:, None]
    f0 = system.base.values(pts)
    above = 0
    for i, cap in enumerate(system.caps):
        lo, hi = _interval(system, i)
        outside = (axis < lo) | (axis > hi)
        above += int((cap.values(pts)[outside] > f0[outside]).sum())
    assert above > 0
    _assert_rows_match(system, fam.code.words, [axis])


_BOX_SYSTEMS = [
    # max_eta(1) = 1 and the d=1 systems at eta = 1/k^2 span [0, 1]
    # exactly, so SPAN_LIMIT shrinks them
    *((_admissible_max_eta(d), d) for d in range(1, 5)),
    (Fraction(1, 25), 1), (Fraction(1, 2025), 1),
    (Fraction(1, 36), 2), (Fraction(1, 100), 2),
    (Fraction(1, 25), 3), (Fraction(1, 36), 4),
]


@pytest.mark.parametrize("eta,d", _BOX_SYSTEMS)
def test_caps_round_to_at_most_f0_outside_their_boxes(eta, d):
    system = build_interval_system(eta, d)
    if d == 1:
        assert system.length < math.sqrt(system.eta)  # shrunk
    f0 = system.base
    # a vertex grid with every cell end on it, plus nodes near the ends
    near, n = {1: (201, 2001), 2: (21, 201), 3: (5, 41), 4: (3, 13)}[d]
    ends = [e for i in range(system.k) for e in _interval(system, i)]
    axis = np.unique(np.concatenate([np.linspace(0.0, 1.0, n), ends,
                                     _near_cell_ends(system, near)]))
    pts = tensor_points([axis] * d)
    base = f0.values(pts)
    folded = 0
    for cap in system.caps:
        lo, hi = _cap_box(cap)
        outside = ((pts < lo) | (pts > hi)).any(axis=1)
        assert outside.any() or system.k == 1
        vals, floor = cap.values(pts)[outside], base[outside]
        assert np.all(vals <= floor)
        assert np.maximum(floor, vals).tobytes() == floor.tobytes()
        folded += int((cap.values(pts) > base).sum())
    assert folded > 0
    words = [w for w in (1, (1 << system.n_cells) - 1, 0b101)
                 if w < 1 << system.n_cells]
    _assert_rows_match(system, words, [axis] * d)


def test_a_box_with_one_grid_node_matches_the_full_grid():
    # the box of the first cap holds one node of this grid, and that of
    # the last cap one, the last node of each axis; each box is widened to
    # two nodes, up and down, since a one-row product rounds otherwise
    system = build_interval_system(Fraction(1, 36), 2)
    f0 = system.base
    first, last = system.caps[0], system.caps[-1]
    (lo0, hi0), (lo1, hi1) = _cap_box(first), _cap_box(last)
    assert lo0[0] < 0.0 < hi0[0] < lo1[0]

    def node(cap, lo, hi):
        # near the box centre, a node where the one-row product rounds
        # otherwise than the two-row one, if this BLAS has such a node
        steps = (np.array(hi) - np.array(lo)) / 1024.0
        mid = (np.array(lo) + np.array(hi)) / 2.0
        for k in range(64):
            x = mid + steps * np.array([k, 3 * k + 1])
            if cap.value(x) != cap.values([x, x])[0]:
                return x
        return mid

    x0, x1 = node(first, lo0, hi0), node(last, lo1, hi1)
    axes = [np.array([x0[j], hi0[j] + 0.05, 0.5, lo1[j] - 0.05, x1[j]])
            for j in range(2)]
    for cap in (first, last):
        lows, highs = _cap_box(cap)
        inside = [int(((a >= l) & (a <= h)).sum())
                  for a, l, h in zip(axes, lows, highs)]
        assert inside == [1, 1]
    words = (1, 1 << 15, 1 | 1 << 15)
    _assert_rows_match(system, words, axes)
    vals = _family_values(system, words, axes)
    # at each box's node the cap rises above f0
    assert vals[0, 0] > f0.value(x0)
    assert vals[1, -1] > f0.value(x1)


def test_stacked_family_values_evaluate_each_distinct_part_once(monkeypatch):
    fam = build_packing_family(build_interval_system(Fraction(1, 36), 2))
    calls = []

    def counted(values):
        def wrapper(self, arg):
            calls.append(self)
            return values(self, arg)
        return wrapper

    monkeypatch.setattr(Affine, "_values", counted(Affine._values))
    monkeypatch.setattr(SeparableQuadratic, "_grid_values",
                        counted(SeparableQuadratic._grid_values))
    _family_values(fam.system, fam.code.words,
                   [np.linspace(0.0, 1.0, 11)] * 2)
    # f0 plus one cap per cell that some word selects
    used = 0
    for w in fam.code.words:
        used |= w
    total = sum(len(f.parts) for f in fam.functions)
    assert len(calls) == 1 + used.bit_count() == 17
    assert total == 83


def test_certificate_peak_memory_is_one_block_over_its_values():
    # 8 functions x 600^2 nodes: a 23 MB value matrix, one 7-row block of
    # differences (20 MB) and the 2.9 MB weights; no node array
    fam = build_packing_family(build_interval_system(Fraction(1, 36), 2))
    tracemalloc.start()
    try:
        cert = packing_certificate(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.ok and cert.pairs_checked == 28
    assert peak < 60 * 10**6


# -- the separation curve ------------------------------------------------------


def test_separation_point_values():
    pt = separation_point(Fraction(1, 25), 1)
    assert (pt.k, pt.n_cells) == (5, 5)
    assert pt.log_packing == 0.625
    assert pt.eps == pytest.approx(0.04 / 48.0, rel=1e-15)


def test_separation_curve_scales_the_level_exactly():
    curve = separation_curve(Fraction(1, 25), 1)
    assert [pt.eta for pt in curve] == [0.04, 0.01, 0.0025, 0.000625,
                                        0.00015625]
    assert [pt.k for pt in curve] == [5, 10, 20, 40, 80]
    assert [pt.log_packing for pt in curve] == [0.625, 1.25, 2.5, 5.0, 10.0]
