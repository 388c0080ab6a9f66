"""Construction, evaluation, and serialization of the convex forms."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from convexcover import (
    Affine,
    ConvexFunction,
    DomainError,
    LipschitzVector,
    MaxAffine,
    MaxWith,
    ParameterError,
    Rect,
    SeparableQuadratic,
    core,
    functions,
    make_random_convex,
    ramp,
    rescale_to_unit,
    tensor_points,
    unit_rect,
)


def _grad(f, x):
    # the subgradient at one point, as a tuple of floats
    return tuple(f.subgradients([x])[0].tolist())


# -- boxes and grids --------------------------------------------------------


def test_rect_basics():
    r = Rect((0.0, -1.0), (2.0, 3.0))
    assert r.dim == 2
    assert r.widths == (2.0, 4.0)
    assert not r.is_cube()
    assert unit_rect(3).is_cube()


@pytest.mark.parametrize("lo,hi", [
    ((0.0,), (0.0,)),
    ((1.0,), (0.0,)),
    ((0.0, 0.0), (1.0,)),
    ((), ()),
    ((0.0,) * 9, (1.0,) * 9),
    ((math.nan,), (1.0,)),
    ((0.0,), (math.inf,)),
])
def test_rect_rejects_bad_boxes(lo, hi):
    with pytest.raises(ParameterError):
        Rect(lo, hi)


def test_rect_json_round_trip_is_exact():
    # to_json writes each float so that float() reads back its exact value
    r = Rect((0.1, -1.0 / 3.0), (2.7, 11.0 / 7.0))
    obj = json.loads(json.dumps(r.to_json()))
    assert tuple(float(s) for s in obj["lo"]) == r.lo
    assert tuple(float(s) for s in obj["hi"]) == r.hi


def test_tensor_points_row_major():
    pts = tensor_points([np.array([0.0, 1.0]), np.array([0.0, 1.0])])
    expected = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert [tuple(p) for p in pts] == expected


def test_tensor_points_size_guard():
    axes = [np.linspace(0.0, 1.0, 400)] * 3
    with pytest.raises(ParameterError):
        tensor_points(axes)


def test_lipschitz_vector():
    v = LipschitzVector((1.5, math.inf, 2.0))
    assert v.gamma == (1.5, math.inf, 2.0)
    assert v.sum_squares() == math.inf
    assert LipschitzVector((1.5, 2.0)).sum_squares() == 6.25


def test_rect_and_lipschitz_vector_take_floats_refuse_and_stay_frozen():
    r = Rect([0, -1], hi=(2, 3))
    v = LipschitzVector([1, 2])
    assert (r.lo, r.hi, v.gamma) == ((0.0, -1.0), (2.0, 3.0), (1.0, 2.0))
    assert all(type(x) is float for x in (*r.lo, *r.hi, *v.gamma))
    for lo, hi, message in [((0.0,), (1.0, 2.0), "lo and hi must have"),
                            ((0.0,) * 9, (1.0,) * 9, "must be in 1..8"),
                            ((0.0,), (math.nan,), "finite lo < hi")]:
        with pytest.raises(ParameterError, match=message):
            Rect(lo, hi)
    for gamma, message in [((), "must be non-empty"),
                           ((1.0, 0.0), "entries must be positive"),
                           ((1.0, -2.0), "entries must be positive"),
                           ((math.nan,), "entries must be positive")]:
        with pytest.raises(ParameterError, match=message):
            LipschitzVector(gamma)
    for obj, name in [(r, "lo"), (r, "hi"), (r, "extra"), (v, "gamma")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, (5.0,))
    with pytest.raises(ParameterError, match="finite lo < hi"):
        r._replace(hi=(2.0, -1.0))
    with pytest.raises(ParameterError, match="entries must be positive"):
        v._replace(gamma=(0.0,))
    assert r._replace(hi=(5, 5)) == Rect((0.0, -1.0), (5.0, 5.0))
    # a record inside a report is written through its own to_json, not as
    # the tuple it also is
    assert core._json_value(r) == {"lo": ["0.0", "-1.0"], "hi": ["2.0", "3.0"]}


# -- individual forms -------------------------------------------------------


def test_affine_evaluation():
    f = Affine(unit_rect(2), (2.0, -1.0), 0.5)
    assert f.value((0.25, 0.5)) == 2.0 * 0.25 - 0.5 + 0.5
    vals = f.values([[0.0, 0.0], [1.0, 1.0]])
    assert vals.tolist() == [0.5, 1.5]


def test_affine_validation():
    for d, coeffs in ((2, (1.0,)), (1, (math.inf,))):
        with pytest.raises(ParameterError):
            Affine(unit_rect(d), coeffs, 0.0)
    f = Affine(unit_rect(1), (1.0,), 0.0)
    with pytest.raises(ParameterError):
        f.values([0.5])  # not an (N, d) array
    with pytest.raises(DomainError):
        f.value((1.5,))
    with pytest.raises(DomainError):
        _grad(f, (1.0,))  # boundary is not strictly interior


# max(x, 1 - x) on [0, 1], whose pieces tie at 1/2
_V = MaxAffine(unit_rect(1), (Affine(unit_rect(1), (1.0,), 0.0),
                              Affine(unit_rect(1), (-1.0,), 1.0)))


def test_max_affine_matches_manual_max():
    xs = np.linspace(0.0, 1.0, 11).reshape(-1, 1)
    manual = np.maximum(xs[:, 0], 1.0 - xs[:, 0])
    assert np.array_equal(_V.values(xs), manual)


def test_max_affine_tie_breaks_to_first_piece():
    assert _V.value((0.5,)) == 0.5
    assert _grad(_V, (0.5,)) == (1.0,)


def test_max_affine_validation():
    for pieces in ((), (Affine(unit_rect(2), (0.0, 0.0), 0.0),)):
        with pytest.raises(ParameterError):
            MaxAffine(unit_rect(1), pieces)


def test_separable_quadratic():
    f = SeparableQuadratic(Rect((-1.0, -1.0), (1.0, 1.0)))
    assert f.value((0.5, -0.5)) == 0.25


def test_only_max_affine_forms_take_subgradients():
    # the shape and domain checks run before the form is refused
    r = unit_rect(2)
    piece = Affine(r, (2.0, -1.0), 0.5)
    for f in (piece, SeparableQuadratic(r), MaxWith(r, (piece,))):
        with pytest.raises(ParameterError, match=type(f).__name__):
            _grad(f, (0.5, 0.5))
        with pytest.raises(DomainError):
            _grad(f, (0.0, 0.5))
        with pytest.raises(ParameterError, match="expected an"):
            f.subgradients([0.5, 0.5])
    assert _grad(MaxAffine(r, (piece,)), (0.5, 0.5)) == (2.0, -1.0)


def test_hinge_values_and_kink():
    f = ramp(unit_rect(1), 0.25)
    assert f.value((0.0,)) == 1.0
    assert f.value((0.5,)) == 0.0
    assert _grad(f, (0.125,)) == (-4.0,)
    # the zero piece wins the tie exactly at the kink
    assert _grad(f, (0.25,)) == (0.0,)


def test_hinge_validation():
    # at alpha 1e-309 the slope -1/alpha leaves the floats
    for alpha in (0.0, 1e-309):
        with pytest.raises(ParameterError):
            ramp(unit_rect(1), alpha)


def test_max_with_mixed_parts():
    r = unit_rect(1)
    f = MaxWith(r, (SeparableQuadratic(r), ramp(r, 0.5)))
    assert f.value((0.0,)) == 1.0  # the ramp dominates at the left edge
    assert f.value((1.0,)) == 1.0  # quadratic dominates at the right edge
    for parts in ((), (SeparableQuadratic(unit_rect(2)),)):
        with pytest.raises(ParameterError):
            MaxWith(r, parts)


def test_rescaled_view():
    dom = Rect((1.0, -2.0), (3.0, 2.0))
    f = MaxAffine(dom, (Affine(dom, (1.0, 0.5), 0.25),
                        Affine(dom, (-2.0, 0.0), 1.0)))
    g = rescale_to_unit(f, 0.5)
    # x = (1 + 2 y1, -2 + 4 y2): each c x + b becomes ((c w) y + b + c lo) / 0.5
    r = unit_rect(2)
    assert g == MaxAffine(r, (Affine(r, (4.0, 4.0), 0.5),
                              Affine(r, (-8.0, 0.0), -2.0)))
    assert g.value((0.25, 0.75)) == f.value((1.5, 1.0)) / 0.5 == 4.5
    assert _grad(g, (0.25, 0.75)) == (4.0, 4.0)
    # only affine forms have a rescaling rule
    for other in (SeparableQuadratic(dom), MaxWith(dom, (f,))):
        with pytest.raises(ParameterError, match=type(other).__name__):
            rescale_to_unit(other, 0.5)


def test_rescale_to_unit():
    f = Affine(Rect((0.0,), (2.0,)), (1.0,), 0.0)
    g = rescale_to_unit(f, 3.0)
    assert g.domain == unit_rect(1)
    assert g.value((1.0,)) == 2.0 / 3.0
    # a form already on the unit box with bound 1 is rewritten as itself
    h = Affine(unit_rect(1), (1.0,), 0.0)
    assert rescale_to_unit(h, 1.0) == h
    with pytest.raises(ParameterError):
        rescale_to_unit(f, 0.0)


# -- serialization ----------------------------------------------------------


def _mixed_forms():
    # equal copies of one ramp, one affine piece and one quadratic, shared
    # across siblings and nested maxima
    r = Rect((0.0, -1.0), (2.0, 1.0))
    hinge = ramp(r, 0.75)
    piece = Affine(r, (0.3, -0.2), 0.1)
    quad = SeparableQuadratic(r)
    max_affine = MaxAffine(r, (piece, Affine(r, (-0.5, 0.4), 0.2)))
    rescaled = rescale_to_unit(make_random_convex(2, 1.0, 4, seed=3, rect=r),
                               0.7)
    inner = MaxWith(r, (quad, ramp(r, 0.75)))
    nested = MaxWith(r, (inner, Affine(r, (0.3, -0.2), 0.1),
                         MaxWith(r, (ramp(r, 0.75), max_affine))))
    return [max_affine, hinge, rescaled, inner, nested, quad, piece]


def test_to_json_twice_serializes_the_same():
    # each form builds its JSON once and hands the same dict to every
    # caller; a second call, or an equal form built afresh, reads the same
    forms = _mixed_forms()
    fresh = _mixed_forms()
    for f, g in zip(forms, fresh):
        text = json.dumps(f.to_json(), sort_keys=True)
        assert json.dumps(f.to_json(), sort_keys=True) == text
        assert json.dumps(g.to_json(), sort_keys=True) == text
    nested = forms[4]
    assert nested.to_json()["form"]["parts"][1] is nested.parts[1].to_json()


def test_values_refuse_a_nan_coordinate():
    f = SeparableQuadratic(unit_rect(2))
    for pts in ([[math.nan, 0.5]], [[0.5, 0.5], [0.5, math.nan]]):
        with pytest.raises(DomainError):
            f.values(pts)
        with pytest.raises(DomainError):
            f.subgradients(pts)


_TINY = math.ulp(0.0)

# (points, inside the closed box, inside the open box) on
# [0, 1] x [-1, 0], one row a case
_WITHIN_CASES = {
    "inside": ([[0.5, -0.5]], True, True),
    "next to every bound": ([[_TINY, -1.0 + 2.0**-53], [1.0 - 2.0**-53, -_TINY]],
                            True, True),
    "on the low corner": ([[0.0, -1.0]], True, False),
    "on the high corner": ([[1.0, 0.0]], True, False),
    "-0 at the low bound 0": ([[-0.0, -0.5]], True, False),
    "-0 at the high bound 0": ([[0.5, -0.0]], True, False),
    "both zeros in one column": ([[0.0, -0.5], [-0.0, -0.5]], True, False),
    "just past a bound": ([[0.5, -0.5], [1.0 + 2.0**-52, -0.5]], False, False),
    "just below a bound": ([[0.5, -1.0 - 2.0**-52]], False, False),
    "nan": ([[math.nan, -0.5]], False, False),
    "nan after inside rows": ([[0.5, -0.5], [0.5, math.nan]], False, False),
    "+inf": ([[math.inf, -0.5]], False, False),
    "-inf": ([[0.5, -math.inf]], False, False),
    "no points": (np.empty((0, 2)), True, True),
}


def _elementwise_within(pts, box, strict):
    above, below = ((np.greater, np.less) if strict
                    else (np.greater_equal, np.less_equal))
    return all(np.all(above(c, lo)) and np.all(below(c, hi))
               for c, lo, hi in zip(pts.T, box.lo, box.hi))


@pytest.mark.parametrize("case", _WITHIN_CASES)
def test_the_domain_check_decides_each_case_as_the_elementwise_rule(
        monkeypatch, case):
    # min and max decide it as comparing every coordinate with the bounds,
    # in any memory layout of the points and in any dimension, whether the
    # columns are copied or, past _COPIED_ENTRIES, reduced in place
    rows, closed, open_ = _WITHIN_CASES[case]
    pts = np.array(rows, dtype=float).reshape(-1, 2)
    box = Rect((0.0, -1.0), (1.0, 0.0))
    wide = np.full((len(pts), 4), math.nan)
    wide[:, 1::2] = pts
    variants = [(pts, box), (np.asfortranarray(pts), box),
                (wide[:, 1::2], box),
                (pts[:, :1], Rect((0.0,), (1.0,))),
                (pts[:, 1:], Rect((-1.0,), (0.0,))),
                (np.asfortranarray(pts[:, [0, 1, 0]]),
                 Rect((0.0, -1.0, 0.0), (1.0, 0.0, 1.0)))]
    for (strict, inside), copied in itertools.product(
            ((False, closed), (True, open_)), (functions._COPIED_ENTRIES, 0)):
        monkeypatch.setattr(functions, "_COPIED_ENTRIES", copied)
        assert _elementwise_within(pts, box, strict) == inside
        for p, b in variants:
            if _elementwise_within(p, b, strict):
                functions._require_within(p, b, strict)
            else:
                with pytest.raises(DomainError):
                    functions._require_within(p, b, strict)


def test_the_domain_check_copies_no_large_point_array():
    # past _COPIED_ENTRIES coordinates the columns are reduced in place,
    # so the check allocates nothing of the points' size
    pts = np.zeros((functions._COPIED_ENTRIES, 2))
    tracemalloc.start()
    try:
        functions._require_within(pts, unit_rect(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pts.nbytes // 16


@pytest.mark.parametrize("d", range(1, 9))
def test_separable_quadratic_grid_values_equal_its_point_values(d):
    # the floor on a tensor grid adds per-axis squares from the first axis
    # on, as the point path adds its columns; below d = 8 that is also the
    # order of numpy's sum over a row
    r = Rect((-1.0,) * d, (2.0,) * d)
    rng = np.random.default_rng(d)
    n = {1: 4001, 2: 301, 3: 41, 4: 17, 5: 9, 6: 7, 7: 5, 8: 5}[d]
    axes = [np.sort(np.concatenate([-1.0 + 3.0 * rng.random(n - 2),
                                    [-1.0, 2.0]])) for _ in range(d)]
    f = SeparableQuadratic(r)
    pts = tensor_points(axes)
    grid = f._grid_values(axes)
    assert grid.tobytes() == f.values(pts).tobytes()
    if d < 8:
        assert grid.tobytes() == (np.square(pts).sum(axis=1) / d).tobytes()


# -- the running-max fold ----------------------------------------------------


def _fold_cases():
    # (d, vertex nodes per axis): at most 15625 nodes, so 257 pieces stay
    # a small matrix
    nodes = {1: 65, 2: 33, 3: 9, 4: 9, 5: 5, 6: 5, 7: 3, 8: 3}
    return [(d, nodes[d], k) for d in nodes for k in (1, 2, 6, 64, 257)]


def _fold_forms(d, n, k):
    """Two MaxAffine forms of k pieces on [-1, 2]^d, and points in [0, 1]^d.

    The first has small dyadic pieces, exact on the dyadic vertex grid, so
    many pieces tie there, and its last piece repeats the one that is
    largest at the first node. The second has random float pieces. Every
    point is strictly interior, so each takes a subgradient.
    """
    r = Rect((-1.0,) * d, (2.0,) * d)
    rng = np.random.default_rng(1000 * d + k)
    grid = tensor_points([np.linspace(0.0, 1.0, n)] * d)
    pts = np.concatenate([grid, rng.random((200, d))])
    coarse = np.concatenate([rng.integers(-4, 5, (k, d)) / 4.0,
                             rng.integers(-8, 9, (k, 1)) / 8.0], axis=1)
    if k > 1:
        top = np.argmax(coarse[:-1, :d] @ grid[0] + coarse[:-1, d])
        coarse[-1] = coarse[top]
    fine = rng.uniform(-2.0, 2.0, (k, d + 1))
    forms = [MaxAffine(r, tuple(Affine(r, tuple(row[:d]), row[d])
                                for row in rows)) for rows in (coarse, fine)]
    return forms, pts


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("d, n, k", _fold_cases())
def test_the_fold_equals_the_stacked_max_bit_for_bit(d, n, k):
    # values and subgradients, folded strip by strip, against one product
    # of every point with every piece, for point counts at and around the
    # strip boundaries; the points cycle through the grid and random ones,
    # so every strip holds ties
    forms, pool = _fold_forms(d, n, k)
    rows = functions._TILE_ENTRIES // k
    ties = 0
    for size in (1, 2, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1):
        pts = pool[np.arange(size) % len(pool)]
        for f in forms:
            coeffs = np.array([p.coeffs for p in f.pieces])
            pieces = pts @ coeffs.T + np.array([p.intercept for p in f.pieces])
            folded = f.values(pts)
            assert np.array_equal(_bits(folded), _bits(pieces.max(axis=1)))
            maximal = pieces == folded[:, None]
            ties += int(np.count_nonzero(maximal.sum(axis=1) > 1))
            # the first maximal piece is the active one, and it gives the
            # folded value
            first = np.argmax(maximal, axis=1)
            assert np.array_equal(_bits(pieces[np.arange(size), first]),
                                  _bits(folded))
            assert np.array_equal(f.subgradients(pts), coeffs[first])
            # the same pieces as the parts of a MaxWith
            g = MaxWith(f.domain, f.pieces)
            parts = np.stack([p.values(pts) for p in g.parts], axis=1)
            assert np.array_equal(_bits(g.values(pts)),
                                  _bits(parts.max(axis=1)))
    assert (ties > 0) == (k > 1)


# -- random generation and slope budgets ------------------------------------


def test_make_random_convex_is_seeded_and_bounded():
    f = make_random_convex(2, 0.9, 6, seed=11)
    g = make_random_convex(2, 0.9, 6, seed=11)
    assert f.to_json() == g.to_json()
    assert len(f.pieces) == 6
    axes = [np.linspace(0.0, 1.0, 17)] * 2
    vals = f.values(tensor_points(axes))
    assert float(np.abs(vals).max()) <= 0.9
    assert make_random_convex(2, 0.9, 6, seed=12).to_json() != f.to_json()


def test_make_random_convex_validation():
    # numpy cannot draw from +-2e308, so a bound of 1e308 is refused too
    for d, bound, pieces, rect in ((1, 0.9, 0, None), (1, 0.0, 3, None),
                                   (1, math.inf, 3, None), (1, 1e308, 3, None),
                                   (2, 0.9, 3, unit_rect(1))):
        with pytest.raises(ParameterError):
            make_random_convex(d, bound, pieces, seed=0, rect=rect)


def test_lipschitz_budget_per_form():
    r = unit_rect(2)
    assert Affine(r, (2.0, -3.0), 0.0).lipschitz_budget().gamma == (2.0, 3.0)
    ma = MaxAffine(r, (Affine(r, (1.0, 0.5), 0.0), Affine(r, (-2.0, 0.25), 0.0)))
    assert ma.lipschitz_budget().gamma == (2.0, 0.5)
    assert ramp(r, 0.25).lipschitz_budget().gamma == (4.0, 1e-300)


def test_lipschitz_budget_rescaled_applies_the_chain_rule():
    dom = Rect((0.0, 0.0), (2.0, 2.0))
    base = MaxAffine(dom, (Affine(dom, (1.0, -0.5), 0.0),
                           Affine(dom, (-2.0, 0.25), 0.0)))
    # each axis scales by its width over the bound
    g = rescale_to_unit(base, 0.5)
    assert g.lipschitz_budget().gamma == (8.0, 2.0)
    # a flat axis keeps its floor through the rescaling
    flat = rescale_to_unit(ramp(dom, 0.5), 4.0)
    assert flat.lipschitz_budget().gamma == (1.0, 1e-300)


def test_lipschitz_budget_rejects_unknown_form():
    # only affine and max-affine forms read off a budget
    r = unit_rect(2)
    for f in (SeparableQuadratic(r), MaxWith(r, (Affine(r, (1.0, 0.5), 0.0),)),
              ConvexFunction(r)):
        with pytest.raises(ParameterError, match=type(f).__name__):
            f.lipschitz_budget()


def test_lipschitz_budget_dominates_grid_difference_quotients():
    f = make_random_convex(2, 0.9, 5, seed=3)
    n = 33
    h = 1.0 / (n - 1)
    vals = f.values(tensor_points([np.linspace(0.0, 1.0, n)] * 2))
    vals = vals.reshape(n, n)
    est = [float(np.abs(np.diff(vals, axis=i)).max()) / h for i in range(2)]
    bud = f.lipschitz_budget().gamma
    # equality up to quotient rounding when a grid edge hits the steep piece
    assert all(e <= b * (1.0 + 1e-12) for e, b in zip(est, bud))
