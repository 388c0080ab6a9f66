"""Quadrature grids, distances, and the epigraph support machinery."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from convexcover import (
    Affine,
    GridSpec,
    MaxAffine,
    MaxWith,
    ParameterError,
    Rect,
    SeparableQuadratic,
    check_l1_bound,
    check_sup_bound,
    direction_covering_radius,
    direction_set,
    gradient_mass,
    hausdorff_epigraph,
    lp_distance,
    make_random_convex,
    quadrature_grid,
    ramp,
    sup_grid_distance,
    unit_rect,
    vertex_grid,
)
from convexcover import ConvexFunction, metrics
from convexcover.cli import main
from convexcover.core import MAX_GRID_POINTS


# x and 0 on [0, 1]
_X = Affine(unit_rect(1), (1.0,), 0.0)
_ZERO = Affine(unit_rect(1), (0.0,), 0.0)


# -- grids -------------------------------------------------------------------


def test_grid_spec_validation_and_refinement():
    assert GridSpec(5).refined() == GridSpec(9)
    with pytest.raises(ParameterError):
        GridSpec(1)


def test_quadrature_weights_sum_to_volume():
    rect = Rect((0.0, -1.0), (2.0, 3.0))
    pts, w = quadrature_grid(rect, GridSpec(7))
    assert pts.shape == (49, 2)
    assert math.isclose(float(w.sum()), 8.0, rel_tol=1e-13)


def test_quadrature_weights_equal_the_per_axis_outer_products_bit_for_bit():
    # the reference builds one weight array per axis and multiplies them
    # out, axis by axis; the rule forms one product of the steps
    rng = np.random.default_rng(54)
    for d in range(1, 5):
        for n in (2, 3, 17, 101):
            if n**d > MAX_GRID_POINTS:
                continue
            for _ in range(3):
                lo = rng.uniform(-3.0, 3.0, d)
                rect = Rect(lo, lo + rng.uniform(0.1, 5.0, d))
                weights = [np.full(n, (b - a) / n)
                           for a, b in zip(rect.lo, rect.hi)]
                want = weights[0]
                for w in weights[1:]:
                    want = np.multiply.outer(want, w).ravel()
                _, got = metrics.quadrature_axes(rect, GridSpec(n))
                assert got.tobytes() == want.tobytes()


def test_midpoint_nodes_are_cell_centers():
    pts, w = quadrature_grid(unit_rect(1), GridSpec(4))
    assert pts[:, 0].tolist() == [0.125, 0.375, 0.625, 0.875]
    assert w.tolist() == [0.25] * 4


def test_vertex_grid_pins_endpoints():
    g = vertex_grid(Rect((0.0,), (3.0,)), 4)
    assert g[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(ParameterError):
        vertex_grid(unit_rect(1), 1)


# -- Lp and sup distances ----------------------------------------------------


def test_lp_distance_linear_integrand_is_exact():
    rep = lp_distance(_X, _ZERO, 1.0, GridSpec(16))
    assert math.isclose(rep.value, 0.5, rel_tol=1e-14)
    assert rep.error_estimate < 1e-14


def test_lp_distance_quadratic_case():
    rep = lp_distance(_X, _ZERO, 2.0, GridSpec(101))
    assert abs(rep.value - math.sqrt(1.0 / 3.0)) < 1e-4
    assert rep.error_estimate < 1e-4


def test_lp_distance_hinge_matches_closed_form():
    rep = lp_distance(ramp(unit_rect(1), 0.5), _ZERO, 1.0, GridSpec(1001))
    # the cell straddling the kink contributes an O(h^2) quadrature error
    assert abs(rep.value - 0.25) < 1e-6


def test_lp_distance_validation():
    other = Affine(Rect((0.0,), (2.0,)), (1.0,), 0.0)
    for g, p in ((_X, 0.5), (_X, math.inf), (other, 1.0)):
        with pytest.raises(ParameterError):
            lp_distance(_X, g, p)


def test_sup_grid_distance_hits_the_endpoint():
    rep = sup_grid_distance(_X, _ZERO, GridSpec(11))
    assert rep.value == 1.0
    assert rep.error_estimate == 0.0


def test_sup_grid_distance_converges_from_below():
    f = ramp(unit_rect(1), 0.3)
    coarse = sup_grid_distance(f, _ZERO, GridSpec(4)).value
    fine = sup_grid_distance(f, _ZERO, GridSpec(64)).value
    assert coarse <= fine <= 1.0


# -- epigraph support and Hausdorff ------------------------------------------


def test_epigraph_support_of_the_unit_square():
    # f = 0 with ceiling 1 makes the slab the unit square in R^2; the
    # kernel takes the downward directions, which reach its floor
    pts = vertex_grid(_ZERO.domain, GridSpec().n)
    vals = _ZERO.values(pts)[None, :]
    cases = [
        ((0.0, -1.0), 0.0),
        ((math.sqrt(0.5), -math.sqrt(0.5)), math.sqrt(0.5)),
        ((-math.sqrt(0.5), -math.sqrt(0.5)), 0.0),
    ]
    for direction, expected in cases:
        u = np.array([direction])
        got = metrics._support_batch(pts, vals, u)
        assert got.shape == (1, 1)
        assert math.isclose(float(got[0, 0]), expected, rel_tol=0.0,
                            abs_tol=1e-12)


def test_direction_set_properties():
    for ambient in (2, 3, 4, 6):
        dirs = direction_set(ambient, 32)
        assert dirs.shape == (32, ambient)
        norms = np.linalg.norm(dirs, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.array_equal(dirs, direction_set(ambient, 32))
    with pytest.raises(ParameterError):
        direction_set(1, 8)
    with pytest.raises(ParameterError):
        direction_set(2, 0)


def test_halton_directions_drawn_in_chunks_equal_one_draw_bit_for_bit():
    # direction_set draws _HALTON_ROWS rows at a time; the reference draws
    # the whole set at once, as scipy documents the sampler
    from scipy.stats import norm, qmc

    rows = metrics._HALTON_ROWS
    for ambient in (4, 6):
        for count in (8, rows - 1, rows, rows + 1, 2 * rows + 3):
            sampler = qmc.Halton(d=ambient, scramble=False)
            sampler.fast_forward(1)
            raw = norm.ppf(sampler.random(count))
            want = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            assert direction_set(ambient, count).tobytes() == want.tobytes()
    # the chunks bound the peak: one draw of 200,000 rows at ambient 4
    # peaked at 59 MB over its 6.4 MB result
    dirs, peak = _traced(direction_set, 4, 200000)
    assert peak < dirs.nbytes + 8 * 2**20


def test_angle_lattice_nests_under_doubling():
    coarse = direction_set(2, 8)
    fine = direction_set(2, 16)
    assert np.allclose(fine[::2], coarse, atol=1e-15)


def test_direction_covering_radius_values():
    assert direction_covering_radius(2, 100) == math.pi / 100
    assert direction_covering_radius(3, 400) == 3.5 / 20.0
    assert direction_covering_radius(4, 1000) == 6.0 * 1000 ** (-1.0 / 3.0)
    with pytest.raises(ParameterError):
        direction_covering_radius(1, 8)
    with pytest.raises(ParameterError):
        direction_covering_radius(2, 0)


def test_direction_covering_radius_covers_the_angle_lattice():
    # every unit vector is within the stated chord distance of the lattice
    n = 37
    dirs = direction_set(2, n)
    probes = np.linspace(0.0, 2.0 * math.pi, 5000, endpoint=False)
    pts = np.stack([np.cos(probes), np.sin(probes)], axis=1)
    gaps = np.linalg.norm(pts[:, None, :] - dirs[None, :, :], axis=2).min(axis=1)
    assert gaps.max() <= direction_covering_radius(2, n)


@pytest.mark.parametrize("ambient, counts", [(3, (64, 500, 1000, 2000, 4000)),
                                             (4, (200, 400, 1000, 2000))])
def test_direction_covering_radius_covers_the_spiral_and_halton_sets(
        ambient, counts):
    # the set's chord covering radius is the largest over the facets of its
    # hull of sqrt(2 (1 - b)), b the facet plane's distance from the origin
    for count in counts:
        hull = ConvexHull(direction_set(ambient, count))
        b = -hull.equations[:, -1]
        assert b.min() > 0.0  # the hull holds the origin
        assert np.sqrt(2.0 * (1.0 - b)).max() <= \
            direction_covering_radius(ambient, count)


def test_hausdorff_epigraph_of_shifted_slabs():
    g = Affine(unit_rect(1), (0.0,), 0.25)
    rep = hausdorff_epigraph(_ZERO, g, 8, GridSpec(11))
    assert abs(rep.value - 0.25) < 1e-12
    assert rep.error_estimate < 1e-12
    assert hausdorff_epigraph(_ZERO, _ZERO, 8).value == 0.0


def test_hausdorff_of_a_ramp_and_a_line_at_11_nodes_stays_below_201():
    r = unit_rect(1)
    f = ramp(r, 0.5)
    g = Affine(r, (0.25,), 0.0)
    coarse = hausdorff_epigraph(f, g, 4, GridSpec(11)).value
    fine = hausdorff_epigraph(f, g, 256, GridSpec(201)).value
    assert coarse <= fine + 1e-15


def test_hausdorff_epigraph_needs_enough_directions():
    with pytest.raises(ParameterError):
        hausdorff_epigraph(_ZERO, _ZERO, 3)
    assert hausdorff_epigraph(_ZERO, _ZERO, 4).value == 0.0


# -- the support kernel against the untiled formula --------------------------


def _naive_support(pts, vals, bound, dirs):
    # one function, every direction, the whole grid at once
    d = pts.shape[1]
    last = dirs[:, d]
    lifted = pts @ dirs[:, :d].T + vals[:, None] * np.minimum(last, 0.0)
    return lifted.max(axis=0) + np.maximum(last, 0.0) * bound


def _naive_hausdorff(f, g, bound, dirs, n):
    pts = vertex_grid(f.domain, n)
    sf = _naive_support(pts, f.values(pts), bound, dirs)
    sg = _naive_support(pts, g.values(pts), bound, dirs)
    return float(np.abs(sf - sg).max())


def _random_pair(d, seed):
    return (make_random_convex(d, 0.9, 6, seed),
            make_random_convex(d, 0.9, 6, seed + 1))


@pytest.mark.parametrize("d, n, count", [(1, 501, 1024), (2, 151, 1000),
                                         (3, 21, 1000)])
def test_hausdorff_value_matches_the_naive_formula_bit_for_bit(d, n, count):
    dirs = direction_set(d + 1, count)
    for seed in range(0, 8, 2):
        f, g = _random_pair(d, 300 + seed)
        assert metrics._hausdorff_value(f, g, dirs, n) == \
            _naive_hausdorff(f, g, 1.0, dirs, n)


def _traced(func, *args):
    """func(*args) and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_kernel_matches(f, g, n, dirs):
    # each function's support row and the pair's value, over downward dirs
    pts = vertex_grid(f.domain, n)
    vals = np.stack([f.values(pts), g.values(pts)])
    both = metrics._support_batch(pts, vals, dirs)
    assert both.shape == (2, len(dirs))
    for row, v in zip(both, vals):
        assert np.array_equal(row, _naive_support(pts, v, 1.0, dirs))
    assert metrics._hausdorff_value(f, g, dirs, n) == \
        _naive_hausdorff(f, g, 1.0, dirs, n)


def test_support_kernel_is_exact_across_node_tile_boundaries():
    f, g = _random_pair(1, 40)
    dirs = direction_set(2, 64)
    dirs = dirs[dirs[:, 1] < 0.0]
    rows = metrics._TILE_ENTRIES // len(dirs)
    for n in (rows - 1, rows, rows + 1):
        _assert_kernel_matches(f, g, n, dirs)


def test_support_kernel_is_exact_across_direction_tile_boundaries():
    f, g = _random_pair(2, 50)
    for count in (metrics._TILE_ENTRIES - 1, metrics._TILE_ENTRIES,
                  metrics._TILE_ENTRIES + 1):
        # the second half of a spiral of 2 * count directions points down
        dirs = direction_set(3, 2 * count)
        dirs = dirs[dirs[:, 2] < 0.0]
        assert len(dirs) == count
        _assert_kernel_matches(f, g, 3, dirs)


def test_only_ceiling_directions_are_skipped():
    f, g = _random_pair(2, 60)
    dirs = direction_set(3, 400)
    up = dirs[dirs[:, 2] >= 0.0]
    assert len(up) == 200
    assert metrics._hausdorff_value(f, g, up, 31) == 0.0
    assert _naive_hausdorff(f, g, 1.0, up, 31) == 0.0
    # one direction just below the horizontal still carries a gap
    tilt = 1e-6
    dirs = np.vstack([up, [[math.sqrt(1.0 - tilt * tilt), 0.0, -tilt]]])
    got = metrics._hausdorff_value(f, g, dirs, 31)
    assert got > 0.0
    assert got == _naive_hausdorff(f, g, 1.0, dirs, 31)


def test_refined_c08_sized_call_keeps_its_transients_small():
    # 301^2 nodes by 2000 directions; the untiled sweep held three 32 MB
    # node-by-direction arrays at once
    f, g = _random_pair(2, 80)
    dirs = direction_set(3, 2000)
    _, peak = _traced(metrics._hausdorff_value, f, g, dirs, 301)
    assert peak < 16 * 2**20


def test_support_kernel_allocates_nothing_per_tile():
    # The kernel views vals in every tile and for every function. A view
    # of this subclass logs how far traced memory rose, since the last
    # view, above what is held now: a fresh product (256 KB) or a
    # broadcasting ufunc's iterator buffers (128 KB) would show.
    rises = []

    class Probe(np.ndarray):
        def __array_finalize__(self, obj):
            if tracemalloc.is_tracing():
                current, peak = tracemalloc.get_traced_memory()
                rises.append(peak - current)
                tracemalloc.reset_peak()

    f, g = _random_pair(2, 90)
    dirs = direction_set(3, 500)
    dirs = dirs[dirs[:, 2] < 0.0]
    pts = vertex_grid(f.domain, 101)
    vals = np.stack([f.values(pts), g.values(pts)]).view(Probe)
    got, _ = _traced(metrics._support_batch, pts, vals, dirs)
    tiles = -(-len(pts) // (metrics._TILE_ENTRIES // len(dirs)))
    assert tiles == 78 and len(rises) > 2 * tiles
    assert max(rises) < 4096
    assert np.array_equal(got, metrics._support_batch(pts, vals.view(np.ndarray),
                                                       dirs))


# -- the pruned sweep ---------------------------------------------------------


def _down(ambient, count):
    dirs = direction_set(ambient, count)
    return dirs[dirs[:, -1] < 0.0]


def _grid_pair(f, g, n):
    # the vertex grid's axes and the pair's values on it, as the sweep reads
    return (metrics._vertex_axes(f.domain, n),
            np.stack([f.values(vertex_grid(f.domain, n)),
                      g.values(vertex_grid(g.domain, n))]))


# per dimension: n = 2 and 3, a multiple of the tile side and one past it
_PRUNED_SIZES = {1: (2, 3, 64, 65, 501), 2: (2, 3, 32, 33), 3: (2, 3, 12, 13)}


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.data())
def test_the_pruned_gap_equals_the_unmasked_sweep_bit_for_bit(data):
    # every grid is pruned here, whatever its size; 70000 directions put
    # more than 2^15 down, past the kernel's first column step (on the
    # small grids only, where the unmasked reference is cheap)
    d = data.draw(st.integers(1, 3), label="d")
    n = data.draw(st.sampled_from(_PRUNED_SIZES[d]), label="n")
    counts = (2 * (d + 1), 33, 64, 500) + ((70000,) if n <= 3 else ())
    count = data.draw(st.sampled_from(counts), label="count")
    kind = data.draw(st.sampled_from(("random", "identical", "ramp")),
                     label="pair")
    f, g = _random_pair(d, data.draw(st.integers(0, 10**4), label="seed"))
    if kind == "identical":
        g = f
    elif kind == "ramp":
        f, g = ramp(f.domain, 0.5), Affine(f.domain, (0.25,) * d, 0.0)
    dirs = direction_set(d + 1, count)
    down = dirs[dirs[:, -1] < 0.0]
    axes, vals = _grid_pair(f, g, n)
    sf, sg = metrics._support_batch(vertex_grid(f.domain, n), vals, down)
    with mock.patch.multiple(metrics, _PRUNE_MIN_NODES=0,
                             _PRUNE_MIN_ENTRIES=0):
        pruned = metrics._prune(axes, vals, down)
        assert metrics._hausdorff_value(f, g, dirs, n) == \
            float(np.abs(sf - sg).max())
    # every gap of an identical pair sits inside its first brackets
    if kind == "identical":
        assert pruned is None


@pytest.mark.parametrize("d, n, count, side", [
    (1, 501, 1024, 11), (1, 65, 70000, 4), (2, 101, 500, 7), (2, 33, 500, 2),
    (2, 31, 200, 31), (3, 17, 200, 3), (3, 10, 64, 4)])
def test_support_brackets_hold_every_unmasked_value(d, n, count, side):
    # lo <= the sweep's support value <= hi, per function and direction,
    # for tiles of any side, the last one cut short or not
    down = _down(d + 1, count)
    for seed in range(0, 8, 2):
        f, g = _random_pair(d, 500 + seed)
        axes, vals = _grid_pair(f, g, n)
        scale = (sum(float(np.abs(x).max()) for x in axes)
                 + float(np.abs(vals).max())) * float(np.abs(down).max())
        lo, hi = metrics._SupportTiles(axes, vals, side, scale).brackets(down)
        support = metrics._support_batch(vertex_grid(f.domain, n), vals, down)
        assert (lo <= support).all() and (support <= hi).all()


def test_the_sweep_is_pruned_only_past_its_size_floor():
    # at the benchmark's lemma size a pair keeps a few of 250 downward
    # directions and a few of 10,201 nodes
    f, g = _random_pair(2, 170)
    axes, vals = _grid_pair(f, g, 101)
    keep, live = metrics._prune(axes, vals, _down(3, 500))
    assert 1 <= len(keep) <= 5 and 1 <= live.sum() <= 10
    # at least 1000 nodes and 2^19 node-direction entries, both inclusive
    for d, n, count, pruned in ((1, 999, 525, False), (3, 10, 525, True),
                                (2, 32, 511, False), (2, 32, 512, True)):
        f, g = _random_pair(d, 180)
        axes, vals = _grid_pair(f, g, n)
        down = _down(d + 1, 4 * count)[:count]
        assert (metrics._prune(axes, vals, down) is not None) == pruned
    # a scale of 2^1000 is refused: the rounding bounds assume no overflow.
    # f = -top and g = 0 have the gap top |u_t|, far past the slack, so
    # the brackets prune below that scale
    axes = metrics._vertex_axes(unit_rect(1), 1001)
    down = _down(2, 1200)
    assert np.abs(down).max() == 1.0
    for top, pruned in ((2.0**999, True), (2.0**1000, False), (math.inf, False),
                        (math.nan, False)):
        vals = np.zeros((2, 1001))
        vals[0] = -top
        assert (metrics._prune(axes, vals, down) is not None) == pruned


@pytest.mark.parametrize("d, n, count", [(1, 1001, 2048), (2, 201, 1000)])
def test_an_identical_pair_takes_the_full_sweep(monkeypatch, d, n, count):
    # its gaps are all 0, inside the first brackets, so every direction
    # would be kept: _prune gives up there rather than add its exact
    # brackets to a full sweep
    f, _ = _random_pair(d, 190)
    down = _down(d + 1, count)
    axes, vals = _grid_pair(f, f, n)
    assert metrics._prune(axes, vals, down) is None
    sf, sg = metrics._support_batch(vertex_grid(f.domain, n), vals, down)
    sweeps = _spy(monkeypatch, metrics, "_support_batch")
    assert metrics._hausdorff_value(f, f, direction_set(d + 1, count), n) \
        == float(np.abs(sf - sg).max()) == 0.0
    # one sweep, over every direction and node
    assert [len(args) for _, args, _ in sweeps] == [3]


# -- one sweep per (pair, directions, grid) ----------------------------------


def _clear_caches():
    for cache in (metrics._hausdorff_at, metrics._vertex_values,
                  metrics._kept):
        cache.cache_clear()


def _spy(monkeypatch, owner, name):
    """(calling function's name, args, result) of each owner.name call."""
    real, log = getattr(owner, name), []

    def call(*args, **kw):
        log.append((sys._getframe(1).f_code.co_name, args, real(*args, **kw)))
        return log[-1][2]
    monkeypatch.setattr(owner, name, call)
    return log


@pytest.fixture
def calls(monkeypatch):
    """The _spy logs of the support kernel, ConvexFunction.values,
    vertex_grid, quadrature_grid and direction_set, as "sweeps", "values",
    "grids", "quadratures" and "directions", from empty caches, which are
    emptied again after the test."""
    spied = (("sweeps", metrics, "_support_batch"),
             ("values", ConvexFunction, "values"),
             ("grids", metrics, "vertex_grid"),
             ("quadratures", metrics, "quadrature_grid"),
             ("directions", metrics, "direction_set"))
    log = {key: _spy(monkeypatch, owner, name) for key, owner, name in spied}
    _clear_caches()
    yield log
    _clear_caches()


def test_the_sup_and_l1_checks_of_one_pair_share_their_sweeps(calls):
    # and each function's evaluations and every vertex grid
    f, g = _random_pair(2, 150)
    grid = GridSpec(101)
    sup = check_sup_bound(f, g, n_directions=64, grid=grid)
    assert len(calls["sweeps"]) == 2  # the coarse and the fine value
    l1 = check_l1_bound(f, g, n_directions=64, grid=grid)
    assert sup.refinements == l1.refinements == 0
    assert len(calls["sweeps"]) == 2
    # per function: the 33-node ceiling grid, the vertex grids of 101 and
    # 201 nodes, and the quadrature grids of as many midpoints, which the
    # first coordinate (0 on a vertex grid) tells apart
    evaluations = [(h, len(pts), float(pts[0, 0]))
                   for _, (h, pts), _ in calls["values"]]
    assert len(evaluations) == len(set(evaluations)) == 10
    assert sorted(n for h, n, _ in evaluations if h is f) == \
        [33**2, 101**2, 101**2, 201**2, 201**2]
    # the vertex grids, shared by both functions and the support kernel
    grids = [args for _, args, _ in calls["grids"]]
    assert sorted(n for _, n in grids) == [33, 101, 201]
    assert {rect for rect, _ in grids} == {f.domain}


def test_a_cache_hit_equals_a_fresh_sweep_and_the_naive_formula(calls):
    f, g = _random_pair(2, 120)
    count, n = 60, 25
    doubled = (2 * count, GridSpec(n).refined())
    first = hausdorff_epigraph(f, g, count, GridSpec(n))
    again = hausdorff_epigraph(f, g, count, GridSpec(n))
    assert len(calls["sweeps"]) == 2
    # a call at the doubled resolution reuses the fine value
    refined = hausdorff_epigraph(f, g, *doubled)
    assert len(calls["sweeps"]) == 3
    metrics._hausdorff_at.cache_clear()
    fresh = hausdorff_epigraph(f, g, count, GridSpec(n))
    assert hausdorff_epigraph(f, g, *doubled) == refined
    assert len(calls["sweeps"]) == 6
    assert first == again == fresh
    coarse = _naive_hausdorff(f, g, 1.0, direction_set(3, count), n)
    fine = _naive_hausdorff(f, g, 1.0, direction_set(3, 2 * count), 2 * n - 1)
    assert first.value == coarse
    assert first.error_estimate == abs(fine - coarse)


def test_different_pairs_never_share_an_entry(calls):
    f, g = _random_pair(2, 130)
    h = make_random_convex(2, 0.9, 6, 132)
    grid = GridSpec(21)
    for a, b in ((f, g), (f, h), (h, g), (g, f)):
        before = len(calls["sweeps"])
        rep = hausdorff_epigraph(a, b, 40, grid)
        assert len(calls["sweeps"]) == before + 2
        assert rep.value == _naive_hausdorff(a, b, 1.0, direction_set(3, 40),
                                             grid.n)
    # a separately built copy of a pair is the same key
    copy = make_random_convex(2, 0.9, 6, 130)
    assert copy is not f
    hausdorff_epigraph(copy, g, 40, grid)
    assert len(calls["sweeps"]) == 8


# -- the cache key: forms compare and hash by value ---------------------------


def _every_form(zero=0.0):
    # one of each form in functions.py, built afresh on every call; zero
    # sets the sign of the zero coefficients and intercepts
    r = unit_rect(2)
    a = Affine(r, (zero, 0.5), zero)
    b = Affine(r, (-0.5, zero), 0.25)
    quad = SeparableQuadratic(r)
    return (a, MaxAffine(r, (a, b)), quad, MaxWith(r, (quad, a, b)))


def test_every_form_hashes_and_equal_copies_are_equal_keys():
    forms, copies = _every_form(), _every_form()
    assert [type(f).__name__ for f in forms] == [
        "Affine", "MaxAffine", "SeparableQuadratic", "MaxWith"]
    for form, copy in zip(forms, copies):
        assert copy is not form
        assert copy == form and hash(copy) == hash(form)
    assert len(set(forms)) == len(forms)


def test_forms_equal_up_to_the_sign_of_zero_give_the_same_bits(calls):
    # +0.0 == -0.0 and they hash alike, so one is served the other's
    # cached value; the sweep must give both the same float
    plus, minus = _every_form(0.0), _every_form(-0.0)
    assert math.copysign(1.0, minus[0].intercept) == -1.0
    assert math.copysign(1.0, minus[0].coeffs[0]) == -1.0
    other = make_random_convex(2, 0.9, 6, 140)
    dirs = direction_set(3, 64)
    for p, m in zip(plus, minus):
        assert p == m and hash(p) == hash(m)
        for pair_p, pair_m in (((p, other), (m, other)),
                               ((other, p), (other, m))):
            # each side evaluates its own form: equal keys share values
            values = []
            for pair in (pair_p, pair_m):
                metrics._vertex_values.cache_clear()
                values.append((metrics._hausdorff_value(*pair, dirs, 21),
                               metrics._sup_value(*pair, 21)))
            assert [v.hex() for v in values[0]] == \
                [v.hex() for v in values[1]]
    before = len(calls["sweeps"])
    from_minus = hausdorff_epigraph(minus[1], other, 32, GridSpec(21))
    assert hausdorff_epigraph(plus[1], other, 32, GridSpec(21)) == from_minus
    assert len(calls["sweeps"]) == before + 2


# -- one evaluation per (form, vertex grid) -----------------------------------


def test_a_cached_vertex_grid_refuses_writes(calls):
    # a form's values on a vertex grid and the grid's nodes are kept: a
    # second call returns the same arrays, which equal a fresh build bit
    # for bit and refuse writes
    f = make_random_convex(2, 0.9, 6, 160)
    vals = metrics._vertex_values(f, 9)
    nodes = metrics._kept(metrics.vertex_grid, f.domain, 9)
    assert metrics._vertex_values(f, 9) is vals
    assert metrics._kept(metrics.vertex_grid, f.domain, 9) is nodes
    assert len(calls["values"]) == len(calls["grids"]) == 1
    assert nodes.tobytes() == vertex_grid(f.domain, 9).tobytes()
    assert vals.tobytes() == f.values(vertex_grid(f.domain, 9)).tobytes()
    for cached in (vals, nodes):
        with pytest.raises(ValueError):
            cached[0] = 2.0
        with pytest.raises(ValueError):
            np.abs(cached, out=cached)


def test_cached_quadrature_grids_and_direction_sets_are_fresh_and_read_only(
        calls):
    # a second Lp distance or slope mass on the same box builds no grid,
    # and a second sweep with the same directions builds no direction set;
    # the kept arrays equal a fresh build bit for bit and refuse writes
    f, g = _random_pair(2, 165)
    grid = GridSpec(9)
    first = lp_distance(f, g, 1.0, grid)
    assert lp_distance(g, f, 2.0, grid).value > 0.0
    assert lp_distance(f, g, 1.0, grid) == first
    assert sorted(spec.n for _, (_, spec), _ in calls["quadratures"]) == [9, 17]
    mass = gradient_mass(f, 0.25)
    assert gradient_mass(f, 0.25) == mass and len(calls["quadratures"]) == 3
    hausdorff_epigraph(f, g, 40, grid)
    metrics._hausdorff_at.cache_clear()
    hausdorff_epigraph(f, g, 40, grid)
    assert len(calls["sweeps"]) == 4
    assert sorted(args for _, args, _ in calls["directions"]) == \
        [(3, 40), (3, 80)]
    pts, w = metrics._quadrature_nodes(f.domain, grid)
    dirs = metrics._directions(3, 40)
    assert metrics._quadrature_nodes(f.domain, grid)[0] is pts
    assert metrics._directions(3, 40) is dirs
    assert len(calls["quadratures"]) == 3 and len(calls["directions"]) == 2
    fresh_pts, fresh_w = quadrature_grid(f.domain, grid)
    assert pts.tobytes() == fresh_pts.tobytes()
    assert w.tobytes() == fresh_w.tobytes()
    assert dirs.tobytes() == direction_set(3, 40).tobytes()
    for cached in (pts, w, dirs):
        with pytest.raises(ValueError):
            cached[0] = 2.0
        with pytest.raises(ValueError):
            np.abs(cached, out=cached)


def test_only_small_quadrature_grids_and_direction_sets_are_kept(
        calls, monkeypatch):
    # past _KEPT_ENTRIES entries each use builds its own: here 9^2 nodes
    # and weights (243 entries) and 3 x 80 directions are kept, and 17^2
    # nodes and 3 x 100 directions are not
    monkeypatch.setattr(metrics, "_KEPT_ENTRIES", 3 * 9**2)
    f, g = _random_pair(2, 165)
    grid = GridSpec(9)
    for count in (40, 40, 100, 100):
        assert lp_distance(f, g, 1.0, grid).value > 0.0
        metrics._hausdorff_at.cache_clear()
        assert hausdorff_epigraph(f, g, count, grid).value > 0.0
    assert sorted(spec.n for _, (_, spec), _ in calls["quadratures"]) == \
        [9] + [17] * 4
    assert sorted(args[1] for _, args, _ in calls["directions"]) == \
        [40, 80, 100, 100, 200, 200]
    # the 9^2 quadrature grid, the 40 and 80 directions, and the vertex
    # grids of 9 and 17 nodes per axis
    assert metrics._kept.cache_info().currsize == 5


def test_lemmas_hit_the_value_cache_only_within_a_pair(tmp_path, calls):
    # sixteen pairs in one run score the hits and misses of the sixteen
    # pairs run alone: no pair is served another pair's values
    argv = ["lemmas", "--dim", "1", "--grid-n", "21", "--directions", "16"]
    cache = metrics._vertex_values
    alone = [0, 0]
    for i in range(16):
        _clear_caches()
        assert main([*argv, "--pairs", "1", "--seed", str(2 * i),
                     "--out-dir", str(tmp_path / f"alone{i}")]) == 0
        info = cache.cache_info()
        alone[0] += info.hits
        alone[1] += info.misses
    _clear_caches()
    assert main([*argv, "--pairs", "16", "--seed", "0",
                 "--out-dir", str(tmp_path / "all")]) == 0
    info = cache.cache_info()
    assert [info.hits, info.misses] == alone
    assert info.hits > 0 and info.currsize <= info.maxsize == 8
