"""Distances between convex functions.

Lp distances come from midpoint tensor-product quadrature, the sup
distance from a vertex-grid maximum, and the epigraph Hausdorff distance
from support functions sampled over a deterministic quasi-uniform set of
directions, each report with an error estimate from a doubled resolution.
Only the sup value is one-sided: at most the true sup, it never falls as its
nested grids refine. The Lp and Hausdorff values err on either side.

Three small caches keep what the pairs of a run share while it stays
among their latest keys, all of it read-only. _kept builds each
run-constant grid once: vertex grids, quadrature grids (nodes and
weights) and direction sets, the last two only up to _KEPT_ENTRIES
entries. _vertex_values evaluates a function once per (form, vertex
grid) for the sup distance, the Hausdorff sweep and the slab-ceiling
checks of verify, and _hausdorff_at sweeps each (pair, directions, grid)
value once for the sup and L1 checks of a pair. The Lp and sup values
form |f - g| in place, in one buffer of the grid's size.

The support kernel dominates the Hausdorff cost. It evaluates both slabs
in one tiled sweep over the grid, sharing the spatial product between
them, and the Hausdorff value passes it only the directions that point
down: the two supports agree exactly in every other direction. On grids
of at least 1000 nodes it sweeps fewer still. Bounds on each support
value from tiles of the grid keep only the directions whose gap can
reach the largest one, and only the strips of nodes that can attain
their values; the kernel still forms each swept strip's product over
every downward direction, as the full sweep does, and picks the kept
columns from it. A pair whose first bounds keep every direction, as an
identical pair's do, takes the full sweep. None of these shortcuts
changes a bit of the result. The kernel's tiles and the max-affine
evaluation strips of functions share one size, _TILE_ENTRIES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ParameterError, Rect, require_directions, require_grid_n
from .functions import (
    _TILE_ENTRIES,
    ConvexFunction,
    _vertex_axes,
    grid_size,
    tensor_points,
)

# Entries kept by _hausdorff_at and _vertex_values; _kept holds twice as
# many. One lemma pair asks for two (directions, grid) Hausdorff
# resolutions, a value and its error estimate's, which both checks share,
# and evaluates its two functions on vertex grids of core.SLAB_GRID_AXIS,
# n and 2n - 1 nodes per axis, so this holds one pair's values. Every pair
# of a run reads the same 8 keys of _kept: those three vertex grids, three
# quadrature grids (n and 2n - 1 midpoints, core.SLOPE_MASS_GRID_AXIS on
# the slope mass's inner box) and two direction sets, about 2.3 MB at
# d = 2 and n = 101.
_CACHE_SIZE = 8

# Float entries of the largest quadrature grid (coordinates and weights) or
# direction set kept: 2 MB, so at most 32 MB in all. Larger ones are built
# for each use; kept, the grids of a lemma run at MAX_GRID_POINTS raised
# its peak RSS by about 210 MB (d = 2, --grid-n 1581). Vertex grids are
# kept at any size, as the values on them are.
_KEPT_ENTRIES = 1 << 18

# Halton rows that direction_set draws at a time: scipy's sampler and
# normal quantile peak near 9x what they return (59 MB for
# direction_set(4, 200000) in one draw, 12 MB in these chunks).
_HALTON_ROWS = 1 << 14

# _prune runs on grids of at least _PRUNE_MIN_NODES nodes and at least
# _PRUNE_MIN_ENTRIES node-by-direction entries; see its docstring.
_PRUNE_MIN_NODES = 1000
_PRUNE_MIN_ENTRIES = 1 << 19


@dataclass(frozen=True)
class GridSpec:
    """Quadrature resolution: n midpoint nodes per axis."""

    n: int = 101

    def __post_init__(self):
        require_grid_n(self.n)

    def refined(self) -> "GridSpec":
        return GridSpec(2 * self.n - 1)


@dataclass(frozen=True)
class DistanceReport:
    """A distance value plus the gap to a doubled-resolution recomputation."""

    value: float
    error_estimate: float


@lru_cache(maxsize=2 * _CACHE_SIZE)
def _kept(build, *key):
    """build(*key), built once among the latest keys, its arrays read-only.

    Keys are frozen and builds deterministic, so a hit returns the bits a
    fresh build would. Callers pass their module binding of build, so a
    wrapper installed over it sees every build.
    """
    kept = build(*key)
    for a in kept if isinstance(kept, tuple) else (kept,):
        a.flags.writeable = False
    return kept


def quadrature_axes(rect: Rect,
                    spec: GridSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-axis nodes and the (N,) weights of the tensor-product midpoint rule.

    Weight k belongs to node k of tensor_points(axes); every weight is the
    product of the axes' steps, taken in axis order. The grid is refused
    past MAX_GRID_POINTS before the weights are built.
    """
    nodes, steps = [], []
    for lo, hi in zip(rect.lo, rect.hi):
        h = (hi - lo) / spec.n
        nodes.append(lo + (np.arange(spec.n) + 0.5) * h)
        steps.append(h)
    return nodes, np.full(grid_size(nodes), math.prod(steps))


def quadrature_grid(rect: Rect, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, d) and weights (N,) of the tensor-product midpoint rule."""
    nodes, w = quadrature_axes(rect, spec)
    return tensor_points(nodes), w


def _quadrature_nodes(rect: Rect,
                      spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """quadrature_grid(rect, spec), kept if it has at most _KEPT_ENTRIES
    entries, else built for each call.

    The Lp values of every pair on one box, and the slope masses of every
    function on one inner box, read the same nodes and weights.
    """
    if (rect.dim + 1) * spec.n ** rect.dim > _KEPT_ENTRIES:
        return quadrature_grid(rect, spec)
    return _kept(quadrature_grid, rect, spec)


def vertex_grid(rect: Rect, n: int) -> np.ndarray:
    """Inclusive n-per-axis vertex grid; endpoints land exactly on the box."""
    require_grid_n(n)
    return tensor_points(_vertex_axes(rect, n))


@lru_cache(maxsize=_CACHE_SIZE)
def _vertex_values(f: ConvexFunction, n: int) -> np.ndarray:
    """f on vertex_grid(f.domain, n), evaluated once per (form, grid).

    The sup distance, the Hausdorff sweep and the slab-ceiling checks of
    verify all read these values, so a pair's functions are evaluated once
    on each grid while it stays among the _CACHE_SIZE latest. Forms are
    frozen dataclasses, so a hit returns the bits a fresh evaluation
    would. Every caller gets the same array: it is read-only.
    """
    vals = f.values(_kept(vertex_grid, f.domain, n))
    vals.flags.writeable = False
    return vals


def _require_common_domain(f: ConvexFunction, g: ConvexFunction) -> Rect:
    if f.domain != g.domain:
        raise ParameterError("functions must share a domain")
    return f.domain


def _lp_value(f, g, p, spec) -> float:
    # |f - g|^p formed in f's fresh values, with no temporary of its size
    pts, w = _quadrature_nodes(f.domain, spec)
    diff = f.values(pts)
    diff -= g.values(pts)
    np.abs(diff, out=diff)
    diff **= p
    return float((w @ diff) ** (1.0 / p))


def lp_distance(f: ConvexFunction, g: ConvexFunction, p: float,
                grid: GridSpec = GridSpec()) -> DistanceReport:
    """Quadrature Lp distance, 1 <= p < inf, on the shared domain."""
    if not (1.0 <= p < math.inf):
        raise ParameterError("need 1 <= p < inf")
    _require_common_domain(f, g)
    value = _lp_value(f, g, p, grid)
    fine = _lp_value(f, g, p, grid.refined())
    return DistanceReport(value, abs(value - fine))


def _sup_value(f, g, n) -> float:
    diff = np.subtract(_vertex_values(f, n), _vertex_values(g, n))
    return float(np.abs(diff, out=diff).max())


def sup_grid_distance(f: ConvexFunction, g: ConvexFunction,
                      grid: GridSpec = GridSpec()) -> DistanceReport:
    """Max of |f - g| over an inclusive vertex grid.

    This is a lower bound for the true sup distance; it uses grid.n
    vertices per axis, where the quadrature uses grid.n cell midpoints.
    """
    _require_common_domain(f, g)
    value = _sup_value(f, g, grid.n)
    fine = _sup_value(f, g, grid.refined().n)
    return DistanceReport(value, abs(fine - value))


def _support_batch(pts: np.ndarray, vals: np.ndarray, dirs: np.ndarray,
                   keep: np.ndarray | None = None,
                   live: np.ndarray | None = None) -> np.ndarray:
    """Support values of the epigraph slabs of f_j for each direction row.

    Every direction must point down (last component < 0), so the
    maximizing t is f(x) whatever the slab's ceiling. vals holds one row of
    grid values per function, shape (k, N); the result has shape
    (k, len(dirs)). The x part is maximized over the grid, so each value
    is exact in t and grid-limited in x.

    The grid is swept in tiles of at most _TILE_ENTRIES node-by-direction
    entries (directions are split too when there are more than that). Each
    tile forms the spatial product pts @ u_x once and shares it among the
    k functions, and each function keeps a running maximum over the tiles.
    Every entry is the same rounded sum as in an untiled sweep and a
    maximum is exact in any order, so tiling leaves every bit unchanged.
    Its working arrays are allocated once per call, next to the result,
    and every tile is written into them: the tile loop allocates nothing.
    The lifted values are v copied along each row times the repeated last
    components, the same product as v[:, None] * last, without the
    iterator buffers a broadcasting multiply allocates on every call.

    keep, a sorted array of direction indices, limits the result to those
    columns, in that order; live, a mask over the nodes, skips every strip
    of nodes that holds no live node. Each strip still forms its whole
    product over the directions of its tile, and the kept columns are
    picked from it: a product's last bits can follow its shape (at d >= 2
    a BLAS kernel may or may not fuse the multiply-add), so only a product
    of the shape the unpruned sweep forms gives its bits. A value over the
    live strips is exact when they hold the node that attains it.
    """
    d = pts.shape[1]
    out = np.empty((len(vals), len(dirs) if keep is None else len(keep)))
    step = min(max(1, len(dirs)), _TILE_ENTRIES)
    rows = max(1, _TILE_ENTRIES // step)
    height = min(rows, len(pts))
    strips = range(0, len(pts), rows)
    if live is not None:
        strips = np.flatnonzero(np.logical_or.reduceat(live, strips)) * rows
    # picks takes the kept columns of each product
    products, lifted, downs, picks = np.empty((4, height * step))
    peaks = np.empty(step)
    done = 0
    for s in range(0, len(dirs), step):
        u = dirs[s:s + step]
        cols = slice(None) if keep is None else \
            keep[np.searchsorted(keep, s):np.searchsorted(keep, s + len(u))] - s
        last = u[cols, d]
        if not len(last):
            continue
        ux = u[:, :d].T
        # C-contiguous (height, width) views: a product lands in the
        # layout of a fresh one, and the multiply pairs equal shapes
        spatial_rows = products[:height * len(u)].reshape(height, len(u))
        lifted_rows, down, picked = (
            b[:height * len(last)].reshape(height, len(last))
            for b in (lifted, downs, picks))
        down[...] = last
        peak = peaks[:len(last)]
        best = out[:, done:done + len(last)]
        done += len(last)
        best[...] = -np.inf
        for r in strips:
            block = pts[r:r + rows]
            spatial = np.matmul(block, ux, out=spatial_rows[:len(block)])
            if len(last) < len(u):
                spatial = np.take(spatial, cols, axis=1, mode="clip",
                                  out=picked[:len(block)])
            tile = lifted_rows[:len(block)]
            for v, b in zip(vals[:, r:r + rows], best):
                tile[...] = v[:, None]
                tile *= down[:len(block)]
                tile += spatial
                np.maximum(b, np.max(tile, axis=0, out=peak), out=b)
    return out


def _outer_sum(parts: list[np.ndarray]) -> np.ndarray:
    """Row p holds parts[0][p, i0] + ... + parts[-1][p, i_last] over every
    index tuple, the first axis slowest, as (P, side^d)."""
    total = parts[0]
    for part in parts[1:]:
        total = (total[:, :, None] + part[:, None, :]).reshape(len(part), -1)
    return total


class _SupportTiles:
    """Bounds on a pair's support entries from tiles of the vertex grid.

    The grid of n nodes per axis is cut into tiles of side nodes a side
    (the last tile of an axis repeats its last node). An entry of function
    f at node x in a downward direction u = (u_x, u_t) is x.u_x + f(x) u_t.
    Over a tile, x.u_x is at most its value at the tile's corner in u_x's
    orthant, and f(x) u_t at most the tile's least f times u_t, so each
    tile bounds its entries from above; the entry at the tile's centre
    node bounds their maximum from below. Both are rows of one product,
    rows @ [u_x, |u_x|, u_t], whose tile rows are [centre, half width,
    least f] and [centre node, 0, f at it].

    Rounding. Let u = 2^-53 and S = (sum_a max|x_a| + max|f|) max|u_j|. An
    entry as the sweep rounds it, a tile bound, and a node's entry
    evaluated here elementwise are each a sum of at most 2d + 1 products
    whose magnitudes add up to at most S (1 + 8u): a half width is rounded
    up by 4u max|x_a|, so that centre +- half width holds the tile
    exactly. Summed in any order, with or without fused multiply-adds,
    each is within gamma_(2d+1) S <= 2 (2d + 1) u S of its exact value
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1). The
    slack, 16 (d + 1) u S, exceeds twice that plus the rounding of adding
    or subtracting it, so a bound plus slack is at least every entry it
    bounds as the sweep rounds it, and an elementwise entry less slack at
    most the sweep's entry at that node. Its absolute 2^-1000 covers the
    at most 2^-1075 that each operation can lose to underflow.
    """

    def __init__(self, axes: list[np.ndarray], vals: np.ndarray, side: int,
                 scale: float):
        d, n, k = len(axes), len(axes[0]), len(vals)
        slack = 16 * (d + 1) * 2.0**-53 * scale + 2.0**-1000
        first = np.arange(0, n, side)
        self.nodes = np.minimum(first[:, None] + np.arange(side), n - 1)
        last, centre = self.nodes[:, -1], self.nodes[:, side // 2]
        self.axes, self.k, self.slack = axes, k, slack
        self.vals, self.size = vals.reshape(-1), n**d
        self.strides = [n ** (d - 1 - a) for a in range(d)]
        self.shape = (len(first),) * d
        self.count = len(first) ** d
        rows = np.zeros((2 * k, len(first) ** d, 2 * d + 1))
        rows[:k, :, :d] = tensor_points([(x[first] + x[last]) / 2
                                         for x in axes])
        rows[:k, :, d:2 * d] = tensor_points([
            (x[last] - x[first]) / 2
            + 4 * 2.0**-53 * np.maximum(abs(x[first]), abs(x[last]))
            for x in axes])
        rows[k:, :, :d] = tensor_points([x[centre] for x in axes])
        least = vals.reshape(k, *(n,) * d)
        for a in range(1, d + 1):
            least = np.take(least, self.nodes.ravel(), axis=a)
            least = least.reshape(*least.shape[:a], -1, side,
                                  *least.shape[a + 1:]).min(axis=a + 1)
        rows[:k, :, 2 * d] = least.reshape(k, -1)
        rows[k:, :, 2 * d] = vals[:, _outer_sum([centre[None] * s
                                                 for s in self.strides])[0]]
        self.rows = rows.reshape(-1, 2 * d + 1)
        # directions per product and tile-direction pairs per evaluation,
        # so that no working array passes _TILE_ENTRIES entries by much
        self.chunk = max(1, _TILE_ENTRIES // len(self.rows))
        self.pairs = max(1, _TILE_ENTRIES // side**d)

    def _products(self, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """rows @ [u_x, |u_x|, u_t], as (len(rows) // tiles, tiles, len(u)).

        The longer of the tile and direction axes is laid out last, so that
        a reduction over the tiles runs along it: numpy's loop over the
        other axes costs more than the reduction when they are long.
        """
        d = len(self.axes)
        w = np.concatenate([u[:, :d], np.abs(u[:, :d]), u[:, d:]], axis=1)
        if self.count >= len(u):
            return (w @ rows.T).reshape(len(u), -1, self.count).transpose(1, 2, 0)
        return (rows @ w.T).reshape(-1, self.count, len(u))

    def brackets(self, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (k, len(dirs)): lo <= the sweep's support value
        <= hi, for each function and direction."""
        top = np.empty((2 * self.k, len(dirs)))
        for s in range(0, len(dirs), self.chunk):
            u = dirs[s:s + self.chunk]
            np.max(self._products(u, self.rows), axis=1,
                   out=top[:, s:s + len(u)])
        return top[self.k:] - self.slack, top[:self.k] + self.slack

    def bounds(self, u: np.ndarray) -> np.ndarray:
        """(k, tiles, len(u)): each tile's bound on its entries, before
        the slack is added."""
        return self._products(u, self.rows[:len(self.rows) // 2])

    def entries(self, tile: np.ndarray, f: np.ndarray,
                u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entries of function f[p] on the nodes of tile[p] in direction
        u[p], evaluated elementwise, and those nodes, both (P, side^d)."""
        nodes = [self.nodes[t] for t in np.unravel_index(tile, self.shape)]
        spatial = _outer_sum([x[i] * u[:, a, None]
                              for a, (x, i) in enumerate(zip(self.axes, nodes))])
        flat = _outer_sum([i * s for i, s in zip(nodes, self.strides)])
        at = f[:, None] * self.size + flat
        return spatial + self.vals[at] * u[:, -1, None], flat


def _prune(axes: list[np.ndarray], vals: np.ndarray,
           dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(kept directions, live nodes) for the gap max_j |s_f(u_j) - s_g(u_j)|.

    The gap of the pair vals = [f, g] on the vertex grid of axes is the
    largest |s_f - s_g| over the downward dirs, as _support_batch rounds
    the support values. A direction whose gap cannot reach another's is
    dropped, and a node that cannot attain a kept direction's support
    value is not live. The kept values are the full sweep's bit for bit,
    and their maximum is the gap.

    1. Brackets. _SupportTiles bounds each support value, lo <= s <= hi.
       Rounding is monotone, so fl(lo_f - hi_g) <= fl(s_f - s_g) <=
       fl(hi_f - lo_g), and the gap of u_j lies in [least_j, reach_j]:
       least_j = max(fl(lo_f - hi_g), fl(lo_g - hi_f)), reach_j the like
       maximum of the upper differences. No slack beyond lo's and hi's.
    2. Candidates: the directions whose reach is at least the largest
       least gap. Every other direction's gap is below that of the
       direction that sets it, so the maximum stays among the candidates,
       and that direction is one of them: the set is never empty.
    3. Exact brackets. A candidate's value is attained at a node of a
       hot tile, one whose bound plus slack reaches lo. The largest entry
       over its hot tiles, evaluated elementwise, is within slack of the
       value. Step 2 on these brackets gives the kept directions. The
       nodes of their hot tiles whose entry comes within 2 slack of the
       new lo are the live nodes; they hold each kept value's maximizing
       node.

    A tile holds about sqrt(N) / 2 of the N nodes: the bounds cost grows
    with the tile count and the exact brackets with the nodes per tile
    (of 0.25, 0.5, 1 and 2 sqrt(N), 0.5 and 1 were fastest at d = 1..3).
    None, for the full sweep, below 1000 nodes or 2^19 node-by-direction
    entries, when a value or a coordinate is too large, or not finite,
    for the rounding bounds, or when step 2 keeps every direction, as it
    does for an identical pair, whose gaps are all 0 (its pruned value
    took 11.6 ms against the full sweep's 6.9 at d = 1 and 1001 nodes, but
    29 against 68 at d = 2 and 201^2 nodes). Measured on one core of a
    2-vCPU VM (median of five pairs, d = 1..3), the pruned sweep took 0.65
    to 2.7 times the full sweep's time below 2^19 entries, and 1.05 to 1.4
    times past it on grids under 1000 nodes, where tiles of 2 or 3 nodes
    bound loosely; on the grids pruned here it took 0.05 to 0.84 times.
    """
    d, n_nodes = len(axes), len(vals[0])
    if n_nodes < _PRUNE_MIN_NODES or n_nodes * len(dirs) < _PRUNE_MIN_ENTRIES:
        return None
    scale = (sum(float(np.abs(x).max()) for x in axes)
             + float(np.abs(vals).max())) * float(np.abs(dirs).max())
    if not scale < 2.0**1000:
        return None
    side = max(2, round((math.sqrt(n_nodes) / 2) ** (1 / d)))
    tiles = _SupportTiles(axes, vals, side, scale)

    def reaches(lo, hi):
        reach = np.maximum(hi[0] - lo[1], hi[1] - lo[0])
        return reach >= np.maximum(lo[0] - hi[1], lo[1] - hi[0]).max()

    def hot(ids, lo):
        # (direction, function, entries, nodes) of the tiles that reach lo
        for s in range(0, len(ids), tiles.chunk):
            u = dirs[ids[s:s + tiles.chunk]]
            bound = tiles.bounds(u) + tiles.slack
            f, t, j = np.nonzero(bound >= lo[:, None, s:s + len(u)])
            for q in range(0, len(j), tiles.pairs):
                p = slice(q, q + tiles.pairs)
                yield (s + j[p], f[p], *tiles.entries(t[p], f[p], u[j[p]]))

    lo, hi = tiles.brackets(dirs)
    cand = np.flatnonzero(reaches(lo, hi))
    if len(cand) == len(dirs):
        return None
    best = np.full((2, len(cand)), -np.inf)
    for j, f, entries, _ in hot(cand, lo[:, cand]):
        np.maximum.at(best, (f, j), entries.max(axis=1))
    lo, hi = best - tiles.slack, best + tiles.slack
    kept = reaches(lo, hi)
    keep, lo = cand[kept], lo[:, kept]
    live = np.zeros(n_nodes, dtype=bool)
    for j, f, entries, nodes in hot(keep, lo):
        live[nodes[entries >= (lo[f, j] - 2 * tiles.slack)[:, None]]] = True
    return keep, live


def direction_set(ambient: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions on S^(ambient-1).

    ambient 2 uses an angle lattice (doubling count keeps old directions),
    ambient 3 a Fibonacci spiral, higher dimensions an unscrambled Halton
    sequence pushed through the normal quantile.
    """
    if ambient < 2 or count < 1:
        raise ParameterError("need ambient >= 2 and count >= 1")
    if ambient == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if ambient == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        theta = i * math.pi * (3.0 - math.sqrt(5.0))
        return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    from scipy.stats import norm, qmc

    sampler = qmc.Halton(d=ambient, scramble=False)
    sampler.fast_forward(1)  # skip the all-zero first point
    dirs = np.empty((count, ambient))
    for s in range(0, count, _HALTON_ROWS):
        raw = norm.ppf(sampler.random(min(_HALTON_ROWS, count - s)))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        np.divide(raw, norms, out=dirs[s:s + len(raw)])
    return dirs


def _directions(ambient: int, count: int) -> np.ndarray:
    """direction_set(ambient, count), kept if it has at most
    _KEPT_ENTRIES entries, else built for each call."""
    if ambient * count > _KEPT_ENTRIES:
        return direction_set(ambient, count)
    return _kept(direction_set, ambient, count)


def direction_covering_radius(ambient: int, count: int) -> float:
    """Upper bound on the covering radius of direction_set(ambient, count).

    Exact for the angle lattice (pi / count in chord distance, slightly
    over). The Fibonacci constant is measured at 2.7 / sqrt(count) and
    stated with margin; the Halton allowance is coarse. Used to bound how
    far a sampled support-function maximum can sit below the true one.
    """
    if ambient < 2 or count < 1:
        raise ParameterError("need ambient >= 2 and count >= 1")
    if ambient == 2:
        return math.pi / count
    if ambient == 3:
        return 3.5 / math.sqrt(count)
    return 6.0 * count ** (-1.0 / (ambient - 1.0))


def _hausdorff_value(f, g, dirs, n) -> float:
    # a direction with last component >= 0 is maximized on the slabs'
    # common top face, where both give the same number: its gap is exactly 0.
    # _prune keeps the directions and nodes that hold the largest gap, and
    # the one sweep over them gives its bits (it is None on small grids,
    # and where it would keep every direction)
    down = dirs[dirs[:, -1] < 0.0]
    if not len(down):
        return 0.0
    pts = _kept(vertex_grid, f.domain, n)
    vals = np.stack([_vertex_values(f, n), _vertex_values(g, n)])
    pruned = _prune(_vertex_axes(f.domain, n), vals, down)
    sf, sg = _support_batch(pts, vals, down, *(pruned or ()))
    return float(np.abs(sf - sg).max())


@lru_cache(maxsize=_CACHE_SIZE)
def _hausdorff_at(f, g, count, n) -> float:
    # Every form is a frozen dataclass of floats and tuples, so equal keys
    # are value-equal functions, and _hausdorff_value is deterministic: a
    # hit returns the bits a fresh sweep would.
    return _hausdorff_value(f, g, _directions(f.domain.dim + 1, count), n)


def hausdorff_epigraph(f: ConvexFunction, g: ConvexFunction,
                       n_directions: int,
                       grid: GridSpec = GridSpec()) -> DistanceReport:
    """Hausdorff distance between the two functions' epigraph slabs.

    Computed as the largest absolute support-function gap over the sampled
    directions. Each support value is at most the slab's true one, but the
    gap errs on either side: 11 nodes can give more than 20,001. Only the
    directions whose last component is < 0 are swept: both slabs reach every
    other one on their common top face with the same grid points, so its gap
    is exactly 0 and cannot raise the maximum (a signed zero is lost to the
    absolute value). On grids of at least 1000 nodes, tile bounds on the
    support values drop every direction whose gap provably stays below
    another's, and every strip of nodes that cannot attain a kept value;
    a maximum over any set that holds its argmax is exact, so the value
    keeps every bit (_prune). The error estimate doubles the direction
    count and refines the support grid; it does not cover the systematic
    sampling bias, at most twice the slab circumradius times
    direction_covering_radius.

    Each (f, g, directions, grid) value is swept once per process and then
    served from a cache of the _CACHE_SIZE latest, so the second check of
    the same pair sweeps nothing.
    """
    require_directions(_require_common_domain(f, g).dim, n_directions)
    value = _hausdorff_at(f, g, n_directions, grid.n)
    fine = _hausdorff_at(f, g, 2 * n_directions, grid.refined().n)
    return DistanceReport(value, abs(fine - value))
