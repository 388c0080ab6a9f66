"""Distances between convex functions.

Lp distances come from midpoint tensor-product quadrature, the sup
distance from a vertex-grid maximum, and the epigraph Hausdorff distance
from support functions sampled over a deterministic quasi-uniform set of
directions. Every estimator here converges from below as its resolution
grows, and each report carries an error estimate from a doubled-resolution
recomputation.

A vertex grid's nodes are built once per (box, grid), and a function's
values on it evaluated once per (form, grid), while they stay among the
few latest; both are shared by the sup distance, the Hausdorff sweep and
the slab-ceiling checks of verify.

The support kernel dominates the Hausdorff cost. It evaluates both slabs
in one tiled sweep over the grid, sharing the spatial product between
them, and the Hausdorff value passes it only the directions that point
down: the two supports agree exactly in every other direction. Neither
shortcut changes a bit of the result. Each (pair, directions, grid)
value is swept once per process while it stays among the few latest,
which a small cache keeps: the sup and L1 checks of one pair share it,
and so does the next refinement round of either, which asks again for
the previous round's fine value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .core import ParameterError, Rect
from .functions import ConvexFunction, _vertex_axes, grid_size, tensor_points

# Entries of one node-by-direction tile of the support kernel. Its three
# float64 working arrays (the shared spatial product, one function's
# lifted values and the directions' last components repeated on every
# row) take 768 KB together, so they stay in a server core's L2 cache.
_TILE_ENTRIES = 1 << 15

# Entries kept by each of the caches _hausdorff_at, _vertex_values and
# _vertex_nodes. One lemma pair asks for at most four distinct (directions,
# grid) Hausdorff resolutions, over both checks and two refinements, and
# evaluates its two functions on the vertex grids of 33, n and 2n - 1
# nodes per axis, so this holds one pair's values and nodes, and the pairs
# after it push them out.
_HAUSDORFF_CACHE_SIZE = 8


@dataclass(frozen=True)
class GridSpec:
    """Quadrature resolution: n midpoint nodes per axis."""

    n: int = 101

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("need n >= 2")

    def refined(self) -> "GridSpec":
        return GridSpec(2 * self.n - 1)


@dataclass(frozen=True)
class DistanceReport:
    """A distance value plus the gap to a doubled-resolution recomputation."""

    value: float
    error_estimate: float


def quadrature_axes(rect: Rect,
                    spec: GridSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-axis nodes and the (N,) weights of the tensor-product midpoint rule.

    Weight k belongs to node k of tensor_points(axes). The grid is refused
    past MAX_GRID_POINTS before the weights are built.
    """
    nodes, weights = [], []
    for lo, hi in zip(rect.lo, rect.hi):
        h = (hi - lo) / spec.n
        nodes.append(lo + (np.arange(spec.n) + 0.5) * h)
        weights.append(np.full(spec.n, h))
    grid_size(nodes)
    w = reduce(lambda a, b: np.multiply.outer(a, b).ravel(), weights)
    return nodes, w


def quadrature_grid(rect: Rect, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, d) and weights (N,) of the tensor-product midpoint rule."""
    nodes, w = quadrature_axes(rect, spec)
    return tensor_points(nodes), w


def vertex_grid(rect: Rect, n: int) -> np.ndarray:
    """Inclusive n-per-axis vertex grid; endpoints land exactly on the box."""
    if n < 2:
        raise ParameterError("need n >= 2")
    return tensor_points(_vertex_axes(rect, n))


@lru_cache(maxsize=_HAUSDORFF_CACHE_SIZE)
def _vertex_nodes(rect: Rect, n: int) -> np.ndarray:
    """vertex_grid(rect, n), built once per (box, grid) among the latest.

    Both functions of a pair and the support kernel read the same nodes.
    Rect is frozen, so a hit returns the bits a fresh build would. Every
    caller gets the same array: it is read-only.
    """
    pts = vertex_grid(rect, n)
    pts.flags.writeable = False
    return pts


@lru_cache(maxsize=_HAUSDORFF_CACHE_SIZE)
def _vertex_values(f: ConvexFunction, n: int) -> np.ndarray:
    """f on vertex_grid(f.domain, n), evaluated once per (form, grid).

    The sup distance, the Hausdorff sweep and the slab-ceiling checks of
    verify all read these values, so a pair's functions are evaluated once
    on each grid while it stays among the _HAUSDORFF_CACHE_SIZE latest.
    Forms are frozen dataclasses, so a hit returns the bits a fresh
    evaluation would. Every caller gets the same array: it is read-only.
    """
    vals = f.values(_vertex_nodes(f.domain, n))
    vals.flags.writeable = False
    return vals


def _require_common_domain(f: ConvexFunction, g: ConvexFunction) -> Rect:
    if f.domain != g.domain:
        raise ParameterError("functions must share a domain")
    return f.domain


def _lp_value(f, g, p, spec) -> float:
    pts, w = quadrature_grid(f.domain, spec)
    diff = np.abs(f.values(pts) - g.values(pts))
    return float((w @ diff**p) ** (1.0 / p))


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
    return float(np.abs(_vertex_values(f, n) - _vertex_values(g, n)).max())


def sup_grid_distance(f: ConvexFunction, g: ConvexFunction,
                      grid: GridSpec = GridSpec()) -> DistanceReport:
    """Max of |f - g| over an inclusive vertex grid.

    This is a lower bound for the true sup distance; it uses grid.n
    vertices per axis, where the quadrature uses grid.n cell midpoints.
    """
    _require_common_domain(f, g)
    value = _sup_value(f, g, grid.n)
    fine = _sup_value(f, g, 2 * grid.n - 1)
    return DistanceReport(value, abs(fine - value))


def _support_batch(pts: np.ndarray, vals: np.ndarray,
                   dirs: np.ndarray) -> np.ndarray:
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
    """
    d = pts.shape[1]
    out = np.empty((len(vals), len(dirs)))
    step = min(max(1, len(dirs)), _TILE_ENTRIES)
    rows = max(1, _TILE_ENTRIES // step)
    height = min(rows, len(pts))
    products, lifted, downs = np.empty((3, height * step))
    peaks = np.empty(step)
    for s in range(0, len(dirs), step):
        u = dirs[s:s + step]
        ux = u[:, :d].T
        # C-contiguous (height, len(u)) views: a product lands in the
        # layout of a fresh one, and the multiply pairs equal shapes
        spatial_rows, lifted_rows, down = (
            b[:height * len(u)].reshape(height, len(u))
            for b in (products, lifted, downs))
        down[...] = u[:, d]
        peak = peaks[:len(u)]
        best = out[:, s:s + step]
        best[...] = -np.inf
        for r in range(0, len(pts), rows):
            block = pts[r:r + rows]
            spatial = np.matmul(block, ux, out=spatial_rows[:len(block)])
            tile = lifted_rows[:len(block)]
            for v, b in zip(vals[:, r:r + rows], best):
                tile[...] = v[:, None]
                tile *= down[:len(block)]
                tile += spatial
                np.maximum(b, np.max(tile, axis=0, out=peak), out=b)
    return out


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
    raw = norm.ppf(sampler.random(count))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / norms


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
    # common top face, where both give the same number: its gap is exactly 0
    down = dirs[dirs[:, -1] < 0.0]
    if not len(down):
        return 0.0
    pts = _vertex_nodes(f.domain, n)
    vals = np.stack([_vertex_values(f, n), _vertex_values(g, n)])
    sf, sg = _support_batch(pts, vals, down)
    return float(np.abs(sf - sg).max())


@lru_cache(maxsize=_HAUSDORFF_CACHE_SIZE)
def _hausdorff_at(f, g, count, n) -> float:
    # Every form is a frozen dataclass of floats and tuples, so equal keys
    # are value-equal functions, and _hausdorff_value is deterministic: a
    # hit returns the bits a fresh sweep would.
    return _hausdorff_value(f, g, direction_set(f.domain.dim + 1, count), n)


def hausdorff_epigraph(f: ConvexFunction, g: ConvexFunction,
                       n_directions: int,
                       grid: GridSpec = GridSpec()) -> DistanceReport:
    """Hausdorff distance between the two functions' epigraph slabs.

    Computed as the largest absolute support-function gap over the sampled
    directions, so the value converges to the true distance from below as
    directions and grid refine. Only directions whose last component is
    < 0 are swept: both slabs reach every other one on their common top
    face with the same grid points, so its gap is exactly 0 and cannot
    raise the maximum (a signed zero is lost to the absolute value). The
    error estimate doubles the direction count and refines the support
    grid; it does not cover the systematic sampling bias, which is at most
    twice the slab circumradius times direction_covering_radius of the set.

    Each (f, g, directions, grid) value is swept once per process and then
    served from a cache of the _HAUSDORFF_CACHE_SIZE latest, so a second
    check of the same pair, or a refinement that asks again for the
    previous fine value, sweeps nothing.
    """
    d = _require_common_domain(f, g).dim
    if n_directions < 2 * (d + 1):
        raise ParameterError(f"need at least {2 * (d + 1)} directions")
    value = _hausdorff_at(f, g, n_directions, grid.n)
    fine = _hausdorff_at(f, g, 2 * n_directions, 2 * grid.n - 1)
    return DistanceReport(value, abs(fine - value))
