"""The layer with no numpy: errors, boxes, JSON helpers, exact counts and
the interval systems with their exact cap checks.

Everything here runs on Python ints and floats; an eta may also be a
Fraction, which only separation_curve builds. It holds what schedule, the
assembled bounds and the CLI's refusals of schedule and bounds queries
need, the grid and system-size limits behind the refusals of pack and
lemmas queries, and all that a pack over CELL_CAP cells writes, so those
paths never import numpy; functions, metrics, packing and verify build
on it.

The exact packing counts are the side of packing's construction that
needs no arrays: the interval count k per axis, decided in exact
rational arithmetic so that boundary cases of eta never flip on float
rounding, the code's target size and minimum distance, and the family
size and separation at a given eta. The interval system places k
intervals per axis, and verify_cap_properties decides the cap properties
of its cells on Python ints; packing builds f0 and the caps as function
forms from the same system.

The records here (Rect, LipschitzVector, SeparationPoint, IntervalSystem,
CapPropertyReport), like those of schedule, are NamedTuples rather than
frozen dataclasses: the dataclasses module imports inspect, and the two
add several milliseconds to every start-up of the CLI. A NamedTuple
cannot define __new__ in its body, so a record that normalizes or checks
its fields subclasses a plain fields tuple and does that in its own
__new__.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

MAX_DIM = 8

# Guard for tensor grids materialized in memory.
MAX_GRID_POINTS = 10**7

# Per-axis resolution of the bound-verification grid for random functions.
BOUND_GRID_AXIS = 17

# Per-axis resolutions of a lemma pair's slab-height and slope-mass grids.
SLAB_GRID_AXIS = 33
SLOPE_MASS_GRID_AXIS = 101

# Larger interval systems are refused before anything is built: at this
# size the exact cap checks on Python ints, intercept table included, take
# 0.35 s at d = 1 and 0.16 s at d = 8 on a 2-core x86-64 host, and peak at
# 57 and 13 MiB (tracemalloc).
SYSTEM_CELL_CAP = 2**16

# Families larger than this in cells are refused; the code search over
# 2^n words stops being practical and ints no longer fit two rng draws.
CELL_CAP = 64

# Keep the last interval this far below 1 so exact-rational checks of the
# cap properties retain margin over coefficient rounding.
SPAN_LIMIT = 1.0 - 2.0**-30


class ParameterError(ValueError):
    """Construction or call parameters violate a precondition."""


class DomainError(ValueError):
    """A point lies outside the domain required by the operation."""


def _fstr(x: float) -> str:
    # repr of a float round-trips exactly through float()
    return repr(float(x))


def _json_value(v):
    if isinstance(v, float):
        return _fstr(v)
    if hasattr(v, "to_json"):  # before tuple: a NamedTuple record is one
        return v.to_json()
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return v  # str, int, bool or None


def _report_json(obj, *properties: str) -> dict:
    """A record as a JSON object: its fields in order, then the properties.

    The fields are type(obj).__match_args__, which NamedTuples and
    dataclasses alike define in field order. Floats go through _fstr, a
    value with its own to_json is written as that, and tuples and lists
    become lists; str, int, bool and None pass as is.
    """
    names = (*type(obj).__match_args__, *properties)
    return {name: _json_value(getattr(obj, name)) for name in names}


def _checked_make(cls, fields):
    # NamedTuple's _make, and so _replace, skips __new__; this one does not
    return cls(*fields)


def require_grid_n(n: int) -> None:
    """Refuse a grid of fewer than 2 nodes per axis."""
    if n < 2:
        raise ParameterError("need n >= 2")


def require_dim(d: int) -> None:
    """Refuse a dimension outside 1..MAX_DIM."""
    if not 1 <= d <= MAX_DIM:
        raise ParameterError(f"dimension must be in 1..{MAX_DIM}")


def require_directions(d: int, count: int) -> None:
    """Refuse fewer than 2(d + 1) directions for a Hausdorff value at d."""
    if count < 2 * (d + 1):
        raise ParameterError(f"need at least {2 * (d + 1)} directions")


class _RectFields(NamedTuple):
    lo: tuple[float, ...]
    hi: tuple[float, ...]


class Rect(_RectFields):
    """Axis-aligned box prod_i [lo_i, hi_i], dimension 1..8."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, lo, hi):
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        if len(lo) != len(hi):
            raise ParameterError("lo and hi must have the same length")
        require_dim(len(lo))
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ParameterError("each axis needs finite lo < hi")
        return super().__new__(cls, lo, hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def is_cube(self) -> bool:
        w = self.widths
        return all(x == w[0] for x in w)

    def to_json(self) -> dict:
        return _report_json(self)


def unit_rect(d: int) -> Rect:
    return Rect((0.0,) * d, (1.0,) * d)


class _LipschitzFields(NamedTuple):
    gamma: tuple[float, ...]


class LipschitzVector(_LipschitzFields):
    """Per-axis Lipschitz budgets; math.inf marks an unconstrained axis."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, gamma):
        g = tuple(float(v) for v in gamma)
        if not g:
            raise ParameterError("gamma must be non-empty")
        for v in g:
            if not v > 0:
                raise ParameterError("gamma entries must be positive (inf allowed)")
        return super().__new__(cls, g)

    def sum_squares(self) -> float:
        return sum(v * v for v in self.gamma)


# -- exact packing counts -------------------------------------------------


def max_eta(d: int) -> float:
    """Largest admissible eta for dimension d, 4 / (2 + sqrt(d-1))^2."""
    return 4.0 / (2.0 + math.sqrt(d - 1.0)) ** 2


def interval_count(eta, d: int) -> int:
    """Largest k with k * (2 sqrt(eta) + sqrt(eta (d-1))) <= 2, exactly.

    eta may be an int, float or Fraction; floats are taken at their exact
    binary value. Raises if no k >= 1 exists (eta above max_eta(d)). The
    first guess for k is formed in fixed-point integers, precise enough to
    be off by at most a few units at any eta, so a tiny eta can neither
    underflow it nor leave a long walk to the exact answer.

    Each k is decided on ints, with no Fraction built: for the exact
    a/b = eta.as_integer_ratio(), sqrt(4 eta k^2) + sqrt(eta (d-1) k^2) <= 2
    times sqrt(b) is sqrt(p) + sqrt(q) <= 2 sqrt(b) for p = 4 a k^2 and
    q = a (d-1) k^2. Squaring once leaves 2 sqrt(pq) <= rem = 4b - p - q,
    which holds iff rem >= 0 and 4 p q <= rem^2.
    """
    require_dim(d)
    if isinstance(eta, float) and not math.isfinite(eta):
        raise ParameterError("eta must be finite")
    a, b = eta.as_integer_ratio()
    if a <= 0:
        raise ParameterError("eta must be positive")

    def fits(k: int) -> bool:
        p = 4 * a * k * k
        q = a * (d - 1) * k * k
        rem = 4 * b - p - q
        return rem >= 0 and 4 * p * q <= rem * rem

    if not fits(1):
        raise ParameterError(f"eta must be at most {max_eta(d)} at d={d}")
    # k ~ 2 / ((2 + sqrt(d-1)) sqrt(e)), with root = 2^p / sqrt(e) and
    # s = 2^p sqrt(d-1); p exceeds the bits of k by 64
    p = (b.bit_length() - a.bit_length()) // 2 + 64
    root = math.isqrt((b << 2 * p) // a)
    s = math.isqrt((d - 1) << 2 * p)
    k = max(1, 2 * root // ((2 << p) + s))
    while not fits(k):
        k -= 1
    while fits(k + 1):
        k += 1
    return k


def code_target(n: int) -> int:
    """ceil(exp(n / 8)) words."""
    if n < 1:
        raise ParameterError("need n >= 1")
    return math.ceil(math.exp(n / 8.0))


def code_min_distance(n: int) -> int:
    """ceil(n / 4) bits."""
    if n < 1:
        raise ParameterError("need n >= 1")
    return -(-n // 4)


def separation_scale(d: int) -> float:
    """The factor c with separation c * eta: (2 + sqrt(d-1))^(-d) / 24."""
    return (2.0 + math.sqrt(d - 1.0)) ** -d / 24.0


class SeparationPoint(NamedTuple):
    """Family-size accounting at one eta: separation eps, log size n/8."""

    eta: float
    dim: int
    k: int
    n_cells: int
    eps: float
    log_packing: float


def separation_point(eta, d: int) -> SeparationPoint:
    k = interval_count(eta, d)
    n = k**d
    ef = float(eta)
    try:
        log_packing = n / 8.0
    except OverflowError:  # more cells than a float can count
        log_packing = math.inf
    return SeparationPoint(ef, d, k, n, separation_scale(d) * ef, log_packing)


def separation_curve(eta, d: int) -> tuple[SeparationPoint, ...]:
    """Points at eta, eta/4, ..., eta/4^4, exact in eta."""
    from fractions import Fraction  # only pack reaches here
    e = Fraction(eta)
    return tuple(separation_point(e / 4**m, d) for m in range(5))


# -- interval systems and the exact cap checks ----------------------------


class IntervalSystem(NamedTuple):
    """k intervals per axis: [starts[i], starts[i] + length], plus gaps."""

    eta: float
    dim: int
    k: int
    length: float
    gap: float
    starts: tuple[float, ...]

    @property
    def n_cells(self) -> int:
        return self.k**self.dim

    @property
    def slopes(self) -> tuple[float, ...]:
        """(u + v)/d per interval: a cap's coefficient on an axis in it."""
        return tuple((u + (u + self.length)) / self.dim for u in self.starts)

    @property
    def intercepts(self) -> tuple[float, ...]:
        """Every cell's cap intercept -sum(u_j v_j)/d, by linear cell index.

        Cells are indexed row-major, the last axis fastest. The products
        u v come from one per-interval table, are summed over the cell's
        axes in axis order, and the sum is negated and divided by d.
        """
        prod = [u * (u + self.length) for u in self.starts]
        return tuple(-s / self.dim
                     for s in map(sum, product(prod, repeat=self.dim)))

    def to_json(self) -> dict:
        return _report_json(self)


def build_interval_system(eta, d: int) -> IntervalSystem:
    """Place the k intervals inside [0, 1] with a small safety margin.

    Refuses a dim or eta out of range, and a system of more than
    SYSTEM_CELL_CAP cells, before building it. Endpoints are floats; when
    rounding (or an exactly spanning eta) pushes the last endpoint past
    SPAN_LIMIT the lengths are scaled down once and then stepped by ulps,
    so every endpoint sits strictly inside [0, 1).
    """
    k = interval_count(eta, d)
    if k**d > SYSTEM_CELL_CAP:
        raise ParameterError(f"eta too small: the system would have more "
                             f"than {SYSTEM_CELL_CAP} cells at d={d}")
    ef = float(eta)
    sq = math.sqrt(ef)
    gap = 0.5 * math.sqrt(ef * (d - 1))

    def span(s, g):
        return (k - 1) * (s + g) + s

    if span(sq, gap) > SPAN_LIMIT:
        t = SPAN_LIMIT / span(sq, gap)
        sq *= t
        gap *= t
    while span(sq, gap) > SPAN_LIMIT:
        sq = math.nextafter(sq, 0.0)
        if gap > 0.0:
            gap = math.nextafter(gap, 0.0)
    starts = tuple(i * (sq + gap) for i in range(k))
    return IntervalSystem(ef, d, k, sq, gap, starts)


class CapPropertyReport(NamedTuple):
    """Counts of the exact checks of the four cap properties.

    affine: midpoint identity cap(x) + cap(y) = 2 cap((x+y)/2). It holds
        in Q for every affine map and cannot fail; cap_report.json counts it.
    corner: coefficients nonnegative and cap value at the all-ones corner
        at most 1, every cell.
    above_inside: cap >= f0 at every lattice point of its own cell.
    below_outside: cap <= f0 at every lattice point of every other cell.

    The three point counts are fixed, 500 affine, 500 above and 1000
    below (none with one cell), and so is the corner count, one per cell.
    Each is decided over every lattice point, so a report without
    failures proves every counted check passes.
    """

    affine_checks: int
    corner_checks: int
    above_checks: int
    below_checks: int
    failures: tuple[str, ...]

    @property
    def total_checks(self) -> int:
        return (self.affine_checks + self.corner_checks
                + self.above_checks + self.below_checks)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return _report_json(self, "ok")


def _lattice_failures(d: int, ticks: int, lo: list[int], width: list[int],
                      slope: list[int], icpt: list[int]) -> list[str]:
    """above_inside and below_outside failures, once per failing cap each.

    The lattice is, on each axis of a cell, X = lo + a W with a in
    1..ticks-1, where lo is the axis' interval start times D = 2^E ticks,
    W its width times 2^E, and X is over D. With K = d ticks, C_i the
    slope of interval i times 2^E and B_c the intercept of cap c times
    2^E D, d ticks (2^E D cap_c) minus sum X_j^2 is

        F_c(X) = K B_c + sum_j g_{i_j}(X_j),
        g_i(X) = K C_i X - X^2 = P_i^2 - (X - P_i)^2,

    for i_j cap c's interval on axis j, where the vertex P_i = K C_i / 2
    is an integer (ticks is even). above_inside fails where F < 0 on c's
    own cell, below_outside where F > 0 on another. So, per interval:

    - gmin[i], the smallest g_i on interval i's lattice, is at a = 1 or
      a = ticks - 1, the lattice point farther from P_i; cap c fails
      above_inside when K B_c + sum_j gmin[i_j] < 0;
    - own[i], the largest g_i there, is at the lattice point nearest P_i,
      and oth[i], the largest on intervals i - 1 and i + 1, at the nearer
      of i + 1's first point and i - 1's last.

    That needs every vertex inside its own interval's lattice span and
    the spans in order without overlap. Then no interval holds a larger
    g_i than own[i], nor one other than i a larger one than oth[i], so
    over the cells other than c, F_c peaks at
    K B_c + sum_j own[i_j] + max_j (oth[i_j] - own[i_j]), the cheapest
    one-axis switch, and cap c fails below_outside when that is > 0. The
    message names the cell the switch reaches, which holds that peak.

    A broken guard decides nothing: it is one "undecided" failure. Every
    step is on lists of Python ints, a cell's sums taken over the product
    of per-interval tables: O(k) per interval, O(n d) per cell.
    """
    first = [u + w for u, w in zip(lo, width)]  # a = 1
    last = [u + (ticks - 1) * w for u, w in zip(lo, width)]
    vertex = [s * (d * ticks // 2) for s in slope]
    if (min(width) < 0
            or not all(f <= v <= t for f, v, t in zip(first, vertex, last))
            or any(t > f for t, f in zip(last, first[1:]))):
        return ["undecided: spans out of order or a vertex outside its span"]
    peak = [v * v for v in vertex]
    gmin = [p - max(v - f, t - v) ** 2
            for p, v, f, t in zip(peak, vertex, first, last)]
    base = [b * (d * ticks) for b in icpt]
    failures = [f"cell {c}: cap below base inside own cell"
                for c, (b, g) in enumerate(zip(
                    base, map(sum, product(gmin, repeat=d)))) if b + g < 0]
    k = len(lo)
    if k == 1:  # one cell: there is no other cell to stay below f0 on
        return failures
    # the nearest lattice point of the own interval; a point interval
    # (width 0) holds its vertex
    off = [(v - f) % (w or 1) for v, f, w in zip(vertex, first, width)]
    near = [min(o, w - o) for o, w in zip(off, width)]
    own = [p - m * m for p, m in zip(peak, near)]
    # the nearest point of the neighbours: i + 1's first, i - 1's last;
    # the first interval has only i + 1, the last only i - 1
    right = [f - v for f, v in zip(first[1:], vertex)]
    left = [v - t for v, t in zip(vertex[1:], last)]
    ahead = [*right, left[-1]]
    behind = [right[0], *left]
    toward = [1 if a <= b else -1 for a, b in zip(ahead[:-1], behind)] + [-1]
    # oth[i] - own[i]
    switch = [m * m - min(a, b) ** 2 for m, a, b in zip(near, ahead, behind)]
    tops = zip(base, map(sum, product(own, repeat=d)),
               map(max, product(switch, repeat=d)))
    for c, (b, o, s) in enumerate(tops):
        if b + o + s > 0:
            cell = [c // k ** (d - 1 - j) % k for j in range(d)]
            gains = [switch[i] for i in cell]
            j = gains.index(s)  # the axis of the cheapest switch
            other = c + toward[cell[j]] * k ** (d - 1 - j)
            failures.append(f"cell {c}: cap above base in cell {other}")
    return failures


def verify_cap_properties(system: IntervalSystem) -> CapPropertyReport:
    """Exact checks of the four cap properties, in integers.

    Every cap coefficient, intercept and cell endpoint is a float, hence a
    dyadic rational: its as_integer_ratio() has a power-of-two
    denominator, so the largest of them, 2^E, scales them all to
    integers. A lattice coordinate u + a/10^6 (v - u) is then X / D with
    X = U 10^6 + a (V - U) and D = 2^E 10^6, and with the denominators
    cleared every comparison is one comparison of Python ints, decided
    without rounding. The corner check covers every cell once, and
    _lattice_failures decides above_inside and below_outside over every
    lattice point of every cell. The tables are per interval (starts,
    widths, slopes) and per cell (the system's intercepts); no cap object
    is built. The affine identity holds for every affine map, so its
    counted checks pass.
    """
    d, k, n = system.dim, system.k, system.n_cells
    starts = system.starts
    values = (*starts, *(u + system.length for u in starts),
              *system.slopes, *system.intercepts)
    if not all(map(math.isfinite, values)):
        raise ParameterError("the system's endpoints must be finite")
    ratios = [x.as_integer_ratio() for x in values]
    scale = max(den for _, den in ratios)  # 2^E
    ints = [num * (scale // den) for num, den in ratios]
    del values, ratios  # so the lattice decision peaks without them
    ticks = 10**6  # a lattice coordinate is u + a/ticks (v - u)
    denom = scale * ticks  # D
    # per interval: start times D, width and slope times 2^E
    lo = [u * ticks for u in ints[:k]]
    width = [v - u for u, v in zip(ints[:k], ints[k:2 * k])]
    slope = ints[2 * k:3 * k]
    # per cell: intercept times 2^E D
    icpt = [b * denom for b in ints[3 * k:]]

    # corner: every cell once; the all-ones corner has numerators D
    failures: list[str] = []
    cells = zip(icpt, map(min, product(slope, repeat=d)),
                map(sum, product(slope, repeat=d)))
    for c, (b, low, total) in enumerate(cells):
        if low < 0:
            failures.append(f"cell {c}: negative coefficient")
        if b + total * denom > scale * denom:
            failures.append(f"cell {c}: corner value above 1")

    failures += _lattice_failures(d, ticks, lo, width, slope, icpt)
    return CapPropertyReport(500, n, 500, 1000 if n >= 2 else 0,
                             tuple(failures))
