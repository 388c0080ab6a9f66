"""Well-separated families of convex functions on the unit cube.

The construction tiles each axis of [0,1]^d with k disjoint intervals of
length sqrt(eta), separated by gaps of sqrt(eta*(d-1))/2. Over each cell
(a product of one interval per axis) an affine cap is raised above the
base paraboloid f0(x) = (x_1^2+...+x_d^2)/d; the cap meets f0 on the
cell's boundary grid lines, exceeds it inside the cell, and stays below
it on every other cell. Selecting cells by the bits of a binary codeword
and taking the pointwise max yields one convex function per codeword,
and the L1 distance between two of them is at least (Hamming distance)
times the per-cell gap integral eta^(d/2+1)/6.

The interval count k, the code's size and distance and the family-size
accounting are exact and need no arrays, so they live in core.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

# separation_curve is bound here for callers that look it up as
# packing.separation_curve, as the benchmark's tracer does
from .core import (
    ParameterError,
    _report_json,
    code_min_distance,
    code_target,
    interval_count,
    separation_curve,
    separation_scale,
    unit_rect,
)
from .functions import (
    Affine,
    ConvexFunction,
    MaxWith,
    SeparableQuadratic,
    grid_size,
    tensor_points,
)
from .metrics import GridSpec, quadrature_axes

# Families larger than this in cells are refused; the code search over
# 2^n words stops being practical and ints no longer fit two rng draws.
CELL_CAP = 64

# Larger interval systems are refused before anything is built: the exact
# cap checks build every cell's cap, taking 1.1 s (d = 2) to 1.4 s (d = 4)
# and peaking at 39 to 50 MB (tracemalloc) at this size.
SYSTEM_CELL_CAP = 2**16

# Keep the last interval this far below 1 so exact-rational checks of the
# cap properties retain margin over coefficient rounding.
SPAN_LIMIT = 1.0 - 2.0**-30

_DEFAULT_CERT_GRID = {1: 2001, 2: 600, 3: 120}

# Largest float64 value matrix, in bytes, that a certificate may ask for.
MAX_VALUE_BYTES = 2 * 10**9

# Samples per rng.integers call of the cap checks, each block decided at
# once on object arrays of Python ints: it bounds their memory whatever
# samples is. At d = 8 a run of full blocks peaked at 7.5 MB (tracemalloc,
# a one-cell system, 2^16 samples); 2^14 peaked at 27.9 MB. The drawn
# stream does not depend on it.
DRAW_BLOCK = 2**12


@dataclass(frozen=True)
class IntervalSystem:
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

    def interval(self, i: int) -> tuple[float, float]:
        return self.starts[i], self.starts[i] + self.length

    def cell_from_index(self, idx: int) -> tuple[int, ...]:
        """Row-major cell tuple for a linear index in [0, k^d)."""
        if not 0 <= idx < self.n_cells:
            raise ParameterError("cell index out of range")
        out = []
        for _ in range(self.dim):
            out.append(idx % self.k)
            idx //= self.k
        return tuple(reversed(out))

    @cached_property
    def base(self) -> SeparableQuadratic:
        """The base paraboloid f0, one instance for the whole system."""
        return base_paraboloid(self.dim)

    @cached_property
    def caps(self) -> tuple[Affine, ...]:
        """The affine cap of every cell, by linear cell index, built once.

        Every family member and every cap check takes its caps from here,
        so a cap is one object wherever it appears; all of them, and f0,
        share one unit-cube domain. Each cap equals cap_function's, bit
        for bit: its coefficients and the products in its intercept come
        from per-interval tables of (u + v)/d and u v, summed and divided
        in cap_function's order, and itertools.product walks the cells in
        cell_from_index's row-major order.
        """
        d = self.dim
        ends = [self.interval(i) for i in range(self.k)]
        slope = [(u + v) / d for u, v in ends]
        prod = [u * v for u, v in ends]
        domain = self.base.domain
        return tuple(Affine(domain, tuple(slope[i] for i in cell),
                            -sum(prod[i] for i in cell) / d)
                     for cell in itertools.product(range(self.k), repeat=d))

    def cell_bounds(self, cell: tuple[int, ...]) -> tuple[tuple[float, ...],
                                                          tuple[float, ...]]:
        if len(cell) != self.dim or not all(0 <= i < self.k for i in cell):
            raise ParameterError("bad cell tuple")
        lo = tuple(self.starts[i] for i in cell)
        return lo, tuple(v + self.length for v in lo)

    def to_json(self) -> dict:
        return _report_json(self)


def build_interval_system(eta, d: int) -> IntervalSystem:
    """Place the k intervals inside [0, 1] with a small safety margin.

    Endpoints are floats; when rounding (or an exactly spanning eta) pushes
    the last endpoint past SPAN_LIMIT the lengths are scaled down once and
    then stepped by ulps, so every endpoint sits strictly inside [0, 1).
    Refuses a system of more than SYSTEM_CELL_CAP cells before building it.
    """
    k = interval_count(eta, d)
    if k**d > SYSTEM_CELL_CAP:
        raise ParameterError(f"eta too small: the system would have more "
                             f"than {SYSTEM_CELL_CAP} cells at d={d}")
    ef = float(Fraction(eta))
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


def base_paraboloid(d: int) -> SeparableQuadratic:
    return SeparableQuadratic(unit_rect(d))


def cap_function(system: IntervalSystem, cell: tuple[int, ...]) -> Affine:
    """The affine cap over one cell, on the domain of the system's f0.

    Coefficient j is (u_j + v_j)/d and the intercept is -sum(u_j v_j)/d,
    which interpolates the paraboloid's chord on each axis.
    """
    lo, hi = system.cell_bounds(cell)
    d = system.dim
    coeffs = tuple((u + v) / d for u, v in zip(lo, hi))
    intercept = -sum(u * v for u, v in zip(lo, hi)) / d
    return Affine(system.base.domain, coeffs, intercept)


def perturbed_function(system: IntervalSystem, word: int) -> ConvexFunction:
    """max(f0, caps of the cells whose bit is set in word).

    The parts are the system's own base and cap objects, shared by every
    function built on the system.
    """
    if not 0 <= word < (1 << system.n_cells):
        raise ParameterError("word out of range for this system")
    caps = [cap for i, cap in enumerate(system.caps) if (word >> i) & 1]
    if not caps:
        return system.base
    return MaxWith(system.base.domain, (system.base, *caps))


def cell_gap(eta, d: int) -> float:
    """Closed form of the per-cell integral of cap - f0: eta^(d/2+1)/6."""
    return float(Fraction(eta)) ** (0.5 * d + 1.0) / 6.0


def cell_gap_quadrature(system: IntervalSystem, cell: tuple[int, ...],
                        n_per_axis: int = 4) -> float:
    """Gauss-Legendre integral of cap - f0 over the cell.

    The integrand is quadratic, so any n_per_axis >= 2 is exact up to
    roundoff; the parameter exists to demonstrate stability under
    refinement.
    """
    if n_per_axis < 2:
        raise ParameterError("need n_per_axis >= 2")
    lo, hi = system.cell_bounds(cell)
    xi, wi = leggauss(n_per_axis)
    axes, wts = [], []
    for u, v in zip(lo, hi):
        mid, half = (u + v) / 2.0, (v - u) / 2.0
        axes.append(mid + half * xi)
        wts.append(half * wi)
    pts = tensor_points(axes)
    w = wts[0]
    for extra in wts[1:]:
        w = np.multiply.outer(w, extra).ravel()
    diff = cap_function(system, cell).values(pts) - \
        base_paraboloid(system.dim).values(pts)
    return float(w @ diff)


# -- binary codes ---------------------------------------------------------


_M1, _M2, _M4, _H01 = (np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x0101010101010101))


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a uint64 array, same shape.

    numpy before 2.0 has no bitwise_count, so the bits are summed in pairs,
    nibbles and bytes, and the bytes added by one wrapping multiply.
    """
    x = words - ((words >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return (x * _H01) >> np.uint64(56)


@dataclass(frozen=True)
class CodeSearchResult:
    """Outcome of the randomized greedy code search.

    A shortfall is reported as data rather than raised: the counting
    argument guarantees the target is reachable, but a finite sample
    budget can stop early and callers decide how to react.
    """

    words: tuple[int, ...]
    length: int
    min_distance: int
    target_size: int
    samples_used: int

    @property
    def shortfall(self) -> int:
        return max(0, self.target_size - len(self.words))

    def to_json(self) -> dict:
        return _report_json(self, "shortfall")


def greedy_binary_code(length: int, min_distance: int, target: int,
                       seed: int = 0, max_samples: int = 10**6) -> CodeSearchResult:
    """Sample random words, keeping those far from all kept words.

    Deterministic for a fixed seed. Stops at the target size or when the
    sample budget runs out, whichever comes first. Word s is the s-th pair
    of 32-bit draws, high then low, masked to length bits; it is kept when
    it is at least min_distance from every word kept before it.

    The draws come in blocks of 4096 and are decided in chunks of 64: one
    array pass of popcounts finds the candidates far from every word kept
    before the chunk, and one 64 x 64 matrix the near pairs inside it. A
    walk in draw order then keeps a far candidate unless it is near one
    kept earlier in the chunk, which is the one-word-at-a-time rule, so
    the words and samples_used are those of that rule.
    """
    if not 1 <= length <= CELL_CAP:
        raise ParameterError(f"length must be in 1..{CELL_CAP}")
    if min_distance < 1 or target < 1 or max_samples < 1:
        raise ParameterError("min_distance, target, max_samples must be >= 1")
    rng = np.random.default_rng(seed)
    mask = np.uint64((1 << length) - 1)
    words: list[int] = []
    kept = np.empty(0, dtype=np.uint64)
    samples = 0
    while len(words) < target and samples < max_samples:
        block = min(4096, max_samples - samples)
        draws = rng.integers(0, 1 << 32, size=(block, 2), dtype=np.uint64)
        cands = ((draws[:, 0] << np.uint64(32)) | draws[:, 1]) & mask
        for start in range(0, block, 64):
            chunk = cands[start:start + 64]
            far = (_popcounts(chunk[:, None] ^ kept) >= min_distance).all(axis=1)
            near = _popcounts(chunk[:, None] ^ chunk) < min_distance
            taken: list[int] = []
            for j in np.flatnonzero(far).tolist():
                if not far[j]:
                    continue
                taken.append(j)
                if len(words) + len(taken) == target:
                    break
                far &= ~near[j]  # the later candidates near j are out
            words += chunk[taken].tolist()
            kept = np.array(words, dtype=np.uint64)
            if len(words) == target:
                samples += taken[-1] + 1
                break
            samples += len(chunk)
    return CodeSearchResult(tuple(words), length, min_distance, target, samples)


# -- families and their certificate ---------------------------------------


@dataclass(frozen=True)
class PackingFamily:
    system: IntervalSystem
    code: CodeSearchResult
    functions: tuple[ConvexFunction, ...]

    @property
    def eps(self) -> float:
        return separation_scale(self.system.dim) * self.system.eta

    @property
    def zeta(self) -> float:
        return cell_gap(self.system.eta, self.system.dim)

    def to_json(self) -> dict:
        return _report_json(self, "eps", "zeta")


def build_packing_family(eta, d: int, seed: int = 0,
                         max_samples: int = 10**6) -> PackingFamily:
    """Interval system, greedy code, and one function per codeword.

    Refuses systems with more than CELL_CAP cells; smaller eta makes the
    cell count grow like eta^(-d/2).
    """
    system = build_interval_system(eta, d)
    n = system.n_cells
    if n > CELL_CAP:
        raise ParameterError(
            f"{n} cells exceeds the {CELL_CAP}-cell cap at eta={float(Fraction(eta))}")
    code = greedy_binary_code(n, code_min_distance(n), code_target(n),
                              seed=seed, max_samples=max_samples)
    funcs = tuple(perturbed_function(system, w) for w in code.words)
    return PackingFamily(system, code, funcs)


def _cert_grid_n(d: int, grid_n: int | None) -> int:
    return _DEFAULT_CERT_GRID.get(d, 40) if grid_n is None else grid_n


def require_certificate_budget(system: IntervalSystem,
                               grid_n: int | None = None) -> None:
    """Refuse a grid_n below 2, or a certificate grid or values too large.

    packing_certificate refuses a grid_n^d quadrature grid past
    MAX_GRID_POINTS. Its peak is one float64 row of grid_n^d values for
    each of at most code_target(n_cells) functions, one block of at most
    16 rows of pair differences and the grid_n^d weights; it never builds
    the (N, d) node array. Values past MAX_VALUE_BYTES (at the default
    grids, 64 cells at d = 2 or 3) are refused before the family is built.
    """
    d = system.dim
    n = GridSpec(_cert_grid_n(d, grid_n)).n
    nodes = grid_size((range(n),) * d)
    need = code_target(system.n_cells) * nodes * 8
    if need > MAX_VALUE_BYTES:
        raise ParameterError(
            f"the certificate would need {need / 1e9:.1f} GB of values, over "
            f"the {MAX_VALUE_BYTES / 1e9:g} GB budget; pass a smaller grid_n")


def _cap_box(cap: Affine) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-axis (lo, hi) outside which the cap's values round to <= f0's."""
    # Over f0(x) = |x|^2 / d, with p = d c / 2 and rho^2 = |p|^2 + d b,
    #   cap(x) - f0(x) = (rho^2 - |x - p|^2) / d    exactly.
    # Let u = 2^-53; |x_j| <= 1 on the unit cube. pts @ c + b, summed in
    # any order, with or without FMA, is within gamma_{d+1} (sum |c_j| + |b|)
    # of cap(x); f0's d squares, d - 1 sums and one division are within
    # gamma_{d+1} of f0(x); gamma_n = n u / (1 - n u) < 2 n u, so tau below
    # bounds both errors together. Where |x - p|^2 > rho^2 + d tau,
    # cap - f0 < -tau exactly, hence fl(cap) < fl(f0).
    # The half-width h_j covers that ball with margin: err bounds the
    # rounding of rho^2, the factor 1 + 2^-20 the few-ulp rounding of
    # the sum under the root, of the root and of r, and 2^-40 (|p_j| + r)
    # that of p_j and of p_j -+ h_j. So a node below lo_j or above hi_j
    # on some axis has |x_j - p_j| > sqrt(rho^2 + d tau) exactly.
    # A cap's coefficients lie in [0, 2/d] and its intercept in [-1, 0], so
    # nothing overflows. The bounds are relative, so they assume no
    # intermediate is subnormal.
    d = cap.domain.dim
    u = 2.0**-53
    c, b = cap.coeffs, cap.intercept
    tau = 2 * (d + 1) * u * (sum(abs(cj) for cj in c) + abs(b) + 1.0)
    p = [d * cj / 2.0 for cj in c]
    psq = sum(pj * pj for pj in p)
    rho2 = psq + d * b
    err = 4 * (d + 4) * u * (psq + d * abs(b))
    r = math.sqrt(max(rho2, 0.0) + err + d * tau) * (1.0 + 2.0**-20)
    halves = [r + 2.0**-40 * (abs(pj) + r) for pj in p]
    return (tuple(pj - h for pj, h in zip(p, halves)),
            tuple(pj + h for pj, h in zip(p, halves)))


def _family_values(system: IntervalSystem, words, axes) -> np.ndarray:
    """Row i: perturbed_function(system, words[i]) on the axes' tensor grid.

    Bit for bit its values, since max is exact: f0 from per-axis squares,
    then each cap on its _cap_box only, folded into its words' rows by one
    gather, max and scatter. axes are increasing and inside [0, 1].
    """
    shape = tuple(len(a) for a in axes)
    n = math.prod(shape)
    out = np.empty((len(words), *shape))
    out[...] = system.base._grid_values(axes).reshape(shape)
    for i, cap in enumerate(system.caps):
        rows = [r for r, w in enumerate(words) if w >> i & 1]
        if not rows:
            continue
        spans = [slice(int(np.searchsorted(a, lo, "left")),
                       int(np.searchsorted(a, hi, "right")))
                 for a, lo, hi in zip(axes, *_cap_box(cap))]
        if n > 1 and math.prod(s.stop - s.start for s in spans) == 1:
            # pts @ c on one row takes another path than on two or more,
            # which rounds differently: widen the box to two nodes
            j = next(j for j, a in enumerate(axes) if len(a) > 1)
            start = min(spans[j].start, shape[j] - 2)
            spans[j] = slice(start, start + 2)
        sub = [a[s] for a, s in zip(axes, spans)]
        vals = cap._values(tensor_points(sub)).reshape([len(a) for a in sub])
        at = (rows, *spans)
        out[at] = np.maximum(out[at], vals)
    return out.reshape(len(words), n)


@dataclass(frozen=True)
class PackingCertificate:
    """Quadrature evidence that the family is pairwise separated.

    Every pair (i, j) must satisfy L1(g_i, g_j) >= hamming(w_i, w_j) * zeta
    within tol; min_margin is the worst observed slack. eps_consistent
    records the closed-form chain min_distance * zeta >= eps.
    """

    eta: float
    dim: int
    k: int
    n_cells: int
    code_size: int
    shortfall: int
    min_hamming: int
    zeta: float
    eps: float
    separation_floor: float
    grid_n: int
    tol: float
    pairs_checked: int
    failures: int
    min_margin: float
    min_l1: float
    eps_consistent: bool
    ok: bool

    def to_json(self) -> dict:
        return _report_json(self)


def packing_certificate(family: PackingFamily, grid_n: int | None = None,
                        tol: float = 1e-6) -> PackingCertificate:
    """Check every pairwise L1 distance against its Hamming floor.

    Uses midpoint quadrature on the unit cube, given by its per-axis nodes
    and its weights; the (N, d) node array is never built. The value
    matrix is folded by _family_values from the system and the codewords;
    family.functions, those words' functions, is not read. Row i is paired
    with rows i+1.. in blocks of at most 16 rows, through one buffer of
    differences allocated once; the blocks' L1 values fill one buffer of
    row i's pairs, whose Hamming distances are popcounts of the XORed
    words, and the failures and the minima are updated once per row. tol
    must be finite and nonnegative: a NaN or infinite tol could never fail.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError("tol must be finite and >= 0")
    system = family.system
    d = system.dim
    grid_n = _cert_grid_n(d, grid_n)
    axes, w = quadrature_axes(unit_rect(d), GridSpec(grid_n))
    vals = _family_values(system, family.code.words, axes)

    zeta = family.zeta
    eps = family.eps
    words = np.array(family.code.words, dtype=np.uint64)
    m = len(words)
    pairs = m * (m - 1) // 2
    failures = 0
    min_margin = min_l1 = min_ham = math.inf
    block = 16
    # the largest block of pair differences, reused by every block
    buf = np.empty_like(vals[1:1 + block])
    # one row's L1 values, sized for row 0 and reused by every row
    l1_buf = np.empty(max(m - 1, 0))
    for i in range(m - 1):
        l1 = l1_buf[:m - 1 - i]
        for s in range(i + 1, m, block):
            rows = vals[s:s + block]
            diff = np.subtract(rows, vals[i], out=buf[:len(rows)])
            np.abs(diff, out=diff)
            l1[s - i - 1:s - i - 1 + len(rows)] = diff @ w
        hams = _popcounts(words[i + 1:] ^ words[i])
        margin = l1 - hams * zeta
        failures += int((margin < -tol).sum())
        min_margin = min(min_margin, float(margin.min()))
        min_l1 = min(min_l1, float(l1.min()))
        min_ham = min(min_ham, int(hams.min()))
    floor = family.code.min_distance * zeta
    eps_consistent = floor >= eps
    ok = failures == 0 and family.code.shortfall == 0 and eps_consistent
    return PackingCertificate(
        eta=system.eta, dim=d, k=system.k, n_cells=system.n_cells,
        code_size=m, shortfall=family.code.shortfall,
        min_hamming=min_ham if pairs else 0,
        zeta=zeta, eps=eps, separation_floor=floor, grid_n=grid_n,
        tol=float(tol),
        pairs_checked=pairs, failures=failures,
        min_margin=min_margin, min_l1=min_l1,
        eps_consistent=eps_consistent, ok=ok)


# -- exact verification of the cap properties -----------------------------


@dataclass(frozen=True)
class CapPropertyReport:
    """Counts of the exact checks of the four cap properties.

    affine: midpoint identity cap(x) + cap(y) = 2 cap((x+y)/2). It holds
        in Q for every affine map and cannot fail; cap_report.json counts it.
    corner: coefficients nonnegative and cap value at the all-ones corner
        at most 1, every cell.
    above_inside: cap >= f0 at sampled interior points of its own cell.
    below_outside: cap <= f0 at sampled points of other cells.
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


def verify_cap_properties(system: IntervalSystem, samples: int = 2000,
                          seed: int = 0) -> CapPropertyReport:
    """Exact spot checks of the four cap properties, in integers.

    Every cap coefficient, intercept and cell endpoint is a float, hence a
    dyadic rational, so one common power of two 2^E scales them all to
    integers. A sampled coordinate u + a/10^6 (v - u) is then X / D with
    X = U 10^6 + a (V - U) and D = 2^E 10^6, and with the denominators
    cleared every comparison is one comparison of Python ints, decided
    without rounding. Sampled points are strictly interior to their cells;
    the samples budget is split across the point-sampled properties, and
    the corner check covers every cell once. The caps are the system's own.

    A property's draws come from one rng.integers call with per-draw bound
    arrays per DRAW_BLOCK samples; numpy draws each element as a scalar
    call with its bounds would, so the points are those of one scalar call
    per draw, in order: a cell index, then each coordinate. Each block is
    decided at once, elementwise on dtype=object arrays of Python ints
    from per-system tables; Python formats only the failures' messages.
    """
    if samples < 4:
        raise ParameterError("need samples >= 4")
    rng = np.random.default_rng(seed)
    d = system.dim
    n = system.n_cells
    failures: list[str] = []
    caps = system.caps
    ends = [system.interval(i) for i in range(system.k)]
    exact = [*ends, *((*cap.coeffs, cap.intercept) for cap in caps)]
    scale = max(x.as_integer_ratio()[1] for xs in exact for x in xs)  # 2^E

    def scaled(x: float) -> int:
        num, q = x.as_integer_ratio()
        return num * (scale // q)

    ticks = 10**6  # a sampled coordinate is u + a/ticks (v - u)
    denom = scale * ticks  # D
    # per cell: coefficients times 2^E, intercept times 2^E D, interval indices
    coeffs = np.array([[*map(scaled, cap.coeffs)] for cap in caps], dtype=object)
    icpt = np.array([scaled(cap.intercept) * denom for cap in caps], dtype=object)
    intervals = np.stack(np.unravel_index(np.arange(n), (system.k,) * d), axis=1)
    # per interval: start times D and width times 2^E
    lo = np.array([scaled(u) * ticks for u, _ in ends], dtype=object)
    width = np.array([scaled(v) - scaled(u) for u, v in ends], dtype=object)

    def draws(count: int, lows: list[int], highs: list[int]):
        # count rows of draws in [lows, highs), one row per sampled check
        for start in range(0, count, DRAW_BLOCK):
            size = (min(DRAW_BLOCK, count - start), len(lows))
            yield rng.integers(lows, highs, size=size)

    def point(cell: np.ndarray, a: np.ndarray) -> np.ndarray:
        # numerators over D of the interior points a/ticks of the cells
        return lo[intervals[cell]] + a.astype(object) * width[intervals[cell]]

    def cap_num(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        # 2^E D cap(x), for points x given by their numerators over D
        return icpt[idx] + (coeffs[idx] * x).sum(axis=1)

    # corner: every cell once; the all-ones corner has numerators D
    negative = (coeffs < 0).any(axis=1)
    high = icpt + coeffs.sum(axis=1) * denom > scale * denom
    for idx in np.flatnonzero(negative | high):
        if negative[idx]:
            failures.append(f"cell {idx}: negative coefficient")
        if high[idx]:
            failures.append(f"cell {idx}: corner value above 1")

    n_affine = n_above = samples // 4
    n_below = samples - n_affine - n_above if n >= 2 else 0

    # a cell, an interior point of it, and a point anywhere in the cube
    for a in draws(n_affine, [0] + [1] * d + [0] * d, [n] + [ticks] * (2 * d)):
        idx = a[:, 0]
        x = point(idx, a[:, 1:d + 1])
        y = a[:, d + 1:].astype(object) * scale
        # 2^E D 2 cap((x + y) / 2); the midpoint's numerators over 2D are x + y
        twice_mid = cap_num(idx, x + y) + icpt[idx]
        broken = cap_num(idx, x) + cap_num(idx, y) != twice_mid
        failures += [f"cell {i}: midpoint identity broken" for i in idx[broken]]

    # cap(x) < f0(x) = sum X_j^2 / (d D^2) iff d 10^6 cap_num(x) < sum X_j^2
    for a in draws(n_above, [0] + [1] * d, [n] + [ticks] * d):
        x = point(a[:, 0], a[:, 1:])
        below = d * ticks * cap_num(a[:, 0], x) < (x * x).sum(axis=1)
        failures += [f"cell {i}: cap below base inside own cell"
                     for i in a[below, 0]]

    # a cap, another cell, and an interior point of that cell
    for a in draws(n_below, [0, 0] + [1] * d, [n, n - 1] + [ticks] * d):
        idx, other = a[:, 0], a[:, 1] + (a[:, 1] >= a[:, 0])
        x = point(other, a[:, 2:])
        above = d * ticks * cap_num(idx, x) > (x * x).sum(axis=1)
        failures += [f"cell {i}: cap above base in cell {j}"
                     for i, j in zip(idx[above], other[above])]

    return CapPropertyReport(n_affine, n, n_above, n_below, tuple(failures))
