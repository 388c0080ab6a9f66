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

The interval system, its exact cap checks, the interval count k, the
code's size and distance and the family-size accounting are exact and
need no arrays, so they live in core; this module builds f0 and the caps
as function forms on a system, and the families and their certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# verify_cap_properties and separation_curve are bound here for callers
# that look them up in packing, as the benchmark's tracer does
from .core import (
    CELL_CAP,
    IntervalSystem,
    ParameterError,
    _report_json,
    code_min_distance,
    code_target,
    separation_curve,
    separation_scale,
    unit_rect,
    verify_cap_properties,
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

_DEFAULT_CERT_GRID = {1: 2001, 2: 600, 3: 120}

# Largest float64 value matrix, in bytes, that a certificate may ask for.
MAX_VALUE_BYTES = 2 * 10**9


@functools.lru_cache(maxsize=1)
def system_forms(system: IntervalSystem
                 ) -> tuple[SeparableQuadratic, tuple[Affine, ...]]:
    """The base paraboloid f0 and every cell's affine cap, by cell index.

    Kept for the last system asked for, so a family's members and its
    certificate's value matrix, built one after the other on one system,
    take the same objects: a cap is one object wherever it appears, and
    all of them, and f0, share one unit-cube domain. A cap is f0's chord
    over its cell: coefficient (u_j + v_j)/d on axis j, from the system's
    slopes, and intercept -sum(u_j v_j)/d, from its intercepts.
    """
    base = SeparableQuadratic(unit_rect(system.dim))
    slope = system.slopes
    cells = itertools.product(range(system.k), repeat=system.dim)
    return base, tuple(Affine(base.domain, tuple(slope[i] for i in cell), b)
                       for cell, b in zip(cells, system.intercepts))


def perturbed_function(system: IntervalSystem, word: int) -> ConvexFunction:
    """max(f0, caps of the cells whose bit is set in word).

    The parts are the system's forms, shared by every function built on
    the system.
    """
    if not 0 <= word < (1 << system.n_cells):
        raise ParameterError("word out of range for this system")
    base, caps = system_forms(system)
    caps = [cap for i, cap in enumerate(caps) if (word >> i) & 1]
    if not caps:
        return base
    return MaxWith(base.domain, (base, *caps))


def cell_gap(eta, d: int) -> float:
    """Closed form of the per-cell integral of cap - f0: eta^(d/2+1)/6."""
    return float(eta) ** (0.5 * d + 1.0) / 6.0


# -- binary codes ---------------------------------------------------------


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
    it is at least min_distance from every word kept before it. The draws
    come in blocks of up to 4096 pairs and are decided one word at a time,
    by one popcount pass over the words kept so far: about 3 us a draw, so
    0.9 ms for the 278 words of 45 cells and 14 ms for the 2,981 of 64
    cells (Python 3.11, numpy 2.4, one core of a shared 2-vCPU VM).
    """
    if not 1 <= length <= CELL_CAP:
        raise ParameterError(f"length must be in 1..{CELL_CAP}")
    if min_distance < 1 or target < 1 or max_samples < 1:
        raise ParameterError("min_distance, target, max_samples must be >= 1")
    rng = np.random.default_rng(seed)
    mask = np.uint64((1 << length) - 1)
    # a budget of s draws keeps at most s words
    kept = np.empty(min(target, max_samples), dtype=np.uint64)
    n = samples = 0
    while n < target and samples < max_samples:
        block = min(4096, max_samples - samples)
        draws = rng.integers(0, 1 << 32, size=(block, 2), dtype=np.uint64)
        cands = ((draws[:, 0] << np.uint64(32)) | draws[:, 1]) & mask
        for w in cands:
            samples += 1
            if n == 0 or np.bitwise_count(kept[:n] ^ w).min() >= min_distance:
                kept[n] = w
                n += 1
                if n == target:
                    break
    return CodeSearchResult(tuple(kept[:n].tolist()), length, min_distance,
                            target, samples)


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


def build_packing_family(system: IntervalSystem,
                         seed: int = 0) -> PackingFamily:
    """Greedy code on the system's cells, and one function per codeword.

    Refuses systems with more than CELL_CAP cells; smaller eta makes the
    cell count grow like eta^(-d/2).
    """
    n = system.n_cells
    if n > CELL_CAP:
        raise ParameterError(
            f"{n} cells exceeds the {CELL_CAP}-cell cap at eta={system.eta}")
    code = greedy_binary_code(n, code_min_distance(n), code_target(n),
                              seed=seed)
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
    base, caps = system_forms(system)
    out[...] = base._grid_values(axes).reshape(shape)
    for i, cap in enumerate(caps):
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

    Every pair must have L1(g_i, g_j) >= hamming(w_i, w_j) * zeta within
    tol (min_margin is the worst slack), and ok also needs min_hamming >=
    min_distance; eps_consistent records min_distance * zeta >= eps.
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
        hams = np.bitwise_count(words[i + 1:] ^ words[i])
        margin = l1 - hams * zeta
        failures += int((margin < -tol).sum())
        min_margin = min(min_margin, float(margin.min()))
        min_l1 = min(min_l1, float(l1.min()))
        min_ham = min(min_ham, int(hams.min()))
    floor = family.code.min_distance * zeta
    eps_consistent = floor >= eps
    ok = (failures == 0 and family.code.shortfall == 0 and eps_consistent
          and (pairs == 0 or min_ham >= family.code.min_distance))
    return PackingCertificate(
        eta=system.eta, dim=d, k=system.k, n_cells=system.n_cells,
        code_size=m, shortfall=family.code.shortfall,
        min_hamming=min_ham if pairs else 0,
        zeta=zeta, eps=eps, separation_floor=floor, grid_n=grid_n,
        tol=float(tol),
        pairs_checked=pairs, failures=failures,
        min_margin=min_margin, min_l1=min_l1,
        eps_consistent=eps_consistent, ok=ok)
