"""The layer with no numpy: errors, boxes, JSON helpers and exact counts.

Everything here runs on Python ints, floats and Fractions. It holds what
schedule, the assembled bounds and the CLI's refusals of schedule and
bounds queries need, so those paths never import numpy; functions,
metrics, packing and verify build on it.

The exact packing counts are the side of packing's construction that
needs no arrays: the interval count k per axis, decided in exact
rational arithmetic so that boundary cases of eta never flip on float
rounding, the code's target size and minimum distance, and the family
size and separation at a given eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

MAX_DIM = 8


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
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    if hasattr(v, "to_json"):
        return v.to_json()
    return v  # str, int, bool or None


def _report_json(obj, *properties: str) -> dict:
    """A report dataclass as a JSON object: its fields, then the properties.

    Floats go through _fstr, tuples and lists become lists, and a value with
    its own to_json is written as that; str, int, bool and None pass as is.
    """
    names = [f.name for f in fields(obj)] + list(properties)
    return {name: _json_value(getattr(obj, name)) for name in names}


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box prod_i [lo_i, hi_i], dimension 1..8."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ParameterError("lo and hi must have the same length")
        if not 1 <= len(lo) <= MAX_DIM:
            raise ParameterError(f"dimension must be in 1..{MAX_DIM}")
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ParameterError("each axis needs finite lo < hi")

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


@dataclass(frozen=True)
class LipschitzVector:
    """Per-axis Lipschitz budgets; math.inf marks an unconstrained axis."""

    gamma: tuple[float, ...]

    def __post_init__(self):
        g = tuple(float(v) for v in self.gamma)
        object.__setattr__(self, "gamma", g)
        if not g:
            raise ParameterError("gamma must be non-empty")
        for v in g:
            if not v > 0:
                raise ParameterError("gamma entries must be positive (inf allowed)")

    def sum_squares(self) -> float:
        return sum(v * v for v in self.gamma)


# -- exact packing counts -------------------------------------------------


def max_eta(d: int) -> float:
    """Largest admissible eta for dimension d, 4 / (2 + sqrt(d-1))^2."""
    return 4.0 / (2.0 + math.sqrt(d - 1.0)) ** 2


def interval_count(eta, d: int) -> int:
    """Largest k with k * (2 sqrt(eta) + sqrt(eta (d-1))) <= 2, exactly.

    eta may be an int, float, or Fraction; floats are taken at their exact
    binary value. Raises if no k >= 1 exists (eta above max_eta(d)). The
    first guess for k is formed in fixed-point integers, precise enough to
    be off by at most a few units at any eta, so a tiny eta can neither
    underflow it nor leave a long walk to the exact answer.

    Each k is decided on Python ints, with no Fraction built per step:
    with eta = a/b, sqrt(4 eta k^2) + sqrt(eta (d-1) k^2) <= 2 times
    sqrt(b) is sqrt(p) + sqrt(q) <= 2 sqrt(b) for p = 4 a k^2 and
    q = a (d-1) k^2. Squaring once leaves 2 sqrt(pq) <= rem = 4b - p - q,
    which holds iff rem >= 0 and 4 p q <= rem^2.
    """
    if not 1 <= d <= 8:
        raise ParameterError("dimension must be in 1..8")
    if isinstance(eta, float) and not math.isfinite(eta):
        raise ParameterError("eta must be finite")
    e = Fraction(eta)
    if e <= 0:
        raise ParameterError("eta must be positive")
    a, b = e.numerator, e.denominator

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


@dataclass(frozen=True)
class SeparationPoint:
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
    ef = float(Fraction(eta))
    try:
        log_packing = n / 8.0
    except OverflowError:  # more cells than a float can count
        log_packing = math.inf
    return SeparationPoint(ef, d, k, n, separation_scale(d) * ef, log_packing)


def separation_curve(eta, d: int,
                     steps: int = 5) -> tuple[SeparationPoint, ...]:
    """Points at eta, eta/4, ..., eta/4^(steps-1), exact in eta."""
    if steps < 1:
        raise ParameterError("need steps >= 1")
    e = Fraction(eta)
    return tuple(separation_point(e / 4**m, d) for m in range(steps))
