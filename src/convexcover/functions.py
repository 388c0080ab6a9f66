"""Convex functions on axis-aligned boxes.

Every function here is convex by construction: affine pieces, maxima of
convex parts and a separable quadratic. A one-sided ramp is a two-piece
max-affine function, and rescaling onto the unit cube rewrites affine
coefficients. Only max-affine functions take subgradients, and only they
and affine ones read off Lipschitz budgets. Instances are
frozen dataclasses and safe to share between threads; evaluation never
mutates state.

Coordinates are 64-bit floats. Batch evaluation takes an (N, d) array
and returns an (N,) array; the scalar helpers wrap the batch path. A
max-affine function is evaluated in row strips of at most _TILE_ENTRIES
point-by-piece entries: each strip forms its product over every piece
into one reused buffer, adds the intercepts tiled along the strip as one
contiguous vector, and folds it into its slice of the result, so no
evaluation holds an (N, pieces) matrix, and the values keep the bits of
one whole product at d <= 3 (see MaxAffine._strips). The domain check
reduces a contiguous copy of the coordinate columns, up to 2^18
coordinates, and larger arrays' columns in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .core import (
    BOUND_GRID_AXIS,
    MAX_GRID_POINTS,
    DomainError,
    LipschitzVector,
    ParameterError,
    Rect,
    _fstr,
    unit_rect,
)


# Entries of one working tile: a strip of point-by-piece values here, a
# node-by-direction tile of the support kernel in metrics. Three float64
# arrays of this size take 768 KB together, so a tile's working set stays
# in a server core's L2 cache, and a buffer this small is reused in place
# rather than returned to the system and faulted back in on every call.
_TILE_ENTRIES = 1 << 15

# Coordinates of the largest point array whose columns the domain check
# copies to contiguous rows (2 MB); see _require_within.
_COPIED_ENTRIES = 1 << 18


def _vertex_axes(rect: Rect, n: int) -> list[np.ndarray]:
    # linspace pins both endpoints exactly
    return [np.linspace(a, b, n) for a, b in zip(rect.lo, rect.hi)]


def grid_size(axes) -> int:
    """Nodes of the tensor grid on these axes, refused past MAX_GRID_POINTS."""
    total = math.prod(len(a) for a in axes)
    if total > MAX_GRID_POINTS:
        raise ParameterError(f"grid of {total} points exceeds {MAX_GRID_POINTS}")
    return total


def tensor_points(axes: list[np.ndarray]) -> np.ndarray:
    """Row-major tensor grid as an (N, d) array."""
    grid_size(axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _running_max(columns, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise maximum of equal-length 1-D arrays, folded left to right.

    Bit for bit the max(axis=1) of the arrays stacked as columns, since a
    maximum is exact, NaN included; only the sign of a zero at a tie of
    0.0 with -0.0 is unspecified, as in numpy's max. Pass the columns of a
    (N, k) product as product.T: the fold reads its strided columns in
    place, where numpy's reduction along a short last axis is slow. The
    fold is written into out when given, else into a new array.
    """
    columns = iter(columns)
    first = next(columns)
    if out is None:
        out = np.array(first, dtype=float)
    else:
        out[...] = first
    for col in columns:
        np.maximum(out, col, out=out)
    return out


def _budget(slopes) -> LipschitzVector:
    # an exactly flat axis still needs a positive budget
    return LipschitzVector(tuple(max(v, 1e-300) for v in slopes))


def _require_shape(pts: np.ndarray, dim: int) -> None:
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ParameterError(f"expected an (N, {dim}) array")


def _require_within(pts: np.ndarray, domain: Rect, strict=False) -> None:
    # axis by axis, from its least and greatest entries: min and max
    # propagate a NaN, which fails every comparison, and 0.0 and -0.0
    # compare alike whichever of them a tie returns. Up to _COPIED_ENTRIES
    # the columns are copied to contiguous rows first: reducing a strided
    # column took about three times as long as the copy and a contiguous
    # reduction. Larger points are reduced in place, so the check holds no
    # temporary of their size. strict asks for the open box. No point is
    # outside an empty box of points.
    if not len(pts):
        return
    cols = pts.T
    if pts.size <= _COPIED_ENTRIES:
        cols = np.ascontiguousarray(cols)
    for lo, hi, col in zip(domain.lo, domain.hi, cols):
        least, most = col.min(), col.max()
        if not ((lo < least and most < hi) if strict
                else (lo <= least and most <= hi)):
            raise DomainError("point outside the function's "
                              + ("open domain" if strict else "domain"))


@dataclass(frozen=True)
class ConvexFunction:
    """Base for all convex forms. Subclasses fill _values."""

    domain: Rect

    # -- evaluation ------------------------------------------------------

    def values(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        _require_shape(pts, self.domain.dim)
        _require_within(pts, self.domain)
        return self._values(pts)

    def value(self, x) -> float:
        pts = np.asarray(x, dtype=float).reshape(1, -1)
        return float(self.values(pts)[0])

    def subgradients(self, points) -> np.ndarray:
        """One subgradient per row; points must be strictly interior."""
        pts = np.asarray(points, dtype=float)
        _require_shape(pts, self.domain.dim)
        _require_within(pts, self.domain, strict=True)
        return self._subgradients(pts)

    def lipschitz_budget(self) -> LipschitzVector:
        """Valid per-axis Lipschitz upper bounds, read off the form.

        Each entry dominates the true coordinate Lipschitz constant, so the
        result is safe to use where an inequality depends on it. An exactly
        flat axis gets 1e-300, since budgets must be positive.
        """
        raise ParameterError(f"no Lipschitz budget rule for {type(self).__name__}")

    def _to_unit(self, bound: float) -> ConvexFunction:
        # this form in the unit-cube coordinates y of x = lo + w y, over bound
        raise ParameterError(f"no rescaling rule for {type(self).__name__}")

    def _values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _subgradients(self, pts: np.ndarray) -> np.ndarray:
        raise ParameterError(f"no subgradient rule for {type(self).__name__}")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """The form as a JSON object, built once per instance.

        Every call returns the same dict, and a MaxWith holds its parts'
        own dicts, so a part shared by many functions is one object in
        their JSON. Callers must not mutate it.
        """
        return self._json

    @cached_property
    def _json(self) -> dict:
        return {"domain": self.domain.to_json(), "form": self._form_json()}

    def _form_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Affine(ConvexFunction):
    """x -> coeffs . x + intercept."""

    coeffs: tuple[float, ...]
    intercept: float

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "intercept", float(self.intercept))
        if len(c) != self.domain.dim:
            raise ParameterError("coeffs length must match the domain dimension")
        if not all(map(math.isfinite, c)) or not math.isfinite(self.intercept):
            raise ParameterError("affine coefficients must be finite")

    @cached_property
    def _coeff_arr(self) -> np.ndarray:
        return np.array(self.coeffs)

    def _values(self, pts):
        return pts @ self._coeff_arr + self.intercept

    def lipschitz_budget(self):
        return _budget(abs(c) for c in self.coeffs)

    def _to_unit(self, bound):
        # c x + b = (c w) y + (b + c lo)
        dom = self.domain
        coeffs = tuple(c * w / bound for c, w in zip(self.coeffs, dom.widths))
        shift = sum(c * lo for c, lo in zip(self.coeffs, dom.lo))
        return Affine(unit_rect(dom.dim), coeffs,
                      (self.intercept + shift) / bound)

    def _form_json(self):
        return {"kind": "affine",
                "coeffs": [_fstr(v) for v in self.coeffs],
                "intercept": _fstr(self.intercept)}


@dataclass(frozen=True)
class MaxAffine(ConvexFunction):
    """Pointwise maximum of affine pieces.

    At a tie the subgradient is the gradient of the active piece with the
    smallest index, so evaluation is deterministic across platforms.
    """

    pieces: tuple[Affine, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ParameterError("MaxAffine needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))
        for p in self.pieces:
            if not isinstance(p, Affine) or p.domain != self.domain:
                raise ParameterError("pieces must be Affine on the same domain")

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.array([p.coeffs for p in self.pieces])
        b = np.array([p.intercept for p in self.pieces])
        return c, b

    def _strips(self, pts):
        """(rows, piece values) for each row strip of pts, top to bottom.

        A strip takes at most _TILE_ENTRIES point-by-piece entries and at
        least 2 rows; a last strip of one row joins the strip before it.
        Its values, pts[rows] @ c.T + b, are formed into one buffer reused
        by every strip, so each is valid until the next strip. The
        intercepts are added as one contiguous add of b tiled along the
        strip: the same sum per entry as broadcasting b, at about a fifth of
        the cost of a broadcast over a last axis of a few pieces. A product's
        last bits can follow its shape, as BLAS picks its kernel by size.
        On OpenBLAS 0.3.31, one thread, strips of 2 to 16,384 rows gave
        the bits of one whole product of 40,401 rows at d = 1..3 (1 to 257
        pieces), where a one-row product, or a block of the columns,
        changes the last bits of many entries. Past d = 3 a large product
        can round otherwise: at d = 5 with 257 pieces, 182 of 292,806
        values differed from the whole product's.
        """
        c, b = self._stacked
        n, rows = len(pts), max(2, _TILE_ENTRIES // len(b))
        starts = list(range(0, n, rows))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        buf = np.empty((min(n, rows + 1), len(b)))
        flat, icepts = buf.reshape(-1), np.tile(b, len(buf))
        for r, e in zip(starts, starts[1:] + [n]):
            piece = np.matmul(pts[r:e], c.T, out=buf[:e - r])
            flat[:piece.size] += icepts[:piece.size]
            yield slice(r, e), piece

    def _values(self, pts):
        # each strip's product is folded into its slice of the result
        out = np.empty(len(pts))
        for rows, piece in self._strips(pts):
            _running_max(piece.T, out=out[rows])
        return out

    def _subgradients(self, pts):
        c, _ = self._stacked
        # argmax returns the first maximal index: the tie-break rule
        active = np.empty(len(pts), dtype=np.intp)
        for rows, piece in self._strips(pts):
            np.argmax(piece, axis=1, out=active[rows])
        return c[active]

    def lipschitz_budget(self):
        return _budget(max(abs(p.coeffs[j]) for p in self.pieces)
                       for j in range(self.domain.dim))

    def _to_unit(self, bound):
        pieces = tuple(p._to_unit(bound) for p in self.pieces)
        return MaxAffine(pieces[0].domain, pieces)

    def _form_json(self):
        return {"kind": "max_affine",
                "pieces": [{"coeffs": [_fstr(v) for v in p.coeffs],
                            "intercept": _fstr(p.intercept)} for p in self.pieces]}


@dataclass(frozen=True)
class SeparableQuadratic(ConvexFunction):
    """x -> (x_1^2 + ... + x_d^2) / d."""

    def _values(self, pts):
        # columns summed left to right, as _grid_values sums its axes
        sq = np.square(pts)
        total = sq[:, 0].copy()
        for col in sq.T[1:]:
            total += col
        return total / self.domain.dim

    def _grid_values(self, axes):
        # _values at tensor_points(axes), the same bits: per-axis squares,
        # added by broadcasting from the first axis on, O(n) not O(N d)
        total = reduce(np.add.outer, [np.square(a) for a in axes])
        return total.ravel() / self.domain.dim

    def _form_json(self):
        return {"kind": "separable_quadratic"}


@dataclass(frozen=True)
class MaxWith(ConvexFunction):
    """Pointwise maximum of convex parts."""

    parts: tuple[ConvexFunction, ...]

    def __post_init__(self):
        if not self.parts:
            raise ParameterError("MaxWith needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if p.domain != self.domain:
                raise ParameterError("parts must share the outer domain")

    def _values(self, pts):
        return _running_max(p._values(pts) for p in self.parts)

    def _form_json(self):
        return {"kind": "max_with", "parts": [p.to_json() for p in self.parts]}


def ramp(domain: Rect, alpha: float) -> MaxAffine:
    """x -> max(0, 1 - x_0 / alpha), a ramp dropping from 1 to 0 along axis 0.

    The zero piece comes first, so it wins the tie at the kink
    x_0 == alpha and the subgradient there is 0. The slope -1/alpha
    must be finite, which refuses alpha below about 5.6e-309.
    """
    if not 0.0 < alpha < math.inf:
        raise ParameterError("need a positive finite alpha")
    flat = (0.0,) * (domain.dim - 1)
    return MaxAffine(domain, (Affine(domain, (0.0, *flat), 0.0),
                              Affine(domain, (-1.0 / alpha, *flat), 1.0)))


def rescale_to_unit(f: ConvexFunction, bound: float) -> ConvexFunction:
    """Normalize f on its box to a function on [0,1]^d with values / bound.

    Affine and MaxAffine forms are rewritten through their coefficients;
    other forms are refused.
    """
    if not 0.0 < bound < math.inf:
        raise ParameterError("bound must be positive and finite")
    return f._to_unit(bound)


def make_random_convex(d: int, bound: float, pieces: int, seed: int,
                       rect: Rect | None = None) -> MaxAffine:
    """Random max-affine function with |f| <= bound on a vertex check grid.

    Pieces are drawn from a seeded generator, then uniformly scaled so the
    max of |f| over a 17-per-axis grid fits inside [-bound, bound]. Re-samples
    up to 1000 times if a scaled draw still fails the grid check. Each draw
    is evaluated on that grid as one 17^d x pieces matrix, refused past
    MAX_GRID_POINTS values.
    """
    if pieces < 1:
        raise ParameterError("need at least one piece")
    # numpy draws from [-2 bound, 2 bound] and needs its width finite
    if not (bound > 0 and math.isfinite(4.0 * bound)):
        raise ParameterError("bound must be positive, with 4 * bound finite")
    rect = rect if rect is not None else unit_rect(d)
    if rect.dim != d:
        raise ParameterError("rect dimension mismatch")
    if BOUND_GRID_AXIS**d * pieces > MAX_GRID_POINTS:
        raise ParameterError(f"{pieces} pieces on the {BOUND_GRID_AXIS}^{d} "
                             f"bound grid exceed {MAX_GRID_POINTS} values")
    grid = tensor_points(_vertex_axes(rect, BOUND_GRID_AXIS))
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        coeffs = rng.uniform(-2.0 * bound, 2.0 * bound, size=(pieces, d))
        icepts = rng.uniform(-bound, bound, size=pieces)
        m = float(np.abs(_running_max((grid @ coeffs.T + icepts).T)).max())
        if m > bound:
            t = bound / m * (1.0 - 2.0**-40)
            coeffs *= t
            icepts *= t
            m = float(np.abs(_running_max((grid @ coeffs.T + icepts).T)).max())
        if m <= bound:
            made = tuple(Affine(rect, tuple(c), float(b))
                         for c, b in zip(coeffs, icepts))
            return MaxAffine(rect, made)
    raise ParameterError("could not fit a random draw inside the bound")
