"""Command line front end.

Four subcommands mirror the library's main flows:

  pack      build an interval system, its separated family (when the cell
            count allows), the pairwise-distance certificate, and the
            separation-vs-size sweep
  schedule  build a refinement schedule, run its inequality checks, and
            write the cover accounting
  lemmas    run the distance-vs-Hausdorff checks and slope-mass bounds on
            seeded random pairs
  bounds    write the assembled cover and packing bounds for one query

Every output is a file in --out-dir. A cmd_* function touches no file: it
returns (files, summary, ok), files mapping each artifact name to its JSON
tree or CSV text, and main renders them all before it creates --out-dir,
so a run that is refused or raises leaves nothing behind. Reruns with
the same arguments produce byte-identical files: floats are serialized
with repr, JSON keys are sorted, and all randomness is seeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

# Only the numpy-free layers load with this module, so schedule, bounds,
# --help and every refusal of theirs start without importing numpy;
# cmd_pack and cmd_lemmas import the array layers when they run.
from .core import MAX_DIM, DomainError, LipschitzVector, ParameterError, Rect
from .schedule import (
    LOG2,
    build_schedule,
    cover_accounting,
    entropy_bounds,
    schedule_checks,
)

# Most directions lemmas accepts: the checks' refinements and error
# estimates build at most 8x this many, a few tens of MB.
MAX_DIRECTIONS = 10**5

# Affine pieces of each random lemmas function.
LEMMA_PIECES = 6


def _parse_eta(text: str) -> Fraction:
    # "1/400" and "0.0025" both parse exactly; fall back to the float's
    # exact binary value for inputs Fraction cannot read (e.g. "1_000"
    # before Python 3.11). NaN, infinities and zero denominators are refused.
    try:
        try:
            return Fraction(text)
        except ValueError:
            return Fraction(float(text))
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ParameterError(f"eta must be a finite decimal or fraction, "
                             f"got {text!r}") from None


def _json_text(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    obj is an acyclic tree of dicts with str keys, lists, tuples, str,
    int, float, bool and None, as every artifact is. A dict or list that
    appears more than once in the tree (the same object, not an equal one:
    a family's shared caps) is encoded once per indent level and its text
    spliced in wherever it recurs. Only those repeated objects enter the
    memo, so it holds the text of the shared parts and nothing else.
    """
    seen: set[int] = set()
    repeated: set[int] = set()
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, (dict, list, tuple)):
            if id(o) in seen:
                repeated.add(id(o))
                continue
            seen.add(id(o))
            stack.extend(o.values() if isinstance(o, dict) else o)
    memo: dict[tuple[int, int], str] = {}

    def encode(o, level: int) -> str:
        if isinstance(o, str):
            return _quote(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            if o != o:
                return "NaN"
            if math.isinf(o):
                return "Infinity" if o > 0 else "-Infinity"
            return float.__repr__(o)
        if not isinstance(o, (dict, list, tuple)):
            raise TypeError(f"Object of type {type(o).__name__} "
                            "is not JSON serializable")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        key = (id(o), level)
        if key in memo:
            return memo[key]
        sep = "\n" + "  " * (level + 1)
        if isinstance(o, dict):
            # a key that is not a str raises TypeError in _quote
            body = (_quote(k) + ": " + encode(v, level + 1)
                    for k, v in sorted(o.items()))
            text = "{" + sep + ("," + sep).join(body) + sep[:-2] + "}"
        else:
            body = (encode(v, level + 1) for v in o)
            text = "[" + sep + ("," + sep).join(body) + sep[:-2] + "]"
        if id(o) in repeated:
            memo[key] = text
        return text

    return encode(obj, 0)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def _require_seed(seed: int) -> None:
    # numpy seeds its generators from nonnegative integers only
    if seed < 0:
        raise ParameterError("seed must be >= 0")


def cmd_pack(args) -> tuple[dict, str, bool]:
    from .metrics import GridSpec
    from .packing import (
        CELL_CAP,
        build_interval_system,
        build_packing_family,
        packing_certificate,
        require_certificate_budget,
        separation_curve,
        verify_cap_properties,
    )

    _require_seed(args.seed)
    if args.grid_n is not None:
        GridSpec(args.grid_n)  # refuses a grid_n below 2, capped or not
    eta = _parse_eta(args.eta)
    system = build_interval_system(eta, args.dim)
    capped = system.n_cells > CELL_CAP
    if not capped:
        require_certificate_budget(system, args.grid_n)
        family = build_packing_family(eta, args.dim, seed=args.seed)
        # an equal system that already holds the caps the family shares
        system = family.system
    report = verify_cap_properties(system, seed=args.seed)
    curve = separation_curve(eta, args.dim)
    files = {"interval_system.json": system.to_json(),
             "cap_report.json": report.to_json(),
             "lower_bound_curve.csv": _csv_text(
                 ["eta", "k", "n_cells", "eps", "log_packing"],
                 [[repr(pt.eta), str(pt.k), str(pt.n_cells), repr(pt.eps),
                   repr(pt.log_packing)] for pt in curve])}
    if capped:
        return (files, f"{system.n_cells} cells exceeds the {CELL_CAP}-cell "
                       "cap; wrote system, cap report, and curve only",
                report.ok)
    cert = packing_certificate(family, grid_n=args.grid_n)
    files["family.json"] = family.to_json()
    files["packing_certificate.json"] = cert.to_json()
    return (files, f"family of {len(family.functions)} functions on "
                   f"{system.n_cells} cells; certificate ok={cert.ok}, "
                   f"cap report ok={report.ok}", cert.ok and report.ok)


def cmd_schedule(args) -> tuple[dict, str, bool]:
    if args.log2_eta is not None:
        log_eta = args.log2_eta * LOG2
    else:
        eta = _parse_eta(args.eta)
        if eta <= 0:
            raise ParameterError("eta must be positive")
        try:
            log_eta = math.log(float(eta))
        except (OverflowError, ValueError):  # float(eta) is inf or 0.0
            raise ParameterError("eta is outside the float range") from None
    sched = build_schedule(args.p, log_eta)
    checks = schedule_checks(sched, dims=tuple(args.dims))
    acct = cover_accounting(sched, args.dim, args.gamma_sum, args.scale)

    rows = []
    for m in range(1, sched.depth + 2):
        level = repr(sched.log_levels[m - 1])
        weight = repr(sched.log_weights[m - 1]) if m <= sched.depth else ""
        radius = repr(sched.log_radii[m - 1]) if m <= sched.depth else ""
        rows.append([str(m), level, weight, radius])
    files = {"schedule.json": sched.to_json(),
             "schedule.csv": _csv_text(
                 ["m", "log_level", "log_weight", "log_radius"], rows),
             "schedule_checks.json": checks.to_json(),
             "cover_accounting.json": acct.to_json()}
    bound = f"{acct.entropy_bound:.6g}"
    if math.isinf(acct.entropy_bound) and math.isfinite(acct.log_entropy_bound):
        # the bound on the log count overflowed; its own log did not
        bound = f"exp({acct.log_entropy_bound:.6g})"
    return (files, f"depth {sched.depth} schedule; checks ok={checks.ok}; "
                   f"log cover count <= {bound}", checks.ok)


def _require_lemma_grid(dim: int, grid) -> None:
    """Refuse a dimension, or pairs whose grids would pass MAX_GRID_POINTS.

    Every pair builds grids of 17 (the bound grid), 33 (the slab heights),
    101 (gradient_mass), n and 2n - 1 nodes per axis. A failing check
    refines at most twice, to 4n - 3 and 8n - 7; such a grid past
    MAX_GRID_POINTS is refused when it is built.
    """
    from .functions import BOUND_GRID_AXIS, MAX_GRID_POINTS

    if not 1 <= dim <= MAX_DIM:
        raise ParameterError(f"dimension must be in 1..{MAX_DIM}")
    side = max(BOUND_GRID_AXIS, 33, 101, 2 * grid.n - 1)
    if side**dim > MAX_GRID_POINTS:
        raise ParameterError(f"every pair builds a grid of {side}^{dim} "
                             f"nodes, over {MAX_GRID_POINTS}")


def cmd_lemmas(args) -> tuple[dict, str, bool]:
    from .functions import make_random_convex
    from .metrics import GridSpec
    from .verify import check_l1_bound, check_sup_bound, gradient_mass

    _require_seed(args.seed)
    if args.pairs < 1:
        raise ParameterError("need pairs >= 1")
    if args.directions > MAX_DIRECTIONS:
        raise ParameterError(f"need directions <= {MAX_DIRECTIONS}")
    if args.directions < 2 * (args.dim + 1):  # as hausdorff_epigraph says
        raise ParameterError(f"need at least {2 * (args.dim + 1)} directions")
    # the sup check's slab ceiling is 1 and the L1 check needs |f| <= 1:
    # a larger bound is refused here, not by a check on a fixed ceiling
    if not 0.0 < args.bound <= 1.0:
        raise ParameterError(f"--bound must be positive and at most 1, "
                             f"got {args.bound!r}")
    if not 0.0 < args.rho < 0.5:
        raise ParameterError("need 0 < rho < 0.5")
    grid = GridSpec(args.grid_n)
    _require_lemma_grid(args.dim, grid)
    reports = []
    all_ok = True
    for i in range(args.pairs):
        f = make_random_convex(args.dim, args.bound, LEMMA_PIECES,
                               args.seed + 2 * i)
        g = make_random_convex(args.dim, args.bound, LEMMA_PIECES,
                               args.seed + 2 * i + 1)
        sup_rep = check_sup_bound(f, g, n_directions=args.directions,
                                  grid=grid)
        l1_rep = check_l1_bound(f, g, n_directions=args.directions, grid=grid)
        masses = [gradient_mass(h, args.rho) for h in (f, g)]
        mass_cap = 8.0 * args.dim
        mass_ok = all(mv <= mass_cap for mv in masses)
        all_ok = all_ok and sup_rep.ok and l1_rep.ok and mass_ok
        reports.append({"pair": i, "sup": sup_rep.to_json(),
                        "l1": l1_rep.to_json(),
                        "slope_masses": [repr(mv) for mv in masses],
                        "slope_mass_cap": repr(mass_cap),
                        "slope_mass_ok": mass_ok})
    files = {"lemma_reports.json": {
        "dim": args.dim, "pairs": args.pairs, "seed": args.seed,
        "bound": repr(args.bound), "all_ok": all_ok, "reports": reports}}
    return (files, f"{args.pairs} pairs at d={args.dim}: all_ok={all_ok}",
            all_ok)


def cmd_bounds(args) -> tuple[dict, str, bool]:
    d = args.dim
    rect = Rect((args.origin,) * d, (args.origin + args.side,) * d)
    gammas = LipschitzVector(tuple(args.gamma)) if args.gamma else None
    eb = entropy_bounds(args.eps, args.p, rect, args.bound, gammas,
                        args.scale)

    def show(v, missing="out of range"):
        return missing if v is None else f"{v:.6g}"

    lip_missing = "n/a" if gammas is None else "out of range"
    return ({"entropy_bounds.json": eb.to_json()},
            f"eps={args.eps:g} p={args.p:g} d={d}: "
            f"log upper {show(eb.log_upper)}, log lower {show(eb.log_lower)}, "
            f"sup-distance upper {show(eb.log_lipschitz_upper, lip_missing)}",
            True)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The four-subcommand parser, built on the first main call only.

    Every parse_args call starts a fresh namespace from the actions'
    defaults, and none of those defaults is mutable, so one parser serves
    every call in the process. It is not built at import.
    """
    parser = argparse.ArgumentParser(
        prog="convexcover",
        description="Separated families, cover schedules, and distance "
                    "checks for bounded convex functions on a cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pack", help="build a separated family and certify it")
    p.add_argument("--eta", required=True,
                   help="separation level, e.g. 0.01 or 1/400 (parsed exactly)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-n", type=int, default=None,
                   help="certificate quadrature nodes per axis")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_pack)

    s = sub.add_parser("schedule", help="build and check a refinement schedule")
    s.add_argument("--p", type=float, required=True)
    level = s.add_mutually_exclusive_group(required=True)
    level.add_argument("--eta", help="target level, parsed exactly")
    level.add_argument("--log2-eta", type=float,
                       help="log2 of the target level, e.g. -96; a negative "
                            "value in exponent form needs the = form, "
                            "--log2-eta=-1e41")
    s.add_argument("--dim", type=int, default=1,
                   help="dimension for the cover accounting")
    s.add_argument("--dims", type=int, nargs="+", default=(1, 2, 3),
                   help="dimensions for the radius power-sum checks")
    s.add_argument("--gamma-sum", type=float, default=0.0)
    s.add_argument("--scale", type=float, default=1.0)
    s.add_argument("--out-dir", default=".")
    s.set_defaults(func=cmd_schedule)

    le = sub.add_parser("lemmas", help="distance-vs-Hausdorff checks on "
                                       "random pairs")
    le.add_argument("--dim", type=int, required=True)
    le.add_argument("--pairs", type=int, default=3)
    le.add_argument("--seed", type=int, default=0)
    le.add_argument("--bound", type=float, default=0.9,
                    help="value bound for the random pairs, at most 1; keep "
                         "below 1 so off-grid dips stay inside the lemma's "
                         "range")
    le.add_argument("--rho", type=float, default=0.05)
    le.add_argument("--grid-n", type=int, default=201)
    le.add_argument("--directions", type=int, default=1000)
    le.add_argument("--out-dir", default=".")
    le.set_defaults(func=cmd_lemmas)

    b = sub.add_parser("bounds", help="cover and packing bounds for one query")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--dim", type=int, required=True)
    b.add_argument("--side", type=float, default=1.0)
    b.add_argument("--origin", type=float, default=0.0)
    b.add_argument("--bound", type=float, default=1.0)
    b.add_argument("--gamma", type=float, action="append",
                   help="per-axis slope budget; repeat once per axis")
    b.add_argument("--scale", type=float, default=1.0)
    b.add_argument("--out-dir", default=".")
    b.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        files, summary, ok = args.func(args)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    texts = {name: body if isinstance(body, str) else _json_text(body) + "\n"
             for name, body in files.items()}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    print(summary)
    return 0 if ok else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
