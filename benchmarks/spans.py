"""Spans and work counters around the calls into each convexcover layer.

The layers are the package's modules. A Tracer wraps the public
functions listed in TARGETS and, while installed, replaces every binding
of each one: the defining module and every module that imported the name
with `from .x import y` (verify calls metrics.hausdorff_epigraph through
its own namespace, cli calls packing and verify through its own). The
`values` and `subgradients` methods are wrapped on ConvexFunction.

A span's self time is its duration minus the time its child spans cover.
The op itself is the root span: its self time is reported as cli.self_s
(argparse, to_json, JSON dumps and file writes). Counters are computed
from each call's arguments and result, so they repeat exactly for the
same op list. The program is one synchronous thread: nothing waits on a
queue, and the only retries are the verify checks' refinements.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("convexcover", "convexcover.functions", "convexcover.metrics",
           "convexcover.packing", "convexcover.schedule",
           "convexcover.verify", "convexcover.cli")


def _rows(stats, args, kwargs, result):
    stats["points"] += len(result)
    form = args[0]
    parts = getattr(form, "parts", None) or getattr(form, "pieces", None)
    stats["part_points"] += len(result) * (len(parts) if parts else 1)


def _subgradient_rows(stats, args, kwargs, result):
    stats["points"] += len(result)


def _support_entries(stats, call, result):
    # _hausdorff_value evaluates both functions' supports on the n^d
    # vertex grid over D directions, then again on (2n-1)^d over 2D
    d = call["f"].domain.dim
    n = call["grid"].n
    dirs = call["n_directions"]
    stats["support_entries"] += 2 * (n**d * dirs + (2 * n - 1)**d * 2 * dirs)


def _quadrature_points(stats, args, kwargs, result):
    stats["points"] += len(result[0])


def _certificate_pairs(stats, call, result):
    m = len(call["family"].functions)
    nodes = result.grid_n ** result.dim
    stats["pairs"] += m * (m - 1) // 2
    stats["node_pairs"] += m * (m - 1) // 2 * nodes
    stats["value_bytes"] += m * nodes * 8


def _code_samples(stats, args, kwargs, result):
    stats["samples"] += result.samples_used
    stats["accepted"] += len(result.words)


def _cap_checks(stats, args, kwargs, result):
    stats["checks"] += result.total_checks


def _refinements(stats, args, kwargs, result):
    stats["refinements"] += result.refinements


class _ByName:
    """A counter that reads the call's arguments by parameter name."""

    def __init__(self, counter):
        self.counter = counter

    def bind_to(self, fn):
        sig = inspect.signature(fn)

        def count(stats, args, kwargs, result):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            self.counter(stats, call.arguments, result)
        return count


# (module, function, counter); a class name before the dot marks a method
TARGETS = (
    ("functions", "ConvexFunction.values", _rows),
    ("functions", "ConvexFunction.subgradients", _subgradient_rows),
    ("functions", "make_random_convex", None),
    ("metrics", "hausdorff_epigraph", _ByName(_support_entries)),
    ("metrics", "lp_distance", None),
    ("metrics", "sup_grid_distance", None),
    ("metrics", "quadrature_grid", _quadrature_points),
    ("metrics", "vertex_grid", None),
    ("metrics", "direction_set", None),
    ("packing", "packing_certificate", _ByName(_certificate_pairs)),
    ("packing", "greedy_binary_code", _code_samples),
    ("packing", "perturbed_function", None),
    ("packing", "verify_cap_properties", _cap_checks),
    ("packing", "separation_curve", None),
    ("schedule", "build_schedule", None),
    ("schedule", "schedule_checks", None),
    ("schedule", "cover_accounting", None),
    ("verify", "check_sup_bound", _refinements),
    ("verify", "check_l1_bound", _refinements),
    ("verify", "gradient_mass", None),
    ("verify", "entropy_bounds", None),
)


def _label(module: str, name: str) -> str:
    return f"{module}.{name.rsplit('.', 1)[-1]}"


# Per-layer metrics: (name, unit, better). Times and counts are per op;
# rates and ratios are taken over the whole traced run.
PER_LAYER = (
    ("functions.values.calls", "count", "lower"),
    ("functions.values.self_s", "s", "lower"),
    ("functions.values.points", "count", "lower"),
    ("functions.values.part_points", "count", "lower"),
    ("functions.subgradients.self_s", "s", "lower"),
    ("functions.subgradients.points", "count", "lower"),
    ("functions.make_random_convex.self_s", "s", "lower"),
    ("metrics.hausdorff_epigraph.calls", "count", "lower"),
    ("metrics.hausdorff_epigraph.self_s", "s", "lower"),
    ("metrics.hausdorff_epigraph.support_entries", "count", "lower"),
    ("metrics.hausdorff_epigraph.entries_per_s", "1/s", "higher"),
    ("metrics.lp_distance.self_s", "s", "lower"),
    ("metrics.sup_grid_distance.self_s", "s", "lower"),
    ("metrics.quadrature_grid.self_s", "s", "lower"),
    ("metrics.quadrature_grid.points", "count", "lower"),
    ("metrics.vertex_grid.self_s", "s", "lower"),
    ("metrics.direction_set.self_s", "s", "lower"),
    ("packing.packing_certificate.self_s", "s", "lower"),
    ("packing.packing_certificate.pairs", "count", "lower"),
    ("packing.packing_certificate.node_pairs", "count", "lower"),
    ("packing.packing_certificate.pairs_per_s", "1/s", "higher"),
    ("packing.packing_certificate.value_bytes", "B", "lower"),
    ("packing.greedy_binary_code.self_s", "s", "lower"),
    ("packing.greedy_binary_code.samples", "count", "lower"),
    ("packing.greedy_binary_code.accept_ratio", "ratio", "higher"),
    ("packing.perturbed_function.calls", "count", "lower"),
    ("packing.perturbed_function.self_s", "s", "lower"),
    ("packing.verify_cap_properties.self_s", "s", "lower"),
    ("packing.verify_cap_properties.checks", "count", "lower"),
    ("packing.separation_curve.self_s", "s", "lower"),
    ("schedule.build_schedule.calls", "count", "lower"),
    ("schedule.build_schedule.self_s", "s", "lower"),
    ("schedule.schedule_checks.calls", "count", "lower"),
    ("schedule.schedule_checks.self_s", "s", "lower"),
    ("schedule.cover_accounting.calls", "count", "lower"),
    ("schedule.cover_accounting.self_s", "s", "lower"),
    ("verify.check_sup_bound.self_s", "s", "lower"),
    ("verify.check_sup_bound.refinements", "count", "lower"),
    ("verify.check_l1_bound.self_s", "s", "lower"),
    ("verify.check_l1_bound.refinements", "count", "lower"),
    ("verify.gradient_mass.self_s", "s", "lower"),
    ("verify.entropy_bounds.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("cli.op_s", "s", "lower"),
)

# rate metric -> (counter, time stat) of the same span
_RATES = {
    "metrics.hausdorff_epigraph.entries_per_s":
        ("metrics.hausdorff_epigraph.support_entries",
         "metrics.hausdorff_epigraph.total_s"),
    "packing.packing_certificate.pairs_per_s":
        ("packing.packing_certificate.pairs",
         "packing.packing_certificate.total_s"),
    "packing.greedy_binary_code.accept_ratio":
        ("packing.greedy_binary_code.accepted",
         "packing.greedy_binary_code.samples"),
}


class Tracer:
    """Installs the wrappers on enter and restores every binding on exit."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.ops = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label, fn, count):
        stats = self.stats[label]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stats["calls"] += 1
                stats["total_s"] += dt
                stats["self_s"] += dt - inner
            if count is not None:
                count(stats, args, kwargs, result)
            return result
        return wrapper

    def __enter__(self):
        namespaces = [importlib.import_module(m) for m in MODULES]
        for module, name, count in TARGETS:
            owner = importlib.import_module(f"convexcover.{module}")
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(_label(module, name),
                                                  fn, count))
                continue
            fn = getattr(owner, name)
            if isinstance(count, _ByName):
                count = count.bind_to(fn)
            wrapper = self._wrap(_label(module, name), fn, count)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        self._patch(ns, attr, wrapper)
        return self

    def _patch(self, obj, attr, new):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def __exit__(self, *exc):
        for obj, attr, old in reversed(self._restore):
            setattr(obj, attr, old)
        self._restore.clear()
        return False

    @contextlib.contextmanager
    def op(self):
        """Root span of one CLI call."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            inner = self._stack.pop()
            self.ops += 1
            cli = self.stats["cli"]
            cli["op_s"] += dt
            cli["self_s"] += dt - inner

    def count(self, name: str) -> float:
        """Raw total of one counter, e.g. 'metrics.hausdorff_epigraph.calls'."""
        label, stat = name.rsplit(".", 1)
        return self.stats[label][stat] if label in self.stats else 0.0

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric: per-op means, and ratios of run totals."""
        out = {}
        for name, _, _ in PER_LAYER:
            if name in _RATES:
                num, den = (self.count(n) for n in _RATES[name])
                out[name] = num / den if den else 0.0
            else:
                out[name] = self.count(name) / max(1, self.ops)
        return out
