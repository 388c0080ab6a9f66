"""The benchmark's workloads: which `convexcover` CLI calls each one makes.

A workload is a cycle of op slots. Each slot issues one CLI call per
cycle, drawn from a fixed pool of argument lists; the workload seed only
decides the order in which a slot walks its pool. Every cycle therefore
does the same kind and amount of work, whatever the seed, and every
argument list any seed can produce has a golden digest in goldens.json.

The program only ever sees the generated argument lists (plus an
--out-dir the harness appends).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# Admissibility edge of `schedule`: log2 u = -2 (p+1)^2 (p+2), and a target
# level eta is accepted when p * log2(eta) < log2 u.
_SCHEDULE_PS = ("1", "1.5", "2", "3")


@dataclass(frozen=True)
class Slot:
    name: str
    pool: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]
    # Wall time of one cycle on a 2-core Xeon with one BLAS thread; sizes
    # the traced run, which executes a fixed number of cycles so that its
    # work counters repeat exactly.
    cycle_s: float
    # the clock.py kernel that calibrates its op times: "python" where
    # the interpreter bounds the ops, "numpy" where array passes do
    kernel: str

    def cycles(self, seed: int):
        """Endless sequence of cycles, each a list of (slot name, argv)."""
        orders = []
        for i, slot in enumerate(self.slots):
            order = list(range(len(slot.pool)))
            random.Random(seed * 1009 + i).shuffle(order)
            orders.append(order)
        for c in itertools.count():
            yield [(slot.name, slot.pool[order[c % len(order)]])
                   for slot, order in zip(self.slots, orders)]

    def trace_cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))

    def argvs(self):
        return [argv for slot in self.slots for argv in slot.pool]


def _seeded(prefix: tuple[str, ...], seeds) -> tuple[tuple[str, ...], ...]:
    return tuple(prefix + ("--seed", str(s)) for s in seeds)


def _pack(eta: str, dim: int, *extra: str, seeds=range(16)) -> Slot:
    prefix = ("pack", "--eta", eta, "--dim", str(dim), *extra)
    return Slot(f"pack d={dim} eta={eta}", _seeded(prefix, seeds))


def _lemmas(dim: int, grid_n: int, directions: int, seeds) -> Slot:
    # pair i uses generator seeds seed + 2i and seed + 2i + 1, so even
    # seeds keep the pairs of different pool entries disjoint
    prefix = ("lemmas", "--dim", str(dim), "--pairs", "1",
              "--grid-n", str(grid_n), "--directions", str(directions))
    return Slot(f"lemmas d={dim}", _seeded(prefix, (2 * s for s in seeds)))


def _schedule(p: str) -> Slot:
    # half-integer targets: some integer ones put a later level exactly on
    # the edge (p=1, log2 eta=-36), which schedule rejects by design
    pf = float(p)
    top = math.floor(-2.0 * (pf + 1.0) ** 2 * (pf + 2.0) / pf)
    return Slot(f"schedule p={p}",
                tuple(("schedule", "--p", p, "--log2-eta", str(top - j - 0.5))
                      for j in range(1, 33)))


def _bounds_args(k: int) -> tuple[str, ...]:
    dim = 1 + (k // 4) % 3
    argv = ["bounds", "--eps", f"{1 + (7 * k) % 9}e-{2 + (5 * k) % 10}",
            "--p", _SCHEDULE_PS[k % 4], "--dim", str(dim)]
    for axis in range(dim):
        argv += ["--gamma", ("0.5", "1", "2", "4")[(k + axis) % 4]]
    return tuple(argv)


_BOUNDS_POOL = tuple(_bounds_args(k) for k in range(32))

WORKLOADS = {w.name: w for w in (
    Workload(
        "pack-d2-eval",
        "d=2 families over 600^2 certificate nodes: evaluation-bound "
        "(ConvexFunction.values on perturbed MaxWith families)",
        (_pack("1/25", 2), _pack("1/36", 2), _pack("1/49", 2)),
        cycle_s=2.2, kernel="numpy"),
    Workload(
        "pack-d1-wide",
        "d=1 families of 80, 149 and 278 functions: pair-bound "
        "(certificate pair loop, code search, family build and JSON)",
        (_pack("1/1225", 1), _pack("1/1600", 1), _pack("1/2025", 1)),
        cycle_s=1.7, kernel="python"),
    Workload(
        "lemmas-d2-hausdorff",
        "d=2 lemma checks at 101^2 nodes and 500 directions: "
        "epigraph-Hausdorff-bound, never touches packing",
        (_lemmas(2, 101, 500, range(16)),),
        cycle_s=1.4, kernel="numpy"),
    Workload(
        "small-queries",
        "round robin of schedule, bounds, d=1 lemmas and small packs: "
        "per-call overhead, exact-rational cap checks, schedule work",
        (*(_schedule(p) for p in _SCHEDULE_PS),
         *(Slot(f"bounds {i}", _BOUNDS_POOL) for i in range(4)),
         _lemmas(1, 501, 1024, range(32)),
         _pack("0.0025", 2, seeds=range(32)),
         _pack("1/25", 1, "--grid-n", "301", seeds=range(32))),
        cycle_s=0.42, kernel="python"),
)}


def all_argvs():
    """Every argument list any workload can issue, without duplicates."""
    seen = {}
    for w in WORKLOADS.values():
        for argv in w.argvs():
            seen.setdefault(argv, None)
    return list(seen)


def argv_key(argv) -> str:
    return " ".join(argv)
