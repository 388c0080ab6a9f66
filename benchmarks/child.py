"""One workload run, in a process of its own.

Started by run.py with BLAS threads pinned in its environment. Runs the
workload's cycles as a closed loop with one client: each op starts when
the previous one has returned. Untraced, whole cycles run until
--seconds of wall time have passed. Traced, a fixed number of cycles
runs (about --seconds on the reference machine), so the work counters
repeat exactly for the same seed. The workload's reference kernel
(clock.py) is timed before the first op and after every op, and each op
records its calibrated time next to its wall time. Prints one JSON line
on stdout.

    python3 benchmarks/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import convexcover  # noqa: E402
from clock import Kernel  # noqa: E402
from ops import run_op  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, argv_key  # noqa: E402


def _counter_failures(argv, rec, before, after) -> list[str]:
    """Check the traced counters of one op against what it wrote."""
    out = []
    if argv[0] == "lemmas" and "lemma_reports.json" in rec.docs:
        # each check computes one Hausdorff distance per refinement round
        want = sum(r["sup"]["refinements"] + r["l1"]["refinements"] + 2
                   for r in rec.docs["lemma_reports.json"]["reports"])
        got = after[0] - before[0]
        if got != want:
            out.append(f"trace: {got} hausdorff_epigraph calls, expected {want}")
    if "packing_certificate.json" in rec.docs:
        want = rec.docs["packing_certificate.json"]["pairs_checked"]
        got = after[1] - before[1]
        if got != want:
            out.append(f"trace: {got} certificate pairs, artifact says {want}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    src = (HERE.parent / "src").resolve()
    if src not in Path(convexcover.__file__).resolve().parents:
        print(f"convexcover imported from {convexcover.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    goldens = json.loads((HERE / "goldens.json").read_text())["ops"]
    workload = WORKLOADS[args.workload]
    kernel = Kernel(workload.kernel)
    work_dir = Path(args.work_dir)
    tracer = Tracer() if args.trace else None
    watched = ("metrics.hausdorff_epigraph.calls",
               "packing.packing_certificate.pairs")

    ops = []
    cycles = workload.cycles(args.seed)
    n_cycles = workload.trace_cycles(args.seconds) if tracer else None
    with tracer if tracer else contextlib.nullcontext():
        start = perf_counter()
        done = 0
        kernel_s = kernel.seconds()
        while True:
            for slot, argv in next(cycles):
                key = argv_key(argv)
                before = [tracer.count(w) for w in watched] if tracer else None
                rec = run_op(argv, work_dir, goldens.get(key, "missing"),
                             tracer)
                if tracer:
                    tracer.stats["cli"]["artifact_bytes"] += rec.artifact_bytes
                    rec.failures += _counter_failures(
                        argv, rec, before, [tracer.count(w) for w in watched])
                kernel_after = kernel.seconds()
                cal_s = kernel.calibrated(rec.seconds, kernel_s, kernel_after)
                ops.append({"slot": slot, "argv": key, "op_s": rec.seconds,
                            "cal_s": cal_s, "kernel_s": kernel_after,
                            "failures": rec.failures})
                kernel_s = kernel_after
            done += 1
            if n_cycles is not None:
                if done >= n_cycles:
                    break
            elif perf_counter() - start >= args.seconds:
                break
        wall = perf_counter() - start

    result = {
        "ops": ops,
        "cycles": done,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
