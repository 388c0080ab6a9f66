"""One command for every workload: end-to-end metrics, top layers, overhead.

    python3 benchmarks/report.py [--seed N] [--workloads W ...]

For each workload it makes one untraced and one traced run.py run with
the same seed and prints every end-to-end metric with its unit, the
failed-op fraction, the layers with the largest share of the traced op
time, the check that the layers' self times sum to that op time, and the
tracing overhead: traced mean op time minus untraced mean op time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from spread import ROOT, run_once  # noqa: E402


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--top", type=int, default=5)
    args = ap.parse_args()

    for workload in args.workloads:
        plain = run_once(workload, args.seed, bench["run_seconds"], 0)
        traced = run_once(workload, args.seed, bench["run_seconds"], 1)
        again = run_once(workload, args.seed, bench["run_seconds"], 1)
        print(f"== {workload} (seed {args.seed})")
        print("  manifest " + json.dumps(plain["manifest"], sort_keys=True))
        for name, m in plain["metrics"].items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
        print(f"  fail_frac    {plain['failed'] / plain['attempted']:.6g} "
              f"({plain['failed']}/{plain['attempted']} untraced, "
              f"{traced['failed']}/{traced['attempted']} traced)")

        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        op_s = layers["cli.op_s"]
        selfs = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                        if k.endswith(".self_s")), reverse=True)
        total = sum(v for v, _ in selfs)
        print(f"  traced op {op_s:.6g} s; self_s sum {total:.6g} s "
              f"({total / op_s:.4%} of it)")
        for v, layer in selfs[:args.top]:
            print(f"    {layer:36s} {v:.6g} s  {v / op_s:7.2%}")
        counters = [m["name"] for m in bench["per_layer"]
                    if m["unit"] in ("count", "B", "ratio")]
        moved = [n for n in counters
                 if traced["metrics"][n] != again["metrics"][n]]
        print(f"  {len(counters) - len(moved)}/{len(counters)} work counters "
              f"repeat exactly in a second traced run"
              + (f"; moved: {moved}" if moved else ""))
        # the traced op time is wall time, so compare with the untraced
        # run's wall time, not its calibrated metrics
        untraced_op = 1.0 / plain["manifest"]["wall_ops_per_s"]
        print(f"  tracing overhead {op_s - untraced_op:+.6g} s per op "
              f"({(op_s - untraced_op) / untraced_op:+.2%} of "
              f"{untraced_op:.6g} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
