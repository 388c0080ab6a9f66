"""Run-to-run spread of the end-to-end metrics across workload seeds.

    python3 benchmarks/spread.py [--workloads W ...] [--seeds 0-9]

Runs run.py --trace 0 once per seed and workload, then prints for each
metric its median, its quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json. A benchmark is steady when every share except
setup_s's stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("manifest "):
            result["manifest"] = json.loads(line[len("manifest "):])
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = ap.parse_args()

    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, bench["run_seconds"])
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / metric["bound"])
            print(f"  {workload:20s} {name:12s} median {med:.6g} "
                  f"{metric['unit']:4s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {share:.4f} bound {metric['bound']}"
                  + ("  STEADY" if share < metric["bound"] / 3 else "  WIDE"),
                  flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
