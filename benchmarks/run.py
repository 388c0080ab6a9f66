"""convexcover benchmark: drive the CLI from outside and report metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ as it stands, nothing is installed. Each run starts one child
process (child.py) that runs the workload in-process as a closed loop
with one client, so peak memory and warm state belong to that workload.
BLAS threads are pinned to BLAS_THREADS in the child and in every
set-up probe.

With --trace 0 the last line reports the end-to-end metrics. Their
times are calibrated (clock.py): wall times scaled to the host's quiet
speed by a reference kernel timed around each op and each probe, so
that the shared host's changing speed does not read as a change of the
program.

  ops_per_s    completed ops per calibrated second spent inside
               cli.main (the harness's own per-op checks excluded),
               taken per cycle of the workload; the median over cycles
  op_s.p50     median calibrated op time
  setup_s      median calibrated wall time of SETUP_PROBES fresh
               interpreters that each import convexcover.cli, which
               every CLI call pays
  peak_rss_mb  peak resident memory of the workload's child process

The manifest line also gives the uncalibrated ops_per_s and op_s.p50
and the median kernel time, so the host's speed during the run shows.

With --trace 1 it reports the per-layer metrics of spans.PER_LAYER from
a separate traced run. Every op's artifacts are checked against
goldens.json; `failed` counts ops with a non-zero return code, a false
ok flag, a digest mismatch or (traced) a counter that disagrees with
the artifacts. Earlier lines print each metric with its unit and a run
manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
# The whole run must end within 180 s.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from clock import Kernel  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# (name, unit, better) of the end-to-end metrics, in reporting order
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_s.p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def reexec_pinned() -> int | None:
    """Re-run this script under pinned_env() unless already there.

    Returns the re-run's exit code, or None when the caller is the
    pinned process and should go on.
    """
    env = pinned_env()
    if all(os.environ.get(k) == env[k] for k in (*_BLAS_VARS, "PYTHONPATH")):
        return None
    return subprocess.run([sys.executable, *sys.argv], env=env).returncode


def _probe(cmd, env) -> float:
    """Wall time of one process, from start to exit."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    # a blocking wait: subprocess's wait(timeout) polls in 50 ms steps,
    # which would quantize the measurement
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return elapsed


def setup_seconds(env) -> float:
    """Median calibrated wall time of fresh interpreters importing
    convexcover.cli."""
    cmd = [sys.executable, "-c", "import convexcover.cli"]
    # one unmeasured import first, so byte-compiling src/ is not counted
    _probe(cmd, env)
    kernel = Kernel("python")
    times = []
    kernel_s = kernel.seconds()
    for _ in range(SETUP_PROBES):
        seconds = _probe(cmd, env)
        kernel_after = kernel.seconds()
        times.append(kernel.calibrated(seconds, kernel_s, kernel_after))
        kernel_s = kernel_after
    return statistics.median(times)


def sloc(package: Path) -> int:
    """Non-blank lines of the package's Python files that are not comments."""
    return sum(1 for path in sorted(package.glob("*.py"))
               for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def throughput(ops, per_cycle: int, key: str) -> tuple[float, float]:
    """(ops per second, median op time) with op times read from `key`.

    Throughput is taken per whole cycle; the median over cycles keeps a
    burst of machine contention in one cycle from moving the run's figure.
    """
    good = [op[key] for op in ops if not op["failures"]]
    rates = []
    for c in range(0, len(ops), per_cycle):
        cycle = ops[c:c + per_cycle]
        done = sum(1 for op in cycle if not op["failures"])
        rates.append(done / sum(op[key] for op in cycle))
    return statistics.median(rates), statistics.median(good) if good else 0.0


def end_to_end(child: dict, per_cycle: int,
               setup_s: float) -> dict[str, tuple[float, str]]:
    ops_per_s, op_p50 = throughput(child["ops"], per_cycle, "cal_s")
    values = {
        "ops_per_s": ops_per_s,
        "op_s.p50": op_p50,
        "setup_s": setup_s,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "convexcover" / "cli.py").is_file():
        print(f"no convexcover sources under {SRC}", file=sys.stderr)
        return 2
    if not (HERE / "goldens.json").is_file():
        print("benchmarks/goldens.json is missing", file=sys.stderr)
        return 2

    t_start = perf_counter()
    env = pinned_env()
    setup_s = None if args.trace else setup_seconds(env)
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work_dir)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (perf_counter() - t_start)))
    except subprocess.TimeoutExpired:
        print("workload run did not finish in time", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"workload child exited with {proc.returncode}", file=sys.stderr)
        return 3
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = child["ops"]
    per_cycle = len(WORKLOADS[args.workload].slots)
    failed = [op for op in ops if op["failures"]]
    for op in failed:
        print(f"FAILED {op['argv']}: {'; '.join(op['failures'])}")
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        **child["versions"], "git_commit": git_commit(),
        "sloc": sloc(SRC / "convexcover"),
        "ops": len(ops), "cycles": child["cycles"],
        "wall_s": round(child["wall_s"], 3),
        "kernel": WORKLOADS[args.workload].kernel,
        "kernel_s.p50": statistics.median(op["kernel_s"] for op in ops),
    }
    if not args.trace:
        manifest["wall_ops_per_s"], manifest["wall_op_s.p50"] = throughput(
            ops, per_cycle, "op_s")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"fail_frac {len(failed) / len(ops):.6g} ({len(failed)}/{len(ops)} ops)")

    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: (value, units[name])
                   for name, value in child["layers"].items()}
    else:
        metrics = end_to_end(child, per_cycle, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
