"""Self-test of the benchmark harness.

    python3 benchmarks/selftest.py

Checks, with BLAS threads pinned as in the benchmark:

1. the traced lemmas-d2-hausdorff op records two hausdorff_epigraph
   calls per pair that did not refine (one from check_sup_bound, one
   from check_l1_bound, both reached through verify's own namespace);
2. on small ops the support-entry and certificate-pair counters match
   their closed forms;
3. artifacts are byte-identical with the wrappers installed, and every
   binding is restored when the tracer exits;
4. the traced self times of an op sum to its traced op time;
5. BENCHMARK.json names exactly the metrics the harness reports.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, WORK, reexec_pinned  # noqa: E402

FAILS: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILS.append(what)


def traced(argv, work_dir):
    """Run one op under a fresh tracer; return its record and the tracer."""
    from ops import run_op
    from spans import Tracer

    with Tracer() as tracer:
        rec = run_op(argv, work_dir, tracer=tracer)
    return rec, tracer


def main() -> int:
    import convexcover
    from convexcover import functions, metrics, verify
    from ops import run_op
    from spans import PER_LAYER, Tracer
    from workloads import argv_key

    goldens = json.loads((HERE / "goldens.json").read_text())["ops"]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work_dir = Path(tmp)

        # 1. the d=2 workload op: 2 Hausdorff calls for its unrefined pair
        argv = ("lemmas", "--dim", "2", "--pairs", "1", "--grid-n", "101",
                "--directions", "500", "--seed", "0")
        rec, tr = traced(argv, work_dir)
        report = rec.docs["lemma_reports.json"]["reports"][0]
        unrefined = report["sup"]["refinements"] == report["l1"]["refinements"] == 0
        check(unrefined and tr.count("metrics.hausdorff_epigraph.calls") == 2,
              "lemmas-d2-hausdorff op: 2 hausdorff_epigraph calls per "
              "unrefined pair")
        check(rec.digest == goldens[argv_key(argv)],
              "lemmas-d2-hausdorff op: traced artifacts match the golden")

        # 2. closed forms. Each Hausdorff call evaluates both supports on
        # 51 nodes x 64 directions, then on 101 nodes x 128 directions.
        argv = ("lemmas", "--dim", "1", "--pairs", "1", "--grid-n", "51",
                "--directions", "64", "--seed", "0")
        rec, tr = traced(argv, work_dir)
        calls = tr.count("metrics.hausdorff_epigraph.calls")
        check(calls == 2 and tr.count("metrics.hausdorff_epigraph."
                                      "support_entries") == 2 * 2 * (51 * 64 + 101 * 128),
              "lemmas d=1 n=51 D=64: support_entries = 2 calls x "
              "2 x (51*64 + 101*128)")
        untraced = run_op(argv, work_dir)
        check(rec.digest == untraced.digest,
              "lemmas d=1: artifacts identical with and without wrappers")

        argv = ("pack", "--eta", "1/400", "--dim", "1", "--grid-n", "301")
        rec, tr = traced(argv, work_dir)
        m = len(rec.docs["family.json"]["functions"])
        cert = rec.docs["packing_certificate.json"]
        pairs = tr.count("packing.packing_certificate.pairs")
        check(m > 2 and pairs == m * (m - 1) // 2 == cert["pairs_checked"],
              f"pack eta=1/400 d=1: certificate pairs = m(m-1)/2 = {pairs:g} "
              f"for m = {m}")
        check(tr.count("packing.packing_certificate.node_pairs") == pairs * 301,
              "pack eta=1/400 d=1: node_pairs = pairs x 301 nodes")
        check(tr.count("packing.greedy_binary_code.accepted") == m,
              "pack eta=1/400 d=1: code search accepted one word per function")
        check(rec.digest == run_op(argv, work_dir).digest,
              "pack eta=1/400 d=1: artifacts identical with and without wrappers")

        # 4. self times cover the op exactly once
        layers = tr.metrics()
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        check(math.isclose(self_sum, layers["cli.op_s"], rel_tol=1e-9),
              f"self_s sum {self_sum:.6f} s equals traced op time "
              f"{layers['cli.op_s']:.6f} s")
    if not any(WORK.iterdir()):
        WORK.rmdir()

    # 3. every binding is restored after the tracer exits
    originals = (functions.ConvexFunction.values, metrics.hausdorff_epigraph,
                 verify.hausdorff_epigraph, convexcover.make_random_convex)
    with Tracer():
        patched = (functions.ConvexFunction.values, metrics.hausdorff_epigraph,
                   verify.hausdorff_epigraph, convexcover.make_random_convex)
    restored = (functions.ConvexFunction.values, metrics.hausdorff_epigraph,
                verify.hausdorff_epigraph, convexcover.make_random_convex)
    check(all(a is not b for a, b in zip(originals, patched))
          and all(a is b for a, b in zip(originals, restored)),
          "wrappers reach every namespace and are removed on exit")

    # 5. BENCHMARK.json agrees with what run.py reports
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [tuple(p) for p in PER_LAYER],
          "BENCHMARK.json per_layer matches spans.PER_LAYER")
    from run import END_TO_END
    check([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
          == [tuple(e) for e in END_TO_END],
          "BENCHMARK.json end_to_end matches run.END_TO_END")

    print("selftest " + ("passed" if not FAILS else f"FAILED ({len(FAILS)})"))
    return 1 if FAILS else 0


if __name__ == "__main__":
    rc = reexec_pinned()
    sys.exit(main() if rc is None else rc)
