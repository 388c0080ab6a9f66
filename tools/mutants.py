"""Mutation run over the verdict code: python tools/mutants.py [verdict ...]

Each <, <=, > or >= in a verdict's comparisons gives two mutants, one
flipping its strictness and one negating it, each a swap of that token in
a temporary copy of src/, tests/ and tools/. Tier-1 runs on the copy with
-x: the verdict's own test file, then for a survivor the whole suite but
tests/test_mutants.py, which reads the mutated source. Exits 1 when the
survivors differ from the rows of tests/mutants.txt for the verdicts run.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERDICTS = {  # verdict: (its module, the test file holding most of its tests)
    "schedule_checks": ("schedule", "test_schedule.py"),
    "cover_accounting": ("schedule", "test_schedule.py"),
    "entropy_bounds": ("schedule", "test_verify.py"),
    "packing_certificate": ("packing", "test_packing.py"),
    "verify_cap_properties": ("core", "test_packing.py"),
    "_lattice_failures": ("core", "test_packing.py"),
    "_decide": ("verify", "test_verify.py"),
    "check_sup_bound": ("verify", "test_verify.py"),
    "check_l1_bound": ("verify", "test_verify.py"),
    "_prune": ("metrics", "test_metrics.py"),
    "_require_within": ("functions", "test_functions.py"),
    "require_dim": ("core", "test_schedule.py"),
    "require_directions": ("core", "test_metrics.py"),
}
OPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
SWAPS = {"<": ("<=", ">="), "<=": ("<", ">"), ">": (">=", "<="), ">=": (">", "<")}


def mutants(source: bytes, name: str):
    """(comparison, mutant, mutated source), texts with single spaces."""
    func = next(n for n in ast.walk(ast.parse(source))
                if isinstance(n, ast.FunctionDef) and n.name == name)
    # line starts in bytes, as ast counts its columns
    line = [0, 0, *accumulate(map(len, source.splitlines(True)))]
    for node in (n for n in ast.walk(func) if isinstance(n, ast.Compare)):
        lo = line[node.lineno] + node.col_offset
        hi = line[node.end_lineno] + node.end_col_offset
        sides = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, sides, sides[1:]):
            old = OPS.get(type(op), "")
            at = source.index(old.encode(),
                              line[a.end_lineno] + a.end_col_offset,
                              line[b.lineno] + b.col_offset)
            for new in SWAPS.get(old, ()):
                out = source[:at] + new.encode() + source[at + len(old):]
                yield (" ".join(source[lo:hi].decode().split()),
                       " ".join(out[lo:hi + len(new) - len(old)].decode().split()),
                       out)


def survivors(names):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    run = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--ignore=tests/test_mutants.py"]
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests", "tools"):
            shutil.copytree(ROOT / part, Path(tmp, part))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        for name in names:
            module, own = VERDICTS[name]
            path = Path(tmp, "src/convexcover", module + ".py")
            source = path.read_bytes()
            for comparison, mutant, mutated in mutants(source, name):
                path.write_bytes(mutated)
                killed = any(subprocess.run(run + [tests], cwd=tmp, env=env,
                                            capture_output=True).returncode
                             for tests in ("tests/" + own, "tests"))
                print("killed" if killed else "SURVIVED", name, mutant, flush=True)
                if not killed:
                    yield name, comparison, mutant
            path.write_bytes(source)


if __name__ == "__main__":
    names = sys.argv[1:] or list(VERDICTS)
    got = set(survivors(names))
    rows = (ROOT / "tests/mutants.txt").read_text().splitlines()
    want = {tuple(r.split(" | ")[:3]) for r in rows
            if r.split(" | ")[0] in names}
    for row in sorted(want ^ got):  # - a row no mutant matched, + a survivor
        print("-" if row in want else "+", " | ".join(row))
    sys.exit(got != want)
