"""Capture or check the golden artifact digests of every benchmark op.

    python3 benchmarks/goldens.py capture   # (re)write goldens.json
    python3 benchmarks/goldens.py check     # recompute, compare, exit 1 on drift

Every argument list any workload can issue is run once through the CLI,
with BLAS threads pinned as in the benchmark. Capture refuses to write
when any op fails (non-zero return code or a false ok flag). Goldens are
taken at the commit the benchmark was defined on; a later change that
alters any artifact byte shows up as failed ops in every benchmark run.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import BLAS_THREADS, WORK, reexec_pinned  # noqa: E402

GOLDENS = HERE / "goldens.json"


def main(mode: str) -> int:
    from ops import run_op
    from workloads import all_argvs, argv_key

    WORK.mkdir(exist_ok=True)
    digests, bad = {}, 0
    with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
        for argv in all_argvs():
            rec = run_op(argv, Path(work_dir))
            digests[argv_key(argv)] = rec.digest
            if rec.failures:
                bad += 1
                print(f"FAILED {argv_key(argv)}: {rec.failures}")
    if not any(WORK.iterdir()):
        WORK.rmdir()
    if mode == "capture":
        if bad:
            print(f"{bad} ops failed; goldens.json not written")
            return 1
        GOLDENS.write_text(json.dumps(
            {"blas_threads": BLAS_THREADS, "ops": digests},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDENS.name}")
        return 0
    want = json.loads(GOLDENS.read_text())["ops"]
    drift = sorted(k for k in digests if digests[k] != want.get(k))
    for key in drift:
        print(f"DRIFT {key}")
    print(f"{len(digests) - len(drift)}/{len(digests)} digests match, "
          f"{bad} ops failed")
    return 1 if drift or bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("capture", "check"):
        sys.exit(__doc__)
    rc = reexec_pinned()
    sys.exit(main(sys.argv[1]) if rc is None else rc)
