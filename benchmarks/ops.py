"""Run one `convexcover` CLI call in-process and check what it wrote.

An op is one call of convexcover.cli.main(argv) into a fresh temporary
--out-dir. It fails when the return code is not 0, when any ok flag in
its JSON artifacts is false, or when the digest of its artifact set
differs from the golden captured for that argument list.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from convexcover import cli


@dataclass
class OpRecord:
    argv: tuple[str, ...]
    seconds: float
    rc: int | None
    digest: str
    artifact_bytes: int
    docs: dict = field(repr=False)  # parsed JSON artifacts by file name
    failures: list[str] = field(default_factory=list)


def _false_flags(obj, path=""):
    """Paths of every ok flag (ok, all_ok, *_ok) that is not true."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            sub = f"{path}.{key}" if path else key
            if (key in ("ok", "all_ok") or key.endswith("_ok")) \
                    and isinstance(val, bool):
                if not val:
                    yield sub
            else:
                yield from _false_flags(val, sub)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _false_flags(val, f"{path}[{i}]")


def artifact_digest(files: dict[str, bytes]) -> str:
    """SHA-256 over the sorted file names and each file's own SHA-256."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def run_op(argv, work_dir: Path, golden: str | None = None,
           tracer=None) -> OpRecord:
    """Call the CLI once; golden None skips the digest comparison."""
    out = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        failures = []
        rc = None
        sink = io.StringIO()
        traced = tracer.op() if tracer is not None else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with traced, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = cli.main([*argv, "--out-dir", str(out)])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            failures.append("raised: " + traceback.format_exc(limit=3))
        seconds = perf_counter() - t0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.is_file()}
    finally:
        shutil.rmtree(out)

    if rc != 0:
        failures.append(f"return code {rc}: {sink.getvalue().strip()[-200:]}")
    docs = {}
    for name, data in files.items():
        if name.endswith(".json"):
            docs[name] = json.loads(data)
            failures += [f"{name}: {flag} is false"
                         for flag in _false_flags(docs[name])]
    digest = artifact_digest(files)
    if golden is not None and digest != golden:
        failures.append(f"artifact digest {digest[:12]} != golden {golden[:12]}")
    return OpRecord(tuple(argv), seconds, rc, digest,
                    sum(len(b) for b in files.values()), docs, failures)
