"""End-to-end runs of the command line entry points."""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexcover
from convexcover import cli, core, functions, metrics, packing, schedule, verify
from convexcover.cli import _json_text, main

from test_metrics import _spy, _traced
from test_schedule import _read_table


def _digest(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.is_file()}


def _run(out, argv):
    """The JSON artifacts, by file stem, of a run of argv that exits 0,
    which says that every check of the run passed."""
    assert main([*argv.split(), "--out-dir", str(out)]) == 0
    return {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")}


def test_pack_writes_a_full_artifact_set(tmp_path):
    out = _run(tmp_path, "pack --eta 1/25 --dim 1 --grid-n 301")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cap_report.json", "family.json", "interval_system.json",
                     "lower_bound_curve.csv", "packing_certificate.json"]
    assert out["interval_system"]["k"] == 5
    curve = (tmp_path / "lower_bound_curve.csv").read_text().splitlines()
    assert curve[0] == "eta,k,n_cells,eps,log_packing"
    assert len(curve) == 6  # header + 5 sweep points


def test_pack_parses_eta_as_an_exact_decimal(tmp_path):
    # "0.04" means 1/25 exactly, not the binary float above it
    out = _run(tmp_path, "pack --eta 0.04 --dim 1")
    assert out["interval_system"]["k"] == 5


def test_pack_builds_each_cap_once(tmp_path, monkeypatch):
    # one system and one cap object per cell per run: the 278 functions
    # and the cap checks share the 45 caps of that system. And one run
    # decides k once, in build_interval_system, which also refuses, beside
    # separation_curve's decision at each of its five etas
    # (forms cached from an equal system of an earlier run would hide
    # whether this run builds its caps once)
    packing.system_forms.cache_clear()
    calls = {name: _spy(monkeypatch, owner, name) for owner, name in (
        (packing, "Affine"), (cli, "build_interval_system"),
        (packing, "build_packing_family"), (cli, "verify_cap_properties"),
        (core, "interval_count"))}
    for eta, d in (("0.0025", "2"), ("1/2025", "1")):
        for log in calls.values():
            log.clear()
        assert main(["pack", "--eta", eta, "--dim", d,
                     "--out-dir", str(tmp_path / eta.replace("/", "_"))]) == 0
        callers = [c for c, _, _ in calls["interval_count"]]
        assert [c for c in callers if c != "separation_point"] == [
            "build_interval_system"]
        assert len(callers) == 6
    # the calls of the last run
    [(_, _, system)] = calls["build_interval_system"]
    [(_, _, family)] = calls["build_packing_family"]
    [(_, (checked,), _)] = calls["verify_cap_properties"]
    assert family.system is system and checked is system
    built = [cap for _, _, cap in calls["Affine"]]
    assert len(built) == 45
    caps = packing.system_forms(system)[1]
    assert all(a is b for a, b in zip(caps, built, strict=True))
    used = {id(c) for f in family.functions for c in f.parts[1:]}
    assert len(used) == 45 and used == {id(c) for c in built}


def test_pack_over_the_cell_cap_still_reports(tmp_path):
    out = _run(tmp_path, "pack --eta 0.0025 --dim 2")
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cap_report.json", "interval_system.json",
                     "lower_bound_curve.csv"]
    assert out["interval_system"]["k"] == 13


def test_schedule_artifacts(tmp_path):
    out = _run(tmp_path, "schedule --p 1 --log2-eta -96")
    assert out["schedule"]["depth"] == 4
    assert float(out["schedule"]["log_levels"][0]) == -96.0 * math.log(2.0)
    rows = (tmp_path / "schedule.csv").read_text().splitlines()
    assert rows[0] == "m,log_level,log_weight,log_radius"
    assert len(rows) == 6  # header + depth + the level past the edge
    assert rows[-1].endswith(",,")  # no weight or radius beyond the depth
    assert float(out["cover_accounting"]["entropy_bound"]) > 0.0


def test_a_deep_schedule_passes_and_prints_the_log_of_an_overflowed_bound(
        tmp_path, capsys):
    # depth 18: the closed-form gap 2.9e-12 once failed an absolute 1e-12
    acct = _run(tmp_path, "schedule --p 1 --log2-eta=-33333")[
        "cover_accounting"]
    assert acct["entropy_bound"] == "inf"
    log_bound = float(acct["log_entropy_bound"])
    assert capsys.readouterr().out == (
        f"depth 18 schedule; checks ok=True; "
        f"log cover count <= exp({log_bound:.6g})\n")


def test_a_schedule_whose_radii_overflow_fails_its_checks(tmp_path, capsys):
    # past |log2 eta| ~ 3.9e18 at p = 1, cancellation leaves a log radius
    # of 256, so e^(3 * 256) in the d = 3 power sum leaves the floats
    rc = main(["schedule", "--p", "1", "--log2-eta=-4e18",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cover_accounting.json", "schedule.csv", "schedule.json",
                     "schedule_checks.json"]
    checks = json.loads((tmp_path / "schedule_checks.json").read_text())
    assert checks["dim_sums"][2][1] == "inf"
    out, err = capsys.readouterr()
    assert "checks ok=False" in out and err == ""


def test_a_negative_log2_eta_in_exponent_form_needs_the_equals_form(
        tmp_path):
    # argparse reads "-9.6e1" as an option, not as the flag's value
    with pytest.raises(SystemExit):
        main(["schedule", "--p", "1", "--log2-eta", "-9.6e1",
              "--out-dir", str(tmp_path / "spaced")])
    for name, flag in (("equals", ["--log2-eta=-9.6e1"]),
                       ("plain", ["--log2-eta", "-96"])):
        assert main(["schedule", "--p", "1", *flag,
                     "--out-dir", str(tmp_path / name)]) == 0
    assert _digest(tmp_path / "equals") == _digest(tmp_path / "plain")


def test_lemmas_runs_one_pair(tmp_path):
    report = _run(tmp_path, "lemmas --dim 1 --pairs 1 --grid-n 201 "
                            "--directions 512")["lemma_reports"]
    assert len(report["reports"]) == 1


def test_lemmas_reruns_in_one_process_are_byte_identical(tmp_path):
    # the second run is served every Hausdorff value from the cache the
    # first one filled; the third sweeps them afresh
    argv = ["lemmas", "--dim", "2", "--pairs", "3", "--grid-n", "51",
            "--directions", "200"]
    cache = metrics._hausdorff_at
    texts = []
    for run in "abc":
        if run != "b":
            cache.cache_clear()
        misses = cache.cache_info().misses
        out = tmp_path / run
        assert main([*argv, "--out-dir", str(out)]) == 0
        texts.append((out / "lemma_reports.json").read_bytes())
        assert (cache.cache_info().misses == misses) == (run == "b")
    assert texts[0] == texts[1] == texts[2]


def test_bounds_at_an_eps_near_the_float_floor(tmp_path):
    # the packing side needs k ~ 1e148 intervals per axis here: finding k
    # once took a step per unit of the float guess's error, and k^3 cells
    # overflow the float log count
    t0 = time.perf_counter()
    obj = _run(tmp_path, "bounds --eps 1e-300 --p 1 --dim 3")["entropy_bounds"]
    assert time.perf_counter() - t0 < 1.0
    assert obj["log_lower"] == "inf"


@pytest.mark.parametrize("p", ["1e20", "1e120", "1e200"])
def test_bounds_with_a_p_past_the_schedule_edge_has_no_upper_bound(tmp_path,
                                                                   p):
    obj = _run(tmp_path, f"bounds --eps 1e-8 --p {p} --dim 1")[
        "entropy_bounds"]
    assert obj["log_upper"] is None
    assert float(obj["log_lower"]) == pytest.approx(180.375)


def test_bounds_artifacts(tmp_path):
    obj = _run(tmp_path, "bounds --eps 9.5367431640625e-07 --p 1 --dim 1 "
                         "--gamma 2.0")["entropy_bounds"]
    assert obj["log_upper"] is None  # eps too large for the p = 1 schedule
    assert float(obj["log_lower"]) == pytest.approx(18.375)
    assert float(obj["log_lipschitz_upper"]) > 0.0


def test_bounds_takes_the_cube_by_its_exact_side(tmp_path):
    # with a far origin the corner 1e16 + 3 once rounded to 1e16 + 4, and
    # the bounds came out for side 4 (log upper 5.18e8, log lower 1141)
    obj = _run(tmp_path, "bounds --eps 1e-9 --p 1 --dim 1 --side 3")[
        "entropy_bounds"]
    assert obj["log_upper"] == "449004157.7759286"
    assert obj["log_lower"] == "988.125"


# -- the refusal table ---------------------------------------------------------


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def _error_line(rc, err, out):
    # exit 2, not even --out-dir's parent created, and one "error: " line
    assert rc == 2 and not out.parent.exists()
    [line] = [line for line in err.splitlines() if "error: " in line]
    return line


def _assert_refused(rc, err, out):
    # and nothing but that line: no usage lines
    line = _error_line(rc, err, out)
    assert err == line + "\n" and line.startswith("error: "), err


def _run_row(argv, text, stage, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(functions, "make_random_convex", _reached)
    monkeypatch.setattr(packing, "build_packing_family", _reached)
    out = tmp_path / "new" / "out"
    argv = [*argv.split(), "--out-dir", str(out)]
    if text == stage == "-":  # an accepted edge
        with pytest.raises(_Reached):
            main(argv)
        return
    assert stage in ("argparse", "before-numpy", "after-numpy")

    def exit_code():
        if stage != "argparse":
            return main(argv)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code
    t0 = time.perf_counter()
    rc, peak = _traced(exit_code)
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    if stage == "argparse":
        # usage lines, then one "convexcover <command>: error: " line, or
        # "convexcover: error: " when no subcommand was named
        assert text in _error_line(rc, err, out), err
    else:
        _assert_refused(rc, err, out)
        assert text in err
    assert elapsed < 1.0 and peak < 8 * 2**20


def _table_test(rows):
    cases = [case for *_, case in rows]
    if set(cases) == {"-"}:  # the test's cases, reported without an id
        def test(tmp_path, capsys, monkeypatch):
            for *row, _ in rows:
                _run_row(*row, tmp_path, capsys, monkeypatch)
        return test

    @pytest.mark.parametrize("argv, text, stage",
                             [row[:3] for row in rows], ids=cases)
    def test(argv, text, stage, tmp_path, capsys, monkeypatch):
        _run_row(argv, text, stage, tmp_path, capsys, monkeypatch)
    return test


# each group of the table becomes the test of its name, so every case is
# reported under the id it has always had
for _name, _rows in _read_table("refusals.txt").items():
    globals()[_name] = _table_test(_rows)


# -- the schedule sweep --------------------------------------------------------


@st.composite
def _schedule_queries(draw):
    # p from 1 to 1000 as int or float text, floats on to 1e6, and a few
    # floats around 4.48e102, where the edge's log overflows and p is
    # refused. log2 eta down to -2^40 in plain or exponent form, past
    # p = 1000 times (min(p, 1e6)/1000)^2, as edge / p grows like p^2.
    # Half the draws move eta so that the last level, at most the depth
    # cap, sits at most a relative 1e-3 (and at most one step) below the
    # edge, where the ratio is tightest
    if draw(st.integers(0, 7)) == 0:
        p_text = repr(draw(st.floats(4.4e102, 4.6e102)))
    else:
        p_text = draw(st.integers(1, 1000).map(str)
                      | st.floats(1.0, 1000.0).map(repr)
                      | st.floats(1000.0, 1e6).map(repr))
    p = float(p_text)
    x = draw(st.floats(-2.0**40, -1.0)) * max(1.0, min(p, 1e6) / 1e3) ** 2
    edge, r = -2.0 * (p + 1.0) ** 2 * (p + 2.0), (p + 1.0) / (p + 2.0)
    gap = draw(st.none() | st.floats(0.0, 1e-3))
    if gap is not None and p * x < edge:  # levels in units of log 2
        depth = min(math.ceil(math.log(edge / (p * x)) / math.log(r)),
                    schedule.MAX_SCHEDULE_DEPTH)
        gap *= min(1.0, 1e3 / (p + 1.0))
        x = edge * (1.0 + gap) / (p * r ** (depth - 1))
    text = draw(st.sampled_from([repr, "{:.17e}".format]))(x)
    return ["schedule", "--p", p_text, f"--log2-eta={text}"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_schedule_queries())
def test_a_schedule_query_passes_every_check_or_is_refused(tmp_path_factory,
                                                           argv):
    out = tmp_path_factory.mktemp("sweep") / "new" / "out"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main([*argv, "--out-dir", str(out)])
    if rc == 0:  # every check passed
        shutil.rmtree(out.parent.parent)
    else:
        _assert_refused(rc, err.getvalue(), out)


# -- the bounds sweep ----------------------------------------------------------

# near 0 (subnormals too), near the float limits (with the infinities),
# small values of either sign, and NaN
_EDGE_FLOATS = (st.floats(-1e-300, 1e-300)
                | st.floats(min_value=1e300) | st.floats(max_value=-1e300)
                | st.floats(-4.0, 4.0) | st.just(math.nan))

# values each flag accepts, drawn half the time so that queries pass too
_TYPICAL = {"eps": st.floats(1e-12, 0.5), "p": st.floats(1.0, 4.0),
            "side": st.floats(0.5, 2.0), "bound": st.floats(0.5, 2.0),
            "gamma": st.floats(0.0, 4.0)}


@st.composite
def _bounds_queries(draw):
    # values as repr or in exponent form, all spaced or all in the = form;
    # a spaced negative in exponent form is an argparse error, also exit 2
    equals = draw(st.booleans())

    def flag(name):
        value = draw(_TYPICAL[name] if draw(st.booleans()) else _EDGE_FLOATS)
        text = draw(st.sampled_from([repr, "{:.17e}".format]))(value)
        return [f"--{name}={text}"] if equals else [f"--{name}", text]

    argv = ["bounds", "--dim", str(draw(st.integers(0, 9)))]
    argv += flag("eps") + flag("p")
    for name in ("side", "bound"):
        if draw(st.booleans()):
            argv += flag(name)
    for _ in range(draw(st.integers(0, 3))):
        argv += flag("gamma")
    return argv


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_bounds_queries())
def test_a_bounds_query_writes_its_bounds_or_is_refused(tmp_path_factory,
                                                        argv):
    out = tmp_path_factory.mktemp("bounds") / "new" / "out"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            rc = main([*argv, "--out-dir", str(out)])
        except SystemExit as exc:  # argparse refused the argument list
            rc = exc.code
    if rc == 0:
        obj = json.loads((out / "entropy_bounds.json").read_text())
        # no query reports a cover count below its packing count
        lower, upper = obj["log_lower"], obj["log_upper"]
        if lower is not None and upper is not None:
            assert float(lower) <= float(upper), argv
        shutil.rmtree(out.parent.parent)
    else:
        _error_line(rc, err.getvalue(), out)


# -- one parser per process --------------------------------------------------


_MIXED_ARGVS = (
    ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "2",
     "--gamma", "2.0", "--gamma", "0.5"],
    ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "2"],
    ["schedule", "--p", "1", "--log2-eta", "-96"],
    ["schedule", "--p", "1", "--log2-eta", "-96", "--dim", "5"],
    ["schedule", "--p", "1", "--log2-eta", "-96", "--dim", "2"],
)


def test_a_reused_parser_carries_nothing_between_calls(tmp_path):
    parser, commands = cli._build_parser()
    assert cli._build_parser() is cli._build_parser()
    runs = {}
    for order, indices in (("fwd", range(len(_MIXED_ARGVS))),
                           ("rev", reversed(range(len(_MIXED_ARGVS))))):
        for i in indices:
            out = tmp_path / order / str(i)
            assert main([*_MIXED_ARGVS[i], "--out-dir", str(out)]) == 0
            runs.setdefault(i, []).append(_digest(out))
    for first, second in runs.values():
        assert first == second
    # the --gamma list of one call does not reach the next
    bounds = json.loads(runs[1][0]["entropy_bounds.json"])
    assert bounds["log_lipschitz_upper"] is None
    # nor do the --dim 5 power-sum rows, on which its cover accounting
    # rests (each holds, as the run exits 0), reach the schedules around it
    for i, dims in ((2, [1, 2, 3]), (3, [1, 2, 3, 4, 5]), (4, [1, 2, 3])):
        checks = json.loads(runs[i][0]["schedule_checks.json"])
        assert [row[0] for row in checks["dim_sums"]] == dims
    for args in (parser.parse_args(["schedule", "--p", "1",
                                    "--log2-eta", "-96"]),
                 commands["schedule"].parse_args(["--p", "1",
                                                  "--log2-eta", "-96"])):
        assert args.dim == 1 and args.func is cli.cmd_schedule
        assert not hasattr(args, "dims") and not hasattr(args, "eta")


def test_help_and_no_argument_go_through_the_full_parser(capsys):
    # main parses with the subcommand's own parser when argv[0] names
    # one, and with the full parser otherwise (an unknown subcommand is
    # a row of tests/refusals.txt)
    for argv in (["-h"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: convexcover [-h] "
                              "{pack,schedule,lemmas,bounds} ...\n")
    with pytest.raises(SystemExit) as exc:
        main(["pack", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: convexcover pack [-h]")
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "convexcover: error: the following arguments are required: "
        "command\n")


# -- the artifact writer -------------------------------------------------------

_SCHEDULE_ARGV = ["schedule", "--p", "1.5", "--log2-eta", "-200.5"]


def _encoded(argv):
    # each artifact's bytes as main must write them: the JSON tree's text
    # and a newline, or the CSV text, encoded
    _, commands = cli._build_parser()
    args = commands[argv[0]].parse_args(argv[1:])
    files, _, _ = args.func(args)
    return {name: (body if isinstance(body, str)
                   else _json_text(body) + "\n").encode()
            for name, body in files.items()}


def test_main_writes_each_artifact_as_its_encoded_text(tmp_path):
    want = _encoded(_SCHEDULE_ARGV)
    assert set(want) == {"schedule.json", "schedule.csv",
                         "schedule_checks.json", "cover_accounting.json"}
    # a nested --out-dir that does not exist yet
    nested = tmp_path / "a" / "b" / "c"
    assert main([*_SCHEDULE_ARGV, "--out-dir", str(nested)]) == 0
    assert _digest(nested) == want
    # one that exists and holds longer files of the same names
    for name in want:
        (nested / name).write_bytes(b"x" * (len(want[name]) + 100))
    assert main([*_SCHEDULE_ARGV, "--out-dir", str(nested)]) == 0
    assert _digest(nested) == want


def test_main_writes_every_byte_when_the_system_writes_a_few(tmp_path,
                                                               monkeypatch):
    # os.write may write fewer bytes than it was given
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    assert main([*_SCHEDULE_ARGV, "--out-dir", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert _digest(tmp_path) == _encoded(_SCHEDULE_ARGV)


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["convexcover", *_SCHEDULE_ARGV,
                                      "--out-dir", str(tmp_path / "out")])
    assert main() == 0
    assert _digest(tmp_path / "out") == _encoded(_SCHEDULE_ARGV)


# -- the artifact encoder ---------------------------------------------------

_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text())
_TREES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=12)


@st.composite
def _shared_trees(draw):
    # each node may reuse any earlier node, itself possibly built from
    # reused nodes, so one object recurs at several places and levels
    pool = [draw(_TREES)]
    for _ in range(draw(st.integers(0, 8))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=5))
        kids = [pool[i] for i in picks] + draw(st.lists(_TREES, max_size=2))
        shape = draw(st.sampled_from(["list", "tuple", "dict"]))
        if shape == "dict":
            keys = draw(st.lists(st.text(max_size=6), min_size=len(kids),
                                 max_size=len(kids), unique=True))
            pool.append(dict(zip(keys, kids)))
        else:
            pool.append(kids if shape == "list" else tuple(kids))
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1)))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_shared_trees())
def test_json_text_equals_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_json_text_on_fixed_cases():
    shared = {"b": [1, 2.5, "\u00e9\n\"x\""], "a": {}}
    deep = [shared, [shared, {"z": shared, "y": []}], (shared,)]
    for obj in (deep, shared, [], {}, "\ud83d\ude00", 10**30, -0.0,
                math.inf, -math.inf, math.nan, True, None,
                {"k": [math.nan, None, False]}):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)
    for bad in ({1: "int key"}, [object()]):
        with pytest.raises(TypeError):
            _json_text(bad)


# -- the import contract -------------------------------------------------------


_SRC = str(Path(convexcover.__file__).resolve().parents[1])


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports this convexcover."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)


_NUMPY_FREE_RUNS = """
import contextlib, io, json, sys
import convexcover.cli as cli
out, argvs = sys.argv[1], json.loads(sys.argv[2])
codes, loaded = [], []
with contextlib.redirect_stdout(io.StringIO()):
    for i, argv in enumerate(argvs):
        try:
            codes.append(cli.main([*argv, "--out-dir", f"{out}/{i}"]))
        except SystemExit as exc:
            codes.append(exc.code)
        loaded.append([m for m in ("numpy", "scipy", "dataclasses",
                                   "fractions", "decimal")
                       if m in sys.modules])
print(json.dumps([codes, loaded]))
"""


def test_schedule_bounds_help_and_their_refusals_never_import_numpy(
        tmp_path):
    # nor dataclasses, and neither does any row refused by argparse or
    # before numpy loads, nor a pack over the 64-cell family cap (169,
    # 1,000 and 65,536 cells); schedule and bounds never load it. Only pack
    # parses an eta, so the rest load neither fractions nor decimal either;
    # the pack rows run last, as a module once loaded stays loaded
    rows = [row for rows in _read_table("refusals.txt").values()
            for row in rows]
    assert {argv.split()[0] for argv, _, stage, _ in rows
            if stage == "after-numpy"} <= {"pack", "lemmas"}
    refused = sorted((argv.split() for argv, _, stage, _ in rows
                      if stage in ("argparse", "before-numpy")),
                     key=lambda argv: argv[0] == "pack")
    assert {argv[0] for argv in refused} == {"schedule", "bounds", "pack",
                                             "lemmas", "frobnicate", "pac"}
    capped = [["pack", "--eta", "0.0025", "--dim", "2"],
              ["pack", "--eta", "1/400", "--dim", "3"],
              ["pack", "--eta", "1/87", "--dim", "8"]]
    argvs = [["schedule", "--p", "1", "--log2-eta", "-96"],
             ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "1",
              "--gamma", "2.0"],
             ["--help"], *refused, *capped]
    run = _fresh_python(_NUMPY_FREE_RUNS, str(tmp_path), json.dumps(argvs))
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0] + [2] * len(refused) + [0] * len(capped)
    for argv, modules in zip(argvs, loaded):
        allowed = {"fractions", "decimal"} if argv[0] == "pack" else set()
        assert set(modules) <= allowed, argv
    # and a capped pack writes, without numpy, the bytes it writes with it
    for i, argv in enumerate(capped, start=len(argvs) - len(capped)):
        here = tmp_path / "here" / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out-dir", str(here)]) == 0
        assert _digest(tmp_path / str(i)) == _digest(here)


def test_pack_in_a_fresh_process_writes_the_in_process_bytes(tmp_path):
    argv = ["pack", "--eta", "1/25", "--dim", "1"]
    _fresh_python("import sys; from convexcover.cli import main; "
                  "sys.exit(main(sys.argv[1:]))",
                  *argv, "--out-dir", str(tmp_path / "fresh"))
    assert main([*argv, "--out-dir", str(tmp_path / "here")]) == 0
    assert _digest(tmp_path / "fresh") == _digest(tmp_path / "here")


def test_every_exported_name_is_its_home_modules_object():
    names = convexcover.__all__
    assert len(set(names)) == len(names)
    for name in names:
        obj = getattr(convexcover, name)
        assert obj.__module__.startswith("convexcover.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    star = {}
    exec("from convexcover import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert all(star[name] is getattr(convexcover, name) for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        convexcover.no_such_name
    # the benchmark's tracer still finds these where they used to live
    assert verify.entropy_bounds is schedule.entropy_bounds
    assert packing.separation_curve is core.separation_curve
    assert packing.verify_cap_properties is core.verify_cap_properties


def test_every_record_written_by_report_json_names_all_its_fields():
    # _report_json writes the names in __match_args__; a dataclass with
    # kw_only fields or match_args=False would drop fields from an artifact
    records = set()
    for module in (core, schedule, functions, metrics, packing, verify):
        for obj in vars(module).values():
            to_json = getattr(obj, "to_json", None)
            if (isinstance(obj, type) and to_json is not None
                    and "_report_json" in to_json.__code__.co_names):
                records.add(obj)
    assert {core.Rect, schedule.Schedule, schedule.EntropyBounds,
            packing.IntervalSystem, packing.PackingFamily,
            verify.LemmaReport} <= records
    for cls in records:
        names = ([f.name for f in dataclasses.fields(cls)]
                 if dataclasses.is_dataclass(cls) else list(cls._fields))
        assert list(cls.__match_args__) == names, cls
