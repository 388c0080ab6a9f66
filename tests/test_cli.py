"""End-to-end runs of the command line entry points."""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexcover
from convexcover import cli, core, functions, metrics, packing, schedule, verify
from convexcover.cli import _json_text, main


def _digest(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.is_file()}


def test_pack_writes_a_full_artifact_set(tmp_path):
    rc = main(["pack", "--eta", "1/25", "--dim", "1", "--grid-n", "301",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cap_report.json", "family.json", "interval_system.json",
                     "lower_bound_curve.csv", "packing_certificate.json"]
    system = json.loads((tmp_path / "interval_system.json").read_text())
    assert system["k"] == 5
    cert = json.loads((tmp_path / "packing_certificate.json").read_text())
    assert cert["ok"] is True and cert["failures"] == 0
    report = json.loads((tmp_path / "cap_report.json").read_text())
    assert report["ok"] is True
    curve = (tmp_path / "lower_bound_curve.csv").read_text().splitlines()
    assert curve[0] == "eta,k,n_cells,eps,log_packing"
    assert len(curve) == 6  # header + 5 sweep points


def test_pack_parses_eta_as_an_exact_decimal(tmp_path):
    # "0.04" means 1/25 exactly, not the binary float above it
    rc = main(["pack", "--eta", "0.04", "--dim", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    system = json.loads((tmp_path / "interval_system.json").read_text())
    assert system["k"] == 5


def test_pack_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert main(["pack", "--eta", "1/25", "--dim", "1", "--grid-n", "301",
                     "--out-dir", str(out)]) == 0
    assert _digest(a) == _digest(b)


def test_pack_builds_each_cap_once(tmp_path, monkeypatch):
    # one cap object per cell per run: the 278 functions and the cap checks
    # share the 45 caps of one system
    built, runs = [], {}
    real_affine = packing.Affine
    real_build = packing.build_packing_family
    real_verify = packing.verify_cap_properties

    def counting(*args):
        built.append(real_affine(*args))
        return built[-1]

    def build(*args, **kw):
        runs["family"] = real_build(*args, **kw)
        return runs["family"]

    def verify(system, **kw):
        runs["checked"] = system
        return real_verify(system, **kw)

    monkeypatch.setattr(packing, "Affine", counting)
    monkeypatch.setattr(packing, "build_packing_family", build)
    monkeypatch.setattr(packing, "verify_cap_properties", verify)
    assert main(["pack", "--eta", "1/2025", "--dim", "1",
                 "--out-dir", str(tmp_path)]) == 0
    system = runs["family"].system
    assert runs["checked"] is system
    assert len(built) == 45
    assert all(a is b for a, b in zip(system.caps, built, strict=True))
    used = {id(c) for f in runs["family"].functions for c in f.parts[1:]}
    assert len(used) == 45 and used == {id(c) for c in built}


def test_pack_over_the_cell_cap_still_reports(tmp_path):
    rc = main(["pack", "--eta", "0.0025", "--dim", "2",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cap_report.json", "interval_system.json",
                     "lower_bound_curve.csv"]
    system = json.loads((tmp_path / "interval_system.json").read_text())
    assert system["k"] == 13


def test_schedule_artifacts(tmp_path):
    rc = main(["schedule", "--p", "1", "--log2-eta", "-96",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cover_accounting.json", "schedule.csv", "schedule.json",
                     "schedule_checks.json"]
    sched = json.loads((tmp_path / "schedule.json").read_text())
    assert sched["depth"] == 4
    assert float(sched["log_levels"][0]) == -96.0 * math.log(2.0)
    checks = json.loads((tmp_path / "schedule_checks.json").read_text())
    assert checks["ok"] is True
    rows = (tmp_path / "schedule.csv").read_text().splitlines()
    assert rows[0] == "m,log_level,log_weight,log_radius"
    assert len(rows) == 6  # header + depth + the level past the edge
    assert rows[-1].endswith(",,")  # no weight or radius beyond the depth
    acct = json.loads((tmp_path / "cover_accounting.json").read_text())
    assert float(acct["entropy_bound"]) > 0.0


def test_a_deep_schedule_passes_and_prints_the_log_of_an_overflowed_bound(
        tmp_path, capsys):
    # depth 18: the closed-form gap 2.9e-12 once failed an absolute 1e-12
    rc = main(["schedule", "--p", "1", "--log2-eta=-33333",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    acct = json.loads((tmp_path / "cover_accounting.json").read_text())
    assert acct["entropy_bound"] == "inf"
    log_bound = float(acct["log_entropy_bound"])
    assert capsys.readouterr().out == (
        f"depth 18 schedule; checks ok=True; "
        f"log cover count <= exp({log_bound:.6g})\n")


def test_schedule_accepts_exact_eta_text(tmp_path):
    rc = main(["schedule", "--p", "2", "--eta", "1/1099511627776",
               "--out-dir", str(tmp_path)])  # 2^-40
    assert rc == 0
    sched = json.loads((tmp_path / "schedule.json").read_text())
    assert sched["depth"] == 1


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
    rc = main(["lemmas", "--dim", "1", "--pairs", "1", "--grid-n", "201",
               "--directions", "512", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "lemma_reports.json").read_text())
    assert report["all_ok"] is True
    assert len(report["reports"]) == 1
    pair = report["reports"][0]
    assert pair["sup"]["ok"] and pair["l1"]["ok"] and pair["slope_mass_ok"]


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
    rc = main(["bounds", "--eps", "1e-300", "--p", "1", "--dim", "3",
               "--out-dir", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    obj = json.loads((tmp_path / "entropy_bounds.json").read_text())
    assert obj["log_lower"] == "inf"


@pytest.mark.parametrize("p", ["1e20", "1e120", "1e200"])
def test_bounds_with_a_p_past_the_schedule_edge_has_no_upper_bound(tmp_path,
                                                                   p):
    rc = main(["bounds", "--eps", "1e-8", "--p", p, "--dim", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "entropy_bounds.json").read_text())
    assert obj["log_upper"] is None
    assert float(obj["log_lower"]) == pytest.approx(180.375)


def test_bounds_artifacts(tmp_path):
    rc = main(["bounds", "--eps", "9.5367431640625e-07", "--p", "1",
               "--dim", "1", "--gamma", "2.0", "--out-dir", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "entropy_bounds.json").read_text())
    assert obj["log_upper"] is None  # eps too large for the p = 1 schedule
    assert float(obj["log_lower"]) == pytest.approx(18.375)
    assert float(obj["log_lipschitz_upper"]) > 0.0


def test_missing_required_arguments_exit_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["pack", "--dim", "1", "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["schedule", "--p", "1", "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("argv", [
    "pack --eta 1/25 --dim 1 --tol 1",
    "pack --eta 1/25 --dim 1 --cap-samples 1",
    "pack --eta 1/25 --dim 1 --max-samples 1",
    "pack --eta 1/25 --dim 1 --curve-steps 1",
    "lemmas --dim 1 --pieces 1",
], ids=["tol", "cap-samples", "max-samples", "curve-steps", "pieces"])
def test_a_removed_option_exits_2_through_argparse(tmp_path, capsys, argv):
    out = tmp_path / "new" / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--out-dir", str(out)])
    assert exc.value.code == 2
    flag = argv.split()[-2]
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not out.parent.exists()


# -- the refusal table ---------------------------------------------------------


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def _assert_refused(rc, err, out):
    # exit 2, one "error: " line, and not even --out-dir's parent created
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.parent.exists()


def _run_row(text, argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(functions, "make_random_convex", _reached)
    monkeypatch.setattr(packing, "build_packing_family", _reached)
    out = tmp_path / "new" / "out"
    argv = [*argv.split(), "--out-dir", str(out)]
    if text == "-":  # an accepted edge
        with pytest.raises(_Reached):
            main(argv)
        return
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    _assert_refused(rc, err, out)
    assert text in err
    assert elapsed < 1.0 and peak < 8 * 2**20


def _table_test(rows):
    if list(rows) == ["-"]:  # the test's only case, reported without an id
        def test(tmp_path, capsys, monkeypatch):
            _run_row(*rows["-"], tmp_path, capsys, monkeypatch)
        return test

    @pytest.mark.parametrize("text, argv", list(rows.values()), ids=list(rows))
    def test(text, argv, tmp_path, capsys, monkeypatch):
        _run_row(text, argv, tmp_path, capsys, monkeypatch)
    return test


def _read_table():
    tests = {}
    table = Path(__file__).with_name("refusals.txt").read_text()
    for line in table.splitlines():
        if line.startswith("test_"):
            tests[line] = rows = {}
        elif line and not line.startswith("#"):
            argv, text, case = line.split(" | ")
            rows[case] = (text, argv)
    return tests


# each group of the table becomes the test of its name, so every case is
# reported under the id it has always had
for _name, _rows in _read_table().items():
    globals()[_name] = _table_test(_rows)


# -- the schedule sweep --------------------------------------------------------


@st.composite
def _schedule_queries(draw):
    # p from 1 to 1000 as int or float text, log2 eta down to -2^40 in plain
    # or exponent form; half the draws move eta so that the last level sits
    # at most a relative 1e-3 below the edge, where the ratio is tightest
    p_text = draw(st.integers(1, 1000).map(str)
                  | st.floats(1.0, 1000.0).map(repr))
    p, x = float(p_text), draw(st.floats(-2.0**40, -1.0))
    edge, r = -2.0 * (p + 1.0) ** 2 * (p + 2.0), (p + 1.0) / (p + 2.0)
    gap = draw(st.none() | st.floats(0.0, 1e-3))
    if gap is not None and p * x < edge:  # levels in units of log 2
        depth = math.ceil(math.log(edge / (p * x)) / math.log(r))
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
    if rc == 0:
        checks = json.loads((out / "schedule_checks.json").read_text())
        assert all(v for k, v in checks.items() if k.endswith("ok"))
        assert all(row[3] for row in checks["dim_sums"])
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
            "side": st.floats(0.5, 2.0), "origin": st.floats(-2.0, 2.0),
            "bound": st.floats(0.5, 2.0), "scale": st.floats(0.5, 2.0),
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
    for name in ("side", "origin", "bound", "scale"):
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
        assert (out / "entropy_bounds.json").is_file()
        shutil.rmtree(out.parent.parent)
    else:
        assert rc == 2
        lines = err.getvalue().splitlines()
        assert sum("error: " in line for line in lines) == 1, lines
        assert not out.parent.exists()


# -- one parser per process --------------------------------------------------


_MIXED_ARGVS = (
    ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "2",
     "--gamma", "2.0", "--gamma", "0.5"],
    ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "2"],
    ["schedule", "--p", "2", "--eta", "1/1099511627776"],
    # --eta and --log2-eta are mutually exclusive: argparse exits
    ["schedule", "--p", "1", "--eta", "1/4", "--log2-eta", "-96"],
    ["schedule", "--p", "1", "--log2-eta", "-96"],
    ["schedule", "--p", "1", "--log2-eta", "-96", "--dims", "4"],
    ["schedule", "--p", "1", "--log2-eta", "-96", "--dim", "2"],
)


def test_a_reused_parser_carries_nothing_between_calls(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    runs = {}
    for order, indices in (("fwd", range(len(_MIXED_ARGVS))),
                           ("rev", reversed(range(len(_MIXED_ARGVS))))):
        for i in indices:
            out = tmp_path / order / str(i)
            argv = [*_MIXED_ARGVS[i], "--out-dir", str(out)]
            if i == 3:
                with pytest.raises(SystemExit):
                    main(argv)
                assert not out.exists()
                continue
            assert main(argv) == 0
            runs.setdefault(i, []).append(_digest(out))
    assert sorted(runs) == [0, 1, 2, 4, 5, 6]
    for first, second in runs.values():
        assert first == second
    # the --gamma list of one call does not reach the next
    bounds = json.loads(runs[1][0]["entropy_bounds.json"])
    assert bounds["log_lipschitz_upper"] is None
    checks = json.loads(runs[4][0]["schedule_checks.json"])
    assert [row[0] for row in checks["dim_sums"]] == [1, 2, 3]
    checks = json.loads(runs[5][0]["schedule_checks.json"])
    assert [row[0] for row in checks["dim_sums"]] == [4]
    args = cli._build_parser().parse_args(["schedule", "--p", "1",
                                           "--log2-eta", "-96"])
    assert args.dims == (1, 2, 3) and args.eta is None


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
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for i, argv in enumerate(argvs):
        try:
            codes.append(cli.main([*argv, "--out-dir", f"{out}/{i}"]))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, [m for m in ("numpy", "scipy") if m in sys.modules]]))
"""


def test_schedule_bounds_help_and_their_refusals_never_import_numpy(
        tmp_path):
    refused = [argv.split() for rows in _read_table().values()
               for _, argv in rows.values()
               if argv.split()[0] in ("schedule", "bounds")]
    assert refused
    argvs = [["schedule", "--p", "1", "--log2-eta", "-96"],
             ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "1",
              "--gamma", "2.0"],
             ["--help"], *refused]
    run = _fresh_python(_NUMPY_FREE_RUNS, str(tmp_path), json.dumps(argvs))
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0] + [2] * len(refused)
    assert loaded == []


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
