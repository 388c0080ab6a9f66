"""End-to-end runs of the command line entry points."""

import json
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcover import cli, metrics, packing
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
    # the 278 functions and the cap checks share the 45 caps of one system
    built = []
    real = packing.cap_function

    def counting(system, cell):
        built.append(cell)
        return real(system, cell)

    monkeypatch.setattr(packing, "cap_function", counting)
    assert main(["pack", "--eta", "1/2025", "--dim", "1",
                 "--out-dir", str(tmp_path)]) == 0
    assert sorted(built) == [(i,) for i in range(45)]


def test_pack_over_the_cell_cap_still_reports(tmp_path):
    rc = main(["pack", "--eta", "0.0025", "--dim", "2", "--cap-samples",
               "400", "--out-dir", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cap_report.json", "interval_system.json",
                     "lower_bound_curve.csv"]
    system = json.loads((tmp_path / "interval_system.json").read_text())
    assert system["k"] == 13


@pytest.mark.parametrize("eta, dim", [("1/144", "2"), ("1/49", "3")])
def test_pack_refuses_a_certificate_over_the_memory_budget(tmp_path, capsys,
                                                           eta, dim):
    # 2981 functions at 600^2 or 120^3 nodes would need 8.6 GB or 41 GB
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rc = main(["pack", "--eta", eta, "--dim", dim,
                   "--out-dir", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "GB of values" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 8 * 2**20
    assert not any(tmp_path.iterdir())


def test_pack_refuses_a_certificate_grid_past_max_grid_points(
        tmp_path, capsys, monkeypatch):
    # 2 functions x 40^5 nodes x 8 B is under the 2 GB budget, but no
    # 40^5 grid is ever built
    def build(*args, **kwargs):
        raise AssertionError("the family was built")

    monkeypatch.setattr(cli, "build_packing_family", build)
    t0 = time.perf_counter()
    rc = main(["pack", "--eta", "1/4", "--dim", "5",
               "--out-dir", str(tmp_path)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert "exceeds 10000000" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("eta, dim", [("1e-400", "1"), ("1e-20", "1"),
                                      ("1e-12", "2")])
def test_pack_refuses_a_system_over_the_cell_cap(tmp_path, capsys, eta, dim):
    # 1e-400 was a ZeroDivisionError in the first guess for k; the others
    # would build 10^10 interval starts or check 4.4e11 caps
    t0 = time.perf_counter()
    rc = main(["pack", "--eta", eta, "--dim", dim, "--out-dir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 2
    assert "eta too small" in capsys.readouterr().err
    assert elapsed < 1.0
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("bad, message", [
    (["--grid-n", "1"], "need n >= 2"),
    (["--cap-samples", "3"], "need samples >= 4"),
    (["--curve-steps", "0"], "need steps >= 1"),
    (["--max-samples", "0"], "max_samples must be >= 1"),
    (["--seed", "-1"], "seed must be >= 0"),
])
def test_pack_refuses_invalid_input_before_writing(tmp_path, capsys, bad,
                                                   message):
    rc = main(["pack", "--eta", "1/25", "--dim", "2", *bad,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_pack_refuses_a_tol_that_cannot_fail(tmp_path, capsys, tol):
    # a NaN or infinite tol would certify any family
    rc = main(["pack", "--eta", "1/25", "--dim", "1", "--tol", tol,
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "tol must be finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["pack", "--eta", "nan", "--dim", "1"],
    ["pack", "--eta", "inf", "--dim", "1"],
    ["pack", "--eta", "1/0", "--dim", "1"],
    ["schedule", "--p", "1", "--eta", "nan"],
    ["schedule", "--p", "1", "--eta", "1/0"],
    ["schedule", "--p", "1", "--eta", "0"],
], ids=lambda argv: f"{argv[0]}-{argv[argv.index('--eta') + 1]}")
def test_an_eta_that_is_not_a_positive_number_exits_2(tmp_path, capsys, argv):
    rc = main([*argv, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: eta ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("query", [["--eta", "1/25", "--dim", "1"],
                                   ["--eta", "0.1", "--dim", "8"]],
                         ids=["d1", "d8"])
def test_pack_caps_the_curve_steps(tmp_path, capsys, query):
    # at d = 8 the cell count of step 2000 has more digits than str(int)
    # formats; every accepted step count must format
    cap = cli.MAX_CURVE_STEPS
    ok_dir, refused_dir = tmp_path / "ok", tmp_path / "refused"
    assert main(["pack", *query, "--grid-n", "5", "--curve-steps", str(cap),
                 "--out-dir", str(ok_dir)]) == 0
    curve = (ok_dir / "lower_bound_curve.csv").read_text().splitlines()
    assert len(curve) == cap + 1
    capsys.readouterr()
    rc = main(["pack", *query, "--grid-n", "5", "--curve-steps",
               str(cap + 1), "--out-dir", str(refused_dir)])
    assert rc == 2
    assert f"need steps <= {cap}" in capsys.readouterr().err
    assert not refused_dir.exists()


@pytest.mark.parametrize("argv", [
    # once wrote two files, then raised formatting the curve's k
    ["pack", "--eta", "1/25", "--dim", "1", "--curve-steps", "15000"],
    ["pack", "--eta", "nan", "--dim", "1"],
    ["schedule", "--p", "1", "--log2-eta", "-96", "--dims", "0"],
    ["lemmas", "--dim", "1", "--pieces", "0"],
    ["bounds", "--eps", "1e-8", "--p", "1", "--dim", "0"],
    # the edge's log is -inf here, and (p + 1)^2 overflowed at 1e200
    ["schedule", "--p", "1e120", "--log2-eta", "-96"],
    ["schedule", "--p", "1e200", "--log2-eta", "-96"],
    # (p+1)/(p+2) rounds to 1, so the levels never reached the edge
    ["schedule", "--p", "1e20", "--log2-eta=-1e41"],
], ids=["pack-curve-steps", "pack-eta", "schedule-dims", "lemmas-pieces",
        "bounds-dim", "schedule-p-1e120", "schedule-p-1e200",
        "schedule-p-1e20"])
def test_a_refused_run_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "new" / "out"
    rc = main([*argv, "--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


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


def test_schedule_rejects_an_out_of_range_eta(tmp_path, capsys):
    rc = main(["schedule", "--p", "2", "--eta", "0.00390625",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["schedule", "--dims", "0"], "dims must be in 1..8"),
    (["schedule", "--dims", "2000"], "dims must be in 1..8"),
    (["schedule", "--dims", "-1"], "dims must be in 1..8"),
    (["schedule", "--dim", "0"], "dimension must be in 1..8"),
    (["bounds", "--eps", "inf"], "is too large"),
    (["bounds", "--eps", "1e308"], "is too large"),
    (["bounds", "--eps", "1e300", "--dim", "3", "--side", "1e-200"],
     "bound * side^(d/p) is outside the float range"),
    (["bounds", "--scale", "0", "--gamma", "1"], "scale must be positive"),
    (["bounds", "--scale", "0"], "scale must be positive"),
    (["bounds", "--scale", "-1"], "scale must be positive"),
    (["bounds", "--bound", "inf"], "bound must be positive and finite"),
    (["lemmas", "--bound", "inf"], "bound must be positive"),
    (["lemmas", "--bound", "2"], "--bound must be positive and at most 1"),
    (["lemmas", "--bound", "0"], "--bound must be positive and at most 1"),
    (["lemmas", "--rho", "0.7"], "need 0 < rho < 0.5"),
    (["lemmas", "--rho", "0"], "need 0 < rho < 0.5"),
    (["lemmas", "--seed", "-1"], "seed must be >= 0"),
    (["lemmas", "--directions", "3"], "need at least 4 directions"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_invalid_input_exits_2_before_writing(tmp_path, capsys, monkeypatch,
                                               argv, message):
    # one valid query per command, with one input made invalid; later
    # flags override the defaults given first. lemmas must refuse before
    # it draws its first pair.
    def no_pair(*args, **kwargs):
        raise AssertionError("drew a pair before refusing the input")

    monkeypatch.setattr(cli, "make_random_convex", no_pair)
    base = {"schedule": ["--p", "1", "--log2-eta", "-96"],
            "bounds": ["--eps", "1e-8", "--p", "1", "--dim", "1"],
            "lemmas": ["--dim", "1", "--pairs", "1"]}[argv[0]]
    rc = main([argv[0], *base, *argv[1:], "--out-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


def test_lemmas_refuses_zero_pairs(tmp_path, capsys):
    # with no pairs nothing is checked, so all_ok would say nothing
    rc = main(["lemmas", "--dim", "1", "--pairs", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "need pairs >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, message", [
    ("--directions", "need directions <= 100000"),
    ("--pieces", "pieces on the 17^1 bound grid"),
])
def test_lemmas_refuses_sizes_that_would_exhaust_memory(tmp_path, capsys,
                                                       flag, message):
    # a billion directions or pieces asked for arrays of many GB
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        rc = main(["lemmas", "--dim", "1", flag, "1000000000",
                   "--out-dir", str(tmp_path)])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert message in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 8 * 2**20
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, refused", [
    # 1601^2 nodes after two refinements: 615 GB at 30000 pieces, and
    # 97 pieces are 1.99 GB, 98 are 2.01 GB
    (["--dim", "2", "--pieces", "30000"], True),
    (["--dim", "2", "--pieces", "98"], True),
    (["--dim", "2", "--pieces", "97"], False),
    # the checks' grids are only 8n - 7 = 793 nodes wide at --grid-n 100
    (["--dim", "2", "--pieces", "397", "--grid-n", "100"], False),
    (["--dim", "2", "--pieces", "398", "--grid-n", "100"], True),
    # at d = 3 and --grid-n 101 both refined grids are past
    # MAX_GRID_POINTS, so 201^3 is the largest that is built: 1.95 GB at
    # 30 pieces, 2.01 GB at 31
    (["--dim", "3", "--pieces", "31", "--grid-n", "101"], True),
    (["--dim", "3", "--pieces", "30", "--grid-n", "101"], False),
    # the largest grid at d = 3: 2 * 108 - 1 = 215 and 215^3 = 9.94e6 nodes
    (["--dim", "3", "--grid-n", "108"], False),
])
def test_lemmas_refuse_piece_values_over_the_memory_budget(
        tmp_path, capsys, monkeypatch, argv, refused):
    class Drew(Exception):
        pass

    def first_pair(*args, **kwargs):
        raise Drew

    monkeypatch.setattr(cli, "make_random_convex", first_pair)
    out = tmp_path / "out"
    if not refused:
        with pytest.raises(Drew):
            main(["lemmas", *argv, "--out-dir", str(out)])
        return
    rc = main(["lemmas", *argv, "--out-dir", str(out)])
    assert rc == 2
    assert "over the 2 GB budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # gradient_mass always builds 101^4 nodes
    ["--dim", "4", "--pairs", "1", "--grid-n", "5", "--directions", "200"],
    ["--dim", "5", "--pieces", "1"],
    # the default --grid-n 201 estimates every distance on 401^3 nodes
    ["--dim", "3"],
    ["--dim", "3", "--grid-n", "109"],  # 217^3
])
def test_lemmas_refuse_a_grid_past_max_grid_points(tmp_path, capsys,
                                                    monkeypatch, argv):
    def first_pair(*args, **kwargs):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(cli, "make_random_convex", first_pair)
    out = tmp_path / "out"
    t0 = time.perf_counter()
    rc = main(["lemmas", *argv, "--out-dir", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert "over 10000000" in capsys.readouterr().err
    assert not out.exists()


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


@settings(max_examples=200, deadline=None)
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
