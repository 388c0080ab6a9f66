"""Acceptance suite: the twelve headline criteria, one printed line each.

Each test exercises a full construction or inequality at its stated
tolerance and prints a single summary line even under captured output,
so a plain verbose run shows the per-criterion outcomes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from convexcover import (
    Affine,
    GridSpec,
    Hinge,
    Rect,
    build_interval_system,
    build_packing_family,
    build_schedule,
    cell_gap,
    cell_gap_quadrature,
    check_l1_bound,
    check_sup_bound,
    code_min_distance,
    code_target,
    gradient_mass,
    greedy_binary_code,
    hausdorff_epigraph,
    hinge_family,
    hinge_hausdorff_closed_form,
    hinge_lp_closed_form,
    lp_distance,
    make_random_convex,
    packing_certificate,
    scaling_identity_report,
    schedule_checks,
    separation_point,
    slice_gradient_mass,
    unit_rect,
    verify_cap_properties,
)
from convexcover.cli import main as cli_main

LOG2 = math.log(2.0)


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_c01_separation_certificates(capsys):
    cases = [(Fraction(1, 25), 1), (Fraction(1, 100), 1),
             (Fraction(1, 400), 1), (Fraction(1, 100), 2)]
    worst = 0.0
    pairs = 0
    try:
        for eta, d in cases:
            t0 = time.perf_counter()
            family = build_packing_family(eta, d)
            cert = packing_certificate(family, tol=1e-6)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            pairs += cert.pairs_checked
            assert dt < 120.0, f"eta={eta} d={d} took {dt:.1f}s"
            assert cert.ok, f"certificate failed at eta={eta} d={d}"
            assert cert.failures == 0 and cert.shortfall == 0
            assert cert.eps_consistent
    except AssertionError as exc:
        _report(capsys, f"C01 separation certificates: FAIL ({exc})")
        raise
    _report(capsys, f"C01 separation certificates: pass "
                    f"({len(cases)} families, {pairs} pairs, "
                    f"slowest {worst:.1f}s)")


def test_c02_cap_properties_exact(capsys):
    cases = [(Fraction(1, 25), 1), (Fraction(1, 100), 1),
             (Fraction(1, 400), 1), (Fraction(1, 100), 2),
             (Fraction(1, 400), 2)]
    total = 0
    try:
        for eta, d in cases:
            report = verify_cap_properties(build_interval_system(eta, d),
                                           samples=10_000)
            assert report.ok, f"cap property failed at eta={eta} d={d}: " \
                              f"{report.failures[:3]}"
            total += report.total_checks
    except AssertionError as exc:
        _report(capsys, f"C02 cap properties: FAIL ({exc})")
        raise
    _report(capsys, f"C02 cap properties: pass "
                    f"({total} exact-rational checks over {len(cases)} systems)")


def test_c03_cell_gap_closed_form(capsys):
    worst = 0.0
    try:
        for d in (1, 2, 3):
            system = build_interval_system(Fraction(1, 25), d)
            closed = cell_gap(Fraction(1, 25), d)
            for idx in (0, system.n_cells - 1):
                quad = cell_gap_quadrature(system,
                                           system.cell_from_index(idx))
                worst = max(worst, abs(quad - closed))
        assert worst <= 1e-8, f"worst deviation {worst:.3e}"
    except AssertionError as exc:
        _report(capsys, f"C03 cell gap closed form: FAIL ({exc})")
        raise
    _report(capsys, f"C03 cell gap closed form: pass "
                    f"(worst quadrature deviation {worst:.2e} <= 1e-8)")


def test_c04_code_search_hits_its_targets(capsys):
    try:
        for n in (5, 10, 20, 25):
            res = greedy_binary_code(n, code_min_distance(n), code_target(n))
            assert res.shortfall == 0, f"n={n} short by {res.shortfall}"
            assert res.samples_used <= 10**6
            ws = res.words
            assert all(0 <= w < 1 << n for w in ws), f"n={n} word too long"
            assert all((ws[i] ^ ws[j]).bit_count() >= res.min_distance
                       for i in range(len(ws))
                       for j in range(i + 1, len(ws))), f"n={n} pair too close"
        res25 = greedy_binary_code(25, code_min_distance(25), code_target(25))
        assert len(res25.words) >= 23 and res25.min_distance >= 7
    except AssertionError as exc:
        _report(capsys, f"C04 code search: FAIL ({exc})")
        raise
    _report(capsys, f"C04 code search: pass (targets met for n=5,10,20,25; "
                    f"n=25 gives {len(res25.words)} words at distance "
                    f"{res25.min_distance})")


def test_c05_schedule_checks_table(capsys):
    expected_depth = {(1.0, -96.0): 4, (2.0, -96.0): 4, (3.0, -96.0): 3,
                      (1.0, -200.0): 6, (2.0, -200.0): 6, (3.0, -200.0): 6}
    worst_gap = 0.0
    try:
        for (p, log2_eta), depth in expected_depth.items():
            sched = build_schedule(p, log2_eta * LOG2)
            assert sched.depth == depth, \
                f"p={p} log2eta={log2_eta}: depth {sched.depth} != {depth}"
            checks = schedule_checks(sched)
            assert checks.ok, f"checks failed at p={p} log2eta={log2_eta}"
            assert checks.closed_form_gap <= 1e-12
            worst_gap = max(worst_gap, checks.closed_form_gap)
    except AssertionError as exc:
        _report(capsys, f"C05 schedule checks: FAIL ({exc})")
        raise
    _report(capsys, f"C05 schedule checks: pass (6 chains, depths as "
                    f"expected, worst closed-form gap {worst_gap:.2e})")


def test_c06_edge_level_is_bitwise_exact(capsys):
    ok = build_schedule(1.0, -96.0 * LOG2).log_edge == -24.0 * math.log(2.0)
    _report(capsys, "C06 edge level exactness: "
                    + ("pass (log u == -24 log 2 bitwise at p=1)"
                       if ok else "FAIL"))
    assert ok


def test_c07_hinge_closed_forms(capsys):
    r = unit_rect(1)
    zero = Affine(r, (0.0,), 0.0)
    alphas = (1.0, 0.25, 0.01)
    worst_lp = 0.0
    worst_h = 0.0
    ratios = []
    try:
        for alpha in alphas:
            f = Hinge(r, alpha)
            for p in (1.0, 2.0):
                got = lp_distance(f, zero, p, GridSpec(10001)).value
                want = hinge_lp_closed_form(alpha, p)
                worst_lp = max(worst_lp, abs(got - want))
                if p == 2.0:
                    measured_h = hausdorff_epigraph(f, zero, 2048,
                                                    GridSpec(1601)).value
                    ratios.append(got / measured_h)
            got_h = hausdorff_epigraph(f, zero, 2048,
                                       GridSpec(1601)).value
            worst_h = max(worst_h, abs(got_h - hinge_hausdorff_closed_form(alpha)))
        assert worst_lp <= 1e-4, f"Lp deviation {worst_lp:.3e}"
        assert worst_h <= 1e-3, f"Hausdorff deviation {worst_h:.3e}"
        assert ratios[0] < ratios[1] < ratios[2], \
            f"L2/Hausdorff ratios not increasing: {ratios}"
    except AssertionError as exc:
        _report(capsys, f"C07 ramp closed forms: FAIL ({exc})")
        raise
    _report(capsys, f"C07 ramp closed forms: pass (Lp off by {worst_lp:.1e}, "
                    f"Hausdorff by {worst_h:.1e}; L2/Hausdorff ratio climbs "
                    f"{ratios[0]:.2f} -> {ratios[2]:.2f} as the ramp steepens)")


def _pair_battery(d, n_pairs, seed0, n_directions, grid_n):
    grid = GridSpec(grid_n)
    refinements = 0
    for i in range(n_pairs):
        f = make_random_convex(d, 0.9, 6, seed0 + 2 * i)
        g = make_random_convex(d, 0.9, 6, seed0 + 2 * i + 1)
        sup_rep = check_sup_bound(f, g, n_directions=n_directions,
                                  grid=grid)
        assert sup_rep.ok, f"sup bound failed at d={d} pair {i}"
        l1_rep = check_l1_bound(f, g, n_directions=n_directions, grid=grid)
        assert l1_rep.ok, f"l1 bound failed at d={d} pair {i}"
        refinements += sup_rep.refinements + l1_rep.refinements
        for h in (f, g):
            assert gradient_mass(h, 0.05) <= 8.0 * d
            anchor = [0.5] * d
            for axis in range(d):
                assert slice_gradient_mass(h, axis, anchor, 0.05) <= 4.0
    return refinements


def test_c08_distance_vs_hausdorff_battery(capsys):
    t0 = time.perf_counter()
    try:
        refinements = _pair_battery(1, 25, 1000, 1024, 501)
        refinements += _pair_battery(2, 25, 2000, 1000, 151)
    except AssertionError as exc:
        _report(capsys, f"C08 distance-vs-Hausdorff battery: FAIL ({exc})")
        raise
    dt = time.perf_counter() - t0
    _report(capsys, f"C08 distance-vs-Hausdorff battery: pass (50 pairs, "
                    f"slope masses in budget, {refinements} refinements, "
                    f"{dt:.0f}s)")


def test_c09_normalization_identity(capsys):
    try:
        dom1 = Rect((0.0,), (2.0,))
        hand = scaling_identity_report(Affine(dom1, (1.0,), 0.0),
                                       Affine(dom1, (0.0,), 0.0), 1.0, 3.0)
        assert hand.difference <= 1e-8, f"hand case off by {hand.difference:.2e}"
        worst = 0.0
        for seed in range(10):
            f = make_random_convex(1, 3.0, 5, 600 + 2 * seed, rect=dom1)
            g = make_random_convex(1, 3.0, 5, 601 + 2 * seed, rect=dom1)
            rep = scaling_identity_report(f, g, 1.0, 3.0)
            worst = max(worst, rep.difference)
        dom2 = Rect((0.0, 0.0), (2.0, 2.0))
        for seed in range(10):
            f = make_random_convex(2, 2.0, 5, 700 + 2 * seed, rect=dom2)
            g = make_random_convex(2, 2.0, 5, 701 + 2 * seed, rect=dom2)
            rep = scaling_identity_report(f, g, 2.0, 2.0, GridSpec(51))
            worst = max(worst, rep.difference)
        assert worst <= 1e-6, f"worst random-pair difference {worst:.2e}"
    except AssertionError as exc:
        _report(capsys, f"C09 normalization identity: FAIL ({exc})")
        raise
    _report(capsys, f"C09 normalization identity: pass (hand case "
                    f"{hand.difference:.1e}, worst of 20 random pairs "
                    f"{worst:.1e})")


def test_c10_family_size_scaling(capsys):
    try:
        # d = 1: eta = 1/k^2 gives exactly k intervals
        products = []
        for k in (5, 10, 20, 40, 80):
            pt = separation_point(Fraction(1, k * k), 1)
            assert pt.k == k
            products.append(pt.log_packing * math.sqrt(pt.eps))
        spread = max(products) / min(products)
        assert spread <= 1.25, f"d=1 spread {spread:.4f}"

        for d, etas in ((1, [Fraction(1, k * k) for k in (5, 10, 20, 40, 80)]),
                        (2, [Fraction(4, 9 * k * k) for k in range(2, 9)])):
            xs, ys = [], []
            for eta in etas:
                pt = separation_point(eta, d)
                xs.append(math.log(1.0 / pt.eps))
                ys.append(math.log(pt.log_packing))
            slope = float(np.polyfit(xs, ys, 1)[0])
            assert abs(slope - d / 2.0) <= 0.2, f"d={d} slope {slope:.3f}"
    except AssertionError as exc:
        _report(capsys, f"C10 family size scaling: FAIL ({exc})")
        raise
    _report(capsys, f"C10 family size scaling: pass (log-size times "
                    f"sqrt(eps) flat to {spread:.3f}, growth exponents "
                    f"match d/2)")


def test_c11_ramp_family_values_are_exact(capsys):
    fam = hinge_family(10)
    try:
        for k in range(2, 11):
            x = (2.0**-k,)
            assert fam[k - 1].value(x) == 0.0
            for j in range(1, k):
                assert fam[j - 1].value(x) == 1.0 - 2.0 ** (j - k), \
                    f"j={j} k={k}"
    except AssertionError as exc:
        _report(capsys, f"C11 ramp family exactness: FAIL ({exc})")
        raise
    _report(capsys, "C11 ramp family exactness: pass (all 45 dyadic "
                    "evaluations bitwise exact)")


def test_c12_cli_runs_are_reproducible(capsys, tmp_path):
    def run_twice(args, subdir):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{subdir}_{tag}"
            out.mkdir()
            rc = cli_main(args + ["--out-dir", str(out)])
            assert rc == 0, f"{args} returned {rc}"
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1], f"{args} not byte-identical"
        return sorted(outs[0])

    try:
        pack_files = run_twice(["pack", "--eta", "1/25", "--dim", "1",
                                "--grid-n", "301"], "pack")
        assert "packing_certificate.json" in pack_files
        run_twice(["schedule", "--p", "1", "--log2-eta", "-96"], "schedule")
        run_twice(["bounds", "--eps", "9.31322574615478515625e-10",
                   "--p", "1", "--dim", "1", "--gamma", "2.0"], "bounds")
        over = run_twice(["pack", "--eta", "0.0025", "--dim", "2"],
                         "overcap")
        assert over == ["cap_report.json", "interval_system.json",
                        "lower_bound_curve.csv"]
    except AssertionError as exc:
        _report(capsys, f"C12 reproducible artifacts: FAIL ({exc})")
        raise
    _report(capsys, "C12 reproducible artifacts: pass (pack, schedule, "
                    "bounds, and the over-cap path rerun byte-identical)")
