"""Tests for the verification-suite CLI: suite contents, record statuses,
output formats, configuration handling, and exit codes."""

import itertools
import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bergnorm import cli, specfun
from bergnorm.ball import BallParams, c_sigma, tilde_norm_formula
from bergnorm.cli import (
    ConfigError,
    ReportRecord,
    SuiteConfig,
    build_config,
    emit_table,
    load_config_file,
    main,
    run_suite,
)
from bergnorm.intop import OperatorParams
from bergnorm.normest import norm_report
from bergnorm.quadrature import make_jacobi_rules, make_two_sided_rule
from bergnorm.specfun import (
    ConvergenceError,
    beta_fn,
    hyp2f1,
    hyp2f1_at_one,
    hyp2f1_grid,
)


# ----------------------------------------------------------------------
# individual identity checks (small draw counts; the full-size runs live
# in the suite and acceptance tests)
# ----------------------------------------------------------------------

def test_euler_integral_check_tight():
    rng = np.random.default_rng(7)
    assert cli.euler_integral_check(rng, 30, 96) < 1e-11


def test_euler_transform_check_tight():
    rng = np.random.default_rng(7)
    assert cli.euler_transform_check(rng, 30) < 1e-12


def test_beta_average_check_tight():
    rng = np.random.default_rng(7)
    assert cli.beta_average_check(rng, 30, 128) < 1e-11


def test_identity_rule_order_reaches_the_rounding_floor():
    # at the suite's fixed order the Euler-integral and beta-average gaps
    # are the series' rounding (~3e-15, as at order 128) on seeds 0-9;
    # order 32 would leave the Euler integral at 1.4e-12
    for seed in range(10):
        rng = np.random.default_rng(seed)
        assert cli.euler_integral_check(rng, 120, cli._IDENTITY_ORDER) < 5e-15, seed
        cli.euler_transform_check(rng, 120)
        assert cli.beta_average_check(rng, 120, cli._IDENTITY_ORDER) < 5e-15, seed


def test_value_at_one_check_meets_tolerance():
    # the shared two-sided rule resolves the (1-t)^(c-a-b) kink at t = 1
    # down to 1 - t = 2^-52; the tail beyond it puts the floor near 1e-12
    for seed in range(5):
        rng = np.random.default_rng(seed)
        assert cli.value_at_one_check(rng, 30) < 5e-12, seed


def test_identity_checks_are_seed_deterministic():
    a = cli.euler_transform_check(np.random.default_rng(3), 20)
    b = cli.euler_transform_check(np.random.default_rng(3), 20)
    assert a == b


def test_identity_checks_keep_their_draws(monkeypatch):
    # the checks build their rules and evaluate their 2F1 values in batches,
    # after drawing every parameter with the same scalar rng calls, in the
    # same order, as a check that handles one draw at a time
    seen, grids, at_one = [], [], []

    def spy(order, masses):
        masses = list(masses)
        seen.append((order, masses))
        return make_jacobi_rules(order, masses)

    def grid_spy(a, b, c, z):
        grids.append((a, b, c))
        return hyp2f1_grid(a, b, c, z)

    def at_one_spy(a, b, c):
        at_one.append((a, b, c))
        return hyp2f1_at_one(a, b, c)

    monkeypatch.setattr(cli, "make_jacobi_rules", spy)
    monkeypatch.setattr(cli, "hyp2f1_grid", grid_spy)
    monkeypatch.setattr(cli, "hyp2f1_at_one", at_one_spy)
    status, records = run_suite("identities", SuiteConfig(seed=7))
    assert status == 0

    rng = np.random.default_rng(7)
    euler, beta_avg, value_at_one = [], [], []
    for _ in range(120):
        a, b = rng.uniform(0.2, 2.0), rng.uniform(0.4, 2.5)
        c = b + rng.uniform(0.4, 2.5)
        rng.uniform(0.0, 0.95)
        euler.append((b, c - b))
    for _ in range(120):
        for lo, hi in ((0.1, 2.5), (0.1, 2.5), (0.6, 4.0), (0.05, 0.70)):
            rng.uniform(lo, hi)
    for _ in range(120):
        a, b = rng.uniform(0.2, 1.8), rng.uniform(0.2, 1.8)
        c, d = rng.uniform(0.7, 3.0), rng.uniform(0.4, 2.5)
        rng.uniform(0.05, 0.95)
        beta_avg.append((c, d))
    for _ in range(120):
        a, b = rng.uniform(0.2, 1.0), rng.uniform(0.3, 1.2)
        c = a + b + rng.uniform(1.1, 2.2)
        d = rng.uniform(0.8, 1.2)
        value_at_one.append((a, b, c, d))
    assert seen == [(cli._IDENTITY_ORDER, euler), (cli._IDENTITY_ORDER, beta_avg)]
    # value-at-one builds no Gauss-Jacobi rule: its (a, b, c) reach the last
    # grid call as (120, 1) columns, and c + d reaches the gamma quotient
    assert [column.shape for column in grids[-1]] == [(120, 1)] * 3
    assert np.column_stack(grids[-1]).tolist() == [[a, b, c] for a, b, c, _ in value_at_one]
    assert at_one == [(a, b, c + d) for a, b, c, d in value_at_one]
    # the euler-transform check builds no rule and so keeps its bits
    transform = records[1]
    assert transform.scenario == "identity-euler-transform"
    assert transform.numeric_routes["max_rel_error"] == float.fromhex(
        "0x1.0495300f5398dp-49")


# The identity checks as they were written before they batched their 2F1
# calls: one scalar hyp2f1 or one-set hyp2f1_grid call per draw.  The
# batched checks must give each record the same bits.

def _reference_euler_integral(rng, draws, order):
    params = []
    for _ in range(draws):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.4, 2.5)
        c = b + rng.uniform(0.4, 2.5)
        z = rng.uniform(0.0, 0.95)
        params.append((a, b, c, z))
    rules = make_jacobi_rules(order, [(b, c - b) for _, b, c, _ in params])
    worst = 0.0
    for (a, b, c, z), rule in zip(params, rules):
        series = hyp2f1(a, b, c, z)
        integral = rule.integrate((1.0 - z * rule.nodes) ** (-a))
        worst = max(worst, abs(series - integral / beta_fn(b, c - b)) / abs(series))
    return worst


def _reference_euler_transform(rng, draws):
    worst = 0.0
    for _ in range(draws):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        c = rng.uniform(0.6, 4.0)
        z = rng.uniform(0.05, 0.70)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def _reference_beta_average(rng, draws, order):
    params = []
    for _ in range(draws):
        a = rng.uniform(0.2, 1.8)
        b = rng.uniform(0.2, 1.8)
        c = rng.uniform(0.7, 3.0)
        d = rng.uniform(0.4, 2.5)
        x = rng.uniform(0.05, 0.95)
        params.append((a, b, c, d, x))
    rules = make_jacobi_rules(order, [(c, d) for _, _, c, d, _ in params])
    worst = 0.0
    for (a, b, c, d, x), rule in zip(params, rules):
        lhs = rule.integrate(hyp2f1_grid(a, b, c, x * rule.nodes))
        rhs = beta_fn(c, d) * hyp2f1(a, b, c + d, x)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _reference_value_at_one(rng, draws):
    rule = make_two_sided_rule()
    worst = 0.0
    for _ in range(draws):
        a = rng.uniform(0.2, 1.0)
        b = rng.uniform(0.3, 1.2)
        c = a + b + rng.uniform(1.1, 2.2)
        d = rng.uniform(0.8, 1.2)
        weights = rule.weights * np.exp((c - 1.0) * np.log(rule.nodes)
                                        + (d - 1.0) * np.log(1.0 - rule.nodes))
        lhs = float(weights @ hyp2f1_grid(a, b, c, rule.nodes))
        rhs = beta_fn(c, d) * hyp2f1_at_one(a, b, c + d)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


@pytest.mark.parametrize("seed", [0, 7])
def test_batched_identity_checks_keep_the_per_draw_bits(seed):
    _, records = run_suite("identities", SuiteConfig(seed=seed))
    rng = np.random.default_rng(seed)
    expected = [_reference_euler_integral(rng, 120, cli._IDENTITY_ORDER),
                _reference_euler_transform(rng, 120),
                _reference_beta_average(rng, 120, cli._IDENTITY_ORDER),
                _reference_value_at_one(rng, 120)]
    got = [r.numeric_routes["max_rel_error"] for r in records]
    assert [type(v) for v in got] == [float] * 4
    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_identity_checks_make_six_grid_calls(monkeypatch):
    calls = {"grid": 0, "scalar": 0}
    real_grid, real_scalar = specfun.hyp2f1_grid, specfun.hyp2f1

    def grid(*args, **kwargs):
        calls["grid"] += 1
        return real_grid(*args, **kwargs)

    def scalar(*args, **kwargs):
        calls["scalar"] += 1
        return real_scalar(*args, **kwargs)

    monkeypatch.setattr(cli, "hyp2f1_grid", grid)
    monkeypatch.setattr(specfun, "hyp2f1_grid", grid)
    monkeypatch.setattr(specfun, "hyp2f1", scalar)
    status, _ = run_suite("identities", SuiteConfig())
    assert status == 0
    assert 0 < calls["grid"] <= 6
    assert calls["scalar"] == 0


def test_identity_overflow_flags_its_record(monkeypatch):
    def overflowing(rng, draws, order):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "beta_average_check", overflowing)
    status, records = run_suite("identities", SuiteConfig())
    assert status == 1
    assert [r.status for r in records] == ["pass", "pass", "flagged", "pass"]
    flagged = records[2]
    assert flagged.scenario == "identity-beta-average"
    assert flagged.inputs["error"] == "overflow beyond double range: math range error"


def test_identity_nan_flags_every_record(monkeypatch):
    # one NaN among a check's 2F1 values must not vanish in its maximum
    real = cli.hyp2f1_grid

    def one_nan(*args):
        out = np.array(real(*args), dtype=float)
        out.flat[0] = math.nan
        return out

    monkeypatch.setattr(cli, "hyp2f1_grid", one_nan)
    status, records = run_suite("identities", SuiteConfig())
    assert status == 1
    for r in records:
        assert r.status == "flagged"
        assert r.inputs["error"] == "route not finite: max_rel_error"
        assert math.isnan(r.numeric_routes["max_rel_error"])


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def test_identities_suite_all_pass():
    status, records = run_suite("identities", SuiteConfig())
    assert status == 0
    assert [r.scenario for r in records] == [
        "identity-euler-integral",
        "identity-euler-transform",
        "identity-beta-average",
        "identity-value-at-one",
    ]
    for r in records:
        assert r.status == "pass"
        assert r.rel_errors["max_rel_error"] < 1e-7


def test_identities_suite_ignores_the_order_setting():
    # --order reaches the norm records only: every identity check runs on
    # rules of its own, so the suite's JSON is the same at order 512
    default = emit_table(run_suite("identities", SuiteConfig())[1], "json")
    assert emit_table(run_suite("identities", SuiteConfig(order=512))[1], "json") == default


@pytest.mark.parametrize("sigma, p, closed", [
    (0.0, 2.0, math.pi),
    (0.0, 100.0, 100.016451234931271),   # the right Schur quotient's slow rise
    (-0.49, 2.0, 118.638161331547199),   # near the edge: the left one's
], ids=["defaults", "p=100", "sigma=-0.49"])
def test_interval_suite_flagship_and_divergence(sigma, p, closed):
    # every record passes, the first one checked route by route
    status, records = run_suite("interval-norms", SuiteConfig(sigma=sigma, p=p))
    assert status == 0
    first = records[0]
    assert first.scenario == f"interval-norm mu=1 sigma={sigma:g} p={p:g}"
    assert first.closed_form == pytest.approx(closed, rel=1e-12)
    # sandwiching routes stay below the closed form
    for key in ("schur_right", "schur_left", "sweep_lower", "nystrom"):
        assert first.numeric_routes[key] <= first.closed_form * (1 + 1e-9)
    last = records[-1]
    assert "divergent" in last.scenario
    assert last.status == "pass"
    assert last.inputs["growth"] == "logarithmic"


def test_interval_suite_p_one_routes():
    cfg = SuiteConfig(mu=1.0, sigma=2.0, p=1.0)
    status, records = run_suite("interval-norms", cfg)
    assert status == 0
    first = records[0]
    assert first.closed_form == pytest.approx(1.0)
    assert first.rel_errors["column_mass_sup"] == pytest.approx(0.0, abs=1e-6)


def test_interval_suite_flags_exponents_whose_reciprocal_rounds_away(capsys):
    # at p = 1e17 the left Schur rule's mass 1/p puts a Gauss node within
    # half an ulp of 1: the node rounds to 1, and every bounded record is
    # flagged with that cause instead of aborting the run
    assert main(["--suite", "interval-norms", "--p", "1e17", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    records = json.loads(out)
    bounded = [r for r in records if "divergent" not in r["scenario"]]
    assert len(bounded) == 10
    for r in bounded:
        assert r["status"] == "flagged"
        assert r["inputs"]["error"] == "quadrature nodes left the open interval (0,1)"
    assert records[-1]["status"] == "pass"


@pytest.mark.parametrize("p", [1e6, 1.0000001, 1e8])
def test_interval_suite_passes_at_near_integer_exponents(p):
    # the Schur profiles' 2F1 here have c - a - b within 1e-6 of an
    # integer; the near-one route keeps its digits there, and each endpoint
    # takes its gap as formed, so no record is flagged for excess over the
    # closed form
    status, records = run_suite("interval-norms", SuiteConfig(p=p))
    assert [r.status for r in records] == ["pass"] * len(records)
    assert status == 0


def test_ball_suite_contents():
    status, records = run_suite("ball", SuiteConfig())
    assert status == 0
    by_name = {r.scenario: r for r in records}
    bridge = by_name["ball-bridge-grid"]
    assert bridge.rel_errors["max_rel_deviation"] < 1e-12
    spots = by_name["ball-spot-values"]
    assert spots.numeric_routes["tilde_n1_sigma0_p2"] == pytest.approx(math.pi)
    assert spots.numeric_routes["bloch_seminorm_n1"] == pytest.approx(8 / math.pi)
    bergman = by_name["ball-bergman n=1 sigma=1"]
    assert bergman.numeric_routes["exact_l2"] == pytest.approx(math.sqrt(2))
    assert bergman.rel_errors["majorant_sharp_at_p1"] < 1e-12


def test_berezin_suite_contents():
    status, records = run_suite("berezin", SuiteConfig())
    assert status == 0
    by_name = {r.scenario: r for r in records}
    table = by_name["berezin-table"]
    assert table.numeric_routes["n1_p2"] == pytest.approx(3 * math.pi / 4)
    assert table.numeric_routes["n3_pinf"] == 1.0
    assert by_name["berezin-disc-probability"].rel_errors["max_abs_deviation"] < 1e-8
    assert by_name["berezin-disc-harmonic"].rel_errors["max_abs_deviation"] < 1e-6


def test_run_suite_all_concatenates_in_order():
    status, records = run_suite("all", SuiteConfig(order=64))
    assert status == 0
    names = [r.scenario for r in records]
    assert names.index("identity-euler-integral") < names.index(
        "interval-norm mu=1 sigma=0 p=2")
    assert names.index("ball-bridge-grid") < names.index("berezin-table")


def test_suite_names_follow_the_suite_table():
    # --help, the config key and the verification script all read this order
    assert cli.SUITE_NAMES == ("identities", "interval-norms", "ball",
                               "berezin", "all")


def test_run_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_suite("nonsense", SuiteConfig())


def test_failing_record_gives_exit_one(monkeypatch):
    def broken(cfg):
        return [ReportRecord("forced-failure", {"tol": 0.0}, 1.0,
                             {"route": 2.0}, {"route": 1.0}, "fail")]
    monkeypatch.setitem(cli._SUITES, "berezin", broken)
    status, records = run_suite("berezin", SuiteConfig())
    assert status == 1
    assert records[0].status == "fail"


# ----------------------------------------------------------------------
# record assembly
# ----------------------------------------------------------------------

def test_finish_marks_fail_beyond_tolerance():
    rec = cli._finish("s", {}, 1.0, {"r": 0.9}, {"r": 0.1}, 1e-2)
    assert rec.status == "fail"
    assert rec.inputs["tol"] == 1e-2


def test_finish_respects_guards():
    rec = cli._finish("s", {}, 1.0, {"r": 1.1}, {"r": 0.0}, 1e-2,
                      guards_ok=False)
    assert rec.status == "fail"


def test_finish_flags_a_route_that_is_not_finite():
    # whatever the gaps: an ungated route counts too
    rec = cli._finish("s", {}, 1.0, {"r": 1.0, "q": math.inf}, {"r": 0.0}, 1e-2)
    assert rec.status == "flagged"
    assert rec.inputs == {"tol": 1e-2, "error": "route not finite: q"}
    assert rec.numeric_routes == {"r": 1.0, "q": math.inf}


def test_radial_vs_disc_nan_flags_the_record(monkeypatch):
    monkeypatch.setattr(cli, "tilde_apply_disc", lambda sigma, f, z: math.nan)
    rec = cli._radial_disc_record()
    assert rec.status == "flagged"
    assert rec.inputs["error"] == "route not finite: max_rel_deviation"


def test_berezin_l2_nan_flags_the_record(monkeypatch):
    real = cli.berezin_l2_doublefactorial
    monkeypatch.setattr(cli, "berezin_l2_doublefactorial",
                        lambda n: math.nan if n == 5 else real(n))
    rec = cli._berezin_l2_record()
    assert rec.status == "flagged"
    assert rec.inputs["error"] == "route not finite: max_rel_deviation"


_NORM_ROUTES = ["schur_right", "schur_left", "sweep_lower", "nystrom"]


@pytest.mark.parametrize("sigma, p, routes, gated", [
    (0.5, 2.0, _NORM_ROUTES, _NORM_ROUTES[:3]),
    (1.0, 1.0, ["column_mass_sup"], ["column_mass_sup"]),
    (0.0, 1.0, ["largest_probe_estimate"], []),             # divergent, p = 1
    (0.5, math.inf, ["largest_probe_estimate"], []),        # divergent, p = inf
])
def test_norm_report_route_table_reaches_the_records(sigma, p, routes, gated):
    # at mu = 1 the interval and ball (n = 1) records show the report's
    # table in its order, and gate exactly its gated routes
    report = norm_report(OperatorParams(1.0, sigma), p)
    assert list(report.routes) == routes
    assert list(report.gated) == gated
    cfg = SuiteConfig(n=1, sigma=sigma, p=p)
    for record in (cli._interval_record(1.0, sigma, p, cfg), cli._ball_record(cfg)):
        assert record.status == "pass"
        assert list(record.numeric_routes) == routes
        assert list(record.rel_errors) == gated
        assert record.inputs["eta_min"] == report.eta_min


@pytest.mark.parametrize("sigma, p", [(0.0, 1000.0), (-0.499, 2.0), (0.0, 1.001)])
def test_sweep_reaches_the_norm_at_slow_exponents(sigma, p):
    # e = min(1/p, 1/q, sigma + 1 - 1/p) is about 1e-3 at each, and the
    # sweep ends at eta_min = 1e-10 e; a fixed eta_min = 1e-4 left it
    # 9.1% or 4.8% short
    record = cli._interval_record(1.0, sigma, p, SuiteConfig(sigma=sigma, p=p))
    assert record.status == "pass"
    assert abs(record.rel_errors["sweep_lower"]) <= 1e-9
    assert record.inputs["eta_min"] == pytest.approx(1e-13, rel=2e-3)


def test_flagged_record_carries_reason():
    rec = cli._flagged("s", {}, "quadrature fell over")
    assert rec.status == "flagged"
    assert rec.inputs["error"] == "quadrature fell over"


def test_record_labels_keep_every_digit(monkeypatch, capsys):
    def no_report(*args, **kwargs):
        raise ConvergenceError("not run in this test")

    monkeypatch.setattr(cli, "norm_report", no_report)
    assert main(["--suite", "interval-norms", "--p", "1.0000001",
                 "--sigma", "0.30000000000000004", "--format", "json"]) == 1
    names = [r["scenario"] for r in json.loads(capsys.readouterr().out)]
    assert names[0] == "interval-norm mu=1 sigma=0.30000000000000004 p=1.0000001"
    assert names[1] == "interval-norm mu=1 sigma=0.5 p=1.0000001"
    assert names[-1] == "interval-norm mu=1 sigma=0 p=1"
    cfg = SuiteConfig(n=2, sigma=1.0, p=1.0000001)
    assert cli._ball_record(cfg).scenario == "ball-norm n=2 sigma=1 p=1.0000001"


@pytest.mark.parametrize("n, sigma, p", [(2, 0.5, 3.0), (1, 1.0, 1.0)])
def test_ball_record_is_interval_record_scaled(n, sigma, p):
    # the dimension bridge, route by route: ball = c_sigma * interval at mu = n
    cfg = SuiteConfig(n=n, sigma=sigma, p=p)
    ball = cli._ball_record(cfg)
    interval = cli._interval_record(float(n), sigma, p, cfg)
    assert ball.status == interval.status == "pass"
    assert ball.closed_form == tilde_norm_formula(BallParams(n, sigma), p)
    assert list(ball.numeric_routes) == list(interval.numeric_routes)
    scale = c_sigma(n, sigma)
    for key, value in interval.numeric_routes.items():
        assert ball.numeric_routes[key].hex() == (scale * value).hex()


def test_ball_divergent_estimate_is_scaled():
    cfg = SuiteConfig(n=1, sigma=-0.5, p=2.0)
    ball = cli._ball_record(cfg)
    interval = cli._interval_record(1.0, -0.5, 2.0, cfg)
    assert ball.scenario == "ball-norm n=1 sigma=-0.5 p=2 (divergent)"
    assert ball.status == interval.status == "pass"
    assert ball.inputs["growth"] == interval.inputs["growth"] == "logarithmic"
    scale = c_sigma(1, -0.5)
    assert scale == pytest.approx(0.5, rel=1e-15)
    assert (ball.numeric_routes["largest_probe_estimate"]
            == scale * interval.numeric_routes["largest_probe_estimate"])


def test_ball_divergent_record_flags_a_failed_route(monkeypatch, capsys):
    def no_report(*args, **kwargs):
        raise ConvergenceError("probe did not converge")

    monkeypatch.setattr(cli, "norm_report", no_report)
    assert main(["--suite", "ball", "--sigma", "-0.5", "--p", "2",
                 "--format", "json"]) == 1
    first = json.loads(capsys.readouterr().out)[0]
    assert first["scenario"] == "ball-norm n=1 sigma=-0.5 p=2"
    assert first["status"] == "flagged"
    assert first["inputs"]["error"] == "probe did not converge"


@pytest.mark.parametrize("argv, scenarios", [
    (["--suite", "ball", "--n", "600", "--sigma", "600", "--p", "inf"],
     ["ball-norm n=600 sigma=600 p=inf"]),                    # c_sigma overflows
    (["--suite", "ball", "--n", "1", "--sigma", "1500", "--p", "2"],
     ["ball-norm n=1 sigma=1500 p=2"]),                       # norm_formula overflows
    (["--suite", "interval-norms", "--sigma", "1500", "--p", "2"],
     ["interval-norm mu=1 sigma=1500 p=2"]),
    (["--suite", "ball", "--n", "1019", "--sigma", "1", "--p", "2"],
     ["ball-norm n=1019 sigma=1 p=2",                         # and, from n = 1019,
      "ball-bergman n=1019 sigma=1"]),                        # the Bergman norms
], ids=["ball-c-sigma", "ball-closed-form", "interval-closed-form", "ball-bergman"])
def test_closed_form_beyond_double_range_flags_the_record(argv, scenarios, capsys):
    assert main([*argv, "--format", "json"]) == 1
    out, err = capsys.readouterr()
    flagged = [r for r in json.loads(out) if r["status"] != "pass"]
    assert [r["scenario"] for r in flagged] == scenarios
    for record in flagged:
        assert record["status"] == "flagged"
        assert record["inputs"]["error"].startswith("overflow beyond double range")
    assert err == ""


def test_p1_route_overflow_flags_the_record_quietly(capsys):
    # at sigma = 170 the column-mass route overflows to inf; the record is
    # flagged, keeps the broken route, and no numpy warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["--suite", "ball", "--n", "3", "--sigma", "170", "--p", "1",
                       "--format", "json"])
    out, err = capsys.readouterr()
    assert status == 1
    assert err == ""
    first = json.loads(out)[0]
    assert first["scenario"] == "ball-norm n=3 sigma=170 p=1"
    assert first["status"] == "flagged"
    assert first["inputs"]["error"] == "route not finite: column_mass_sup"
    assert first["numeric_routes"] == {"column_mass_sup": "inf"}
    assert first["closed_form"] == pytest.approx(3.7008461874763995e+50, rel=1e-15)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def berezin_records():
    return run_suite("berezin", SuiteConfig())[1]


def test_json_parses_and_orders_fields(berezin_records):
    text = emit_table(berezin_records, "json")
    data = json.loads(text)
    assert len(data) == len(berezin_records)
    assert list(data[0]) == ["scenario", "status", "closed_form", "inputs",
                             "numeric_routes", "rel_errors"]


def test_json_renders_seventeen_digit_reals(berezin_records):
    text = emit_table(berezin_records, "json")
    assert "2.3561944901923448" in text  # 3*pi/4 at full precision


@pytest.mark.parametrize("argv", [
    ["--suite", "interval-norms", "--p", "inf"],
    ["--suite", "ball", "--n", "2", "--sigma", "0.5", "--p", "inf"],
])
def test_json_writes_non_finite_reals_as_strings(argv, capsys):
    assert main([*argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["inputs"]["p"] == "inf"


def test_non_finite_reals_are_strings_in_json_only():
    rec = cli.ReportRecord("s", {"a": math.inf, "b": -math.inf, "c": math.nan},
                           None, {}, {}, "pass")
    assert json.loads(emit_table([rec], "json"))[0]["inputs"] == {
        "a": "inf", "b": "-inf", "c": "nan"}
    assert emit_table([rec], "csv").splitlines()[1] == "s,pass,,inf,-inf,nan"


def test_json_is_byte_deterministic():
    a = emit_table(run_suite("berezin", SuiteConfig(seed=5))[1], "json")
    b = emit_table(run_suite("berezin", SuiteConfig(seed=5))[1], "json")
    assert a == b


def test_csv_shape(berezin_records):
    text = emit_table(berezin_records, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == len(berezin_records) + 1
    assert lines[0].startswith("scenario,status,closed_form")


def test_aligned_text_has_summary(berezin_records):
    text = emit_table(berezin_records, "aligned-text")
    assert text.endswith("pass, 0 fail, 0 flagged\n")
    assert "berezin-table" in text


def test_unknown_format_rejected(berezin_records):
    with pytest.raises(ConfigError):
        emit_table(berezin_records, "yaml")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\nmu = 2.5\n\nsigma=1.25  # inline\n"
                    "p = inf\nformat = csv\n")
    parsed = load_config_file(str(path))
    assert parsed == {"mu": 2.5, "sigma": 1.25, "p": math.inf, "fmt": "csv"}


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("volume = 11\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config_file(str(path))


def test_config_file_bad_syntax(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_config_file(str(path))


def test_config_file_missing():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file("/no/such/file.cfg")


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 2.0\nseed = 9\n")
    args = cli._make_parser().parse_args(
        ["--config", str(path), "--mu", "3.0"])
    cfg = build_config(args)
    assert cfg.mu == 3.0       # flag wins
    assert cfg.seed == 9       # file survives where no flag is given


def test_config_file_gives_the_flag_run(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 2\nsigma = 0.5\np = 3\nseed = 3\norder = 64\n")
    from_file = build_config(cli._make_parser().parse_args(["--config", str(path)]))
    from_flags = build_config(cli._make_parser().parse_args(
        ["--mu", "2", "--sigma", "0.5", "--p", "3", "--seed", "3", "--order", "64"]))
    assert from_file == from_flags == SuiteConfig(mu=2.0, sigma=0.5, p=3.0, seed=3,
                                                  order=64)


_BAD_VALUES = [
    ("n", "0", "dimension n must be a positive integer"),
    ("order", "4", "order must be at least 8"),
    ("sigma", "-2", "sigma must exceed -1"),
    ("mu", "-1", "mu must be positive"),
    ("seed", "-3", "seed must be a non-negative integer, got -3"),
    ("p", "0.5", "bad value for p: the Lebesgue exponent must be >= 1"),
    ("mu", "abc", "bad value for mu: could not convert"),
    ("order", "8.5", "bad value for order: invalid literal"),
    ("suite", "nonsense", "bad value for suite: 'nonsense' is not one of"),
    ("format", "yaml", "bad value for format: 'yaml' is not one of"),
]


@pytest.mark.parametrize("source", ["flag", "file"])
def test_build_config_validates_ranges(source, tmp_path):
    # a bad value fails with the same message from a flag and from a file
    parser = cli._make_parser()
    for key, text, message in _BAD_VALUES:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        argv = [f"--{key}", text] if source == "flag" else ["--config", str(path)]
        with pytest.raises(ConfigError, match=message):
            build_config(parser.parse_args(argv))


def test_every_occurrence_of_a_flag_is_parsed():
    parser = cli._make_parser()
    assert build_config(parser.parse_args(["--order", "4", "--order", "64"])).order == 64
    with pytest.raises(ConfigError, match="bad value for mu"):
        build_config(parser.parse_args(["--mu", "abc", "--mu", "2"]))


def test_readme_settings_table_follows_the_fields():
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key "))
    table = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    assert rows == [[f"`{f.metadata['key']}`", f"`{f.default}`", f.metadata["help"]]
                    for f in fields(SuiteConfig)]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def test_main_runs_berezin_json(capsys):
    assert main(["--suite", "berezin", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {r["status"] for r in data} == {"pass"}


def test_main_bad_exponent_exits_two(capsys):
    assert main(["--p", "0.5"]) == 2
    assert "Lebesgue exponent" in capsys.readouterr().err


def test_main_negative_seed_exits_two(capsys):
    # rejected before any suite runs; numpy's generator would raise instead
    assert main(["--seed", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -3\n"


def test_main_bad_config_file_exits_two(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("order = not-a-number\n")
    assert main(["--config", str(path)]) == 2
    assert "bad value" in capsys.readouterr().err


def test_main_rejects_unknown_flag():
    with pytest.raises(SystemExit) as err:
        main(["--frobnicate"])
    assert err.value.code == 2


def test_main_config_file_selects_suite(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("suite = berezin\nformat = csv\n")
    assert main(["--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,status,closed_form")
