"""Command-line verification suites.

Each suite evaluates a cluster of closed forms against independent numeric
routes and renders the outcome as a table of records:

* ``identities``     -- the hypergeometric identity stack under randomized
  parameter draws (series vs. quadrature, never the same code path twice);
* ``interval-norms`` -- interval operator norms: closed form against Schur
  ratios, the extremal-family sweep, discrete operator estimates, and
  divergence detection outside the bounded range;
* ``ball``           -- the ball majorant: the dimension bridge, closed-form
  spot values, Bloch constants, Bergman-projection bounds, and disc
  quadrature cross-checks;
* ``berezin``        -- Berezin transform norms, limits, and disc fixed
  points;
* ``all``            -- everything above, in that order.

A record's ``status`` is ``pass`` when every entry of ``rel_errors`` is
within the scenario tolerance (recorded in ``inputs``), ``fail`` when one
is not (or an internal ordering guard is violated), and ``flagged`` when a
numeric route could not be completed or gave a value that is not finite.
``numeric_routes`` may carry values with no ``rel_errors`` entry, to which
no tolerance applies.  The Nystrom estimate is the standing example: it
converges from below like 1/log(order), so its gap is not gated.  It
still counts in a norm record's upper guard, which fails the record when
any route, the Nystrom estimate included, exceeds the closed form by more
than a factor 1 + 1e-9.

``json`` and ``csv`` output renders reals with 17 significant digits and is
byte-identical across runs with the same configuration and seed;
``aligned-text`` is for human eyes.  Exit status: 0 when every record
passes, 1 otherwise, 2 for unusable flags or configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ball import (
    BallParams,
    bergman_exact_norms,
    berezin_apply_disc,
    berezin_asymptotic_p_to_1,
    berezin_l2_doublefactorial,
    berezin_norm,
    berezin_radial_apply,
    bloch_constants,
    c_sigma,
    conj_tilde_norm_formula,
    radial_apply,
    riesz_thorin_bound,
    tilde_apply_disc,
    tilde_norm_formula,
)
from .intop import LebesgueExponent, OperatorParams, _as_exponent, norm_formula
from .normest import norm_report
from .quadrature import QuadratureError, make_jacobi_rules
from .specfun import (
    ConvergenceError,
    HypArgs,
    beta_fn,
    hyp2f1,
    hyp2f1_at_one,
    hyp2f1_grid,
)

FORMAT_NAMES = ("json", "csv", "aligned-text")

_IDENTITY_DRAWS = 120
_IDENTITY_TOL = 1e-7
_NORM_ROUTE_TOL = 1e-2
_EXACT_TOL = 1e-12
_DISC_PROBABILITY_TOL = 1e-8
_DISC_HARMONIC_TOL = 1e-6
_ASYMPTOTE_TOL = 5e-3
_L1_ROUTE_TOL = 1e-6
# a sandwiching route may not overshoot the closed form by more than this
_EXCESS_GUARD = 1e-9


class ConfigError(ValueError):
    """Unusable command-line or config-file input (exit status 2)."""


@dataclass
class SuiteConfig:
    """Knobs shared by every suite; flags override config-file entries."""

    mu: float = 1.0
    sigma: float = 0.0
    p: float = 2.0
    n: int = 1
    order: int = 128
    eta_min: float = 1e-4
    seed: int = 0
    fmt: str = "aligned-text"
    suite: str = "all"


@dataclass
class ReportRecord:
    """One verification scenario: a closed form against its numeric routes.

    ``closed_form`` is None for aggregate scenarios (a maximum deviation
    over a grid) and for divergence-detection scenarios, where there is no
    single finite target.
    """

    scenario: str
    inputs: dict
    closed_form: float | None
    numeric_routes: dict
    rel_errors: dict
    status: str


def _finish(scenario: str, inputs: dict, closed: float | None, routes: dict,
            rels: dict, tol: float, guards_ok: bool = True) -> ReportRecord:
    inputs = dict(inputs)
    inputs["tol"] = tol
    ok = guards_ok and all(abs(v) <= tol for v in rels.values())
    return ReportRecord(scenario=scenario, inputs=inputs, closed_form=closed,
                        numeric_routes=routes, rel_errors=rels,
                        status="pass" if ok else "fail")


def _flagged(scenario: str, inputs: dict, reason: str) -> ReportRecord:
    inputs = dict(inputs)
    inputs["error"] = reason
    return ReportRecord(scenario=scenario, inputs=inputs, closed_form=None,
                        numeric_routes={}, rel_errors={}, status="flagged")


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

def euler_integral_check(rng: np.random.Generator, draws: int,
                         order: int) -> float:
    """Worst relative gap between the series evaluator and the integral
    representation

        2F1(a,b;c;z) = [1/B(b,c-b)] * int_0^1 t^(b-1) (1-t)^(c-b-1)
                                               (1-zt)^(-a) dt,

    the integral done by a Gauss-Jacobi rule that knows nothing about
    hypergeometric series.
    """
    params = []
    for _ in range(draws):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.4, 2.5)
        c = b + rng.uniform(0.4, 2.5)
        z = rng.uniform(0.0, 0.95)
        params.append((a, b, c, z))
    rules = make_jacobi_rules(order, [(b - 1.0, c - b - 1.0) for _, b, c, _ in params])
    worst = 0.0
    for (a, b, c, z), rule in zip(params, rules):
        series = hyp2f1(HypArgs(a, b, c, z))
        integral = rule.integrate((1.0 - z * rule.nodes) ** (-a))
        worst = max(worst, abs(series - integral / beta_fn(b, c - b)) / abs(series))
    return worst


def euler_transform_check(rng: np.random.Generator, draws: int) -> float:
    """Worst relative gap in 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a,c-b;c;z).

    Draws keep z <= 0.7 so that *both* sides run through the raw power
    series; at larger z the evaluator applies this very transform
    internally and the comparison would be vacuous.
    """
    worst = 0.0
    for _ in range(draws):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        c = rng.uniform(0.6, 4.0)
        z = rng.uniform(0.05, 0.70)
        lhs = hyp2f1(HypArgs(a, b, c, z))
        rhs = (1.0 - z) ** (c - a - b) * hyp2f1(HypArgs(c - a, c - b, c, z))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def beta_average_check(rng: np.random.Generator, draws: int,
                       order: int) -> float:
    """Worst relative gap in the beta-average identity

        int_0^1 t^(c-1) (1-t)^(d-1) 2F1(a,b;c;xt) dt = B(c,d) 2F1(a,b;c+d;x),

    quadrature on the left against beta-function times series on the right.
    """
    params = []
    for _ in range(draws):
        a = rng.uniform(0.2, 1.8)
        b = rng.uniform(0.2, 1.8)
        c = rng.uniform(0.7, 3.0)
        d = rng.uniform(0.4, 2.5)
        x = rng.uniform(0.05, 0.95)
        params.append((a, b, c, d, x))
    rules = make_jacobi_rules(order, [(c - 1.0, d - 1.0) for _, _, c, d, _ in params])
    worst = 0.0
    for (a, b, c, d, x), rule in zip(params, rules):
        lhs = rule.integrate(hyp2f1_grid(a, b, c, x * rule.nodes))
        rhs = beta_fn(c, d) * hyp2f1(HypArgs(a, b, c + d, x))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def value_at_one_check(rng: np.random.Generator, draws: int,
                       order: int) -> float:
    """Worst relative gap for the gamma-quotient value at argument one,

        2F1(a,b;c';1) = G(c')G(c'-a-b) / (G(c'-a)G(c'-b)),

    probed through the beta average at x = 1 with c' = c + d: the left side
    integrates series values of 2F1(a,b;c;t) over (0,1), the right side is
    B(c,d) times the gamma quotient under test.  Draws keep c-a-b >= 1.1 so
    the integrand's endpoint kink stays mild enough for the rule.
    """
    params = []
    for _ in range(draws):
        a = rng.uniform(0.2, 1.0)
        b = rng.uniform(0.3, 1.2)
        c = a + b + rng.uniform(1.1, 2.2)
        d = rng.uniform(0.8, 1.2)
        params.append((a, b, c, d))
    rules = make_jacobi_rules(order, [(c - 1.0, d - 1.0) for _, _, c, d in params])
    worst = 0.0
    for (a, b, c, d), rule in zip(params, rules):
        lhs = rule.integrate(hyp2f1_grid(a, b, c, rule.nodes))
        rhs = beta_fn(c, d) * hyp2f1_at_one(a, b, c + d)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def identities_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    rng = np.random.default_rng(cfg.seed)
    at_one_order = max(256, cfg.order)
    plan: list[tuple[str, Callable[[], float], dict]] = [
        ("identity-euler-integral",
         lambda: euler_integral_check(rng, _IDENTITY_DRAWS, cfg.order),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed, "order": cfg.order}),
        ("identity-euler-transform",
         lambda: euler_transform_check(rng, _IDENTITY_DRAWS),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed}),
        ("identity-beta-average",
         lambda: beta_average_check(rng, _IDENTITY_DRAWS, cfg.order),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed, "order": cfg.order}),
        ("identity-value-at-one",
         lambda: value_at_one_check(rng, _IDENTITY_DRAWS, at_one_order),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed, "order": at_one_order}),
    ]
    records = []
    for scenario, run, inputs in plan:
        try:
            worst = run()
        except (ConvergenceError, QuadratureError) as err:
            records.append(_flagged(scenario, inputs, str(err)))
            continue
        records.append(_finish(scenario, inputs, None,
                               {"max_rel_error": worst},
                               {"max_rel_error": worst}, _IDENTITY_TOL))
    return records


# ---------------------------------------------------------------------------
# interval-norms suite
# ---------------------------------------------------------------------------

def _label(x: float) -> str:
    """``x`` for a scenario name: ``:g`` when that reads back as ``x``,
    else every digit (``repr``), so that nearby configurations never share
    a label."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _norm_record(scenario: str, inputs: dict, params: OperatorParams,
                 exp: LebesgueExponent, cfg: SuiteConfig,
                 scale: Callable[[], float] = lambda: 1.0,
                 closed: Callable[[], float] | None = None) -> ReportRecord:
    """Closed-form norm against every route of ``norm_report(params)``,
    each route value times ``scale()``: 1 for the interval record, and
    c_sigma(n, sigma) for the ball record at mu = n (the dimension bridge),
    whose own closed form ``closed()`` gives.  Unbounded combinations become
    a divergence-detection scenario: the check passes when the discrete
    estimates are seen growing with the order, i.e. when the numerics
    agree that no finite norm exists.  A closed form or scale beyond double
    range flags the record, and so does a bounded record with a route value
    that is not finite; that record keeps its routes and names the broken
    ones, and numpy's overflow warnings stay silent.
    """
    inputs = {**inputs, "order": cfg.order, "eta_min": cfg.eta_min}
    try:
        factor = scale()
        with np.errstate(over="ignore", invalid="ignore"):
            report = norm_report(params, exp, order=cfg.order,
                                 eta_min=cfg.eta_min)
        if not report.unbounded:
            closed_form = report.closed_form if closed is None else closed()
    except (QuadratureError, ConvergenceError) as err:
        return _flagged(scenario, inputs, str(err))
    except OverflowError as err:
        return _flagged(scenario, inputs, f"overflow beyond double range: {err}")
    if report.unbounded:
        inputs["growth"] = report.growth
        return _finish(scenario + " (divergent)", inputs, None,
                       {"largest_probe_estimate": factor * report.nystrom_estimate},
                       {}, 0.0, guards_ok=report.divergence_flagged)
    if exp.is_one:
        routes = {"column_mass_sup": report.nystrom_estimate}
        gated, tol = ("column_mass_sup",), _L1_ROUTE_TOL
    else:
        routes = {
            "schur_right": report.schur_max_ratio_right,
            "schur_left": report.schur_max_ratio_left,
            "sweep_lower": report.sweep_best_lower,
            "nystrom": report.nystrom_estimate,
        }
        gated, tol = ("schur_right", "schur_left", "sweep_lower"), _NORM_ROUTE_TOL
    routes = {k: factor * v for k, v in routes.items()}
    rels = {k: (closed_form - routes[k]) / closed_form for k in gated}
    below = all(v <= closed_form * (1.0 + _EXCESS_GUARD) for v in routes.values())
    record = _finish(scenario, inputs, closed_form, routes, rels, tol,
                     guards_ok=below)
    broken = [k for k, v in routes.items() if not math.isfinite(v)]
    if broken:
        record.inputs["error"] = f"route not finite: {', '.join(broken)}"
        record.status = "flagged"
    return record


def _interval_record(mu: float, sigma: float, p: float,
                     cfg: SuiteConfig) -> ReportRecord:
    """The interval norm at one (mu, sigma, p)."""
    exp = _as_exponent(p)
    scenario = (f"interval-norm mu={_label(mu)} sigma={_label(sigma)}"
                f" p={_label(exp.p)}")
    return _norm_record(scenario, {"mu": mu, "sigma": sigma, "p": exp.p},
                        OperatorParams(mu=mu, sigma=sigma), exp, cfg)


_INTERVAL_GRID_MU = (1.0, 2.0, 3.0)
_INTERVAL_GRID_SIGMA = (0.5, 1.0, 2.0)


def interval_norms_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    records = [_interval_record(cfg.mu, cfg.sigma, cfg.p, cfg)]
    seen = {(cfg.mu, cfg.sigma, float(_as_exponent(cfg.p).p))}
    for mu in _INTERVAL_GRID_MU:
        for sigma in _INTERVAL_GRID_SIGMA:
            key = (mu, sigma, float(_as_exponent(cfg.p).p))
            if key in seen:
                continue
            seen.add(key)
            records.append(_interval_record(mu, sigma, cfg.p, cfg))
    # the borderline divergence everyone should see detected
    records.append(_interval_record(cfg.mu, 0.0, 1.0, cfg))
    return records


# ---------------------------------------------------------------------------
# ball suite
# ---------------------------------------------------------------------------

_BRIDGE_N = (1, 2, 3, 4)
_BRIDGE_SIGMA = (0.0, 0.5, 1.0, 2.5)
_BRIDGE_P = (1.25, 2.0, 3.0, 5.0)


def _bridge_grid_record() -> ReportRecord:
    """Largest deviation, over a parameter grid, between the ball norm and
    its dimension bridge c_sigma(n, sigma) * (interval norm at mu = n)."""
    worst = 0.0
    for n in _BRIDGE_N:
        for sigma in _BRIDGE_SIGMA:
            for p in _BRIDGE_P:
                bp = BallParams(n=n, sigma=sigma)
                tilde = tilde_norm_formula(bp, p)
                via_interval = (c_sigma(n, sigma)
                                * norm_formula(bp.interval_params, p))
                worst = max(worst, abs(tilde - via_interval) / tilde)
    inputs = {"n": list(_BRIDGE_N), "sigma": list(_BRIDGE_SIGMA),
              "p": list(_BRIDGE_P)}
    return _finish("ball-bridge-grid", inputs, None,
                   {"max_rel_deviation": worst},
                   {"max_rel_deviation": worst}, _EXACT_TOL)


def _ball_record(cfg: SuiteConfig) -> ReportRecord:
    """The configured (n, sigma, p) ball norm: c_sigma times the interval
    routes at mu = n (the numeric side of the dimension bridge)."""
    bp = BallParams(n=cfg.n, sigma=cfg.sigma)
    exp = _as_exponent(cfg.p)
    scenario = f"ball-norm n={cfg.n} sigma={_label(cfg.sigma)} p={_label(exp.p)}"
    return _norm_record(scenario, {"n": cfg.n, "sigma": cfg.sigma, "p": exp.p},
                        bp.interval_params, exp, cfg,
                        scale=lambda: c_sigma(cfg.n, cfg.sigma),
                        closed=lambda: tilde_norm_formula(bp, exp))


def _spot_values_record() -> ReportRecord:
    """Closed-form spot values with independently known targets: the disc
    majorant at (sigma=0, p=2) and (sigma=1, p=1), and the Bloch constants."""
    targets = {
        "tilde_n1_sigma0_p2": (tilde_norm_formula(BallParams(1, 0.0), 2.0), math.pi),
        "tilde_n1_sigma1_p1": (tilde_norm_formula(BallParams(1, 1.0), 1.0), 8.0 / math.pi),
        "bloch_seminorm_n1": (bloch_constants(BallParams(1, 0.0)).beta_norm, 8.0 / math.pi),
        "bloch_full_n1": (bloch_constants(BallParams(1, 0.0)).full_norm, 1.0 + 8.0 / math.pi),
    }
    routes = {k: v for k, (v, _) in targets.items()}
    rels = {k: abs(v - want) / want for k, (v, want) in targets.items()}
    return _finish("ball-spot-values", {}, None, routes, rels, _EXACT_TOL)


def _bergman_record(cfg: SuiteConfig) -> ReportRecord:
    """Bergman-projection norm bounds at (n, sigma=1): the exact endpoint
    norms, the interpolation bound between them, and the majorant bound.
    At p = 1 the majorant bound must coincide with the exact norm."""
    bp = BallParams(n=cfg.n, sigma=1.0)
    exact = bergman_exact_norms(bp)
    upper_1 = tilde_norm_formula(bp, 1.0)
    upper_2 = tilde_norm_formula(bp, 2.0)
    p_mid = 4.0 / 3.0
    routes = {
        "exact_l1": exact.l1,
        "exact_l2": exact.l2,
        "interp_p4_3": riesz_thorin_bound(bp, p_mid),
        "majorant_p1": upper_1,
        "majorant_p2": upper_2,
    }
    rels = {
        "majorant_sharp_at_p1": abs(exact.l1 - upper_1) / exact.l1,
        "conjugate_duality_p4": (abs(conj_tilde_norm_formula(bp, 4.0)
                                     - tilde_norm_formula(bp, p_mid))
                                 / tilde_norm_formula(bp, p_mid)),
    }
    guards = exact.l2 <= upper_2 * (1.0 + _EXCESS_GUARD)
    return _finish(f"ball-bergman n={cfg.n} sigma=1", {"n": cfg.n, "sigma": 1.0},
                   None, routes, rels, _EXACT_TOL, guards_ok=guards)


def _radial_disc_record() -> ReportRecord:
    """Radial-reduction pipeline against direct polar quadrature on the
    disc, for a non-polynomial radial profile at several radii."""
    profile = lambda s: np.exp(-s) + 0.25 * s
    f = lambda w: profile(np.abs(w) ** 2)
    worst = 0.0
    for sigma in (0.0, 1.0, 2.0):
        bp = BallParams(n=1, sigma=sigma)
        for r in (0.0, 0.4, 0.8):
            a = radial_apply(bp, profile, r * r)
            b = tilde_apply_disc(sigma, f, complex(r, 0.0))
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    inputs = {"sigma": [0.0, 1.0, 2.0], "radii": [0.0, 0.4, 0.8]}
    return _finish("ball-radial-vs-disc", inputs, None,
                   {"max_rel_deviation": worst},
                   {"max_rel_deviation": worst}, _DISC_HARMONIC_TOL)


def ball_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    return [
        _ball_record(cfg),
        _bridge_grid_record(),
        _spot_values_record(),
        _bergman_record(cfg),
        _radial_disc_record(),
    ]


# ---------------------------------------------------------------------------
# berezin suite
# ---------------------------------------------------------------------------

_BEREZIN_TABLE_N = (1, 2, 3)
_BEREZIN_TABLE_P = (2.0, 4.0, math.inf)


def _berezin_table_record() -> ReportRecord:
    """The Berezin norm table over n in {1,2,3}, p in {2,4,inf}; purely
    informational (the cross-checks live in the other records)."""
    routes = {}
    for n in _BEREZIN_TABLE_N:
        for p in _BEREZIN_TABLE_P:
            key = f"n{n}_p{'inf' if math.isinf(p) else format(p, 'g')}"
            routes[key] = berezin_norm(n, p)
    inputs = {"n": list(_BEREZIN_TABLE_N), "p": ["2", "4", "inf"]}
    return _finish("berezin-table", inputs, None, routes, {}, 0.0)


def _berezin_l2_record() -> ReportRecord:
    worst = 0.0
    for n in range(1, 11):
        product = berezin_norm(n, 2.0)
        direct = berezin_l2_doublefactorial(n)
        worst = max(worst, abs(product - direct) / direct)
    return _finish("berezin-l2-crosscheck", {"n": "1..10"}, None,
                   {"max_rel_deviation": worst},
                   {"max_rel_deviation": worst}, _EXACT_TOL)


def _berezin_sup_record() -> ReportRecord:
    routes = {f"n{n}": berezin_norm(n, math.inf) for n in (1, 4, 9)}
    rels = {k: abs(v - 1.0) for k, v in routes.items()}
    return _finish("berezin-sup-limit", {"n": [1, 4, 9]}, 1.0, routes, rels, 0.0)


def _berezin_asymptote_record() -> ReportRecord:
    """Near p = 1 the norm behaves like (n+1)/(p-1); check the ratio at
    p = 1.001 for n in {1,2,3}."""
    p = 1.001
    routes, rels = {}, {}
    for n in (1, 2, 3):
        ratio = berezin_norm(n, p) / berezin_asymptotic_p_to_1(n, p)
        routes[f"ratio_n{n}"] = ratio
        rels[f"ratio_n{n}"] = abs(ratio - 1.0)
    return _finish("berezin-asymptote", {"p": p}, None, routes, rels,
                   _ASYMPTOTE_TOL)


_DISC_PROBE_POINTS = (0.0 + 0.0j, 0.3 + 0.0j, 0.5 + 0.2j, 0.6j,
                      -0.7 + 0.0j, 0.45 - 0.45j, 0.9 + 0.0j)


def _berezin_probability_record() -> ReportRecord:
    """The transform is a probability average: the constant one must map to
    the constant one, here via raw 2-D polar quadrature."""
    worst = 0.0
    for z in _DISC_PROBE_POINTS:
        worst = max(worst, abs(berezin_apply_disc(lambda w: np.ones(w.shape), z) - 1.0))
    inputs = {"points": [str(z) for z in _DISC_PROBE_POINTS]}
    return _finish("berezin-disc-probability", inputs, 1.0,
                   {"max_abs_deviation": worst},
                   {"max_abs_deviation": worst}, _DISC_PROBABILITY_TOL)


def _berezin_harmonic_record() -> ReportRecord:
    """Harmonic functions are fixed points; check f(w) = Re w at a few
    evaluation points (absolute error -- the target vanishes at 0)."""
    worst = 0.0
    for z in (0.0 + 0.0j, 0.3 + 0.0j, 0.6j):
        value = berezin_apply_disc(lambda w: np.real(w), z)
        worst = max(worst, abs(value - z.real))
    inputs = {"points": ["0", "0.3", "0.6j"]}
    return _finish("berezin-disc-harmonic", inputs, None,
                   {"max_abs_deviation": worst},
                   {"max_abs_deviation": worst}, _DISC_HARMONIC_TOL)


def _berezin_radial_record() -> ReportRecord:
    """Radial reduction of the transform against the direct disc route."""
    profile = lambda s: np.exp(-2.0 * s)
    f = lambda w: profile(np.abs(w) ** 2)
    worst = 0.0
    for r2 in (0.0, 0.25, 0.64):
        a = berezin_radial_apply(1, profile, r2)
        b = berezin_apply_disc(f, complex(math.sqrt(r2), 0.0))
        worst = max(worst, abs(a - b))
    return _finish("berezin-radial-vs-disc", {"r2": [0.0, 0.25, 0.64]}, None,
                   {"max_abs_deviation": worst},
                   {"max_abs_deviation": worst}, _DISC_PROBABILITY_TOL)


def berezin_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    return [
        _berezin_table_record(),
        _berezin_l2_record(),
        _berezin_sup_record(),
        _berezin_asymptote_record(),
        _berezin_probability_record(),
        _berezin_harmonic_record(),
        _berezin_radial_record(),
    ]


# ---------------------------------------------------------------------------
# suite driver and rendering
# ---------------------------------------------------------------------------

_SUITES: dict[str, Callable[[SuiteConfig], list[ReportRecord]]] = {
    "identities": identities_suite,
    "interval-norms": interval_norms_suite,
    "ball": ball_suite,
    "berezin": berezin_suite,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, config: SuiteConfig) -> tuple[int, list[ReportRecord]]:
    """Run one suite (or ``all``); exit status 0 iff every record passes."""
    if name not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = tuple(_SUITES) if name == "all" else (name,)
    records: list[ReportRecord] = []
    for item in names:
        records.extend(_SUITES[item](config))
    status = 0 if all(r.status == "pass" for r in records) else 1
    return status, records


def _real(x: float) -> str:
    """A real number with 17 significant digits (round-trips a double)."""
    return format(float(x), ".17g")


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no inf or nan literal: write them as strings
        return _real(value) if math.isfinite(value) else json.dumps(_real(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_json_value(v, indent + 2)}'
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{pad}  {_json_value(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def _record_obj(record: ReportRecord) -> dict:
    return {
        "scenario": record.scenario,
        "status": record.status,
        "closed_form": record.closed_form,
        "inputs": record.inputs,
        "numeric_routes": record.numeric_routes,
        "rel_errors": record.rel_errors,
    }


def _emit_json(records: Sequence[ReportRecord]) -> str:
    return _json_value([_record_obj(r) for r in records], 0) + "\n"


def _flat_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _real(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_flat_cell(v) for v in value)
    return str(value)


def _emit_csv(records: Sequence[ReportRecord]) -> str:
    input_keys = sorted({k for r in records for k in r.inputs})
    route_keys = sorted({k for r in records for k in r.numeric_routes})
    rel_keys = sorted({k for r in records for k in r.rel_errors})
    header = (["scenario", "status", "closed_form"]
              + [f"input_{k}" for k in input_keys]
              + [f"route_{k}" for k in route_keys]
              + [f"rel_{k}" for k in rel_keys])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in records:
        row = [r.scenario, r.status, _flat_cell(r.closed_form)]
        row += [_flat_cell(r.inputs.get(k)) for k in input_keys]
        row += [_flat_cell(r.numeric_routes.get(k)) for k in route_keys]
        row += [_flat_cell(r.rel_errors.get(k)) for k in rel_keys]
        writer.writerow(row)
    return buf.getvalue()


def _emit_aligned(records: Sequence[ReportRecord]) -> str:
    rows = []
    for r in records:
        worst = max((abs(v) for v in r.rel_errors.values()), default=None)
        routes = ", ".join(f"{k}={v:.6g}" for k, v in r.numeric_routes.items())
        rows.append((
            r.scenario,
            r.status,
            "" if r.closed_form is None else f"{r.closed_form:.10g}",
            "" if worst is None else f"{worst:.3g}",
            routes,
        ))
    headers = ("scenario", "status", "closed form", "worst rel err", "routes")
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = []
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    out.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        out.append("  ".join(row[i].ljust(widths[i])
                             for i in range(len(headers))).rstrip())
    passed = sum(r.status == "pass" for r in records)
    failed = sum(r.status == "fail" for r in records)
    flagged = sum(r.status == "flagged" for r in records)
    out.append("")
    out.append(f"{len(records)} records: {passed} pass, {failed} fail, "
               f"{flagged} flagged")
    return "\n".join(out) + "\n"


def emit_table(records: Sequence[ReportRecord], format: str = "aligned-text") -> str:
    """Render records as ``json``, ``csv``, or ``aligned-text``.

    JSON and CSV render reals with 17 significant digits and have a fixed
    field order, so identical configuration and seed give byte-identical
    output.
    """
    if format == "json":
        return _emit_json(records)
    if format == "csv":
        return _emit_csv(records)
    if format == "aligned-text":
        return _emit_aligned(records)
    raise ConfigError(f"unknown format {format!r}; choose from {FORMAT_NAMES}")


# ---------------------------------------------------------------------------
# configuration and entry point
# ---------------------------------------------------------------------------

def _parse_exponent(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise ConfigError(f"cannot parse exponent {text!r}") from err
    if not value >= 1.0:
        raise ConfigError(f"the Lebesgue exponent must be >= 1, got {text}")
    return value


def _parse_choice(name: str, choices: Sequence[str]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ConfigError(f"unknown {name} {text!r}; choose from {tuple(choices)}")
        return text
    return parse


_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "mu": ("mu", float),
    "sigma": ("sigma", float),
    "p": ("p", _parse_exponent),
    "n": ("n", int),
    "order": ("order", int),
    "eta-min": ("eta_min", float),
    "seed": ("seed", int),
    "format": ("fmt", _parse_choice("format", FORMAT_NAMES)),
    "suite": ("suite", _parse_choice("suite", SUITE_NAMES)),
}


def load_config_file(path: str) -> dict[str, object]:
    """Parse a line-oriented ``key=value`` file (``#`` starts a comment).

    Returns attribute-name -> parsed value; unknown keys and unparseable
    values raise ConfigError.
    """
    parsed: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parse = _CONFIG_KEYS[key]
        try:
            parsed[attr] = parse(text)
        except ConfigError:
            raise
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return parsed


def build_config(args: argparse.Namespace) -> SuiteConfig:
    cfg = SuiteConfig()
    if args.config is not None:
        for attr, value in load_config_file(args.config).items():
            setattr(cfg, attr, value)
    overrides = {
        "mu": args.mu, "sigma": args.sigma, "p": args.p, "n": args.n,
        "order": args.order, "eta_min": args.eta_min, "seed": args.seed,
        "fmt": args.format, "suite": args.suite,
    }
    for attr, value in overrides.items():
        if value is not None:
            setattr(cfg, attr, value)
    if cfg.n < 1:
        raise ConfigError(f"the dimension n must be a positive integer, got {cfg.n}")
    if cfg.order < 8:
        raise ConfigError(f"quadrature order must be at least 8, got {cfg.order}")
    if not 0.0 < cfg.eta_min <= 0.5:
        raise ConfigError(f"eta-min must lie in (0, 0.5], got {cfg.eta_min}")
    if not cfg.sigma > -1.0:
        raise ConfigError(f"sigma must exceed -1, got {cfg.sigma}")
    if not cfg.mu > 0.0:
        raise ConfigError(f"mu must be positive, got {cfg.mu}")
    return cfg


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergnorm",
        description="Verify closed-form operator norms against independent "
                    "numeric routes and print the results as a table.")
    parser.add_argument("--suite", choices=SUITE_NAMES, default=None,
                        help="which verification suite to run (default: all)")
    parser.add_argument("--mu", type=float, default=None,
                        help="measure exponent for the interval operator")
    parser.add_argument("--sigma", type=float, default=None,
                        help="kernel weight exponent")
    parser.add_argument("--p", type=str, default=None,
                        help="Lebesgue exponent (a real >= 1, or inf)")
    parser.add_argument("--n", type=int, default=None,
                        help="complex dimension for the ball suites")
    parser.add_argument("--order", type=int, default=None,
                        help="quadrature / discretization order")
    parser.add_argument("--eta-min", type=float, default=None, dest="eta_min",
                        help="smallest path parameter in the lower-bound sweep")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the randomized identity checks")
    parser.add_argument("--format", choices=FORMAT_NAMES, default=None,
                        help="output format (default: aligned-text)")
    parser.add_argument("--config", type=str, default=None,
                        help="line-oriented key=value config file; "
                             "flags override its entries")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.p is not None:
            args.p = _parse_exponent(args.p)
        cfg = build_config(args)
        status, records = run_suite(cfg.suite, cfg)
        sys.stdout.write(emit_table(records, cfg.fmt))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
