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

One gate, ``_finish``, sets a record's ``status``: ``pass`` when every
entry of ``rel_errors`` is within the scenario tolerance (recorded in
``inputs``), ``fail`` when one is not (or an internal ordering guard is
violated), and ``flagged`` when any route value is not finite, in every
record, or when a numeric route could not be completed.  Routes with no
``rel_errors`` entry are not gated: the norm records take their route
table and its gated names from ``normest.norm_report``, where the Nystrom
estimate, converging from below like 1/log(order), is ungated.  It still
counts in a norm record's upper guard, which fails the record when any
route exceeds the closed form by more than a factor 1 + 1e-9.

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
from dataclasses import Field, dataclass, field, fields
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
from .quadrature import QuadratureError, make_jacobi_rules, make_two_sided_rule
from .specfun import (
    ConvergenceError,
    DivergenceError,
    beta_fn,
    hyp2f1_at_one,
    hyp2f1_grid,
)

FORMAT_NAMES = ("json", "csv", "aligned-text")

_IDENTITY_DRAWS = 120
_IDENTITY_TOL = 1e-7
# Gauss-Jacobi order of the Euler-integral and beta-average checks, sized to
# their draw domain, not taken from --order.  With z, x <= 0.95 each
# integrand is analytic inside the Bernstein ellipse through t = 1/0.95
# (rho ~ 1.576), so the rule's error is of order rho^(-2n) < 1e-19 at
# n = 64 (Trefethen, SIAM Review 50 (2008) 67-87); the checks' worst gaps,
# ~3e-15 over seeds 0-9, are the series' rounding, as at order 128.
_IDENTITY_ORDER = 64
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
    """The one gate (module docstring); a record with a route that is not
    finite keeps its routes and names the broken ones in ``inputs.error``."""
    inputs = dict(inputs)
    inputs["tol"] = tol
    ok = guards_ok and all(abs(v) <= tol for v in rels.values())
    status = "pass" if ok else "fail"
    broken = [k for k, v in routes.items() if not math.isfinite(v)]
    if broken:
        inputs["error"] = f"route not finite: {', '.join(broken)}"
        status = "flagged"
    return ReportRecord(scenario=scenario, inputs=inputs, closed_form=closed,
                        numeric_routes=routes, rel_errors=rels, status=status)


def _worst(errors: Sequence[float]) -> float:
    """The largest of ``errors``, NaN when any is NaN: Python's ``max``
    keeps its first argument against a NaN, so a broken value would hide."""
    return float(np.max(errors))


def _aggregate(scenario: str, inputs: dict, key: str, errors: Sequence[float],
               tol: float, closed: float | None = None) -> ReportRecord:
    """A record whose one route, gated at ``tol``, is the worst of ``errors``."""
    worst = _worst(errors)
    return _finish(scenario, inputs, closed, {key: worst}, {key: worst}, tol)


def _failure(err: Exception) -> str:
    """The reason a flagged record gives for a route that raised ``err``."""
    if isinstance(err, OverflowError):
        return f"overflow beyond double range: {err}"
    return str(err)


def _flagged(scenario: str, inputs: dict, reason: str) -> ReportRecord:
    inputs = dict(inputs)
    inputs["error"] = reason
    return ReportRecord(scenario=scenario, inputs=inputs, closed_form=None,
                        numeric_routes={}, rel_errors={}, status="flagged")


# ---------------------------------------------------------------------------
# identities suite
#
# Each check first makes all of its draws, with the rng calls of a check
# that evaluates one draw at a time, in the same order.  It then evaluates
# every draw's 2F1 values in one ``hyp2f1_grid`` call per side of its
# identity, one parameter set per draw; each value has the bits of a
# one-draw call.
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
    rules = make_jacobi_rules(order, [(b, c - b) for _, b, c, _ in params])
    series = hyp2f1_grid(*np.array(params).T).tolist()
    errors = []
    for (a, b, c, z), rule, value in zip(params, rules, series):
        integral = rule.integrate((1.0 - z * rule.nodes) ** (-a))
        errors.append(abs(value - integral / beta_fn(b, c - b)) / abs(value))
    return _worst(errors)


def euler_transform_check(rng: np.random.Generator, draws: int) -> float:
    """Worst relative gap in 2F1(a,b;c;z) = (1-z)^(c-a-b) 2F1(c-a,c-b;c;z).

    Draws keep z <= 0.7 so that *both* sides run through the raw power
    series; at larger z the evaluator applies this very transform
    internally and the comparison would be vacuous.
    """
    params = []
    for _ in range(draws):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.5)
        c = rng.uniform(0.6, 4.0)
        z = rng.uniform(0.05, 0.70)
        params.append((a, b, c, z))
    a, b, c, z = np.array(params).T
    sides = zip(hyp2f1_grid(a, b, c, z).tolist(), hyp2f1_grid(c - a, c - b, c, z).tolist())
    return _worst([abs(lhs - (1.0 - z) ** (c - a - b) * transformed) / abs(lhs)
                   for (a, b, c, z), (lhs, transformed) in zip(params, sides)])


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
    rules = make_jacobi_rules(order, [(c, d) for _, _, c, d, _ in params])
    a, b, c, d, x = np.array(params).T[:, :, None]
    nodes = np.array([rule.nodes for rule in rules])
    sides = zip(hyp2f1_grid(a, b, c, x * nodes), hyp2f1_grid(a, b, c + d, x)[:, 0].tolist())
    errors = []
    for (a, b, c, d, x), rule, (integrand, series) in zip(params, rules, sides):
        lhs = rule.integrate(integrand)
        rhs = beta_fn(c, d) * series
        errors.append(abs(lhs - rhs) / abs(rhs))
    return _worst(errors)


def value_at_one_check(rng: np.random.Generator, draws: int) -> float:
    """Worst relative gap for the gamma-quotient value at argument one,

        2F1(a,b;c';1) = G(c')G(c'-a-b) / (G(c'-a)G(c'-b)),

    probed through the beta average at x = 1 with c' = c + d: the left side
    integrates series values of 2F1(a,b;c;t) over (0,1), the right side is
    B(c,d) times the gamma quotient under test.  Every draw shares
    ``make_two_sided_rule``, graded toward both ends, and samples its own
    weight t^(c-1) (1-t)^(d-1) in log form from t and the exact 1 - t, so
    the integrand's (1-t)^(c-a-b) kink at t = 1 is resolved on every dyadic
    scale down to 1 - t = 2^-52; the tail left out beyond it puts a floor of
    about 1e-12 under the gap.  The graded nodes near 1 run through the
    near-one connection formulas; so would the nodes of any Gauss-Jacobi rule
    fine enough for this check (order 256 reaches 1 - t ~ 1e-5).
    """
    params = []
    for _ in range(draws):
        a = rng.uniform(0.2, 1.0)
        b = rng.uniform(0.3, 1.2)
        c = a + b + rng.uniform(1.1, 2.2)
        d = rng.uniform(0.8, 1.2)
        params.append((a, b, c, d))
    rule = make_two_sided_rule()
    log_t, log_u = np.log(rule.nodes), np.log(1.0 - rule.nodes)
    a, b, c, _ = np.array(params).T[:, :, None]
    integrands = hyp2f1_grid(a, b, c, np.broadcast_to(rule.nodes, (draws, rule.order)))
    errors = []
    for (a, b, c, d), integrand in zip(params, integrands):
        weights = rule.weights * np.exp((c - 1.0) * log_t + (d - 1.0) * log_u)
        lhs = float(weights @ integrand)
        rhs = beta_fn(c, d) * hyp2f1_at_one(a, b, c + d)
        errors.append(abs(lhs - rhs) / abs(rhs))
    return _worst(errors)


def identities_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    rng = np.random.default_rng(cfg.seed)
    plan: list[tuple[str, Callable[[], float], dict]] = [
        ("identity-euler-integral",
         lambda: euler_integral_check(rng, _IDENTITY_DRAWS, _IDENTITY_ORDER),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed, "order": _IDENTITY_ORDER}),
        ("identity-euler-transform",
         lambda: euler_transform_check(rng, _IDENTITY_DRAWS),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed}),
        ("identity-beta-average",
         lambda: beta_average_check(rng, _IDENTITY_DRAWS, _IDENTITY_ORDER),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed, "order": _IDENTITY_ORDER}),
        ("identity-value-at-one",
         lambda: value_at_one_check(rng, _IDENTITY_DRAWS),
         {"draws": _IDENTITY_DRAWS, "seed": cfg.seed,
          "order": make_two_sided_rule().order}),
    ]
    records = []
    for scenario, run, inputs in plan:
        try:
            worst = run()
        except (ConvergenceError, QuadratureError, OverflowError) as err:
            records.append(_flagged(scenario, inputs, _failure(err)))
            continue
        records.append(_aggregate(scenario, inputs, "max_rel_error", [worst],
                                  _IDENTITY_TOL))
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
    agree that no finite norm exists.  The report names its routes and the
    gated ones; this function names none.  ``inputs.eta_min`` is the
    depth of the report's eta-sweep, null where no sweep ran.  A closed
    form or scale beyond double range flags the record, and numpy's
    overflow warnings stay silent.
    """
    inputs = {**inputs, "order": cfg.order, "eta_min": None}
    try:
        factor = scale()
        with np.errstate(over="ignore", invalid="ignore"):
            report = norm_report(params, exp, order=cfg.order)
        if not report.unbounded:
            closed_form = report.closed_form if closed is None else closed()
    except (QuadratureError, ConvergenceError, DivergenceError, OverflowError) as err:
        return _flagged(scenario, inputs, _failure(err))
    inputs["eta_min"] = report.eta_min
    routes = {k: factor * v for k, v in report.routes.items()}
    if report.unbounded:
        inputs["growth"] = report.growth
        return _finish(scenario + " (divergent)", inputs, None, routes, {}, 0.0,
                       guards_ok=report.divergence_flagged)
    rels = {k: (closed_form - routes[k]) / closed_form for k in report.gated}
    below = all(v <= closed_form * (1.0 + _EXCESS_GUARD) for v in routes.values())
    tol = _L1_ROUTE_TOL if exp.is_one else _NORM_ROUTE_TOL
    return _finish(scenario, inputs, closed_form, routes, rels, tol,
                   guards_ok=below)


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
    errors = []
    for n in _BRIDGE_N:
        for sigma in _BRIDGE_SIGMA:
            for p in _BRIDGE_P:
                bp = BallParams(n=n, sigma=sigma)
                tilde = tilde_norm_formula(bp, p)
                via_interval = (c_sigma(n, sigma)
                                * norm_formula(bp.interval_params, p))
                errors.append(abs(tilde - via_interval) / tilde)
    inputs = {"n": list(_BRIDGE_N), "sigma": list(_BRIDGE_SIGMA),
              "p": list(_BRIDGE_P)}
    return _aggregate("ball-bridge-grid", inputs, "max_rel_deviation", errors,
                      _EXACT_TOL)


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
    At p = 1 the majorant bound must coincide with the exact norm.  A
    norm beyond double range (n >= 1019) flags the record."""
    bp = BallParams(n=cfg.n, sigma=1.0)
    scenario, inputs = f"ball-bergman n={cfg.n} sigma=1", {"n": cfg.n, "sigma": 1.0}
    p_mid = 4.0 / 3.0
    try:
        exact = bergman_exact_norms(bp)
        upper_1 = tilde_norm_formula(bp, 1.0)
        upper_2 = tilde_norm_formula(bp, 2.0)
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
    except OverflowError as err:
        return _flagged(scenario, inputs, _failure(err))
    guards = exact.l2 <= upper_2 * (1.0 + _EXCESS_GUARD)
    return _finish(scenario, inputs, None, routes, rels, _EXACT_TOL, guards_ok=guards)


def _radial_disc_record() -> ReportRecord:
    """Radial-reduction pipeline against direct polar quadrature on the
    disc, for a non-polynomial radial profile at several radii."""
    profile = lambda s: np.exp(-s) + 0.25 * s
    f = lambda w: profile(np.abs(w) ** 2)
    errors = []
    for sigma in (0.0, 1.0, 2.0):
        bp = BallParams(n=1, sigma=sigma)
        for r in (0.0, 0.4, 0.8):
            a = radial_apply(bp, profile, r * r)
            b = tilde_apply_disc(sigma, f, complex(r, 0.0))
            errors.append(abs(a - b) / max(1.0, abs(a)))
    inputs = {"sigma": [0.0, 1.0, 2.0], "radii": [0.0, 0.4, 0.8]}
    return _aggregate("ball-radial-vs-disc", inputs, "max_rel_deviation", errors,
                      _DISC_HARMONIC_TOL)


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
    errors = []
    for n in range(1, 11):
        product = berezin_norm(n, 2.0)
        direct = berezin_l2_doublefactorial(n)
        errors.append(abs(product - direct) / direct)
    return _aggregate("berezin-l2-crosscheck", {"n": "1..10"}, "max_rel_deviation",
                      errors, _EXACT_TOL)


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
    errors = [abs(berezin_apply_disc(lambda w: np.ones(w.shape), z) - 1.0)
              for z in _DISC_PROBE_POINTS]
    inputs = {"points": [str(z) for z in _DISC_PROBE_POINTS]}
    return _aggregate("berezin-disc-probability", inputs, "max_abs_deviation", errors,
                      _DISC_PROBABILITY_TOL, closed=1.0)


def _berezin_harmonic_record() -> ReportRecord:
    """Harmonic functions are fixed points; check f(w) = Re w at a few
    evaluation points (absolute error -- the target vanishes at 0)."""
    errors = [abs(berezin_apply_disc(lambda w: np.real(w), z) - z.real)
              for z in (0.0 + 0.0j, 0.3 + 0.0j, 0.6j)]
    inputs = {"points": ["0", "0.3", "0.6j"]}
    return _aggregate("berezin-disc-harmonic", inputs, "max_abs_deviation", errors,
                      _DISC_HARMONIC_TOL)


def _berezin_radial_record() -> ReportRecord:
    """Radial reduction of the transform against the direct disc route."""
    profile = lambda s: np.exp(-2.0 * s)
    f = lambda w: profile(np.abs(w) ** 2)
    errors = [abs(berezin_radial_apply(1, profile, r2)
                  - berezin_apply_disc(f, complex(math.sqrt(r2), 0.0)))
              for r2 in (0.0, 0.25, 0.64)]
    return _aggregate("berezin-radial-vs-disc", {"r2": [0.0, 0.25, 0.64]},
                      "max_abs_deviation", errors, _DISC_PROBABILITY_TOL)


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
#
# Each setting is one ``SuiteConfig`` field whose metadata holds its key
# (``--key`` on the command line, ``key = value`` in a config file), the
# parser that flags and config files share, and its help line.
# ---------------------------------------------------------------------------

def _parse_exponent(text: str) -> float:
    value = float(text)
    if not value >= 1.0:
        raise ValueError(f"the Lebesgue exponent must be >= 1, got {text}")
    return value


def _parse_choice(choices: Sequence[str]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(choices)}")
        return text
    return parse


def _setting(default, key: str, parse: Callable[[str], object], help: str):
    return field(default=default, metadata={"key": key, "parse": parse, "help": help})


@dataclass
class SuiteConfig:
    """Knobs shared by every suite; flags override config-file entries."""

    mu: float = _setting(1.0, "mu", float, "measure exponent for the interval operator")
    sigma: float = _setting(0.0, "sigma", float, "kernel weight exponent")
    p: float = _setting(2.0, "p", _parse_exponent, "Lebesgue exponent, a real >= 1 or inf")
    n: int = _setting(1, "n", int, "complex dimension for the ball suites")
    order: int = _setting(128, "order", int,
                          "Gauss-Jacobi order of the norm records' nystrom route")
    seed: int = _setting(0, "seed", int, "seed for the randomized identity checks only")
    fmt: str = _setting("aligned-text", "format", _parse_choice(FORMAT_NAMES),
                        f"output format: {', '.join(FORMAT_NAMES)}")
    suite: str = _setting("all", "suite", _parse_choice(SUITE_NAMES),
                          f"which suite to run: {', '.join(SUITE_NAMES)}")


_SETTINGS: dict[str, Field] = {f.metadata["key"]: f for f in fields(SuiteConfig)}


def _parse_setting(setting: Field, text: str, where: str = ""):
    """``text`` through ``setting``'s parser; ``where`` locates a config-file
    line in the error."""
    try:
        return setting.metadata["parse"](text)
    except ValueError as err:
        raise ConfigError(f"{where}bad value for {setting.metadata['key']}: {err}") from err


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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        setting = _SETTINGS[key]
        parsed[setting.name] = _parse_setting(setting, text, f"{path}:{lineno}: ")
    return parsed


def build_config(args: argparse.Namespace) -> SuiteConfig:
    """The defaults, overridden by the entries of the config file
    ``args.config``, overridden by the flags given (``args`` may hold any
    subset of them); then the merged settings' ranges are checked.  Like
    a file line, every occurrence of a flag is parsed and the last wins."""
    path = getattr(args, "config", None)
    values = {} if path is None else load_config_file(path)
    for setting in fields(SuiteConfig):
        for text in getattr(args, setting.name, None) or ():
            values[setting.name] = _parse_setting(setting, text)
    cfg = SuiteConfig(**values)
    if cfg.n < 1:
        raise ConfigError(f"the dimension n must be a positive integer, got {cfg.n}")
    if cfg.order < 8:
        raise ConfigError(f"quadrature order must be at least 8, got {cfg.order}")
    if not cfg.sigma > -1.0:
        raise ConfigError(f"sigma must exceed -1, got {cfg.sigma}")
    if not cfg.mu > 0.0:
        raise ConfigError(f"mu must be positive, got {cfg.mu}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    return cfg


def add_setting_flags(parser: argparse.ArgumentParser,
                      names: Sequence[str] | None = None) -> None:
    """A ``--key`` flag for every setting, or for the fields in ``names``;
    each keeps the texts it was given for ``build_config`` to parse."""
    for setting in fields(SuiteConfig):
        if names is None or setting.name in names:
            key = setting.metadata["key"]
            parser.add_argument(f"--{key}", action="append", dest=setting.name,
                                metavar=key.upper(),
                                help=f"{setting.metadata['help']} "
                                     f"(default: {setting.default})")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergnorm",
        description="Verify closed-form operator norms against independent "
                    "numeric routes and print the results as a table.")
    add_setting_flags(parser)
    parser.add_argument("--config", type=str, default=None,
                        help="line-oriented key=value config file; "
                             "flags override its entries")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        status, records = run_suite(cfg.suite, cfg)
        sys.stdout.write(emit_table(records, cfg.fmt))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
