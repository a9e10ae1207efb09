"""Tests for the Gauss-Jacobi rules on (0,1)."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergnorm
from bergnorm import quadrature
from bergnorm.quadrature import (
    _recurrence,
    make_graded_rule,
    make_jacobi_rule,
    make_jacobi_rules,
    make_two_sided_rule,
)
from bergnorm.specfun import beta_fn, hyp2f1


def test_total_mass_matches_beta_function():
    for order, a, b in [(4, 1.0, 1.0), (64, 1.5, 0.5), (64, 3.0, 2.0),
                        (128, 0.1, 4.3), (1, 1.2, 1.2)]:
        rule = make_jacobi_rule(order, a, b)
        assert rule.total_mass == pytest.approx(beta_fn(a, b), rel=5e-15)


def test_nodes_inside_open_interval_and_sorted():
    rule = make_jacobi_rule(96, 0.5, 3.0)
    assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.weights > 0.0)


def test_polynomial_exactness_to_degree_2n_minus_1():
    # order-n Gauss rules integrate monomials t^d exactly through d = 2n-1:
    # integral t^(a-1+d) (1-t)^(b-1) dt = B(a+d, b)
    rule = make_jacobi_rule(6, 2.3, 1.7)
    for d in range(12):
        got = float(rule.weights @ rule.nodes ** d)
        want = beta_fn(2.3 + d, 1.7)
        assert got == pytest.approx(want, rel=1e-13)


def test_endpoint_singularities_live_in_the_weight():
    # integral_0^1 t^(-1/2) (1-t)^(-1/2) dt = pi, with f identically 1 --
    # no sampled value ever touches the singular factors
    rule = make_jacobi_rule(8, 0.5, 0.5)
    assert rule.total_mass == pytest.approx(math.pi, rel=1e-14)


def test_legendre_special_case():
    rule = make_jacobi_rule(20, 1.0, 1.0)
    got = float(rule.weights @ np.cos(rule.nodes))
    assert got == pytest.approx(math.sin(1.0), rel=1e-14)


def test_integrate_weighted_normalization():
    # the measure mu t^(mu-1) dt has total mass exactly 1: mu times the
    # mass of the rule of masses (mu, 1)
    for mu in (0.5, 1.0, 2.0, 3.7):
        got = mu * make_jacobi_rule(16, mu, 1.0).total_mass
        assert got == pytest.approx(1.0, rel=1e-14)


def test_integrate_weighted_euler_formula_route():
    # 2F1 via its integral representation:
    # F(a,b;c;z) = 1/B(b,c-b) int t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) dt
    a, b, c, z = 1.7, 0.8, 2.1, 0.6
    rule = make_jacobi_rule(128, b, c - b)
    got = float(rule.weights @ (1.0 - z * rule.nodes) ** (-a)) / beta_fn(b, c - b)
    assert got == pytest.approx(hyp2f1(a, b, c, z), rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_jacobi_rule(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        make_jacobi_rule(8, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_jacobi_rule(8, 1.0, -0.5)


def test_rules_are_cached_and_frozen():
    r1 = make_jacobi_rule(32, 1.5, 2.5)
    r2 = make_jacobi_rule(32, 1.5, 2.5)
    assert r1 is r2
    with pytest.raises(ValueError):
        r1.nodes[0] = 0.5  # read-only array


def test_integrate_shape_check():
    rule = make_jacobi_rule(16, 1.0, 1.0)
    with pytest.raises(ValueError):
        rule.integrate(np.ones(15))


@given(st.floats(min_value=-0.9, max_value=3.0),
       st.floats(min_value=-0.9, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_order_doubling_stability(alpha, beta, coeff):
    # doubling the order must not move the integral of a smooth function:
    # the degree-of-exactness argument makes both virtually exact
    f = lambda t: np.exp(coeff * t)
    r1 = make_jacobi_rule(64, alpha + 1.0, beta + 1.0)
    r2 = make_jacobi_rule(128, alpha + 1.0, beta + 1.0)
    i1 = float(r1.weights @ f(r1.nodes))
    i2 = float(r2.weights @ f(r2.nodes))
    assert i1 == pytest.approx(i2, rel=1e-10, abs=1e-300)


@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=-0.5, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_integrate_weighted_first_moment(mu, sigma):
    # integral t * mu t^(mu-1) (1-t)^sigma dt = mu B(mu+1, sigma+1)
    rule = make_jacobi_rule(32, mu, sigma + 1.0)
    got = mu * rule.integrate(rule.nodes)
    want = mu * beta_fn(mu + 1.0, sigma + 1.0)
    assert got == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------------
# batched rules (eigenvalues, one Newton step, Christoffel weights)
# ----------------------------------------------------------------------

@given(st.floats(min_value=-0.9, max_value=4.0),
       st.floats(min_value=-0.9, max_value=4.0),
       st.sampled_from([1, 2, 8, 128, 256]))
@settings(max_examples=40, deadline=None)
def test_batched_rule_is_a_gauss_rule(alpha, beta, order):
    # the mirrored pair rides along, so every example is a batch of two
    pairs = [(alpha + 1.0, beta + 1.0), (beta + 1.0, alpha + 1.0)]
    for rule, (a, b) in zip(make_jacobi_rules(order, pairs), pairs):
        assert (rule.order, rule.a, rule.b) == (order, a, b)
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert rule.total_mass == pytest.approx(beta_fn(a, b), rel=2e-15)
        for k in range(2 * order):
            got = float(rule.weights @ rule.nodes ** k)
            assert got == pytest.approx(beta_fn(a + k, b), rel=1e-11)


def _scalar_recurrence(order, a, b):
    """The Jacobi matrix of weight (1-x)^(a-1) (1+x)^(b-1) entry by entry, in
    Python floats: the reference ``_recurrence``'s array passes must reproduce."""
    A, B = a - 1.0, b - 1.0
    diag = [(b - a) / (a + b)]
    diag += [(B * B - A * A) / ((2.0 * k + A + B) * (2.0 * k + A + B + 2.0))
             for k in range(1, order)]
    off = [math.sqrt(4.0 * a * b / ((a + b) * (a + b) * (a + b + 1.0)))]
    for k in range(2, order):
        s = 2.0 * k + A + B
        off.append(math.sqrt(4.0 * k * (k + A) * (k + B) * (k + A + B)
                             / (s * s * (s + 1.0) * (s - 1.0))))
    return diag, off[:order - 1]


@pytest.mark.parametrize("order", [1, 2, 3, 64])
def test_batched_recurrence_has_each_rules_bits(order):
    # one array pass over 2000 rules gives each row the bits of the scalar
    # formulas
    rng = np.random.default_rng(order)
    a_mass, b_mass = rng.uniform(0.05, 61.0, (2, 2000))
    diag, off = _recurrence(order, a_mass, b_mass)
    assert diag.shape == (2000, order) and off.shape == (2000, order - 1)
    for r, (a, b) in enumerate(zip(a_mass.tolist(), b_mass.tolist())):
        want_diag, want_off = _scalar_recurrence(order, a, b)
        assert diag[r].tolist() == want_diag and off[r].tolist() == want_off


def test_batch_gives_each_rule_its_own_bits():
    # a rule's nodes and weights do not depend on the rest of its batch
    pairs = [(0.4, 2.5), (1.0, 21.0), (3.4, 1.1), (0.1, 0.1), (1.0, 1.0)]
    for order in (1, 7, 64):
        batch = make_jacobi_rules(order, pairs)
        for rule, pair in zip(batch, pairs):
            alone = make_jacobi_rules(order, [pair])[0]
            assert rule.nodes.tobytes() == alone.nodes.tobytes()
            assert rule.weights.tobytes() == alone.weights.tobytes()
            assert not (rule.nodes.flags.writeable or rule.weights.flags.writeable)


def _golub_welsch_rule(order, a, b):
    """Nodes and weights B(a, b) v_1^2 of the Golub-Welsch rule for
    t^(a-1) (1-t)^(b-1), from the public scipy route (LAPACK dstevd)."""
    from scipy.linalg import eigh_tridiagonal

    mass = beta_fn(a, b)
    if order == 1:
        return 0.5 * (_recurrence(1, b, a)[0] + 1.0), np.array([mass])
    eigvals, eigvecs = eigh_tridiagonal(*_recurrence(order, b, a),
                                        lapack_driver="stevd")
    return 0.5 * (eigvals + 1.0), mass * eigvecs[0, :] ** 2


def test_batched_rules_agree_with_golub_welsch():
    # the Golub-Welsch rule squares an eigenvector component that carries
    # an absolute error near machine epsilon, so its smallest weights
    # (~1e-19 beside an exponent-4 endpoint at order 256) are off by up to
    # ~4e-8 relative; the absolute floor covers those
    exponents = [(-0.9, -0.9), (-0.6, 1.5), (0.0, 0.0), (2.4, 0.1), (4.0, -0.9),
                 (1.7, 3.3)]
    masses = [(alpha + 1.0, beta + 1.0) for alpha, beta in exponents]
    for order in (1, 2, 8, 128, 256):
        for rule, (a, b) in zip(make_jacobi_rules(order, masses), masses):
            nodes, weights = _golub_welsch_rule(order, a, b)
            np.testing.assert_allclose(rule.nodes, nodes, rtol=0.0, atol=4e-16)
            np.testing.assert_allclose(rule.weights, weights, rtol=1e-11,
                                       atol=1e-18 * weights.sum())
            # each rule's weights are rescaled to its exact mass
            assert rule.total_mass == pytest.approx(beta_fn(a, b), rel=2e-15)


def _gauss_jacobi_mp(order, alpha, beta, starts):
    """Nodes and weights of the order-point rule for t^alpha (1-t)^beta at 40
    digits: Newton on mpmath's Jacobi polynomial P_n^(beta, alpha)(2t - 1)
    from each start, weights from the classical derivative formula."""
    with mp.workdps(40):
        a, b, n = mp.mpf(beta), mp.mpf(alpha), order
        scale = (mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                 / (mp.gamma(n + a + b + 1) * mp.factorial(n)))

        def derivative(x):
            return (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, x)

        out = []
        for t0 in starts:
            x = 2 * mp.mpf(t0) - 1
            for _ in range(8):
                step = mp.jacobi(n, a, b, x) / derivative(x)
                x -= step
                if abs(step) < mp.mpf(10) ** -38:
                    break
            # weight on [-1,1] divided by 2^(a+b+1), the Jacobian to (0,1)
            out.append((float((1 + x) / 2),
                        float(scale / ((1 - x * x) * derivative(x) ** 2))))
        return out


# the last three cases sit beside a (1-t)^20 endpoint and beyond, where
# Golub-Welsch weights keep no correct digit in their smallest entries
_MPMATH_CASES = [(-0.6, 1.5, 128), (2.4, 0.1, 256), (-0.6, 1.5, 512),
                 (0.0, 20.0, 128), (0.0, 60.0, 128), (0.0, 100.0, 128)]
# both entry points: the batch of one (plain ids) and the cached rule
_ENTRY_POINTS = [("", lambda order, a, b: make_jacobi_rules(order, [(a, b)])[0]),
                 ("cached-", make_jacobi_rule)]


@pytest.mark.parametrize("build, alpha, beta, order", [
    pytest.param(build, *case, id=prefix + "-".join(map(str, case)))
    for prefix, build in _ENTRY_POINTS for case in _MPMATH_CASES])
def test_batched_rule_against_mpmath(build, alpha, beta, order):
    # the cases name the exponents; the oracle takes the rule's masses less 1
    rule = build(order, alpha + 1.0, beta + 1.0)
    alpha, beta = rule.a - 1.0, rule.b - 1.0
    picks = sorted({*np.linspace(0, order - 1, 17).astype(int), 1, order - 2})
    ref = _gauss_jacobi_mp(order, alpha, beta, rule.nodes[picks])
    for i, (node, weight) in zip(picks, ref):
        assert abs(rule.nodes[i] - node) <= 2.3e-16
        # the extreme weights inherit the ~1e-16 absolute node error, which
        # is large relative to a node next to t = 0; inner weights must
        # show no mass bias
        tol = 2e-13 if 0.01 < node < 0.99 else 2e-11
        assert rule.weights[i] == pytest.approx(weight, rel=tol)


def test_batched_rules_validation():
    with pytest.raises(ValueError):
        make_jacobi_rules(0, [(1.0, 1.0)])
    with pytest.raises(ValueError):
        make_jacobi_rules(-3, [(1.0, 1.0)])
    with pytest.raises(ValueError):
        make_jacobi_rules(8, [(1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        make_jacobi_rules(8, [(1.5, -0.5)])
    with pytest.raises(ValueError):
        make_jacobi_rules(0, [])
    assert make_jacobi_rules(8, []) == []


# ----------------------------------------------------------------------
# the graded rule (discretize_graded's)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha, beta", [(0.0, -0.9), (-0.6, -0.6), (2.0, -0.5)])
def test_graded_rule_mass_against_mpmath(alpha, beta):
    # 41 panels down to 1 - 2^-40: a middle panel samples (1-t)^beta from
    # its own u = 1 - t, not from a rounded t, which put the mass of
    # (0, -0.9) 1.7e-8 off and that of (-0.6, -0.6) 5.5e-12 off
    a, b = alpha + 1.0, beta + 1.0
    rule = make_graded_rule(512, a, b)
    with mp.workdps(30):
        exact = float(mp.beta(a, b))
    assert rule.total_mass == pytest.approx(exact, rel=1e-15)
    assert rule.total_mass == pytest.approx(beta_fn(a, b), rel=1e-15)
    assert np.all(np.diff(rule.nodes) > 0.0) and rule.nodes[-1] < 1.0


# ----------------------------------------------------------------------
# the two-sided graded rule (identity-value-at-one's shared rule)
# ----------------------------------------------------------------------

def _two_sided_beta(c, d):
    # sum w t^(c-1) u^(d-1), the weight sampled as the check samples it
    rule = make_two_sided_rule()
    return float(rule.weights @ np.exp((c - 1.0) * np.log(rule.nodes)
                                       + (d - 1.0) * np.log(1.0 - rule.nodes)))


def test_two_sided_rule_is_a_usable_rule():
    rule = make_two_sided_rule()
    t, u = rule.nodes, 1.0 - rule.nodes
    assert rule is make_two_sided_rule()
    assert rule.order == t.size and not t.flags.writeable
    assert t[0] > 0.0 and t[-1] < 1.0
    assert np.all(np.diff(t) > 0.0)
    assert np.all(rule.weights > 0.0)
    # beyond t = 1/2, where the kink lives, the sampled u is each node's
    # exact complement, down to the deepest node 1 - 2^-52
    near_one = t >= 0.5
    assert near_one.sum() > t.size // 2
    assert all(Fraction(1) - Fraction(x) == Fraction(y)
               for x, y in zip(t[near_one].tolist(), u[near_one].tolist()))
    assert u[-1] == 2.0 ** -52


def test_two_sided_rule_integrates_the_check_weights():
    # the value-at-one check's weight domain: c in [1.6, 4.4], d in [0.8, 1.2]
    for c in np.linspace(1.6, 4.4, 15):
        for d in np.linspace(0.8, 1.2, 9):
            assert _two_sided_beta(c, d) == pytest.approx(beta_fn(c, d), rel=2e-12)


@pytest.mark.parametrize("c, d", [(1.6, 0.8), (4.4, 0.8), (2.7, 1.05), (4.4, 1.2)])
def test_two_sided_rule_against_mpmath(c, d):
    with mp.workdps(30):
        exact = float(mp.beta(c, d))
    assert _two_sided_beta(c, d) == pytest.approx(exact, rel=2e-12)


# ----------------------------------------------------------------------
# LAPACK reached without scipy.linalg
# ----------------------------------------------------------------------

_LOADER_ORDERS = (1, 2, 3, 64, 1024)
_LOADER_MASSES = ((0.1, 4.3), (1.5, 0.5), (1.0, 1.0))


@pytest.mark.parametrize("order", _LOADER_ORDERS)
def test_batched_rules_have_the_bits_of_eigh_tridiagonal(order, monkeypatch):
    # the batch, its eigenvalues taken from the public dsterf route
    from scipy.linalg import eigh_tridiagonal

    def reference(diag, off):
        return eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="sterf")

    got = make_jacobi_rules(order, _LOADER_MASSES)
    monkeypatch.setattr(quadrature, "_tridiagonal_eigen", reference)
    want = make_jacobi_rules(order, _LOADER_MASSES)
    for g, w in zip(got, want):
        assert np.array_equal(g.nodes, w.nodes)
        assert np.array_equal(g.weights, w.weights)


def test_solver_failure_is_a_quadrature_error():
    # LAPACK's info != 0 (a NaN matrix does not converge) is not a rule
    diag = np.array([np.nan, 1.0, 2.0])
    with pytest.raises(quadrature.QuadratureError, match="dsterf failed: info = 2"):
        quadrature._tridiagonal_eigen(diag, np.array([0.5, 0.5]))


@pytest.mark.parametrize("modules", ["bergnorm.cli", "bergnorm.intop, bergnorm.normest"])
def test_import_leaves_scipy_linalg_out(modules):
    # a fresh interpreter: the rules reach LAPACK without scipy.linalg's
    # init, and the shared two-sided rule waits for its first use
    src = str(Path(bergnorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = (f"import sys, bergnorm.quadrature as q; import {modules}; "
            "sys.exit('scipy.linalg' in sys.modules and 'scipy.linalg was imported' "
            "or q.make_two_sided_rule.cache_info().currsize and 'rule built at import')")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
