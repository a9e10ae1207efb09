"""Tests for the ball-side consequences: normalizers, radial reduction,
closed-form norms, Bloch constants, and the Berezin transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergnorm.ball import (
    BallParams,
    RadialFunction,
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
    sphere_kernel_average,
    tilde_apply_disc,
    tilde_norm_formula,
)
from bergnorm.intop import OperatorParams, UnboundedOperatorError, norm_formula
from bergnorm.quadrature import DEFAULT_ORDER, QuadratureError, make_jacobi_rule
from bergnorm.specfun import hyp2f1_grid


# ----------------------------------------------------------------------
# parameters, normalizer, sphere average
# ----------------------------------------------------------------------

def test_ball_params_derived_exponent():
    bp = BallParams(2, 1.0)
    assert bp.lam == 2.0
    assert bp.interval_params == OperatorParams(2.0, 1.0)


def test_ball_params_validation():
    with pytest.raises(ValueError):
        BallParams(0, 1.0)
    with pytest.raises(ValueError):
        BallParams(1, -1.0)
    with pytest.raises(ValueError):
        BallParams(1.5, 1.0)
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        BallParams(0, 1.0)


@pytest.mark.parametrize("n, sigma, expected", [
    (3, 0.0, 1.0),        # n B(1, n) = 1 for every n
    (1, 1.0, 2.0),
    (2, 1.0, 3.0),
])
def test_c_sigma_values(n, sigma, expected):
    assert c_sigma(n, sigma) == pytest.approx(expected, rel=1e-14)


def test_c_sigma_validation():
    with pytest.raises(ValueError):
        c_sigma(1, -1.0)
    with pytest.raises(ValueError):
        c_sigma(0, 1.0)


def test_sphere_kernel_average_values():
    # normalized measure: the average of 1 is 1
    assert sphere_kernel_average(1, 0.0, 0.0) == 1.0
    # vanishing exponent: identically 1
    assert sphere_kernel_average(2, -2.0, 0.7) == pytest.approx(1.0, abs=1e-15)
    # mpmath oracle for 2F1(1/2, 1/2; 1; 1/4)
    assert sphere_kernel_average(1, 0.0, 0.25) == pytest.approx(
        1.07318200714936438, rel=1e-13)


def test_sphere_kernel_average_rejects_bad_radius():
    with pytest.raises(ValueError):
        sphere_kernel_average(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        sphere_kernel_average(1, 0.0, -0.1)


# ----------------------------------------------------------------------
# radial reduction
# ----------------------------------------------------------------------

def test_radial_apply_normalization():
    # the sigma = 0 majorant preserves constants at the origin
    one = RadialFunction(lambda s: np.ones_like(s))
    assert radial_apply(BallParams(1, 0.0), one, 0.0) == pytest.approx(1.0, rel=1e-13)


def test_radial_apply_beta_moment():
    got = radial_apply(BallParams(1, 0.0), lambda s: s, 0.0)
    assert got == pytest.approx(0.5, rel=1e-13)


def test_radial_apply_constant_frozen_value():
    # H == 1, n=1, sigma=2 at r2=0.5: c_2 * Gamma(2)Gamma(3)/Gamma(4)
    #   * 2F1(2,2;4;0.5), against the mpmath oracle
    got = radial_apply(BallParams(1, 2.0), lambda s: np.ones_like(s), 0.5)
    assert got == pytest.approx(1.90659700031606228, rel=1e-12)


def test_radial_function_norm():
    H = RadialFunction(lambda s: np.sqrt(s))
    # ||h||_2^2 = n int s^n ds = n/(n+1)
    assert H.norm(1, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-13)
    assert H.norm(3, 2.0) == pytest.approx(math.sqrt(0.75), rel=1e-13)
    # the sup norm scans the rule's nodes, whose largest is 1 - O(order^-2)
    assert H.norm(1, float("inf")) == pytest.approx(1.0, abs=1e-3)


# ----------------------------------------------------------------------
# closed-form norms
# ----------------------------------------------------------------------

TILDE_CASES = [
    (1, 0.0, 2.0, math.pi),
    (1, 1.0, 1.0, 8.0 / math.pi),
    (1, 0.0, 4.0, math.pi * math.sqrt(2.0)),
    (2, 1.0, 2.0, 3.0 * math.pi),
    (3, 0.5, 3.0, 25.4106910124619508),
]


@pytest.mark.parametrize("n, sigma, p, expected", TILDE_CASES)
def test_tilde_norm_frozen_values(n, sigma, p, expected):
    assert tilde_norm_formula(BallParams(n, sigma), p) == pytest.approx(
        expected, rel=1e-13)


@given(n=st.integers(1, 4), sigma=st.floats(-0.2, 3.0), p=st.floats(1.0, 8.0))
@settings(max_examples=120, deadline=None)
def test_tilde_norm_bridges_to_interval_norm(n, sigma, p):
    bp = BallParams(n, sigma)
    # the margin as sigma + (p-1)/p, exact at p = 1: a sigma of 1e-256 is
    # bounded there, where sigma + 1 - 1/p rounds to 0
    if sigma + (p - 1.0) / p <= 0.0:
        with pytest.raises(UnboundedOperatorError):
            tilde_norm_formula(bp, p)
        return
    try:
        bridged = c_sigma(n, sigma) * norm_formula(bp.interval_params, p)
    except OverflowError:
        # at p = 1 a sigma below ~1e-307 is the margin, and Gamma(margin)
        # puts both norms past the double range (subnormal ones give inf)
        with pytest.raises(OverflowError):
            tilde_norm_formula(bp, p)
        return
    assert tilde_norm_formula(bp, p) == pytest.approx(bridged, rel=1e-12)


def test_tilde_norm_unbounded_cases():
    with pytest.raises(UnboundedOperatorError) as err:
        tilde_norm_formula(BallParams(1, 0.0), 1.0)
    assert err.value.growth == "logarithmic"
    with pytest.raises(UnboundedOperatorError) as err:
        tilde_norm_formula(BallParams(1, -0.5), 1.5)
    assert err.value.growth == "power"
    with pytest.raises(UnboundedOperatorError):
        tilde_norm_formula(BallParams(1, 1.0), float("inf"))


def test_conjugate_norm_is_dual():
    bp = BallParams(1, 0.0)
    assert conj_tilde_norm_formula(bp, 4.0 / 3.0) == pytest.approx(
        tilde_norm_formula(bp, 4.0), rel=1e-15)
    # self-dual exponent
    assert conj_tilde_norm_formula(bp, 2.0) == pytest.approx(
        tilde_norm_formula(bp, 2.0), rel=1e-15)


def test_conjugate_norm_at_p_infinity():
    # q = 1: finite exactly when sigma > 0
    bp = BallParams(1, 2.0)
    assert conj_tilde_norm_formula(bp, float("inf")) == pytest.approx(
        tilde_norm_formula(bp, 1.0), rel=1e-15)
    with pytest.raises(UnboundedOperatorError):
        conj_tilde_norm_formula(BallParams(1, 0.0), float("inf"))
    with pytest.raises(ValueError):
        conj_tilde_norm_formula(bp, 1.0)


def test_bergman_exact_norms_values():
    norms = bergman_exact_norms(BallParams(1, 1.0))
    assert norms.l1 == pytest.approx(8.0 / math.pi, rel=1e-13)
    assert norms.l2 == pytest.approx(math.sqrt(2.0), rel=1e-13)
    # l1 coincides with the majorant norm at p = 1
    assert norms.l1 == pytest.approx(
        tilde_norm_formula(BallParams(1, 1.0), 1.0), rel=1e-13)


def test_bergman_exact_norms_sigma_zero_projection():
    norms = bergman_exact_norms(BallParams(2, 0.0))
    assert norms.l1 is None
    assert norms.l2 == pytest.approx(1.0, rel=1e-14)  # orthogonal projection


def test_bergman_exact_norms_undefined_ranges():
    norms = bergman_exact_norms(BallParams(1, -0.75))
    assert norms.l1 is None and norms.l2 is None
    # mpmath oracles away from the special points
    norms = bergman_exact_norms(BallParams(2, 1.5))
    assert norms.l1 == pytest.approx(6.04074913330984879, rel=1e-13)
    assert norms.l2 == pytest.approx(1.84263546384712256, rel=1e-13)


def test_riesz_thorin_bound_endpoints_and_midpoint():
    bp = BallParams(1, 1.0)
    norms = bergman_exact_norms(bp)
    assert riesz_thorin_bound(bp, 1.0) == pytest.approx(norms.l1, rel=1e-13)
    assert riesz_thorin_bound(bp, 2.0) == pytest.approx(norms.l2, rel=1e-13)
    assert riesz_thorin_bound(bp, 4.0 / 3.0) == pytest.approx(
        1.89769999331517738, rel=1e-13)  # (8 sqrt(2)/pi)^(1/2)


def test_riesz_thorin_bound_domain():
    with pytest.raises(ValueError):
        riesz_thorin_bound(BallParams(1, 1.0), 3.0)
    with pytest.raises(UnboundedOperatorError):
        riesz_thorin_bound(BallParams(1, 0.0), 1.5)


def test_tilde_norm_formula_reflection_case():
    # sigma = 0: Gamma(n+1)/Gamma((n+1)/2)^2 * pi/sin(pi/p)
    assert tilde_norm_formula(BallParams(2, 0.0), 2.0) == pytest.approx(8.0, rel=1e-13)
    assert tilde_norm_formula(BallParams(1, 0.0), 2.0) == pytest.approx(math.pi, rel=1e-13)


def test_bergman_bound_comparison_is_two_sided():
    # the interpolated bound wins at some p, the majorant bound at others
    bp = BallParams(1, 1.0)
    diffs = [tilde_norm_formula(bp, p) - riesz_thorin_bound(bp, p)
             for p in (1.0, 4.0 / 3.0, 2.0)]
    assert any(d > 0 for d in diffs)
    assert math.isclose(diffs[0], 0.0, abs_tol=1e-12)  # equal at p = 1


@given(n=st.integers(1, 4), sigma=st.floats(0.05, 3.0))
@settings(max_examples=60, deadline=None)
def test_exact_l2_below_upper_bound(n, sigma):
    bp = BallParams(n, sigma)
    l2 = bergman_exact_norms(bp).l2
    assert l2 <= tilde_norm_formula(bp, 2.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("n, sigma, beta, full", [
    (1, 0.0, 8.0 / math.pi, 1.0 + 8.0 / math.pi),
    (2, 0.0, 6.0, 7.0),
    (1, 1.0, 6.0, 7.0),   # same lam as (2, 0) by coincidence
    (3, 1.0, 30.0, 31.0),
])
def test_bloch_constants(n, sigma, beta, full):
    got = bloch_constants(BallParams(n, sigma))
    assert got.beta_norm == pytest.approx(beta, rel=1e-13)
    assert got.full_norm == pytest.approx(full, rel=1e-13)


# ----------------------------------------------------------------------
# Berezin transform
# ----------------------------------------------------------------------

def test_berezin_norm_values():
    assert berezin_norm(1, 2.0) == pytest.approx(3.0 * math.pi / 4.0, rel=1e-14)
    assert berezin_norm(2, 2.0) == pytest.approx(15.0 * math.pi / 16.0, rel=1e-14)
    assert berezin_norm(3, 4.0) == pytest.approx(1.69211361902515902, rel=1e-13)
    assert berezin_norm(1, 1.1) == pytest.approx(19.3529315444516025, rel=1e-13)
    assert berezin_norm(7, float("inf")) == 1.0


def test_berezin_norm_validation():
    with pytest.raises(ValueError):
        berezin_norm(1, 1.0)
    with pytest.raises(ValueError):
        berezin_norm(1, 0.5)
    with pytest.raises(ValueError):
        berezin_norm(0, 2.0)


def test_berezin_l2_matches_double_factorial_form():
    assert berezin_l2_doublefactorial(1) == pytest.approx(3 * math.pi / 4, rel=1e-14)
    assert berezin_l2_doublefactorial(2) == pytest.approx(15 * math.pi / 16, rel=1e-14)
    assert berezin_l2_doublefactorial(3) == pytest.approx(35 * math.pi / 32, rel=1e-14)
    for n in range(1, 11):
        assert berezin_norm(n, 2.0) == pytest.approx(
            berezin_l2_doublefactorial(n), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_berezin_asymptote_near_p_one(n):
    for p, tol in ((1.01, 0.05), (1.001, 0.005)):
        ratio = berezin_norm(n, p) / berezin_asymptotic_p_to_1(n, p)
        assert abs(ratio - 1.0) < tol
    with pytest.raises(ValueError):
        berezin_asymptotic_p_to_1(n, 1.5)


def test_berezin_disc_is_probability_average():
    f = lambda w: np.ones_like(w, dtype=float)
    for z in (0.0, 0.3, 0.6j, 0.5 + 0.5j, -0.9):
        assert berezin_apply_disc(f, z) == pytest.approx(1.0, abs=1e-10)


def test_berezin_disc_fixes_harmonic_functions():
    f = lambda w: w.real
    for z in (0.0, 0.3, 0.6j, 0.2 - 0.4j):
        assert berezin_apply_disc(f, z) == pytest.approx(complex(z).real,
                                                         abs=1e-8)


def test_berezin_disc_second_moment():
    got = berezin_apply_disc(lambda w: np.abs(w) ** 2, 0.0)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_berezin_disc_guards():
    f = lambda w: np.ones_like(w, dtype=float)
    with pytest.raises(QuadratureError):
        berezin_apply_disc(f, 0.96)
    with pytest.raises(ValueError):
        berezin_apply_disc(f, 1.0 + 0.0j)


def test_berezin_disc_scalar_function_fallback():
    got = berezin_apply_disc(lambda w: abs(w) ** 2, 0.0, radial_order=24,
                             angular_order=32)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_berezin_disc_constant_same_bytes_scalar_or_array():
    # the CLI's probability record samples the constant one as an array;
    # the per-point scalar fallback must give the same bits
    for z in (0.0, 0.3, 0.5 + 0.2j, 0.6j, -0.7, 0.45 - 0.45j, 0.9):
        scalar = berezin_apply_disc(lambda w: 1.0, z)
        array = berezin_apply_disc(lambda w: np.ones(w.shape), z)
        assert scalar.hex() == array.hex()


def test_berezin_radial_reduction_matches_disc_quadrature():
    H = RadialFunction(lambda s: 1.0 + s ** 2)
    f = lambda w: H(np.abs(w) ** 2)
    for r in (0.0, 0.4, 0.8):
        disc_value = berezin_apply_disc(f, r)
        radial_value = berezin_radial_apply(1, H, r * r)
        assert disc_value == pytest.approx(radial_value, rel=1e-12)


def test_berezin_radial_preserves_constants():
    one = RadialFunction(lambda s: np.ones_like(s))
    r2 = np.array([0.0, 0.25, 0.64, 0.9])
    values = berezin_radial_apply(1, one, r2)
    assert np.allclose(values, 1.0, atol=1e-12)
    assert berezin_radial_apply(2, one, 0.5) == pytest.approx(1.0, rel=1e-12)


def _berezin_radial_inline(n, profile, r2, order=DEFAULT_ORDER):
    # the Berezin radial reduction written out with its own 2F1 grid: the
    # bit-for-bit reference for berezin_radial_apply's interval-kernel route
    r2_arr = np.atleast_1d(np.asarray(r2, dtype=float))
    rule = make_jacobi_rule(order, float(n), 1.0)
    values = np.asarray(profile(rule.nodes), dtype=float)
    grid = hyp2f1_grid(float(n + 1), float(n + 1), float(n),
                       np.outer(r2_arr, rule.nodes))
    return (1.0 - r2_arr) ** (n + 1) * (n * (grid * values) @ rule.weights)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_berezin_radial_apply_keeps_inline_bits(n):
    r2 = np.array([0.0, 0.25, 0.5, 0.64, 0.9, 0.99])
    for profile in (lambda s: np.exp(-2.0 * s), lambda s: (1.0 - s) ** -0.2,
                    RadialFunction(lambda s: 1.0 + s ** 2)):
        got = berezin_radial_apply(n, profile, r2)
        want = _berezin_radial_inline(n, profile, r2)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_berezin_radial_rayleigh_quotients_stay_below_norm():
    # ratios ||B h||_p / ||h||_p for radial test functions must respect
    # the closed-form norm (here p = 2, slack 1e-3)
    p = 2.0
    bound = berezin_norm(1, p) * (1.0 + 1e-3)
    grid = np.linspace(0.0, 0.94, 48)
    for profile in (lambda s: np.ones_like(s),
                    lambda s: 1.0 - s,
                    lambda s: (1.0 - s) ** -0.2):
        H = RadialFunction(profile)
        image = berezin_radial_apply(1, H, grid ** 2)
        img_interp = RadialFunction(lambda s: np.interp(np.sqrt(s), grid, image))
        ratio = img_interp.norm(1, p) / H.norm(1, p)
        assert ratio <= bound


def test_tilde_disc_quadrature_matches_radial_reduction():
    H = RadialFunction(lambda s: 1.0 + s ** 2)
    f = lambda w: H(np.abs(w) ** 2)
    for sigma in (0.0, 1.0, 2.0):
        for r in (0.0, 0.4, 0.8):
            direct = tilde_apply_disc(sigma, f, r)
            reduced = radial_apply(BallParams(1, sigma), H, r * r)
            assert direct == pytest.approx(reduced, rel=1e-10)
