"""Tests for the operator layer: parameters, application, discretization,
and the closed-form norm."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergnorm import specfun
from bergnorm.intop import (
    LebesgueExponent,
    OperatorParams,
    UnboundedOperatorError,
    apply,
    boundedness_margin,
    discretize,
    discretize_graded,
    image_of_one,
    kernel_eval,
    norm_formula,
    require_bounded,
)
from bergnorm.specfun import beta_fn, hyp2f1_grid, hyp2f1_outer


def naive_2f1(a, b, c, z, terms=400):
    # independent straight-loop reference for moderate z
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    return total


# ----------------------------------------------------------------------
# parameter bundles
# ----------------------------------------------------------------------

def test_operator_params_derived_lam():
    p = OperatorParams(1.0, 1.0)
    assert p.lam == 1.5
    assert OperatorParams(2.0, 0.5).lam == 1.75


def test_operator_params_validation():
    with pytest.raises(ValueError):
        OperatorParams(0.0, 1.0)
    with pytest.raises(ValueError):
        OperatorParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        OperatorParams(1.0, -1.0)


def test_lebesgue_exponent_conjugation():
    e = LebesgueExponent(4.0 / 3.0)
    assert e.q == pytest.approx(4.0)
    assert e.conjugate.conjugate.p == pytest.approx(e.p)
    assert LebesgueExponent(1.0).q == math.inf
    assert LebesgueExponent(math.inf).inv == 0.0
    assert LebesgueExponent(2.0).q == 2.0
    with pytest.raises(ValueError):
        LebesgueExponent(0.5)


@given(st.floats(min_value=1.0 + 1e-6, max_value=50.0))
def test_lebesgue_exponent_holder_identity(p):
    e = LebesgueExponent(p)
    assert e.inv + e.conjugate.inv == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# kernel and application
# ----------------------------------------------------------------------

def test_kernel_eval_against_naive_series():
    params = OperatorParams(1.0, 1.0)
    got = kernel_eval(params, 0.5, 0.25)
    want = (1.0 - 0.25) ** 1.0 * naive_2f1(1.5, 1.5, 1.0, 0.125)
    assert got == pytest.approx(want, rel=1e-14)


def test_kernel_eval_broadcasts():
    params = OperatorParams(2.0, 0.5)
    s = np.array([0.1, 0.5, 0.9])
    t = np.array([0.2, 0.4, 0.8])
    grid = kernel_eval(params, s[:, None], t[None, :])
    assert grid.shape == (3, 3)
    assert grid[1, 2] == pytest.approx(kernel_eval(params, 0.5, 0.8), rel=1e-14)


def test_apply_constant_function_frozen_value():
    # mu=1, sigma=1, s=0.6; reference computed with 40-digit arithmetic
    params = OperatorParams(1.0, 1.0)
    got = apply(params, lambda t: np.ones_like(t), 0.6)
    assert got == pytest.approx(0.937520085787359787, rel=1e-13)


def test_apply_matches_closed_image_of_one():
    for mu, sigma in [(1.0, 0.0), (1.0, 1.0), (2.0, 0.5), (3.0, 2.0)]:
        params = OperatorParams(mu, sigma)
        s = np.array([0.0, 0.3, 0.6, 0.9])
        got = apply(params, lambda t: np.ones_like(t), s)
        want = image_of_one(params, s)
        assert np.allclose(got, want, rtol=1e-10)


def test_apply_at_s_equals_zero():
    # at s = 0 the kernel collapses to (1-t)^sigma and the image of 1 is
    # mu B(mu, sigma+1) exactly
    from bergnorm.specfun import beta_fn

    params = OperatorParams(2.0, 1.5)
    got = apply(params, lambda t: np.ones_like(t), 0.0)
    assert got == pytest.approx(2.0 * beta_fn(2.0, 2.5), rel=1e-14)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_apply_is_linear(c1, c2, s):
    params = OperatorParams(1.0, 0.5)
    f = lambda t: np.sin(3.0 * t)
    g = lambda t: t ** 2
    combo = apply(params, lambda t: c1 * f(t) + c2 * g(t), s)
    parts = c1 * apply(params, f, s) + c2 * apply(params, g, s)
    assert combo == pytest.approx(parts, rel=1e-11, abs=1e-12)


def test_apply_positivity():
    # the kernel is positive, so nonnegative inputs map to nonnegative images
    params = OperatorParams(2.0, 0.5)
    s = np.linspace(0.0, 0.99, 21)
    out = apply(params, lambda t: np.abs(np.sin(7.0 * t)), s)
    assert np.all(out >= 0.0)


def test_apply_endpoint_power_folding():
    # declaring phi's endpoint powers via phi_alpha/phi_beta must agree with
    # sampling them pointwise at a higher order
    params = OperatorParams(1.0, 1.0)
    a, b = 0.6, -0.4
    s = np.array([0.2, 0.5, 0.8])
    folded = apply(params, lambda t: np.ones_like(t), s, order=64,
                   phi_alpha=a, phi_beta=b)
    pointwise = apply(params, lambda t: t ** a * (1.0 - t) ** b, s, order=512)
    assert np.allclose(folded, pointwise, rtol=5e-6)


def test_apply_rejects_bad_evaluation_points():
    params = OperatorParams(1.0, 0.0)
    with pytest.raises(ValueError):
        apply(params, lambda t: np.ones_like(t), -0.1)
    with pytest.raises(ValueError):
        apply(params, lambda t: np.ones_like(t), 1.5)


# ----------------------------------------------------------------------
# discretization
# ----------------------------------------------------------------------

def test_discretize_matches_apply_on_nodes():
    for mu, sigma, order in [(1.0, 1.0, 64), (2.0, 0.5, 96), (1.0, 0.0, 64)]:
        params = OperatorParams(mu, sigma)
        dop = discretize(params, 2.0, order)
        phi = lambda t: np.cos(3.0 * t) + t ** 2
        via_matrix = dop.apply_values(phi(dop.nodes))
        via_apply = apply(params, phi, dop.nodes, order=order)
        assert np.allclose(via_matrix, via_apply, rtol=1e-12, atol=1e-13)


def test_discretize_shapes_and_positivity():
    dop = discretize(OperatorParams(1.0, 0.5), order=32)
    assert dop.matrix.shape == (32, 32)
    assert dop.order == 32
    assert np.all(dop.matrix > 0.0)
    assert np.all(dop.measure_weights > 0.0)
    with pytest.raises(ValueError):
        dop.apply_values(np.ones(31))


def test_discretize_measure_weights_have_unit_mass_limit():
    # the re-expressed mu t^(mu-1) weights integrate 1 to within the
    # quadrature's ability to resolve the (1-t)^(-sigma) factor
    dop = discretize(OperatorParams(1.0, 0.5), order=256)
    assert dop.measure_weights.sum() == pytest.approx(1.0, abs=2e-4)


def test_discretize_bytes_do_not_depend_on_cache_slices(monkeypatch):
    # order 1024 sums 524,800 grid entries in slices; one slice gives the same bytes
    params = OperatorParams(2.0, 0.5)
    sliced = discretize(params, 2.0, 1024).matrix
    monkeypatch.setattr(specfun, "_CACHE_BLOCK", 1 << 20)
    whole = discretize(params, 2.0, 1024).matrix
    assert sliced.tobytes() == whole.tobytes()


@pytest.mark.parametrize("mu, sigma, order", [
    (1.0, 0.0, 256), (2.0, 0.5, 128), (0.5, -0.5, 64), (3.0, 2.0, 400), (1.5, 1.0, 41),
])
def test_discretize_graded_weights_integrate_the_density(mu, sigma, order):
    # sum_j mu w_j = integral mu t^(mu-1) (1-t)^sigma dt = mu B(mu, sigma+1)
    dop = discretize_graded(OperatorParams(mu, sigma), 2.0, order)
    assert dop.order == order
    assert np.all(np.diff(dop.nodes) > 0.0)
    assert dop.nodes[0] > 0.0 and dop.nodes[-1] < 1.0
    assert mu * dop.rule.weights.sum() == pytest.approx(mu * beta_fn(mu, sigma + 1.0),
                                                        rel=1e-12)


def test_discretize_graded_matrix_is_kernel_times_weights():
    for mu, sigma, order in [(1.0, 0.0, 128), (2.0, 0.5, 96), (0.7, 1.5, 64)]:
        params = OperatorParams(mu, sigma)
        dop = discretize_graded(params, 2.0, order)
        t = dop.nodes
        kernel = kernel_eval(params, t[:, None], t[None, :])
        assert np.allclose(dop.matrix, kernel * dop.measure_weights[None, :],
                           rtol=1e-12, atol=0.0)


def _entry_kinds(t: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The upper-triangle entries (i, j) of hyp2f1_outer's grid on ``t`` by
    the path that sums them: a dgemm block off or on the diagonal, the
    below-cut part of a block that straddles the near-one cut, and the
    corner at or above the cut that goes through hyp2f1_grid."""
    starts = specfun._dyadic_groups(t)
    group = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    top = t[starts[1:] - 1]
    i, j = np.triu_indices(t.size)
    near = 1.0 - t[i] * t[j] < specfun._NEAR_ONE_W
    straddles = 1.0 - top[group[i]] * top[group[j]] < specfun._NEAR_ONE_W
    kinds = {"off-diagonal block": ~straddles & (group[i] != group[j]),
             "diagonal block": ~straddles & (group[i] == group[j]),
             "straddling block": straddles & ~near,
             "corner": near}
    return {kind: (i[mask], j[mask]) for kind, mask in kinds.items()}


@pytest.mark.parametrize("mu, sigma", [(1.0, 0.0), (2.0, 0.5), (0.7, 1.6)])
@pytest.mark.parametrize("build, order", [
    (discretize, 96), (discretize_graded, 64), (discretize, 512),
])
def test_nystrom_matrix_equals_full_grid_assembly(build, order, mu, sigma):
    # the matrix is hyp2f1_outer's symmetric grid scaled by mu and the weights
    import mpmath

    params = OperatorParams(mu, sigma)
    dop = build(params, 2.0, order)
    t, w = dop.nodes, dop.rule.weights
    z = np.outer(t, t)
    assert np.any(1.0 - z < 5e-3)  # the near-one connection route is exercised
    fgrid = hyp2f1_outer(params.lam, params.lam, mu, t)
    assert np.array_equal(fgrid, fgrid.T)
    assert np.array_equal(dop.matrix, mu * fgrid * w[None, :])
    # against hyp2f1_grid at the rounded products: worst 1.38e-14 measured,
    # at (0.7, 1.6), order 512
    reference = hyp2f1_grid(params.lam, params.lam, mu, z)
    np.testing.assert_allclose(fgrid, reference, rtol=2e-14, atol=0.0)
    # against 30 digits at the exact products, two entries of every kind
    rng = np.random.default_rng(order)
    with mpmath.workdps(30):
        lam = (mpmath.mpf(mu) + mpmath.mpf(sigma) + 1) / 2
        for kind, (rows, cols) in _entry_kinds(t).items():
            assert rows.size, kind
            for k in rng.choice(rows.size, size=min(2, rows.size), replace=False):
                i, j = rows[k], cols[k]
                exact = mpmath.hyp2f1(lam, lam, mu, mpmath.mpf(t[i]) * mpmath.mpf(t[j]))
                assert abs(fgrid[i, j] - exact) <= 1e-13 * exact, (kind, i, j)
    # dividing the weights back out rounds, so this symmetry holds to an ulp or two
    grid = dop.matrix / w[None, :]
    np.testing.assert_allclose(grid, grid.T, rtol=4 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("build, mu, sigma", [
    (discretize, 1.0, 0.0), (discretize, 2.0, 0.5), (discretize, 1.0, 1.0),
    (discretize_graded, 1.0, 0.0), (discretize_graded, 2.0, 0.5),
    (discretize_graded, 1.0, 1.0),
])
def test_nystrom_assembly_makes_no_second_matrix(build, mu, sigma):
    # the matrix is the only full-size array: hyp2f1_outer writes each block
    # once and mirrors it, and the matrix is scaled in place.  A group's power
    # table lives from its first block to its last, and the entries for
    # hyp2f1_grid go in slices of specfun._OUTER_SLICE.  About 65% of the
    # graded grid lies in the near-one window, whose connection formulas run
    # in slices of specfun._NEAR_ONE_BLOCK entries; at (1, 1), where c - a - b
    # is an integer, the logarithmic series' blocks of a slice add to the
    # peak.  Measured: 1.95-2.03x on the Jacobi rules, 1.97x, 2.02x and 2.83x
    # on the graded ones
    bound = 4.0 if (build, mu, sigma) == (discretize_graded, 1.0, 1.0) else 3.0
    params = OperatorParams(mu, sigma)
    build(params, 2.0, 512)   # the Gauss-Jacobi rules are cached from here on
    tracemalloc.start()
    try:
        dop = build(params, 2.0, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * dop.matrix.nbytes


def test_discretize_graded_reaches_deep_into_the_corner():
    # one panel per dyadic scale of 1 - t, stopping at 1 - 2^-40
    dop = discretize_graded(OperatorParams(1.0, 0.0), 2.0, 512)
    gaps = 1.0 - dop.nodes
    assert gaps.min() < 2.0 ** -40
    assert gaps.min() > 2.0 ** -50
    assert np.all(np.outer(dop.nodes, dop.nodes) < 1.0)


def test_discretize_graded_rejects_bad_orders():
    for order in (1, 0, 2.5):
        with pytest.raises(ValueError):
            discretize_graded(OperatorParams(1.0, 0.0), 2.0, order)


# ----------------------------------------------------------------------
# closed-form norm
# ----------------------------------------------------------------------

def test_norm_formula_frozen_values():
    assert norm_formula(OperatorParams(1.0, 0.0), 2.0) == pytest.approx(math.pi, rel=1e-14)
    assert norm_formula(OperatorParams(1.0, 1.0), 1.0) == pytest.approx(4.0 / math.pi, rel=1e-14)
    assert norm_formula(OperatorParams(2.0, 0.5), 2.0) == pytest.approx(4.19676657427945325, rel=1e-13)
    assert norm_formula(OperatorParams(1.0, 1.0), 2.0) == pytest.approx(2.0, rel=1e-14)
    # p near 1, where sigma + 1 - 1/p cancels: 50-digit mpmath at the binary p
    assert norm_formula(OperatorParams(1.0, 0.0), 1.0000001) == pytest.approx(
        10000000.994161492729, rel=1e-14)
    assert norm_formula(OperatorParams(1.0, 0.0), 1.001) == pytest.approx(
        1001.0016432927746029, rel=1e-14)


def test_norm_formula_accepts_exponent_objects():
    params = OperatorParams(1.0, 0.0)
    assert norm_formula(params, LebesgueExponent(2.0)) == norm_formula(params, 2.0)


def test_norm_formula_unbounded_cases():
    info = pytest.raises(UnboundedOperatorError, norm_formula, OperatorParams(1.0, 0.0), 1.0)
    assert info.value.growth == "logarithmic"
    assert info.value.margin == 0.0
    info = pytest.raises(UnboundedOperatorError, norm_formula, OperatorParams(1.0, -0.25), 1.2)
    assert info.value.growth == "power"
    assert info.value.margin < 0.0
    info = pytest.raises(UnboundedOperatorError, norm_formula, OperatorParams(1.0, 1.0), math.inf)
    assert info.value.growth == "logarithmic"


def test_boundedness_margin():
    assert boundedness_margin(OperatorParams(1.0, 0.0), 2.0) == pytest.approx(0.5)
    assert boundedness_margin(OperatorParams(1.0, 0.0), 1.0) == 0.0
    assert boundedness_margin(OperatorParams(5.0, 2.0), math.inf) == pytest.approx(3.0)
    params = OperatorParams(2.0, 0.5)
    for p in (1.0, 4.0 / 3.0, 3.0):
        assert require_bounded(params, p) == boundedness_margin(params, p)


@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=1.0, max_value=20.0))
@settings(max_examples=50, deadline=None)
def test_norm_formula_positive_when_bounded(mu, sigma, p):
    params = OperatorParams(mu, sigma)
    if boundedness_margin(params, p) <= 0.0:
        return
    assert norm_formula(params, p) > 0.0


@given(st.floats(min_value=1.05, max_value=20.0))
@settings(max_examples=30, deadline=None)
def test_norm_formula_p_one_continuity(p):
    # as p -> 1+ the general formula tends to the p = 1 expression
    params = OperatorParams(1.5, 0.8)
    along = norm_formula(params, 1.0 + (p - 1.0) * 1e-7)
    at_one = norm_formula(params, 1.0)
    assert along == pytest.approx(at_one, rel=1e-4)
