"""Tests for the scalar special-function layer.

Reference values were computed independently with mpmath at 40 decimal
digits and frozen here; the library itself never imports mpmath.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergnorm import specfun
from bergnorm.specfun import (
    ConvergenceError,
    DivergenceError,
    HypArgs,
    beta_fn,
    diag_sup,
    digamma,
    hyp2f1,
    hyp2f1_at_one,
    hyp2f1_grid,
    log_gamma,
    pochhammer,
)

np = pytest.importorskip("numpy")


# ----------------------------------------------------------------------
# log_gamma / digamma / beta
# ----------------------------------------------------------------------

LGAMMA_CASES = [
    (0.5, 0.572364942924700087),
    (1e-6, 13.8155099807494317),
    (0.2, 1.52406382243078452),
    (1.0, 0.0),
    (2.0, 0.0),
    (10.3, 13.482036786138357),
    (1234.5, 7550.5509010778949),
    (1e6, 12815504.5691476117),
]


@pytest.mark.parametrize("x,expected", LGAMMA_CASES)
def test_log_gamma_frozen_values(x, expected):
    got = log_gamma(x)
    # |ln Gamma| grows to ~1.3e7 on this range; near the top of the range a
    # single ulp of the result is ~2e-9 absolute, so the tolerance must be
    # relative once the magnitude exceeds 1.
    tol = 1e-13 * max(1.0, abs(expected))
    assert got == pytest.approx(expected, abs=tol)


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_gamma(bad)


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_log_gamma_reflection(x):
    # Gamma(x) Gamma(1-x) = pi / sin(pi x) on (0,1)
    lhs = log_gamma(x) + log_gamma(1.0 - x)
    rhs = math.log(math.pi / math.sin(math.pi * x))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=1e-3, max_value=500.0))
def test_log_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x)
    assert log_gamma(x + 1.0) == pytest.approx(
        log_gamma(x) + math.log(x), rel=1e-12, abs=1e-12)


DIGAMMA_CASES = [
    (0.25, -4.22745353337626541),
    (1.0, -0.577215664901532861),
    (3.7, 1.16715353936151139),
    (15.2, 2.68804015890075846),
]


@pytest.mark.parametrize("x,expected", DIGAMMA_CASES)
def test_digamma_frozen_values(x, expected):
    assert digamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_digamma_recurrence(x):
    # psi(x+1) = psi(x) + 1/x
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-11, abs=1e-11)


def test_digamma_negative_argument():
    # reflection through psi(1-x) - pi/tan(pi x); check against the
    # recurrence run backwards from a positive argument
    x = -0.7
    assert digamma(x) == pytest.approx(digamma(x + 1.0) - 1.0 / x, rel=1e-12)
    with pytest.raises(ValueError):
        digamma(-3.0)


def test_beta_frozen_values():
    assert beta_fn(1.5, 1.5) == pytest.approx(0.392699081698724155, rel=1e-14)
    assert beta_fn(0.3, 2.7) == pytest.approx(2.31051713608330523, rel=1e-14)
    assert beta_fn(1.0, 1.0) == 1.0


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
def test_beta_symmetry_and_recurrence(a, b):
    assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-13)
    # B(a+1,b) = a/(a+b) B(a,b)
    assert beta_fn(a + 1.0, b) == pytest.approx(a / (a + b) * beta_fn(a, b), rel=1e-12)


# ----------------------------------------------------------------------
# pochhammer
# ----------------------------------------------------------------------

def test_pochhammer_base_cases():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(0.5, 5) == pytest.approx(0.5 * 1.5 * 2.5 * 3.5 * 4.5, rel=1e-15)
    assert pochhammer(-2.0, 4) == 0.0
    assert pochhammer(-2.5, 3) == pytest.approx(-2.5 * -1.5 * -0.5, rel=1e-15)
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_pochhammer_paths_agree():
    # the product path and the log-gamma path must agree across the switch
    for q in (0.3, 1.0, 4.5):
        for k in (30, 31, 32, 33, 34, 64):
            via_logs = math.exp(log_gamma(q + k) - log_gamma(q))
            assert pochhammer(q, k) == pytest.approx(via_logs, rel=1e-12)


@given(st.floats(min_value=-10.0, max_value=10.0).filter(lambda q: abs(q) > 1e-6),
       st.integers(min_value=0, max_value=40))
def test_pochhammer_recurrence(q, k):
    assert pochhammer(q, k + 1) == pytest.approx(
        pochhammer(q, k) * (q + k), rel=1e-10, abs=1e-280)


# ----------------------------------------------------------------------
# 2F1: frozen values, domain, identities
# ----------------------------------------------------------------------

HYP_CASES = [
    # interior arguments
    (1.5, 1.5, 1.0, 0.25, 1.89074561773042658),
    (1.0, 1.0, 1.5, 0.7, 2.16288099184522801),
    (0.3, 2.2, 1.7, 0.95, 4.58208060410859714),
    (2.5, 1.2, 3.9, 0.5, 1.64254153604060781),
    (1.5, 1.5, 3.0, 0.99, 8.83697431874918797),
    # connection-formula territory, generic exponent
    (0.75, 0.75, 1.75, 1.0 - 2.0 ** -30, 3.31558939074985568),
    (0.75, 0.75, 1.25, 1.0 - 2.0 ** -40, 2239.54795243021779),
    # connection formula, logarithmic cases (c-a-b a non-negative integer)
    (0.5, 0.5, 1.0, 1.0 - 2.0 ** -30, 7.50161040678853436),
    (1.0, 1.0, 2.0, 1.0 - 2.0 ** -30, 20.7944154361646678),
    (0.5, 0.5, 2.0, 1.0 - 2.0 ** -30, 1.27323953863809111),
    (1.25, 1.25, 2.0, 1.0 - 2.0 ** -30, 70691.6635358317449),
    # steep power growth near 1
    (1.5, 1.5, 1.0, 1.0 - 2.0 ** -20, 1399941350608.98712),
]


@pytest.mark.parametrize("a,b,c,z,expected", HYP_CASES)
def test_hyp2f1_frozen_values(a, b, c, z, expected):
    assert hyp2f1(HypArgs(a, b, c, z)) == pytest.approx(expected, rel=5e-13)


def test_hyp2f1_trivial_points():
    assert hyp2f1(HypArgs(1.3, 0.2, 2.4, 0.0)) == 1.0
    # terminating series is a polynomial evaluated exactly
    assert hyp2f1(HypArgs(-2.0, 1.0, 1.0, 0.5)) == pytest.approx(
        1.0 - 2.0 * 0.5 + 0.5 ** 2, rel=1e-15)


def test_hyp2f1_domain_validation():
    with pytest.raises(ValueError):
        HypArgs(1.0, 1.0, 0.0, 0.5)          # c a non-positive integer
    with pytest.raises(ValueError):
        HypArgs(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        HypArgs(1.0, 1.0, 1.5, -0.1)         # z out of range
    with pytest.raises(ValueError):
        HypArgs(1.0, 1.0, 1.5, 1.1)
    with pytest.raises(DivergenceError):
        HypArgs(1.0, 1.0, 2.0, 1.0)          # c-a-b = 0 at z = 1


def test_hyp2f1_at_one_gauss_values():
    # 2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))
    assert hyp2f1_at_one(0.5, 0.5, 1.5) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert hyp2f1_at_one(1.0, 1.0, 3.0) == pytest.approx(2.0, rel=1e-14)
    info = pytest.raises(DivergenceError, hyp2f1_at_one, 1.5, 1.5, 2.0)
    assert info.value.growth == "power"
    assert info.value.exponent == pytest.approx(-1.0)
    info = pytest.raises(DivergenceError, hyp2f1_at_one, 0.75, 1.25, 2.0)
    assert info.value.growth == "logarithmic"


@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=0.0, max_value=0.98))
@settings(max_examples=60, deadline=None)
def test_hyp2f1_euler_transform(a, b, c, z):
    # (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) = 2F1(a, b; c; z)
    lhs = (1.0 - z) ** (c - a - b) * hyp2f1(HypArgs(c - a, c - b, c, z))
    rhs = hyp2f1(HypArgs(a, b, c, z))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@given(st.floats(min_value=0.2, max_value=2.5),
       st.floats(min_value=0.2, max_value=2.5),
       st.floats(min_value=1.05, max_value=3.0),
       st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_hyp2f1_contiguous_relation(a, b, c, z):
    # Gauss contiguous relation in the c parameter:
    #   c(c-1)(z-1) F(c-1) + c(c-1-(2c-a-b-1)z) F(c) + (c-a)(c-b) z F(c+1) = 0
    # (a structural check tying three separately computed values together)
    f_cm = hyp2f1(HypArgs(a, b, c - 1.0, z))
    f_c = hyp2f1(HypArgs(a, b, c, z))
    f_cp = hyp2f1(HypArgs(a, b, c + 1.0, z))
    resid = (c * (c - 1.0) * (z - 1.0) * f_cm
             + c * (c - 1.0 - (2.0 * c - a - b - 1.0) * z) * f_c
             + (c - a) * (c - b) * z * f_cp)
    scale = max(abs(f_cm), abs(f_c), abs(f_cp), 1.0) * c * (abs(c) + 1.0)
    assert abs(resid) <= 1e-10 * scale


def test_hyp2f1_near_one_continuity():
    # the route switch at 1-z = 5e-3 must be seamless
    for a, b, c in [(1.5, 1.5, 1.0), (0.75, 0.75, 1.75), (1.0, 1.0, 2.0)]:
        just_below = hyp2f1(HypArgs(a, b, c, 1.0 - 5.1e-3))
        just_above = hyp2f1(HypArgs(a, b, c, 1.0 - 4.9e-3))
        # values straddle the switch; compare each against a mid-step slope
        mid = hyp2f1(HypArgs(a, b, c, 1.0 - 5.0e-3))
        assert just_below <= mid <= just_above  # monotone in z here
        assert abs(just_above / just_below - 1.0) < 0.2


def test_hyp2f1_grid_matches_scalar():
    rng = np.random.default_rng(7)
    z = np.concatenate([rng.uniform(0.0, 0.999, 64), 1.0 - 2.0 ** -np.arange(10, 41, 6)])
    for a, b, c in [(1.5, 1.5, 1.0), (1.0, 1.0, 2.0), (0.75, 0.75, 1.75), (2.0, 2.0, 2.0)]:
        grid = hyp2f1_grid(a, b, c, z)
        scalar = np.array([hyp2f1(HypArgs(a, b, c, float(zz))) for zz in z])
        assert np.allclose(grid, scalar, rtol=1e-12)


def test_hyp2f1_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hyp2f1_grid(1.0, 1.0, 2.0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        hyp2f1_grid(1.0, 1.0, 2.0, np.array([-0.1]))


def _masked_series_vec(a, b, c, z):
    """The masked series loop ``specfun._series_vec`` replaced, kept as the
    reference its packed loop must reproduce byte for byte."""
    out = np.ones_like(z)
    term = np.ones_like(z)
    small = np.zeros(z.shape, dtype=np.int64)
    active = np.arange(z.size)
    zf = z.ravel()
    outf = out.ravel()
    termf = term.ravel()
    smallf = small.ravel()
    k = 0
    while active.size:
        for _ in range(64):
            ratio = (a + k) * (b + k) / ((c + k) * (k + 1))
            termf[active] *= ratio * zf[active]
            outf[active] += termf[active]
            k += 1
        t = np.abs(termf[active])
        tiny = t < specfun._SERIES_RTOL * np.abs(outf[active])
        smallf[active] = np.where(tiny, smallf[active] + 64, 0)
        active = active[smallf[active] < specfun._SERIES_CONSEC]
        if k >= specfun._SERIES_CAP and active.size:
            raise ConvergenceError(
                f"2F1 series exceeded {specfun._SERIES_CAP} terms on a grid; worst z = "
                f"{zf[active].max()} at (a={a}, b={b}, c={c})")
    return out


@pytest.mark.parametrize("a, b, c", [
    (0.3, 0.7, 1.9),     # d = c-a-b > 0: raw series in both bands
    (1.0, 1.0, 2.0),     # d = 0
    (1.5, 1.5, 1.0),     # d < 0: Euler transform in the mid band
    (1.25, 1.25, 2.0),   # d < 0
    (-3.0, 1.5, 2.2),    # terminating: the 2-D grid goes straight to the series
])
def test_hyp2f1_grid_matches_masked_reference_bytes(monkeypatch, a, b, c):
    rng = np.random.default_rng(11)
    z = rng.uniform(0.0, 0.995, (120, 120))
    packed = hyp2f1_grid(a, b, c, z)
    monkeypatch.setattr(specfun, "_series_vec", _masked_series_vec)
    masked = hyp2f1_grid(a, b, c, z)
    assert packed.shape == z.shape
    assert packed.tobytes() == masked.tobytes()


def test_series_vec_matches_masked_reference_on_edge_shapes():
    rng = np.random.default_rng(12)
    for z in (np.empty(0), rng.uniform(0.0, 0.7, (7, 9)), np.array([0.0, 0.7])):
        packed = specfun._series_vec(0.6, 1.4, 2.3, z)
        assert packed.shape == z.shape
        assert packed.tobytes() == _masked_series_vec(0.6, 1.4, 2.3, z).tobytes()


def test_hyp2f1_grid_terminating_path_ignores_memory_layout():
    # a transposed (Fortran-ordered) grid gives the values of its C-ordered copy
    z = np.random.default_rng(13).uniform(0.0, 0.999, (40, 30)).T
    assert np.array_equal(hyp2f1_grid(-3.0, 1.5, 2.2, z),
                          hyp2f1_grid(-3.0, 1.5, 2.2, np.ascontiguousarray(z)))


def test_hyp2f1_grid_cap_names_worst_unconverged_z(monkeypatch):
    # with 64 terms, 0.05 and 0.3 converge and 0.65 does not; the error
    # comes from the low band, before 0.9 is ever summed
    monkeypatch.setattr(specfun, "_SERIES_CAP", 64)
    with pytest.raises(ConvergenceError) as excinfo:
        hyp2f1_grid(1.0, 1.0, 2.0, np.array([0.05, 0.65, 0.3, 0.62, 0.9]))
    assert "exceeded 64 terms" in str(excinfo.value)
    assert "worst z = 0.65 at (a=1.0, b=1.0, c=2.0)" in str(excinfo.value)


def test_series_cap_raises():
    # a starved term budget must surface as ConvergenceError, never a
    # silently truncated sum
    from bergnorm import specfun

    old = specfun._SERIES_CAP
    specfun._SERIES_CAP = 50
    try:
        with pytest.raises(ConvergenceError):
            specfun._series(1.0, 1.0, 2.0, 0.99)
    finally:
        specfun._SERIES_CAP = old


# ----------------------------------------------------------------------
# near-one connection route
# ----------------------------------------------------------------------

def _scalar_near_one(a, b, c, z):
    """The per-entry connection-formula evaluator that ``specfun._near_one_vec``
    replaced, kept as the reference its array route must reproduce bit for
    bit (connection formulas of DLMF §15.8)."""
    w = 1.0 - z
    d = c - a - b
    prefactor_log = 0.0
    if d < 0.0:
        prefactor_log = d * math.log(w)
        a, b = c - a, c - b
        d = -d
    m = round(d)
    if abs(d - m) > specfun._INT_SNAP:
        s1 = specfun.gamma_ratio_log((c, d), (c - a, c - b))
        s2 = specfun.gamma_ratio_log((c, -d), (a, b))
        val = (s1 * specfun._series(a, b, 1.0 - d, w)
               + s2 * math.exp(d * math.log(w)) * specfun._series(c - a, c - b, 1.0 + d, w))
        return math.exp(prefactor_log) * val
    m = int(m)
    logw = math.log(w)
    if m == 0:
        front = specfun.gamma_ratio_log((c,), (a, b))
        total = 0.0
        term = 1.0
        for n in range(specfun._SERIES_CAP):
            bracket = 2.0 * digamma(n + 1.0) - digamma(a + n) - digamma(b + n) - logw
            total += term * bracket
            term *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0)) * w
            if abs(term) < specfun._SERIES_RTOL * abs(total) and n > 2:
                break
        return math.exp(prefactor_log) * front * total
    finite = 0.0
    term = 1.0
    for n in range(m):
        finite += term
        if n + 1 < m:
            term *= (a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n)) * w
    first = specfun.gamma_ratio_log((float(m), c), (a + m, b + m)) * finite
    ga, sa = specfun._log_gamma_signed(a)
    gb, sb = specfun._log_gamma_signed(b)
    if sa == 0.0 or sb == 0.0:
        second = 0.0
    else:
        front = sa * sb * math.exp(log_gamma(c) - ga - gb + m * logw)
        total = 0.0
        term = 1.0 / math.exp(log_gamma(m + 1.0))
        for n in range(specfun._SERIES_CAP):
            bracket = (logw - digamma(n + 1.0) - digamma(n + m + 1.0)
                       + digamma(a + n + m) + digamma(b + n + m))
            total += term * bracket
            term *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
            if abs(term * logw) < specfun._SERIES_RTOL * abs(total) and n > 2:
                break
        second = -((-1.0) ** m) * front * total
    return math.exp(prefactor_log) * (first + second)


def _outcome(f):
    """The bytes of f()'s array, or the type of the exception it raises."""
    try:
        return np.asarray(f(), dtype=float).tobytes()
    except (ArithmeticError, ValueError, ConvergenceError) as exc:
        return type(exc)


NEAR_ONE_CASES = [
    (0.75, 0.75, 1.75),         # generic, d = c-a-b = 0.25
    (0.3, 2.2, 4.1),            # generic, d = 1.6
    (1.25, 1.25, 2.0),          # generic, d = -0.5: Euler swap first
    (2.2, 1.7, 1.3),            # generic, d = -2.6
    (0.5, 0.5, 1.0),            # logarithmic, m = 0
    (0.5, 0.5, 2.0),            # m = 1
    (0.3, 0.9, 3.2),            # m = 2
    (1.5, 1.5, 1.0),            # d = -2: swap, then m = 2
    (0.4, 1.1, 4.5),            # m = 3
    (30.0, 20.0, 51.0),         # m = 1 with large a, b: the log branch dominates,
    (20.0, 20.0, 43.0),         # m = 3     so the order of its bracket shows
    (0.6, 0.6, 1.2 + 7e-7),     # within 1e-6 of m = 0: snapped to the log case
    (0.6, 0.6, 1.2 - 9e-7),     # d < 0 within 1e-6 of 0: swap, then snapped
    (1.3, 1.3, 3.6 - 4e-7),     # snapped to m = 1
    (1.3, 1.3, 4.6 + 3e-6),     # just past the snap: generic with d ~ 2
    (3.0, 1.0, 2.0),            # swap gives a = -1: the 1/Gamma pole drops the log branch
    (280.0, 60.0, 320.5),       # overflows to inf in float arithmetic, silently
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cap", [None, 6])
@pytest.mark.parametrize("a, b, c", NEAR_ONE_CASES)
def test_near_one_vec_matches_scalar_reference(monkeypatch, a, b, c, cap):
    # with the term cap cut to 6 the generic series raise and the
    # logarithmic ones stop at the cap, on both routes alike
    if cap is not None:
        monkeypatch.setattr(specfun, "_SERIES_CAP", cap)
    rng = np.random.default_rng(17)
    w = np.concatenate([[1e-15, 5e-3 * (1.0 - 1e-12)], 10.0 ** rng.uniform(-15.0, -2.31, 200)])
    for z in (1.0 - w, 1.0 - w[-1:], np.empty(0)):
        ref = _outcome(lambda: [_scalar_near_one(a, b, c, x) for x in z.tolist()])
        assert _outcome(lambda: specfun._near_one_vec(a, b, c, z)) == ref


@pytest.mark.parametrize("a, b, c, cap, exc", [
    (-1.2, -0.3, -0.5, None, ValueError),       # m = 1 needs log_gamma(c) with c < 0
    (0.75, 0.75, 1.75, 5, ConvergenceError),    # generic series starved of terms
])
def test_near_one_vec_raises_like_scalar(monkeypatch, a, b, c, cap, exc):
    if cap is not None:
        monkeypatch.setattr(specfun, "_SERIES_CAP", cap)
    z = 1.0 - np.array([1e-3, 1e-9])
    with pytest.raises(exc):
        _scalar_near_one(a, b, c, float(z[0]))
    with pytest.raises(exc):
        specfun._near_one_vec(a, b, c, z)


@pytest.mark.parametrize("a, b, c", [(0.75, 0.75, 1.75), (1.0, 1.0, 2.0), (1.5, 1.5, 1.0)])
def test_hyp2f1_near_one_window_uses_the_connection_route(a, b, c):
    # the grid and the scalar evaluator both send 1-z < 5e-3 to it
    z = 1.0 - np.array([4.9e-3, 1e-6, 2.0 ** -40])
    ref = np.array([_scalar_near_one(a, b, c, x) for x in z.tolist()])
    assert hyp2f1_grid(a, b, c, z).tobytes() == ref.tobytes()
    scalar = [hyp2f1(HypArgs(a, b, c, x)) for x in z.tolist()]
    assert all(type(v) is float for v in scalar)
    assert np.array(scalar).tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# diagonal-parameter sup classification
# ----------------------------------------------------------------------

def test_diag_sup_bounded():
    r = diag_sup(0.75, 2.0)
    assert r.bounded
    assert r.value == pytest.approx(hyp2f1_at_one(0.75, 0.75, 2.0), rel=1e-13)


def test_diag_sup_logarithmic():
    r = diag_sup(1.0, 2.0)
    assert r.kind == "logarithmic"
    # Gamma(2)/Gamma(1)^2 = 1
    assert r.value == pytest.approx(1.0, rel=1e-13)
    # empirical: F(1,1;2;r) = -log(1-r)/r, so F / (value*log(1/(1-r))) -> 1
    z = 1.0 - 2.0 ** -30
    growth = hyp2f1(HypArgs(1.0, 1.0, 2.0, z))
    assert growth / (r.value * math.log(1.0 / (1.0 - z))) == pytest.approx(1.0, rel=1e-6)


def test_diag_sup_power():
    r = diag_sup(1.5, 2.0)
    assert r.kind == "power"
    assert r.exponent == pytest.approx(-1.0)
    assert r.value == pytest.approx(4.0 / math.pi, rel=1e-13)
    # empirical growth check: F(1.5,1.5;2;z) ~ (4/pi) (1-z)^{-1}
    z = 1.0 - 2.0 ** -34
    growth = hyp2f1(HypArgs(1.5, 1.5, 2.0, z))
    assert growth * (1.0 - z) == pytest.approx(4.0 / math.pi, rel=1e-4)


@given(st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=0.3, max_value=4.5))
@settings(max_examples=40, deadline=None)
def test_diag_sup_consistent_with_at_one(x, y):
    gap = y - 2.0 * x
    if abs(gap) < 1e-6:
        return
    r = diag_sup(x, y)
    if gap > 0:
        assert r.bounded
        # the declared sup dominates the function on a sample grid
        for z in (0.3, 0.9, 1.0 - 1e-8):
            assert hyp2f1(HypArgs(x, x, y, z)) <= r.value * (1.0 + 1e-12)
    else:
        assert r.kind == "power"
        assert r.exponent == pytest.approx(gap, rel=1e-12)
