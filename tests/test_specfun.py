"""Tests for the special-function layer.

Reference values were computed independently with mpmath at 40 decimal
digits and frozen here; the library itself never imports mpmath.
"""

import math
import warnings

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

from bergnorm import specfun
from bergnorm.specfun import (
    ConvergenceError,
    DivergenceError,
    beta_fn,
    hyp2f1,
    hyp2f1_at_one,
    hyp2f1_grid,
    log_gamma,
)

np = pytest.importorskip("numpy")


# ----------------------------------------------------------------------
# log_gamma / digamma limit / beta
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


def _psi(x):
    """psi(x), the e = 0 limit of (Gamma(x+e)/Gamma(x) - 1)/e."""
    return specfun._gamma_ratio_m1(x, 0.0)


@pytest.mark.parametrize("x,expected", DIGAMMA_CASES)
def test_digamma_frozen_values(x, expected):
    assert _psi(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_digamma_recurrence(x):
    # psi(x+1) = psi(x) + 1/x
    assert _psi(x + 1.0) == pytest.approx(_psi(x) + 1.0 / x, rel=1e-11, abs=1e-11)


def test_digamma_negative_argument():
    # the recurrence carries a negative non-pole argument up to the
    # Stirling series; check it against psi(1-x) - pi/tan(pi x), the
    # reflection formula, and the recurrence run backwards
    x = -0.7
    assert _psi(x) == pytest.approx(_psi(x + 1.0) - 1.0 / x, rel=1e-12)
    assert _psi(x) == pytest.approx(_psi(1.0 - x) - math.pi / math.tan(math.pi * x), rel=1e-12)


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
    assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=5e-13)


def test_hyp2f1_trivial_points():
    assert hyp2f1(1.3, 0.2, 2.4, 0.0) == 1.0
    # terminating series is a polynomial evaluated exactly
    assert hyp2f1(-2.0, 1.0, 1.0, 0.5) == pytest.approx(
        1.0 - 2.0 * 0.5 + 0.5 ** 2, rel=1e-15)


def test_hyp2f1_domain_validation():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 0.0, 0.5)          # c a non-positive integer
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, -2.0, 0.5)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 1.5, -0.1)         # z out of range
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 1.5, 1.1)
    with pytest.raises(DivergenceError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)          # c-a-b = 0 at z = 1


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
    lhs = (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
    rhs = hyp2f1(a, b, c, z)
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
    f_cm = hyp2f1(a, b, c - 1.0, z)
    f_c = hyp2f1(a, b, c, z)
    f_cp = hyp2f1(a, b, c + 1.0, z)
    resid = (c * (c - 1.0) * (z - 1.0) * f_cm
             + c * (c - 1.0 - (2.0 * c - a - b - 1.0) * z) * f_c
             + (c - a) * (c - b) * z * f_cp)
    scale = max(abs(f_cm), abs(f_c), abs(f_cp), 1.0) * c * (abs(c) + 1.0)
    assert abs(resid) <= 1e-10 * scale


def test_hyp2f1_near_one_continuity():
    # the route switch at 1-z = 2e-2 must be seamless
    for a, b, c in [(1.5, 1.5, 1.0), (0.75, 0.75, 1.75), (1.0, 1.0, 2.0)]:
        just_below = hyp2f1(a, b, c, 1.0 - 2.04e-2)
        just_above = hyp2f1(a, b, c, 1.0 - 1.96e-2)
        # values straddle the switch; compare each against a mid-step slope
        mid = hyp2f1(a, b, c, 1.0 - 2.0e-2)
        assert just_below <= mid <= just_above  # monotone in z here
        assert abs(just_above / just_below - 1.0) < 0.2


HYP2F1_BANDS = [
    # (a, b, c, z): one parameter set per route of hyp2f1_grid
    (1.3, 0.4, 2.1, np.linspace(0.0, 0.7, 41)),           # raw series
    (1.5, 1.5, 1.0, 1.0 - np.geomspace(2e-2, 0.3, 41)),   # Euler transform
    (0.75, 0.75, 1.75, 1.0 - np.geomspace(1e-15, 0.019, 41)),  # connection
    (-3.0, 1.5, 2.2, np.linspace(0.0, 0.999, 41)),        # terminating
]


def test_hyp2f1_grid_matches_scalar():
    # hyp2f1 is the one-entry call of hyp2f1_grid (same bits in every band),
    # plus Gauss summation at z = 1
    for a, b, c, z in HYP2F1_BANDS:
        grid = hyp2f1_grid(a, b, c, z)
        for x, g in zip(z.tolist(), grid.tolist()):
            got = hyp2f1(a, b, c, x)
            assert type(got) is float
            assert got.hex() == g.hex(), (a, b, c, x)
        assert hyp2f1(a, b, c, 0.0) == 1.0
        if c - a - b > 0.0:
            assert hyp2f1(a, b, c, 1.0) == hyp2f1_at_one(a, b, c)


def test_hyp2f1_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hyp2f1_grid(1.0, 1.0, 2.0, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        hyp2f1_grid(1.0, 1.0, 2.0, np.array([-0.1]))


def test_hyp2f1_grid_rejects_a_pole_c_like_hyp2f1():
    # c = -1 used to divide by zero in the series and return inf/nan;
    # hyp2f1 checks c before anything else, Gauss summation at z = 1 too
    with pytest.raises(ValueError) as expected:
        hyp2f1(0.5, 0.5, -1.0, 1.0)
    z = np.linspace(0.0, 0.99, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (-1.0, np.float64(-1.0), np.array([1.5, 2.0, -1.0])[:, None]):
            zz = np.broadcast_to(z, (3, 9)) if np.ndim(c) else z
            with pytest.raises(ValueError) as got:
                hyp2f1_grid(0.5, 0.5, c, zz)
            assert str(got.value) == str(expected.value)
        # one bad entry among many sets, and an empty grid
        c = np.array([1.5, 0.0, 2.5, 3.25])
        with pytest.raises(ValueError, match="non-positive integer, got 0.0"):
            hyp2f1_grid(np.array([0.3, 0.4, 0.5, 0.6]), 0.5, c, np.full(4, 0.5))
        with pytest.raises(ValueError, match="non-positive integer, got -2.0"):
            hyp2f1_grid(0.5, 0.5, np.array([[-2.0]]), np.empty((1, 0)))


@pytest.mark.parametrize("param_shape, z_shape", [
    ((3,), (4,)),       # no broadcast at all
    ((2, 5), (2, 1)),   # would grow the output past z's shape
    ((3, 1), (3,)),     # likewise, to (3, 3)
    ((2,), ()),         # arrays against a scalar z
])
def test_hyp2f1_grid_rejects_parameters_that_do_not_fit_z(param_shape, z_shape):
    with pytest.raises(ValueError, match="do not broadcast"):
        hyp2f1_grid(np.full(param_shape, 0.5), 0.5, 1.5, np.full(z_shape, 0.25))


def _one_set_kind(kind, a, b, m, free):
    """c for one parameter-set kind, from dyadic a and b (so that c - a - b
    is exact where the kind needs it) and a free float in [0, 1)."""
    if kind == "low-or-free":
        return 0.2 + 4.8 * free
    if kind == "euler":          # d < 0
        return 0.05 + (a + b - 0.1) * free
    if kind == "log":            # d = 0, 1 or 2 exactly
        return a + b + m
    if kind == "narrow":         # d within 0.1 of an integer, off it
        return max(a + b + m + 0.198 * free - 0.099, 0.05)
    return 0.2 + 4.8 * free      # terminating: a = -3


_KINDS = ("low-or-free", "euler", "log", "narrow", "terminating")


@st.composite
def _parameter_set(draw):
    kind = draw(st.sampled_from(_KINDS))
    a = draw(st.integers(4, 160)) / 64.0
    b = draw(st.integers(4, 160)) / 64.0
    c = _one_set_kind(kind, a, b, draw(st.integers(0, 2)),
                      draw(st.floats(0.0, 1.0, exclude_max=True)))
    return (-3.0 if kind == "terminating" else a), b, c


def _band_grid(rows, n, seed):
    """An (rows, n) grid whose entry (r, j) comes from band (r + j) % 5:
    z = 0, the raw band, the mid band, and the near-one window on
    5e-3 <= 1-z < 2e-2 and below it down to 1 - 1e-13."""
    rng = np.random.default_rng(seed)
    bands = (lambda: 0.0, lambda: rng.uniform(0.0, 0.7), lambda: rng.uniform(0.7, 0.98),
             lambda: 1.0 - rng.uniform(5e-3, 2e-2), lambda: 1.0 - 10.0 ** -rng.uniform(2.3, 13.0))
    return np.array([[bands[(r + j) % 5]() for j in range(n)] for r in range(rows)]).reshape(rows, n)


# every kind, and every band in every row
_EVERY_KIND = [(1.3, 0.4, 2.1), (1.5, 1.5, 1.0), (0.75, 0.75, 1.75), (1.0, 1.0, 2.0),
               (0.5, 0.5, 2.0), (0.25, 0.5, 2.75), (0.5, 0.5, 2.05), (1.25, 1.25, 1.45),
               (-3.0, 1.5, 2.2), (3.0, 1.25, 2.0)]


@given(sets=st.lists(_parameter_set(), min_size=1, max_size=5),
       n=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
@example(sets=_EVERY_KIND, n=5, seed=0)
@example(sets=_EVERY_KIND[:3], n=0, seed=0)
@settings(max_examples=25, deadline=None)
def test_hyp2f1_grid_multi_set_matches_one_set_calls(sets, n, seed):
    # an (R, 1) column of parameter sets against an (R, n) grid, and the
    # same entries flattened with a parameter per entry, give the bits of
    # one one-set call per row
    z = _band_grid(len(sets), n, seed)
    a, b, c = np.array(sets).T[:, :, None]
    grid = hyp2f1_grid(a, b, c, z)
    assert grid.shape == z.shape
    flat = hyp2f1_grid(*(np.broadcast_to(p, z.shape).ravel() for p in (a, b, c)), z.ravel())
    assert flat.tobytes() == grid.tobytes()
    for (pa, pb, pc), zr, row in zip(sets, z, grid.tolist()):
        ref = hyp2f1_grid(pa, pb, pc, zr).tolist()
        assert [v.hex() for v in row] == [v.hex() for v in ref], (pa, pb, pc)


def _chunk(k):
    """Terms in the raw-series chunk that starts after k terms: 16, 16, 32, then 64."""
    return min(specfun._CHUNK_MAX, max(specfun._CHUNK_MIN, k))


def _masked_series(a, b, c, z):
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
        for _ in range(_chunk(k)):
            ratio = (a + k) * (b + k) / ((c + k) * (k + 1))
            termf[active] *= ratio * zf[active]
            outf[active] += termf[active]
            k += 1
        t = np.abs(termf[active])
        tiny = t < specfun._SERIES_RTOL * np.abs(outf[active])
        smallf[active] = np.where(tiny, smallf[active] + 64, 0)
        active = active[smallf[active] < 3]
        if k >= specfun._SERIES_CAP and active.size:
            raise ConvergenceError(
                f"2F1 series exceeded {specfun._SERIES_CAP} terms on a grid; worst z = "
                f"{zf[active].max()} at (a={a}, b={b}, c={c})")
    return out


def _masked_series_vec(table, rows, z):
    """``_masked_series`` with ``specfun._series_vec``'s signature: each
    entry summed with its own row of the (a, b, c) table."""
    if rows is None:
        return _masked_series(*np.asarray(table).tolist()[0], z)
    out = np.empty(z.shape)
    for r, (a, b, c) in enumerate(np.asarray(table).tolist()):
        sel = rows == r
        out[sel] = _masked_series(a, b, c, z[sel])
    return out


def _one_set(a, b, c):
    """The parameter table of a one-set ``_series_vec`` call."""
    return np.array([[a, b, c]])


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
        packed = specfun._series_vec(_one_set(0.6, 1.4, 2.3), None, z)
        assert packed.shape == z.shape
        assert packed.tobytes() == _masked_series(0.6, 1.4, 2.3, z).tobytes()


@pytest.mark.parametrize("size", [1, specfun._BLOCK_LIVE - 1, specfun._BLOCK_LIVE,
                                  specfun._BLOCK_LIVE + 1, 4096,
                                  specfun._CACHE_BLOCK - 1, specfun._CACHE_BLOCK,
                                  specfun._CACHE_BLOCK + 1, 2 * specfun._CACHE_BLOCK + 7])
def test_series_vec_block_path_matches_masked_reference(size):
    # at or below _BLOCK_LIVE live entries a chunk is one _w_block call;
    # z up to 0.995 keeps entries summing for thousands of terms.  Past
    # _CACHE_BLOCK entries the series runs slice by slice
    z = np.random.default_rng(size).uniform(0.0, 0.995, size)
    for a, b, c in [(0.3, 0.7, 1.9), (1.0, 1.0, 2.0), (-3.0, 1.5, 2.2), (2.5, 0.4, 1.1)]:
        packed = specfun._series_vec(_one_set(a, b, c), None, z)
        assert packed.tobytes() == _masked_series(a, b, c, z).tobytes()


@pytest.mark.parametrize("size, zmax", [(1, 0.995), (specfun._BLOCK_LIVE + 1, 0.995),
                                         (4096, 0.995), (specfun._CACHE_BLOCK + 1, 0.9)])
def test_series_vec_two_sets_match_masked_reference(size, zmax):
    # the rows interleave, so each chunk gathers its ratios per entry, and
    # past _CACHE_BLOCK the rows are sliced with z
    rng = np.random.default_rng(size + 1)
    z = rng.uniform(0.0, zmax, size)
    rows = rng.integers(0, 2, size)
    table = np.array([[0.3, 0.7, 1.9], [2.5, 0.4, 1.1]])
    packed = specfun._series_vec(table, rows, z)
    assert packed.tobytes() == _masked_series_vec(table, rows, z).tobytes()
    for r, (a, b, c) in enumerate(table.tolist()):
        alone = specfun._series_vec(_one_set(a, b, c), None, z[rows == r])
        assert alone.tobytes() == packed[rows == r].tobytes()


def test_hyp2f1_grid_two_sets_match_masked_reference_bytes(monkeypatch):
    # a raw set and an Euler set share each band's series pass
    rng = np.random.default_rng(16)
    z = rng.uniform(0.0, 0.995, (60, 120))
    a = np.where(np.arange(60) % 2, 0.3, 1.5)[:, None]
    c = np.where(np.arange(60) % 2, 1.9, 1.0)[:, None]
    packed = hyp2f1_grid(a, a + 0.4, c, z)
    monkeypatch.setattr(specfun, "_series_vec", _masked_series_vec)
    masked = hyp2f1_grid(a, a + 0.4, c, z)
    assert packed.shape == z.shape
    assert packed.tobytes() == masked.tobytes()


def test_series_cap_names_the_worst_entrys_parameters(monkeypatch):
    monkeypatch.setattr(specfun, "_SERIES_CAP", 64)
    with pytest.raises(ConvergenceError) as excinfo:
        hyp2f1_grid(np.array([1.0, 0.5, 1.0]), 1.0, 2.0, np.array([0.05, 0.65, 0.6]))
    assert "worst z = 0.65 at (a=0.5, b=1.0, c=2.0)" in str(excinfo.value)


def test_series_vec_switches_to_blocks_mid_call(monkeypatch):
    # more live entries than _BLOCK_LIVE at first, fewer once the small z
    # have converged: the first chunk runs the in-place loop, later ones blocks
    n = specfun._BLOCK_LIVE
    rng = np.random.default_rng(14)
    z = rng.permutation(np.concatenate([rng.uniform(0.0, 0.3, n),
                                        rng.uniform(0.9, 0.995, n // 2)]))
    live = []
    real = specfun._w_block

    def spy(term, total, steps, bracket=None):
        live.append(term.size)
        return real(term, total, steps, bracket)

    monkeypatch.setattr(specfun, "_w_block", spy)
    packed = specfun._series_vec(_one_set(1.25, 0.75, 1.5), None, z)
    assert live and max(live) <= n < z.size
    assert packed.tobytes() == _masked_series(1.25, 0.75, 1.5, z).tobytes()


def test_hyp2f1_grid_cache_slices_keep_a_2d_terminating_grid(monkeypatch):
    # a = -3 sends the whole (200, 200) grid, three slices, to the series
    z = np.random.default_rng(15).uniform(0.0, 0.999, (200, 200))
    assert z.size > 2 * specfun._CACHE_BLOCK
    packed = hyp2f1_grid(-3.0, 1.5, 2.2, z)
    monkeypatch.setattr(specfun, "_series_vec", _masked_series_vec)
    masked = hyp2f1_grid(-3.0, 1.5, 2.2, z)
    assert packed.shape == z.shape
    assert packed.tobytes() == masked.tobytes()


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


def test_series_cap_raises(monkeypatch):
    # a starved term budget must surface as ConvergenceError, never a
    # silently truncated sum; 1-z = 0.03 lies past the near-one window,
    # so the mid band's series sums it
    monkeypatch.setattr(specfun, "_SERIES_CAP", 50)
    with pytest.raises(ConvergenceError):
        hyp2f1(1.0, 1.0, 2.0, 0.97)


def _chunk_rows(monkeypatch):
    """Spy on ``_w_block``: the list it fills holds the step rows of each
    raw-series chunk summed by blocks (at most _BLOCK_LIVE live entries)."""
    rows = []
    real = specfun._w_block

    def spy(term, total, steps, bracket=None):
        rows.append(steps.shape[0])
        return real(term, total, steps, bracket)

    monkeypatch.setattr(specfun, "_w_block", spy)
    return rows


def test_series_chunks_grow_from_16_terms(monkeypatch):
    # the stopping test first falls after 16 terms, then after 32 and 64,
    # and from there every 64 terms; z = 0.05 is summed in 16 terms
    rows = _chunk_rows(monkeypatch)
    specfun._series_vec(_one_set(1.0, 1.0, 2.0), None, np.array([0.05]))
    assert rows == [16]
    rows.clear()
    specfun._series_vec(_one_set(1.0, 1.0, 2.0), None, np.array([0.05, 0.2, 0.6, 0.9]))
    assert rows[:6] == [16, 16, 32, 64, 64, 64]
    assert set(rows[3:]) == {64}
    # a near-one connection series, w = 1e-2, stops after 16 terms too
    rows.clear()
    hyp2f1_grid(0.75, 0.75, 1.75, np.array([1.0 - 1e-2]))
    assert rows == [16, 16]     # one chunk per connection series


def test_series_cap_counts_the_short_chunks(monkeypatch):
    # the cap test follows each chunk: with a 16-term budget z = 0.05
    # converges in its first chunk, and z = 0.6 raises after it
    monkeypatch.setattr(specfun, "_SERIES_CAP", 16)
    assert hyp2f1_grid(1.0, 1.0, 2.0, np.array([0.05]))[0] == pytest.approx(
        -math.log1p(-0.05) / 0.05, rel=1e-15)
    with pytest.raises(ConvergenceError, match="exceeded 16 terms"):
        hyp2f1_grid(1.0, 1.0, 2.0, np.array([0.05, 0.6]))


@pytest.mark.parametrize("a, b, c", [
    (1.0, 1.0, 2.0), (0.5, 1.5, 2.5), (-0.6, -0.6, 1.3), (1.75, 1.75, 2.0),
    (0.3, 0.7, 1.9), (2.5, 0.4, 1.1), (-1.3, 2.2, 0.6),
])
def test_series_stopped_at_16_and_32_terms_matches_mpmath(monkeypatch, a, b, c):
    # entries whose stopping test falls after 16 or after 32 terms lose
    # nothing to the terms a 64-term first chunk would have added
    mpmath = pytest.importorskip("mpmath")
    rows = _chunk_rows(monkeypatch)
    stopped = set()
    for z in (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
        rows.clear()
        got = specfun._series_vec(_one_set(a, b, c), None, np.array([z]))[0]
        stopped.add(sum(rows))
        with mpmath.workdps(30):
            ref = mpmath.hyp2f1(a, b, c, z)
        assert abs((got - ref) / ref) < 1e-15, (z, sum(rows))
    assert stopped == {16, 32}


# ----------------------------------------------------------------------
# near-one connection route
# ----------------------------------------------------------------------

def _series(a, b, c, z):
    """The raw series summed by ``specfun._series_vec``'s chunk rule, the
    scalar twin of ``_masked_series``: a chunk of 16, 16, 32, then 64 terms,
    then the last term against the sum.  ``_scalar_near_one`` sums its
    connection series with it."""
    term = 1.0
    total = 1.0
    k = 0
    while True:
        for _ in range(_chunk(k)):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += term
            k += 1
        if abs(term) < specfun._SERIES_RTOL * abs(total):
            return total
        if k >= specfun._SERIES_CAP:
            raise ConvergenceError(
                f"2F1 series exceeded {specfun._SERIES_CAP} terms at (a={a}, b={b}, c={c}, z={z})")


def _np(f, *x):
    """numpy's ufunc ``f`` on one-element arrays [x], as a float."""
    return float(f(*(np.array([v]) for v in x))[0])


@np.errstate(over="ignore", invalid="ignore")  # silent like the grid's near-one route
def _scalar_near_one(a, b, c, z):
    """The per-entry connection-formula evaluator, kept as the reference
    that ``hyp2f1_grid``'s near-one route (``specfun._near_one_generic``
    and ``specfun._near_one_log``, then the Euler prefactor) must reproduce
    bit for bit (connection formulas of DLMF §15.8).  Its log, exp, expm1
    and powers are numpy's, on one-element arrays.  The logarithmic form
    has one series and one bracket for every eps, each quotient by eps at
    its limit when eps = 0."""
    w = 1.0 - z
    prefactor = 1.0
    if c - a - b < 0.0:
        prefactor = _np(np.power, w, c - a - b)
        a, b = c - a, c - b
    d = c - a - b
    m = round(d)
    eps = d - m
    if abs(eps) >= specfun._WIDE_GAP or eps and any(
            map(specfun._is_nonpos_int, (c - a, c - b))):
        s1 = specfun.gamma_ratio_log((c, d), (c - a, c - b))
        s2 = specfun.gamma_ratio_log((c, -d), (a, b))
        val = (s1 * _series(a, b, 1.0 - d, w)
               + s2 * _np(np.power, w, d) * _series(c - a, c - b, 1.0 + d, w))
        return val * prefactor
    m = int(m)
    logw = _np(np.log, w)
    finite = 0.0
    term = 1.0
    for n in range(m):
        finite += term
        if n + 1 < m:
            term *= (a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n - eps)) * w
    first = specfun.gamma_ratio_log((m + eps, c), (a + m + eps, b + m + eps)) * finite if m else 0.0
    ga, sa = specfun._log_gamma_signed(a)
    gb, sb = specfun._log_gamma_signed(b)
    gc, sc = specfun._log_gamma_signed(c)
    front = sa * sb * sc * _np(np.exp, gc - ga - gb + m * logw)

    # u and s carry (Gamma(n+1)/Gamma(n+1-eps) - 1)/eps and the n-step
    # ratio of the w^eps Gamma-ratio term, minus 1, over eps
    def mul(x, y):
        return x + y + eps * x * y

    ra = specfun._gamma_ratio_m1(a + m, eps)
    rb = specfun._gamma_ratio_m1(b + m, eps)
    r1 = specfun._gamma_ratio_m1(m + 1.0, eps)
    r0 = specfun._gamma_ratio_m1(1.0, -eps)
    v0 = mul(mul(mul(ra, rb), -r1 / (1.0 + eps * r1)),
             _np(np.expm1, eps * logw) / eps if eps else logw)
    u = r0 / (1.0 - eps * r0)
    s = 0.0
    sinc = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
    total = 0.0
    term = sinc / ((1.0 + eps * ra) * (1.0 + eps * rb)) / math.gamma(m + 1.0)
    for n in range(specfun._SERIES_CAP):
        bracket = v0 * (1.0 + eps * s) + (s - u)
        u = (u * (n + 1.0) + 1.0) / (n + 1.0 - eps)
        s = mul(s, mul(mul(1.0 / (a + m + n), 1.0 / (b + m + n)), -1.0 / (m + n + 1.0 + eps)))
        total += term * bracket
        term *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * w
        if abs(term * logw) < specfun._SERIES_RTOL * abs(total) and n > 2:
            break
    else:
        raise ConvergenceError(f"log series exceeded {specfun._SERIES_CAP} terms")
    second = -((-1.0) ** m) * front * total
    return (first + second) * prefactor


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
    (0.6, 0.6, 1.2 + 7e-7),     # d = 7e-7: the log form with its eps terms
    (0.6, 0.6, 1.2 - 9e-7),     # d < 0 near 0: swap, then the eps log form
    (1.3, 1.3, 3.6 - 4e-7),     # eps < 0 near m = 1
    (1.3, 1.3, 4.6 + 3e-6),     # eps > 0 near m = 2
    (0.3, 0.9, 3.2 + 0.0999),   # eps just inside _WIDE_GAP
    (0.3, 0.9, 3.3 + 1e-3),     # d = 2.101, just past it: generic
    (1.5, -1.001, 0.5),         # d = 0.001 with c-a = -1: a 1/Gamma pole, so generic
    (280.0, 60.0, 320.5),       # overflows to inf in float arithmetic, silently
    (-1.2, -0.3, -0.5),         # c < 0, m = 1: Gamma(c) with its sign
    (0.3, -1.6, -1.35),         # c < 0, d = -0.05: swap, then the eps log form
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cap", [None, 6])
@pytest.mark.parametrize("a, b, c", NEAR_ONE_CASES)
def test_near_one_vec_matches_scalar_reference(monkeypatch, a, b, c, cap):
    # every z lies in the near-one window, so hyp2f1_grid sums each set's
    # connection formula; with the term cap cut to 6 the generic series
    # still finish their first 16-term chunk, and the logarithmic one
    # raises ConvergenceError when an entry has not converged by the cap,
    # on both routes alike
    if cap is not None:
        monkeypatch.setattr(specfun, "_SERIES_CAP", cap)
    rng = np.random.default_rng(17)
    w = np.concatenate([[1e-15, 5e-3 * (1.0 - 1e-12)], 10.0 ** rng.uniform(-15.0, -2.31, 200)])
    for z in (1.0 - w, 1.0 - w[-1:], np.empty(0)):
        ref = _outcome(lambda: [_scalar_near_one(a, b, c, x) for x in z.tolist()])
        assert _outcome(lambda: hyp2f1_grid(a, b, c, z)) == ref


@pytest.mark.parametrize("a, b, c, cap, exc", [
    # generic, but a = 20000 makes the connection series need 81 terms at
    # 1-z = 1e-3, past the 64 terms the cap allows
    (20000.0, 20.0, 20020.25, 64, ConvergenceError),
])
def test_near_one_vec_raises_like_scalar(monkeypatch, a, b, c, cap, exc):
    if cap is not None:
        monkeypatch.setattr(specfun, "_SERIES_CAP", cap)
    z = 1.0 - np.array([1e-3, 1e-9])
    with pytest.raises(exc):
        _scalar_near_one(a, b, c, float(z[0]))
    with pytest.raises(exc):
        hyp2f1_grid(a, b, c, z)


@pytest.mark.parametrize("a, b, c", [(0.5, 0.5, 1.0), (-0.5, -0.5, 1.0)])  # m = 0; m = 2
def test_log_series_cap_raises(monkeypatch, a, b, c):
    # a starved log series raises like the raw one, never a truncated sum,
    # and names the largest unconverged w and the normalized parameters
    # it sums, c-a-b >= 0: (-0.5, -0.5, 1.0) is (1.5, 1.5, 1.0) after the
    # Euler swap
    monkeypatch.setattr(specfun, "_SERIES_CAP", 6)
    z = 1.0 - np.array([1e-15, 1e-2, 1e-4])
    with pytest.raises(ConvergenceError) as excinfo:
        specfun._near_one_log(a, b, c, z)
    msg = str(excinfo.value)
    assert "logarithmic connection series exceeded 6 terms" in msg
    assert f"worst w = {1.0 - z[1]} at (a={a}, b={b}, c={c})" in msg


@pytest.mark.parametrize("m", range(4))
def test_near_int_bracket_takes_its_limit_at_eps_zero(m):
    # at eps = 0 the scale is 1 and the bracket of index n the digamma sum
    # of DLMF 15.8.10, log w + psi(p+n) + psi(q+n) - psi(m+n+1) - psi(n+1),
    # to 30-digit mpmath; at eps = +-1e-12 both move by O(eps) only, the
    # bracket by at most |eps| (1 + log(w)^2)
    mpmath = pytest.importorskip("mpmath")
    p, q = 0.7 + m, 2.3 + m
    lw = np.log(np.array([1e-2, 1e-8, 1e-15]))
    bracket, scale = specfun._near_int_bracket(p, q, m, 0.0)
    assert scale == 1.0
    got = bracket(lw, range(40))
    with mpmath.workdps(30):
        for n in range(40):
            for x, g in zip(lw.tolist(), got[n].tolist()):
                ref = (x + mpmath.psi(0, p + n) + mpmath.psi(0, q + n)
                       - mpmath.psi(0, m + n + 1) - mpmath.psi(0, n + 1))
                assert abs((g - ref) / ref) < 1e-14, (n, x)
    for eps in (1e-12, -1e-12):
        near, near_scale = specfun._near_int_bracket(p, q, m, eps)
        assert abs(near_scale - 1.0) < 10.0 * abs(eps)
        assert np.all(np.abs(near(lw, range(40)) - got) <= abs(eps) * (1.0 + lw ** 2))


@st.composite
def _near_one_set(draw):
    """A parameter set of one of the near-one route's kinds, with 1-12
    arguments inside its window, from 1-z = 1e-15 up."""
    kind = draw(st.sampled_from(["generic", "euler", "near-integer", "pole", "large"]))
    a, b = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
    m = draw(st.integers(0, 2))
    frac = draw(st.floats(specfun._WIDE_GAP, 1.0 - specfun._WIDE_GAP))
    eps = draw(st.sampled_from([0.0, 1e-12, -3e-7]) | st.floats(-0.099, 0.099))
    if kind == "generic":            # c-a-b at least _WIDE_GAP from an integer
        c = a + b + m + frac
    elif kind == "euler":            # c-a-b < 0: the Euler transform first
        a, b = a + 2.0, b + 2.0
        c = a + b - m - frac
    elif kind == "near-integer":     # within _WIDE_GAP of m, on either side of 0
        a, b = a + 2.0, b + 2.0
        c = a + b + draw(st.sampled_from([1.0, -1.0])) * (m + eps)
    elif kind == "pole":             # c-a = -m, c-a-b = m + |eps|: a 1/Gamma
        c = a - m                    # pole, so generic however small |eps|
        b = -m - m - (abs(eps) or 1e-3)
    else:                            # the connection series need 81+ terms
        a, b = 2e4 + 100.0 * a, 20.0 * b / 3.0
        c = a + b + frac
    assume(not specfun._is_nonpos_int(c) and not specfun._is_nonpos_int(b))
    top = math.log10(specfun._NEAR_ONE_W)
    w = draw(st.lists(st.floats(-15.0, top - 1e-9), min_size=1, max_size=12))
    return (a, b, c), [1.0 - 10.0 ** x for x in w]


def _outcome_message(f):
    """f()'s array, or the type and message of the exception it raises."""
    try:
        return np.asarray(f(), dtype=float)
    except (ArithmeticError, ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


@given(draws=st.lists(_near_one_set(), min_size=2, max_size=6),
       cap=st.sampled_from([None, 6, 64]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_hyp2f1_grid_near_one_sets_match_one_set_calls(draws, cap, data):
    # one multi-set call near z = 1, its entries interleaved, against one
    # one-set call per set: each value has that call's bits, and a starved
    # term budget (cap 6: the log series; cap 64: the large sets' generic
    # series) raises a ConvergenceError that names the w and parameters
    # one of the one-set calls names
    rows = np.concatenate([[s] * len(z) for s, (_, z) in enumerate(draws)])
    order = np.array(data.draw(st.permutations(range(rows.size))))
    rows = rows[order]
    z = np.concatenate([z for _, z in draws])[order]
    a, b, c = np.array([abc for abc, _ in draws])[rows].T
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(specfun, "_SERIES_CAP", cap)
        together = _outcome_message(lambda: hyp2f1_grid(a, b, c, z))
        alone = [_outcome_message(lambda: hyp2f1_grid(*abc, z[rows == s]))
                 for s, (abc, _) in enumerate(draws)]
    failures = [out for out in alone if isinstance(out, tuple)]
    if not failures:
        assert isinstance(together, np.ndarray), together
        for s, out in enumerate(alone):
            assert together[rows == s].tobytes() == out.tobytes(), draws[s][0]
    elif together[0] is ConvergenceError:
        assert together in failures
    else:
        assert isinstance(together, tuple) and together[0] in {t for t, _ in failures}


@pytest.mark.parametrize("a, b, c", [(0.75, 0.75, 1.75), (1.0, 1.0, 2.0), (1.5, 1.5, 1.0)])
def test_hyp2f1_near_one_window_uses_the_connection_route(a, b, c):
    # the grid sends 1-z < 2e-2 to it, whether c-a-b is generic (0.25),
    # an integer (0) or one after the Euler swap (-1 -> 1)
    z = 1.0 - np.array([1.9e-2, 4.9e-3, 1e-6, 2.0 ** -40])
    ref = np.array([_scalar_near_one(a, b, c, x) for x in z.tolist()])
    assert hyp2f1_grid(a, b, c, z).tobytes() == ref.tobytes()


@pytest.mark.parametrize("a, b, c, w, bits", [
    # criterion 5's twin shape, d = c-a-b = 2.5
    (-0.6, -0.6, 1.3, [1.9e-2, 5e-3, 1e-12],
     ["0x1.48aefd8bad7f1p+0", "0x1.49ca1507a8910p+0", "0x1.4a2f70cce5b8bp+0"]),
    # a kernel at sigma = 0.5: d = -1.5, so the Euler swap comes first;
    # 1.0e-15, 1.1e-15 and 1.1e-15 from 40-digit mpmath
    (1.75, 1.75, 2.0, [1.9e-2, 4.9e-3, 1e-12],
     ["0x1.8fd0f08d22341p+8", "0x1.7e2524144621cp+11", "0x1.d1f33cfc5233bp+59"]),
    # a value-at-one shape, d = 1.6
    (0.3, 0.7, 2.6, [1.9e-2, 1e-12],
     ["0x1.21c80d407d64cp+0", "0x1.236d85afd8798p+0"]),
], ids=["twin", "euler-swap", "value-at-one"])
def test_hyp2f1_near_one_generic_bits_are_frozen(a, b, c, w, bits):
    # every entry lies in the near-one window, so these are the generic
    # connection formula's bits, through the shared raw-series loop
    assert max(w) < specfun._NEAR_ONE_W
    values = hyp2f1_grid(a, b, c, 1.0 - np.array(w)).tolist()
    assert [v.hex() for v in values] == bits


# the band 5e-3 <= 1-z < 2e-2 of the near-one window, where the series
# would need 1,800-7,200 terms
WIDE_BAND_W = np.array([5e-3, 7e-3, 1e-2, 1.5e-2, specfun._NEAR_ONE_W * (1.0 - 1e-12)])
WIDE_CASES = [
    (0.75, 0.75, 1.75),     # d = 0.25
    (0.3, 2.2, 4.1),        # d = 1.6
    (1.25, 1.25, 2.0),      # d = -0.5: Euler side
    (2.2, 1.7, 1.3),        # d = -2.6
    (-0.6, -0.6, 1.3),      # criterion 5's twin shape, a = b = mu - lam < 0, d = 2.5
]


@pytest.mark.parametrize("side, seed", [("euler", 21), ("fractional", 22), ("above-one", 23)])
def test_hyp2f1_wide_window_matches_mpmath(side, seed):
    # the generic connection formula on 5e-3 <= 1-z < _NEAR_ONE_W, for
    # c-a-b at least _WIDE_GAP from an integer, against 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    gap = specfun._WIDE_GAP
    w = 10.0 ** rng.uniform(np.log10(WIDE_BAND_W[0]), np.log10(specfun._NEAR_ONE_W), 6)
    checked = 0
    while checked < 12:
        a, b = rng.uniform(0.1, 4.0, 2)
        frac = rng.uniform(gap + 1e-3, 1.0 - gap - 1e-3)
        m = int(rng.integers(0, 3))
        d = {"euler": -(m + frac), "fractional": frac, "above-one": m + 1 + frac}[side]
        c = a + b + d
        if c <= 0.1:
            continue
        assert specfun._is_generic(a, b, c)
        got = hyp2f1_grid(a, b, c, 1.0 - w)
        with mpmath.workdps(30):
            for x, g in zip((1.0 - w).tolist(), got.tolist()):
                ref = mpmath.hyp2f1(a, b, c, x)
                assert abs((g - ref) / ref) < 1e-13, (a, b, c, 1.0 - x)
        checked += 1


@pytest.mark.parametrize("m", range(4))
def test_hyp2f1_near_integer_exponent_matches_mpmath(m):
    # c-a-b = m + eps within _WIDE_GAP of the integer, on both sides of the
    # Euler transform, from 1-z = 4.9e-3 down to 2^-52: the log
    # form's eps terms cancel nothing, so it keeps its digits however
    # close c-a-b comes to m (the two-term formula loses ~1/eps of them),
    # and at m itself, the eps = 0 limit of the same series (drawn last,
    # so the other eps keep their parameter draws)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(40 + m)
    z = 1.0 - np.array([4.9e-3, 1e-5, 1e-8, 1e-12, 2.0 ** -52])
    for eps in (1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 3e-6, 1e-4, 1e-2, 0.0999, 0.0):
        for sign in (1.0, -1.0) if m else (1.0,):
            for side in (1.0, -1.0):
                a, b = rng.uniform(0.1, 4.0, 2)
                c = a + b + side * (m + sign * eps)
                if c <= 0.1:
                    c += 2.0 * (m + 1)
                    a, b = a + m + 1, b + m + 1
                got = hyp2f1_grid(a, b, c, z)
                with mpmath.workdps(30):
                    for x, g in zip(z.tolist(), got.tolist()):
                        ref = mpmath.hyp2f1(a, b, c, x)
                        assert abs((g - ref) / ref) < 1e-13, (a, b, c, 1.0 - x)


# the paper's kernel 2F1(lam, lam; mu; z), lam = (mu+sigma+1)/2, so that
# c-a-b = -sigma-1 < 0, at sigma with c-a-b generic and near an integer
KERNEL_SETS = [(0.5 * (mu + sigma + 1.0), 0.5 * (mu + sigma + 1.0), mu)
               for mu in (0.5, 1.0, 1.7, 2.4, 3.0)
               for sigma in (0.0, 0.3, 0.5, 0.97, 1.0, 1.25, 1.5, 2.0, 2.04, 2.6)]


@pytest.mark.parametrize("a, b, c", [
    *KERNEL_SETS,
    (-1.2, -0.3, -0.5),     # c < 0, c-a-b = 1: m = 1
    (-0.7, 0.4, -0.25),     # c < 0, c-a-b = 0.05: m = 0
    (0.3, -1.6, -1.35),     # c < 0, c-a-b = -0.05: the Euler swap, then m = 0
])
def test_hyp2f1_near_one_window_matches_mpmath(a, b, c):
    # across the near-one window from 1-z = 1.9e-2 to 2^-52, within 1e-14
    # of 40-digit mpmath at the rounded z: the Euler prefactor is one
    # power, so the rounding of log w is not amplified by |(c-a-b) log w|,
    # and with c < 0 the log form's front factor takes Gamma(c) with its sign
    mpmath = pytest.importorskip("mpmath")
    z = 1.0 - np.geomspace(1.9e-2, 2.0 ** -52, 6)
    got = hyp2f1_grid(a, b, c, z)
    with mpmath.workdps(40):
        for x, g in zip(z.tolist(), got.tolist()):
            ref = mpmath.hyp2f1(a, b, c, x)
            assert abs((g - ref) / ref) < 1e-14, (a, b, c, 1.0 - x)


def _near_integer_sets():
    """Sets whose c-a-b lies within _WIDE_GAP of an integer: the kernels
    (lam, lam; mu) at sigma = 1 and 2 (c-a-b = -2, -3), and at sigma off
    those by eps up to 0.099; the same shapes after the Euler swap,
    (mu-lam, mu-lam; mu); and value-at-one shapes, c-a-b = 2 + eps.  Sets
    whose series terminate, before or after the swap, have no window and
    are left out."""
    sets = []
    for sigma in (1.0, 2.0):
        for eps in (0.0, 1e-9, -3e-5, 0.05, -0.099, 0.099):
            for mu in (0.5, 1.0, 1.5, 2.5, 4.0):
                lam = 0.5 * (mu + sigma + eps + 1.0)
                sets += [(lam, lam, mu), (mu - lam, mu - lam, mu)]
    for a, b, eps in ((0.2, 0.3, 0.0), (0.6, 1.1, -0.099), (1.0, 0.45, 0.099),
                      (0.35, 0.9, 1e-7), (0.8, 1.2, -0.04)):
        sets.append((a, b, a + b + 2.0 + eps))
    return [(a, b, c) for a, b, c in sets
            if not any(map(specfun._is_nonpos_int, (a, b, c - a, c - b)))]


def test_hyp2f1_near_integer_sets_take_the_log_form_in_the_outer_window(monkeypatch):
    # on 5e-3 <= 1-z < 2e-2, where the series would need 1,800-7,200
    # terms, sets with c-a-b near an integer sum the logarithmic
    # connection form, to 1e-14 of 30-digit mpmath
    mpmath = pytest.importorskip("mpmath")
    seen = []
    real = specfun._near_one_log

    def spy(a, b, c, z):
        seen.extend(z.tolist())
        return real(a, b, c, z)

    monkeypatch.setattr(specfun, "_near_one_log", spy)
    z = 1.0 - np.geomspace(5e-3, specfun._NEAR_ONE_W * (1.0 - 1e-12), 9)
    for a, b, c in _near_integer_sets():
        d = abs(c - a - b)
        assert abs(d - round(d)) < specfun._WIDE_GAP
        seen.clear()
        got = hyp2f1_grid(a, b, c, z)
        assert seen == z.tolist(), (a, b, c)
        with mpmath.workdps(30):
            for x, g in zip(z.tolist(), got.tolist()):
                ref = mpmath.hyp2f1(a, b, c, x)
                assert abs((g - ref) / ref) < 1e-14, (a, b, c, 1.0 - x)


@pytest.mark.parametrize("a, b, c, generic", [
    *[(a, b, c, True) for a, b, c in WIDE_CASES],
    (0.5, 0.5, 2.0 + 1e-3, False),     # d = 1 + 1e-3
    (0.5, 0.5, 2.0 - 1e-3, False),     # d = 1 - 1e-3
    (1.5, 1.5, 1.0, False),            # d = -2
    (3.0, 1.2, 2.0, False),            # d = -2.2 but c-a = -1: the Euler transform terminates
])
def test_hyp2f1_wide_window_routes(monkeypatch, a, b, c, generic):
    # the grid sends the band to the connection route whether or not c-a-b
    # is near an integer: to the batched generic formula, or to the one-set
    # route's logarithmic form; a set whose transformed series terminates
    # has no window and sums that series
    seen, seen_generic = [], []
    real, real_generic = specfun._near_one_log, specfun._near_one_generic

    def spy(a, b, c, z):
        seen.extend(z.tolist())
        return real(a, b, c, z)

    def spy_generic(table, rows, z):
        seen_generic.extend(z.tolist())
        return real_generic(table, rows, z)

    monkeypatch.setattr(specfun, "_near_one_log", spy)
    monkeypatch.setattr(specfun, "_near_one_generic", spy_generic)
    z = 1.0 - WIDE_BAND_W
    hyp2f1_grid(a, b, c, z)
    terminates = any(map(specfun._is_nonpos_int, (a, b, c - a, c - b)))
    assert seen_generic == (z.tolist() if generic else [])
    assert seen == ([] if generic or terminates else z.tolist())


@pytest.mark.parametrize("a, b, c", WIDE_CASES)
def test_hyp2f1_wide_window_scalar_matches_grid_bytes(a, b, c):
    # every entry of the band, alone or in a 46-entry grid, has the bits
    # of the per-entry connection reference
    z = 1.0 - np.concatenate([WIDE_BAND_W, 10.0 ** np.linspace(-2.3, -1.7, 41)])
    ref = np.array([_scalar_near_one(a, b, c, x) for x in z.tolist()])
    scalar = [hyp2f1(a, b, c, x) for x in z.tolist()]
    assert np.array(scalar).tobytes() == ref.tobytes()
    assert hyp2f1_grid(a, b, c, z).tobytes() == ref.tobytes()


@pytest.mark.parametrize("a, b, c", WIDE_CASES)
def test_hyp2f1_wide_window_edge_continuity(a, b, c):
    # adjacent doubles on either side of 1-z = _NEAR_ONE_W take the
    # connection route and the series; their values must agree
    edge = specfun._NEAR_ONE_W
    outside = 1.0 - edge
    while 1.0 - outside < edge:
        outside = np.nextafter(outside, 0.0)
    inside = np.nextafter(outside, 1.0)
    assert 1.0 - inside < edge <= 1.0 - outside
    near, far = hyp2f1_grid(a, b, c, np.array([inside, outside]))
    assert abs(near / far - 1.0) < 1e-13


# ----------------------------------------------------------------------
# 2F1(x, x; y; z) as z -> 1
# ----------------------------------------------------------------------

def test_hyp2f1_grows_logarithmically_at_one():
    # y = 2x: F(1,1;2;z) = -log(1-z)/z, so F / log(1/(1-z)) -> 1
    z = 1.0 - 2.0 ** -30
    growth = hyp2f1(1.0, 1.0, 2.0, z)
    assert growth / math.log(1.0 / (1.0 - z)) == pytest.approx(1.0, rel=1e-6)


def test_hyp2f1_grows_like_a_power_at_one():
    # y < 2x: F(1.5,1.5;2;z) ~ Gamma(2)Gamma(1)/Gamma(1.5)^2 (1-z)^-1
    #                        = (4/pi) (1-z)^-1
    z = 1.0 - 2.0 ** -34
    growth = hyp2f1(1.5, 1.5, 2.0, z)
    assert growth * (1.0 - z) == pytest.approx(4.0 / math.pi, rel=1e-4)


@given(st.floats(min_value=0.2, max_value=2.0),
       st.floats(min_value=1e-6, max_value=2.5))
@example(1.000001, 1.000001)  # c-a-b = 1 + 1e-6: the log form's eps terms
@settings(max_examples=40, deadline=None)
def test_hyp2f1_stays_below_its_value_at_one(x, gap):
    # equal numerator parameters make every series coefficient non-negative,
    # so for y > 2x the function increases to its Gauss sum at z = 1
    y = 2.0 * x + gap
    top = hyp2f1_at_one(x, x, y)
    for z in (0.3, 0.9, 1.0 - 1e-8):
        assert hyp2f1(x, x, y, z) <= top * (1.0 + 1e-12)


# ----------------------------------------------------------------------
# hyp2f1_outer: the product grid 2F1(a, b; c; t_i t_j)
# ----------------------------------------------------------------------

def _outer_spies(monkeypatch):
    """Record every dgemm's operands and every z hyp2f1_outer sends to
    hyp2f1_grid."""
    operands, fallback = [], []
    block_sum, grid = specfun._block_sum, specfun.hyp2f1_grid

    def spy_block_sum(left, right):
        operands.extend((left, right))
        return block_sum(left, right)

    def spy_grid(a, b, c, z):
        fallback.append(np.array(z))
        return grid(a, b, c, z)

    monkeypatch.setattr(specfun, "_block_sum", spy_block_sum)
    monkeypatch.setattr(specfun, "hyp2f1_grid", spy_grid)
    return operands, fallback


@pytest.mark.parametrize("order", [2, 3, 17, 64, 300])
@pytest.mark.parametrize("kind", ["jacobi", "graded"])
@seed(37)
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.floats(min_value=0.3, max_value=5.0),
       st.floats(min_value=-0.95, max_value=30.0, exclude_min=True))
def test_hyp2f1_outer_matches_hyp2f1_grid(monkeypatch, kind, order, mu, sigma):
    # the kernel's 2F1(lam, lam; mu; t_i t_j) on the nodes of a Nystrom rule
    from bergnorm.quadrature import make_graded_rule, make_jacobi_rule

    build = make_jacobi_rule if kind == "jacobi" else make_graded_rule
    t = build(order, mu, sigma + 1.0).nodes
    lam = 0.5 * (mu + sigma + 1.0)
    z = np.outer(t, t)
    # the grid grows like (1 - z)^(-sigma-1): keep its corner inside double range
    assume((sigma + 1.0) * math.log2(1.0 / (1.0 - z.max())) < 1000.0)
    with monkeypatch.context() as m:
        operands, _ = _outer_spies(m)
        with np.errstate(all="raise", under="ignore"):
            grid = specfun.hyp2f1_outer(lam, lam, mu, t)
    assert np.array_equal(grid, grid.T)
    upper = z[np.triu_indices(t.size)]
    with np.errstate(all="raise", under="ignore"):
        reference = hyp2f1_grid(lam, lam, mu, upper)
        # z F'(z)/F(z): the relative change of F per relative change of z, so
        # that rounding t_i t_j moves the reference by at most kappa 2^-53
        kappa = upper * (lam * lam / mu) * hyp2f1_grid(lam + 1.0, lam + 1.0, mu + 1.0,
                                                       upper) / reference
    # the dgemm sums at the exact products: measured 4.1e-14 past kappa 2^-53
    error = np.abs(grid[np.triu_indices(t.size)] - reference)
    assert np.all(error <= (kappa * 2.0 ** -53 + 1e-13) * reference)
    tiny = np.finfo(float).tiny
    for table in operands:
        assert not np.any((table > 0.0) & (table < tiny))  # no subnormal operand


@pytest.mark.parametrize("sigma, cap", [(100.0, 8192), (170.0, None)])
def test_hyp2f1_outer_falls_back_past_the_cap_or_on_overflow(monkeypatch, sigma, cap):
    # order 64, graded to 1 - 2^-7: at sigma = 100 the blocks below the cut
    # need up to 10,225 terms, past a cap of 8,192; at sigma = 170 the
    # coefficients overflow from c_2068 on.  Either way such a block goes to
    # hyp2f1_grid whole, below-cut entries included, with its bits
    from bergnorm.quadrature import make_graded_rule

    if cap is not None:
        monkeypatch.setattr(specfun, "_SERIES_CAP", cap)
    mu = 1.0
    lam = 0.5 * (mu + sigma + 1.0)
    t = make_graded_rule(64, mu, sigma + 1.0).nodes
    operands, fallback = _outer_spies(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = specfun.hyp2f1_outer(lam, lam, mu, t)
        monkeypatch.undo()
        reference = hyp2f1_grid(lam, lam, mu, np.outer(t, t))
    z = np.concatenate(fallback)
    assert np.any(1.0 - z >= specfun._NEAR_ONE_W)
    routed = np.isin(np.outer(t, t), z)
    assert np.array_equal(grid[routed], reference[routed], equal_nan=True)
    summed = ~routed
    assert operands and np.all(np.isfinite(grid[summed]))
    np.testing.assert_allclose(grid[summed], reference[summed], rtol=1e-12, atol=0.0)


def test_hyp2f1_outer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        specfun.hyp2f1_outer(1.0, 1.0, 2.0, np.array([0.5, 0.25]))   # not ascending
    with pytest.raises(ValueError):
        specfun.hyp2f1_outer(1.0, 1.0, 2.0, np.array([0.5, 1.0]))    # not below 1
    with pytest.raises(ValueError):
        specfun.hyp2f1_outer(-0.5, 1.0, 2.0, np.array([0.25, 0.5]))  # a negative term
    assert specfun.hyp2f1_outer(1.0, 1.0, 2.0, np.empty(0)).shape == (0, 0)
