"""Special functions used throughout the package.

Everything here is self-contained double-precision code: a fixed-coefficient
Lanczos log-gamma, the Euler beta function, and a Gauss hypergeometric
evaluator 2F1(a,b;c;z) for real parameters and z in [0,1].  ``hyp2f1_grid``
evaluates an array of z in [0,1), with (a, b, c) shared by every entry or
given per entry as arrays that broadcast to the shape of z; the result has
the shape of z, and each entry has the bits of a call with its own
parameters alone.  ``hyp2f1`` is its one-entry call,
plus Gauss summation at z = 1.  ``hyp2f1_outer`` gives the product grid
2F1(a,b;c;t_i t_j) of ascending nodes t for a series with non-negative
terms, the Nystrom kernel's, exactly symmetric.

The 2F1 evaluator picks between three routes for each entry, deciding for
each distinct (a, b, c) of a call as it would for that set alone:

  * the raw power series (z <= 0.7, or whenever it terminates),
  * the Euler transform (1-z)^(c-a-b) * 2F1(c-a,c-b;c;z) when z > 0.7 and
    the transform improves the convergence exponent c-a-b,
  * a connection-formula evaluation in powers of w = 1-z in the near-one
    window 1-z < _NEAR_ONE_W = 2e-2, where both series above need
    ~36/(1-z) terms.  The connection route takes the generic two-series
    formula when c-a-b is at least _WIDE_GAP = 0.1 from an integer and the
    logarithmic form nearer.  The generic formula runs once for the
    window's entries of every parameter set of a call, the logarithmic
    form once per set.

Both connection formulas take the normalized set, the one with
c-a-b >= 0 after the Euler transform.  ``hyp2f1_grid`` applies the
transform's prefactor (1-z)^(c-a-b) once, after the mid band and the
window are summed, as one numpy power over every transformed entry with
each entry's own exponent; a power does not amplify the rounding of
log w by |(c-a-b) log w| as exp((c-a-b) log w) would.  The near-one route
takes its logs, exps and powers from numpy's ufuncs, as the mid band's
prefactor always has, so its last bits follow numpy's build: with
AVX-512, numpy's exp, expm1 and power differ from libm by one unit in the
last place in about 5% of calls.  Each entry still gets the same bits
alone, inside an array, or at any offset in it.

The two-term connection formula loses digits like 1/eps as
eps = |(c-a-b) - round(c-a-b)| shrinks (its two Gamma-ratio coefficients
grow and cancel), so within the gap the route sums the logarithmic form,
whose eps terms are carried without cancellation and reach their limits
at eps = 0: one series with one bracket for every eps, exact integers
included (~1e-14 against mpmath).  Across the whole window both
forms are as accurate as the raw series (against mpmath, for a and b in
(0, 4)) at a small fraction of its cost.

Series termination: one raw-series loop sums the raw and Euler series
and both series of the generic connection formula, in chunks of 16, 16,
32 and then 64 terms, and stops at the end of the first chunk whose last
term is below 1e-16 of the partial sum; past a hard cap of 100000 terms
it raises ConvergenceError.  The logarithmic connection series stops
after the first index past the third whose next term times log w is
below 1e-16 of the sum, and raises ConvergenceError past the same cap.

Product grid: the Gauss series is sum_n c_n t_i^n t_j^n, a sum of
rank-one terms, so below the near-one cut ``hyp2f1_outer`` sums each block
of two node groups as one BLAS matrix product of power tables [t^n],
n < N.  N is set per block at its largest z by the tail bound of a series
with non-negative terms: every ratio c_(m+1)/c_m, m >= N, is at most R_N
(a bound read off the ratio's form), so the tail from N on is at most
c_N z^N / (1 - z R_N), and N is the first count where that falls below
1e-16 of the partial sum.  The entries at and above the cut, and any
block whose N passes the cap or whose coefficients or sum would
overflow, go through ``hyp2f1_grid``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "DivergenceError",
    "beta_fn",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_grid",
    "hyp2f1_outer",
    "log_gamma",
]

_SERIES_RTOL = 1e-16
_SERIES_CAP = 100_000
_RAW_SERIES_Z = 0.7
_NEAR_ONE_W = 2e-2      # switch to connection formulas when 1-z is below this
_WIDE_GAP = 0.1         # generic formula when c-a-b is at least this far from an
                        # integer (nearer, it cancels), the logarithmic form nearer
_CHUNK_MIN = 16         # terms in the raw-series loop's first two chunks; then a
_CHUNK_MAX = 64         # chunk is as long as the terms so far, up to this
_W_BLOCK = 12           # terms per block of the near-one log series
_BLOCK_LIVE = 256       # live entries at or below which a raw-series chunk is one block
_CACHE_BLOCK = 16384    # raw-series entries per slice: four work arrays in 512 KB
_NEAR_ONE_BLOCK = _CACHE_BLOCK // 4  # near-one entries per slice: the log series'
                                     # work arrays are _W_BLOCK + 1 rows of them
_OUTER_SLICE = _CACHE_BLOCK  # hyp2f1_outer's entries per hyp2f1_grid call
_TILE = 4 * _CACHE_BLOCK  # power-table entries of one scaled column tile: 512 KB
_POWER_STEP = 64        # a power table's columns per np.power stride
_GROUP_MIN = 16         # nodes per product-grid group that neighbouring scales merge into
_TINY = 2.0 ** -1022      # smallest normal double; power-table entries below are 0
_LOG_HUGE = 700.0       # log of a sum a product-grid block may reach (double max ~ e^709.8)

# 14-term Lanczos coefficients (g = 671/128); relative error < 2e-15 on the
# positive real axis, which is what the reflection step below leans on.
_LANCZOS_G = 671.0 / 128.0
_LANCZOS_COF = (
    57.1562356658629235, -59.5979603554754912, 14.1360979747417471,
    -0.491913816097620199, 0.339946499848118887e-4, 0.465236289270485756e-4,
    -0.983744753048795646e-4, 0.158088703224912494e-3, -0.210264441724104883e-3,
    0.217439618115212643e-3, -0.164318106536763890e-3, 0.844182239838527433e-4,
    -0.261908384015814087e-4, 0.368991826595316234e-5,
)
_LANCZOS_C0 = 0.999999999999997092
_SQRT_2PI = 2.5066282746310005
# Stirling series of log Gamma(y): B_2k / (2k (2k-1)) times y^(1-2k), k = 1..7;
# the first term left out moves psi(y) by less than 5e-17 for y >= 10
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its budget."""


class DivergenceError(ValueError):
    """A quantity that is genuinely infinite was requested.

    Carries a growth classification so callers can report *how* the
    divergence happens: ``growth`` is "logarithmic" or "power", and for the
    power class ``exponent`` is the (negative) exponent of (1-r).
    """

    def __init__(self, message, growth=None, exponent=None):
        super().__init__(message)
        self.growth = growth
        self.exponent = exponent


def _lanczos_positive(x: float) -> float:
    # Valid for x > 0; callers handle reflection.
    tmp = x + _LANCZOS_G
    tmp = (x + 0.5) * math.log(tmp) - tmp
    ser = _LANCZOS_C0
    y = x
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    return tmp + math.log(_SQRT_2PI * ser / x)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Fixed-coefficient Lanczos shift; arguments below 1/2 go through the
    reflection formula Gamma(x)Gamma(1-x) = pi/sin(pi*x) so the rational
    part is only ever evaluated at arguments >= 1/2.
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - _lanczos_positive(1.0 - x)
    return _lanczos_positive(x)


def _log_gamma_signed(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign of Gamma(x)) for any non-pole real x.

    Returns sign 0.0 at the poles (x a non-positive integer), which makes
    1/Gamma factors vanish cleanly in connection coefficients.
    """
    if x > 0.0:
        return log_gamma(x), 1.0
    if x == math.floor(x):
        return math.inf, 0.0
    # reflection: Gamma(x) = pi / (sin(pi x) * Gamma(1-x)), and 1-x > 1 > 0
    s = math.sin(math.pi * x)
    return math.log(math.pi / abs(s)) - _lanczos_positive(1.0 - x), math.copysign(1.0, s)


def gamma_ratio_log(num: tuple[float, ...], den: tuple[float, ...]) -> float:
    """exp(sum log Gamma(num) - sum log Gamma(den)) with signs carried through."""
    total, sign = 0.0, 1.0
    for x in num:
        lg, s = _log_gamma_signed(x)
        if s == 0.0:
            raise ValueError(f"Gamma pole at {x} in numerator")
        total += lg
        sign *= s
    for x in den:
        lg, s = _log_gamma_signed(x)
        if s == 0.0:
            return 0.0  # 1/Gamma(pole) = 0
        total -= lg
        sign *= s
    return sign * math.exp(total)


def _mul_m1(x, y, e):
    """(XY - 1)/e from x = (X - 1)/e and y = (Y - 1)/e, without cancellation."""
    return x + y + e * x * y


def _gamma_ratio_m1(x: float, e: float) -> float:
    """(Gamma(x+e)/Gamma(x) - 1)/e, accurate however small e is, and its
    limit psi(x) at e = 0; x and x+e must not be poles.

    Recurrence pushes the argument to 10 or above, one factor
    x/(x+e) = 1 - e/(x+e) at a time, then the Stirling series, whose
    divided differences in e are taken in closed form.  The two quotients
    by e take their limits at e = 0: log1p(e/x)/e -> 1/x and
    expm1(e lq)/e -> lq.
    """
    acc = 0.0
    while x < 10.0:
        acc = _mul_m1(acc, -1.0 / (x + e), e)
        x += 1.0
    xe = x + e
    # log(Gamma(xe)/Gamma(x))/e = (x - 1/2) log1p(e/x)/e + log(xe) - 1 + Stirling
    lq = (x - 0.5) * (math.log1p(e / x) / e if e else 1.0 / x) + math.log(xe) - 1.0
    for k, ck in enumerate(_STIRLING):
        # (xe^-p - x^-p)/e = -(sum_i xe^i x^(p-1-i)) / (x xe)^p, p = 2k + 1
        p = 2 * k + 1
        lq -= ck * sum(xe ** i * x ** (p - 1 - i) for i in range(p)) / (x * xe) ** p
    return _mul_m1(acc, math.expm1(e * lq) / e if e else lq, e)


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), a,b > 0, via logs."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_fn requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


def _is_nonpos_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _check_c(c: float) -> None:
    if _is_nonpos_int(c):
        raise ValueError(f"2F1 parameter c must not be a non-positive integer, got {c!r}")


def hyp2f1_at_one(a: float, b: float, c: float) -> float:
    """Gauss summation: 2F1(a,b;c;1) = G(c)G(c-a-b)/(G(c-a)G(c-b)), c-a-b>0."""
    d = c - a - b
    if d <= 0.0:
        raise DivergenceError(
            f"2F1(a,b;c;1) requires c-a-b > 0, got {d}",
            growth="logarithmic" if d == 0.0 else "power",
            exponent=d if d < 0.0 else None,
        )
    return gamma_ratio_log((c, d), (c - a, c - b))


def _w_block(term: np.ndarray, total: np.ndarray, steps: np.ndarray,
             bracket: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Terms and partial sums of one block of a power series, one column per entry.

    Row j of the first result is the term after j steps (``term`` times the
    first j rows of ``steps``), row j of the second the sum after j steps.
    A step adds the new term to the sum or, when ``bracket`` is given,
    adds the old term times its bracket.  ``np.cumprod`` and ``np.cumsum``
    accumulate one row after the other, so each entry rounds exactly as
    the scalar loop ``term *= step; total += term`` does.
    """
    p = np.empty((steps.shape[0] + 1, term.size))
    p[0] = term
    p[1:] = steps
    p = np.cumprod(p, axis=0)
    s = np.empty_like(p)
    s[0] = total
    if bracket is None:
        s[1:] = p[1:]
    else:
        np.multiply(p[:-1], bracket, out=s[1:])
    return p, np.cumsum(s, axis=0)


def _log_series_w(w: np.ndarray, logw: np.ndarray, term0: float, ratio, bracket,
                  abc: tuple[float, float, float]) -> np.ndarray:
    """Sum over n of term_n * bracket_n for each entry of ``w``, same bits
    as the scalar loop of the logarithmic connection formula.

    term_0 = ``term0`` and term_(n+1) = term_n * (ratio(n) * w);
    ``bracket(logw, ns)`` gives the brackets of the indices ``ns``, one row
    per index.  A loop stops after index n > 2 once the next term times
    logw, the size of the bracket's growing part, is below _SERIES_RTOL of
    the sum; past _SERIES_CAP terms it raises ConvergenceError, naming the
    worst w and the parameters ``abc`` = (a, b, c) of the 2F1 being
    evaluated.
    """
    out = np.empty(w.size)
    idx = np.arange(w.size)
    term = np.full(w.size, term0)
    total = np.zeros(w.size)
    n = 0
    while idx.size and n < _SERIES_CAP:
        ns = range(n, min(n + _W_BLOCK, _SERIES_CAP))
        steps = np.array([ratio(k) for k in ns])[:, None] * w
        p, s = _w_block(term, total, steps, bracket(logw, ns))
        stop = np.abs(p[1:] * logw) < _SERIES_RTOL * np.abs(s[1:])
        stop[:max(0, 3 - n)] = False
        done = stop.any(axis=0)
        cols = np.flatnonzero(done)
        out[idx[cols]] = s[stop[:, cols].argmax(axis=0) + 1, cols]
        keep = ~done
        idx, w, logw, term, total = idx[keep], w[keep], logw[keep], p[-1, keep], s[-1, keep]
        n += len(ns)
    if idx.size:
        a, b, c = abc
        raise ConvergenceError(
            f"2F1 logarithmic connection series exceeded {_SERIES_CAP} terms; "
            f"worst w = {w.max()} at (a={a}, b={b}, c={c})")
    return out


def _is_generic(a: float, b: float, c: float) -> bool:
    """Whether the normalized set (a, b, c), d = c-a-b >= 0, sums the
    generic two-series connection formula: d at least _WIDE_GAP from an
    integer, or nearer but not on it at a 1/Gamma pole (c-a or c-b a
    non-positive integer), where one series vanishes and nothing cancels.
    A normalized a or b that is a non-positive integer terminates, so
    ``hyp2f1_grid`` gives its set no near-one window."""
    d = c - a - b
    eps = d - round(d)
    return abs(eps) >= _WIDE_GAP or bool(eps) and (_is_nonpos_int(c - a) or _is_nonpos_int(c - b))


@np.errstate(over="ignore", invalid="ignore")  # silent like the scalar float loops
def _near_one_generic(table: np.ndarray, rows: np.ndarray | None, z: np.ndarray) -> np.ndarray:
    """The generic connection formula (DLMF 15.8.4) on a 1-D array ``z`` of
    arguments close to 1, entry i with the set ``table[rows[i]]`` of an
    (S, 3) table of normalized (a, b, c), d = c-a-b >= 0, or with its one
    row when ``rows`` is None; ``hyp2f1_grid`` applies the Euler prefactor.

    Per set: d and the two Gamma-ratio coefficients.  Then, over all the
    entries at once, one ``_series_vec`` call per connection series, with
    per-set parameters (a, b, 1-d) and (c-a, c-b, 1+d), and one numpy power
    for w^d, its exponent an array of each entry's d.  Each entry sees the
    operations of a one-set call in the same order, so it has that call's
    bits whatever else shares the array; a one-set call keeps
    ``_series_vec``'s scalar-ratio path.
    """
    w = 1.0 - z
    at = np.zeros(z.size, dtype=np.intp) if rows is None else rows
    s1, s2 = np.array([(gamma_ratio_log((c, c - a - b), (c - a, c - b)),
                        gamma_ratio_log((c, -(c - a - b)), (a, b)))
                       for a, b, c in table.tolist()])[at].T
    a, b, c = table.T
    d = c - a - b
    first = np.stack([a, b, 1.0 - d], axis=1)
    second = np.stack([c - a, c - b, 1.0 + d], axis=1)
    return s1 * _series_vec(first, rows, w) + s2 * w ** d[at] * _series_vec(second, rows, w)


@np.errstate(over="ignore", invalid="ignore")  # silent like the scalar float loops
def _near_one_log(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """The logarithmic connection formula (DLMF 15.8.10) in powers of
    w = 1-z, for a 1-D array ``z`` of arguments close to 1 and one
    normalized parameter set, d = c-a-b >= 0 within _WIDE_GAP of an
    integer; ``hyp2f1_grid`` applies the Euler prefactor.

    d = m + eps with integer m >= 0.  The formula is a finite sum of m
    terms plus one series, summed by ``_log_series_w``, whose brackets and
    scale ``_near_int_bracket`` builds for every eps, 0 included; its
    Gamma-ratio coefficients and the per-index constants of the brackets
    are computed once per call.  Each entry gets the bits of a per-entry
    evaluation of the same formula in the same order of operations, through
    ``np.log``/``np.exp``/``np.expm1``, whatever else shares the array.  The
    a and b must not be non-positive integers (``hyp2f1_grid`` sums those
    sets' terminating series instead); c < 0 is allowed.
    """
    w = 1.0 - z
    logw = np.log(w)
    d = c - a - b
    m = round(d)
    eps = d - m
    finite = np.zeros(w.size)
    term = np.ones(w.size)  # (a)_n (b)_n / (n! (1-m-eps)_n) * w^n
    for n in range(m):
        finite = finite + term
        if n + 1 < m:
            term = term * ((a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n - eps)) * w)
    # at m = 0 the finite sum is empty, and Gamma(m + eps) may be Gamma(0)
    first = gamma_ratio_log((m + eps, c), (a + m + eps, b + m + eps)) * finite if m else finite
    (ga, sa), (gb, sb), (gc, sc) = map(_log_gamma_signed, (a, b, c))
    front = sa * sb * sc * np.exp((gc - ga - gb) + m * logw)
    bracket, scale = _near_int_bracket(a + m, b + m, m, eps)
    # terms are (a+m)_n (b+m)_n / (n! (n+m)!) * w^n
    total = _log_series_w(
        w, logw, scale / math.gamma(m + 1.0),
        lambda n: (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)),
        bracket, (a, b, c))
    return first - ((-1.0) ** m) * front * total


def _near_int_bracket(p: float, q: float, m: int, eps: float):
    """Brackets and scale of the logarithmic connection series at
    c-a-b = m + eps, |eps| < _WIDE_GAP, with p = a+m and q = b+m.

    The generic formula's two series cancel like 1/eps near an integer m
    (Forrey 1997; Michel & Stoitsov 2008).  Pairing their n-th terms past
    the first m leaves the log-case series with the scale
    (pi eps / sin(pi eps)) Gamma(p) Gamma(q) / (Gamma(p+eps) Gamma(q+eps))
    and bracket v_n - u_n, where u_n = (Gamma(n+1)/Gamma(n+1-eps) - 1)/eps
    and v_n = (q_n - 1)/eps with q_n = w^eps Gamma(p+n+eps) Gamma(q+n+eps)
    Gamma(m+n+1) / (Gamma(p+n) Gamma(q+n) Gamma(m+n+1+eps)).  Both are
    carried from n to n+1 by recurrences that never divide a difference by
    eps.  Each quotient by eps takes its limit at eps = 0
    (``_gamma_ratio_m1``'s, expm1(eps log w)/eps -> log w and
    pi eps / sin(pi eps) -> 1), where the scale is 1 and the bracket
    log w + psi(p+n) + psi(q+n) - psi(m+n+1) - psi(n+1).
    """
    ra, rb = _gamma_ratio_m1(p, eps), _gamma_ratio_m1(q, eps)
    r1 = _gamma_ratio_m1(m + 1.0, eps)
    rq = _mul_m1(_mul_m1(ra, rb, eps), -r1 / (1.0 + eps * r1), eps)
    r0 = _gamma_ratio_m1(1.0, -eps)
    u = [r0 / (1.0 - eps * r0)]  # u_n
    s = [0.0]  # S_n = (q_n/q_0 - 1)/eps for the v_n = (q_n - 1)/eps above

    def bracket(lw, ns):
        while len(u) <= ns[-1]:
            n = len(u) - 1
            u.append((u[n] * (n + 1.0) + 1.0) / (n + 1.0 - eps))
            step = _mul_m1(_mul_m1(1.0 / (p + n), 1.0 / (q + n), eps),
                           -1.0 / (m + n + 1.0 + eps), eps)
            s.append(_mul_m1(s[n], step, eps))
        v0 = _mul_m1(rq, np.expm1(eps * lw) / eps if eps else lw, eps)
        sn = np.array([s[n] for n in ns])[:, None]
        un = np.array([u[n] for n in ns])[:, None]
        return v0 * (1.0 + eps * sn) + (sn - un)

    sinc = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
    return bracket, sinc / ((1.0 + eps * ra) * (1.0 + eps * rb))


def _series_vec(table: np.ndarray, rows: np.ndarray | None, z: np.ndarray) -> np.ndarray:
    """The raw series, chunked, over an array of z, each entry with its own
    row of a parameter table.

    ``table`` is an (S, 3) array of (a, b, c); ``rows`` gives each entry's
    row, with the shape of ``z``, or is None when the table has one row.
    The flattened input is summed in consecutive slices of _CACHE_BLOCK
    entries, so that a slice's work arrays stay in cache however large the
    grid; each slice is written back in place and the result reshaped.
    Within a slice, the entries still summing are kept packed in contiguous
    arrays of z, term and partial sum, advanced a chunk at a time: 16, 16,
    32, then 64 terms (min(_CHUNK_MAX, max(_CHUNK_MIN, k)) after k terms),
    so that an entry that converges fast, such as a near-one connection
    series in w < 2e-2, stops after 16 terms, while from term 64 on the
    chunks are those of a fixed 64-term loop.  Finished entries are written
    back and the arrays shrink only between chunks.  Each chunk starts from
    the (chunk, S) table of term ratios
    ``(a + k) * (b + k) / ((c + k) * (k + 1))``, rounded as that scalar
    expression is.  While more than _BLOCK_LIVE entries are live a chunk is
    that many in-place ``term *= z*ratio; total += term`` steps, multiplying
    by the ratio as a scalar when there is one row and gathering each
    entry's ratio otherwise; at or below it, a chunk is one ``_w_block``
    call on its step rows, which rounds each entry the same way with far
    fewer ufunc calls.  A chunk ends with the stopping test: the last term
    below _SERIES_RTOL of the sum.  Each entry sees the same arithmetic and
    stopping rule whatever else shares the array, the slice or the table,
    so a value depends on its own z and parameters alone.  c must not be a
    non-positive integer.  Past the term cap, the error names the worst
    unconverged z of the slice that hit it, with its parameters; in the
    near-one route, that z is w = 1-z and the parameters are those of the
    connection series, (a, b, 1-d) or (c-a, c-b, 1+d).
    """
    zflat = z.ravel()
    rflat = None if rows is None else rows.ravel()
    out = np.empty(zflat.size)
    for lo in range(0, zflat.size, _CACHE_BLOCK):
        hi = lo + _CACHE_BLOCK
        _series_slice(table, None if rflat is None else rflat[lo:hi], zflat[lo:hi], out[lo:hi])
    return out.reshape(z.shape)


def _series_slice(table: np.ndarray, rows: np.ndarray | None, zp: np.ndarray,
                  out: np.ndarray) -> None:
    """``_series_vec``'s packed loop on one 1-D slice, summed into ``out``."""
    # one set: scalar parameters, and a scalar ratio per in-place step
    a, b, c = table[0].tolist() if rows is None else table.T
    idx = np.arange(zp.size)
    term = np.ones(zp.size)
    total = np.ones(zp.size)
    step = np.empty(zp.size)
    k = 0
    while idx.size:
        ks = np.arange(k, k + min(_CHUNK_MAX, max(_CHUNK_MIN, k)), dtype=float)[:, None]
        ratio = (a + ks) * (b + ks) / ((c + ks) * (ks + 1.0))  # (chunk, S)
        if idx.size > _BLOCK_LIVE:
            for r in (ratio.ravel().tolist() if rows is None else ratio):
                if rows is None:
                    np.multiply(zp, r, out=step)
                else:
                    np.take(r, rows, out=step)  # each entry's ratio
                    np.multiply(zp, step, out=step)
                np.multiply(term, step, out=term)
                np.add(total, term, out=total)
        else:
            steps = (ratio if rows is None else ratio[:, rows]) * zp
            p, s = _w_block(term, total, steps)
            term, total = p[-1], s[-1]
        k += len(ks)
        done = np.abs(term) < _SERIES_RTOL * np.abs(total)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, zp, term, total = idx[keep], zp[keep], term[keep], total[keep]
            rows = None if rows is None else rows[keep]
            step = step[:idx.size]
        if k >= _SERIES_CAP and idx.size:
            worst = int(zp.argmax())
            pa, pb, pc = table[0 if rows is None else rows[worst]].tolist()
            raise ConvergenceError(
                f"2F1 series exceeded {_SERIES_CAP} terms on a grid; worst z = "
                f"{zp[worst]} at (a={pa}, b={pb}, c={pc})")


def _parameter_sets(a, b, c, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct (a, b, c) of a ``hyp2f1_grid`` call as the rows of an
    (S, 3) table, and each flattened entry's row (None for scalar
    parameters, whose table has one row).  Every c is checked first."""
    if np.ndim(a) == np.ndim(b) == np.ndim(c) == 0:
        _check_c(float(c))
        return np.array([[a, b, c]], dtype=float), None
    abc = [np.asarray(p, dtype=float) for p in (a, b, c)]
    try:
        own = np.broadcast_shapes(*(p.shape for p in abc))
        fits = np.broadcast_shapes(own, shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"2F1 parameters of shapes {[p.shape for p in abc]} "
                         f"do not broadcast to z's shape {shape}")
    flat = np.stack([np.broadcast_to(p, own).ravel() for p in abc], axis=1)
    table, inverse = np.unique(flat, axis=0, return_inverse=True)
    for cc in table[:, 2].tolist():
        _check_c(cc)
    if len(table) == 1:
        return table, None
    return table, np.broadcast_to(inverse.reshape(own), shape).ravel()


def _by_row(rows: np.ndarray | None, mask: np.ndarray):
    """The entries of a boolean ``mask`` split by parameter row: (row,
    index) pairs in row order, each index selecting that row's entries in
    their order."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return []
    if rows is None:
        return [(0, idx)]
    r = rows[idx]
    order = np.argsort(r, kind="stable")
    idx, r = idx[order], r[order]
    cuts = np.flatnonzero(r[1:] != r[:-1]) + 1
    return [(int(r[lo]), part) for lo, part in zip([0, *cuts.tolist()], np.split(idx, cuts))]


def _present_sets(table: np.ndarray, rows: np.ndarray | None,
                  idx: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of ``table`` that the entries ``idx`` use, in row order, and
    each entry's row in that smaller table (None when there is one)."""
    if rows is None:
        return table, None
    used, local = np.unique(rows[idx], return_inverse=True)
    return table[used], None if used.size == 1 else local


def hyp2f1_grid(a, b, c, z: np.ndarray) -> np.ndarray:
    """2F1(a,b;c;z) over an array of arguments in [0,1).

    ``a``, ``b`` and ``c`` are floats, shared by every entry, or arrays that
    broadcast to the shape of ``z`` (an (R, 1) column of parameters against
    an (R, n) grid, say); the result has the shape of ``z``.  A c that is a
    non-positive integer, anywhere in an array, or parameters that do not
    broadcast to ``z.shape``, raise ValueError before any arithmetic.

    The entries are grouped by their distinct (a, b, c), and each set takes
    the routes of the module docstring as a one-set call would: the
    terminating case, the near-one window 1-z < 2e-2 (the generic
    connection formula when c-a-b is at least 0.1 from an integer, the
    logarithmic form nearer), and the Euler transform when c-a-b < 0.  Each
    set is normalized once: where c-a-b < 0, the mid band and the window
    sum the set (c-a, c-b, c), and every entry above z = 0.7 is then
    multiplied by (1-z)^(c-a-b) in one numpy power with a per-entry
    exponent.  The raw and the normalized series of every set run together
    in one packed pass per band (z <= 0.7, then the rest), each entry
    stopping at the first chunk of 16, 16, 32, then 64 terms that
    converges.  The near-one entries of every set that takes the generic
    connection formula go through ``_near_one_generic`` together:
    per-set coefficients, then one multi-row ``_series_vec`` call per
    connection series and one power for w^d over all of them (a one-set
    call keeps the scalar-ratio series path).  The logarithmic form runs
    set by set.  Both take slices of _NEAR_ONE_BLOCK entries, so that
    their work arrays stay small however large the grid.  Each entry's
    value depends on its own (a, b, c, z) alone, never on the other entries
    or sets, and has the bits of a one-set call on that entry; so a caller
    may evaluate any subset of a grid (``hyp2f1_outer`` sends it the
    upper-triangle entries its blocks do not sum), or many parameter sets
    at once, and place the values back unchanged.  The prefactor overflows
    to inf without a warning, like the connection formulas' arithmetic; a
    per-set Gamma ratio out of double range raises OverflowError.  A
    ConvergenceError from the near-one route names the worst unconverged w
    of the slice that raised it, with the parameters of its set's
    connection series, or the normalized set for the logarithmic form.
    """
    z = np.asarray(z, dtype=float)
    table, rows = _parameter_sets(a, b, c, z.shape)
    if z.size and (z.min() < 0.0 or z.max() >= 1.0):
        raise ValueError("hyp2f1_grid needs 0 <= z < 1")
    zf = z.ravel()
    # per set: the normalized parameters, with c-a-b >= 0, that the mid band
    # and the near-one routes sum, the Euler exponent c-a-b where the
    # transform applies (0 elsewhere), whether it has a near-one window and
    # whether that takes the generic connection formula, and whether the
    # raw series terminates and takes every entry
    normalized = table.copy()
    exponent = np.zeros(len(table))
    window = np.zeros(len(table), dtype=bool)
    generic = np.zeros(len(table), dtype=bool)
    terminating = np.zeros(len(table), dtype=bool)
    for s, (pa, pb, pc) in enumerate(table.tolist()):
        if _is_nonpos_int(pa) or _is_nonpos_int(pb):
            terminating[s] = True
            continue
        if pc - pa - pb < 0.0:
            exponent[s] = pc - pa - pb
            pa, pb = pc - pa, pc - pb
            normalized[s] = (pa, pb, pc)
            if _is_nonpos_int(pa) or _is_nonpos_int(pb):
                continue  # the transformed series is exact arbitrarily close to 1
        window[s] = True
        generic[s] = _is_generic(pa, pb, pc)
    at = 0 if rows is None else rows  # each entry's set
    out = np.empty(zf.size)
    low = (zf <= _RAW_SERIES_Z) | terminating[at]
    if low.any():
        out[low] = _series_vec(table, None if rows is None else rows[low], zf[low])
    # the other bands' masks only now, so that they are not live in the low pass
    high = ~low
    near = high & window[at] & (1.0 - zf < _NEAR_ONE_W)
    mid = high & ~near
    if mid.any():
        out[mid] = _series_vec(normalized, None if rows is None else rows[mid], zf[mid])
    # the generic connection formula for every set at once, then the
    # logarithmic form set by set
    idx = np.flatnonzero(near & generic[at])
    for lo in range(0, idx.size, _NEAR_ONE_BLOCK):
        part = idx[lo:lo + _NEAR_ONE_BLOCK]
        out[part] = _near_one_generic(*_present_sets(normalized, rows, part), zf[part])
    for s, idx in _by_row(rows, near & ~generic[at]):
        for lo in range(0, idx.size, _NEAR_ONE_BLOCK):
            part = idx[lo:lo + _NEAR_ONE_BLOCK]
            out[part] = _near_one_log(*normalized[s].tolist(), zf[part])
    # the Euler prefactor (1-z)^(c-a-b) of every transformed entry, mid band
    # and window alike: one power with each entry's exponent
    flipped = high & (exponent[at] < 0.0)
    if flipped.any():
        with np.errstate(over="ignore", invalid="ignore"):
            out[flipped] *= (1.0 - zf[flipped]) ** np.broadcast_to(exponent[at], zf.shape)[flipped]
    return out.reshape(z.shape)


def _dyadic_groups(t: np.ndarray) -> np.ndarray:
    """Start indices of contiguous groups of ascending ``t`` in [0,1), and
    t.size, cut where log(1/t) crosses a power of 2 (where 1 - t does, near
    1).  Across two groups at one scale each, log(1/(t_i t_j)) =
    log(1/t_i) + log(1/t_j) changes by at most a factor 2, and with it the
    terms a 2F1 series needs, ~37/log(1/z).  Three kinds of scales share a
    group: those with log(1/t) below the largest power of 2 up to
    _NEAR_ONE_W / 2, the corner, any two of which multiply to a z in the
    near-one window (1 - z <= log(1/z)); those with log(1/t) >= 1
    (t <= 1/e), where a series needs at most ~37 terms; and, below the
    corner, neighbours that hold fewer than _GROUP_MIN nodes together,
    where a block would cost more in calls than it saves in terms."""
    corner = math.floor(math.log2(_NEAR_ONE_W / 2.0)) - 1
    with np.errstate(divide="ignore"):
        key = np.clip(np.floor(np.log2(-np.log(t))), corner, 0.0)
    starts = [0]
    for cut in (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist():
        if cut - starts[-1] >= _GROUP_MIN or key[cut] == corner:
            starts.append(cut)
    return np.array(starts + [t.size])


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sum fails its block
def _series_lengths(a: float, b: float, c: float,
                    z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each z of a 1-D array in [0,1), the number of terms N of the
    non-negative series sum_n c_n z^n that meets the tail bound, and its
    partial sum S_N; N = 0 where no N up to _SERIES_CAP does or a sum
    overflows.

    With c_(n+1) = c_n r_n, r_n = (a+n)(b+n)/((c+n)(n+1)) and
    r_n - 1 = ((a+b-c-1) n + ab - c)/((c+n)(n+1)), every r_m with m >= N is
    at most R_N = 1 + max(a+b-c-1, 0)/(N+1) + max(ab-c, 0)/((c+N)(N+1)), so
    the tail from N on is at most c_N z^N / (1 - z R_N) once z R_N < 1.  N
    is the first count at which that bound is below _SERIES_RTOL of S_N.
    The tail's share of the sum grows with z, so the N of a block's
    largest z serves every entry of the block.
    """
    alpha, beta = max(a + b - c - 1.0, 0.0), max(a * b - c, 0.0)
    count = np.zeros(z.size, dtype=np.intp)
    partial = np.zeros(z.size)
    idx = np.arange(z.size)
    term, total = np.ones(z.size), np.ones(z.size)  # c_k z^k and S_(k+1)
    ratio = edge = np.empty(0)  # per k: r_k, and _SERIES_RTOL R_N at N = k + 1
    k = 0
    while idx.size and k < _SERIES_CAP:
        # a chunk as long as the terms so far (at least _CHUNK_MAX), but at
        # most _CACHE_BLOCK entries (at least _CHUNK_MIN terms)
        stop = min(k + min(max(_CHUNK_MAX, k), max(_CHUNK_MIN, _CACHE_BLOCK // idx.size)),
                   _SERIES_CAP)
        if stop > ratio.size:
            ks = np.arange(min(max(stop, 4 * ratio.size), _SERIES_CAP), dtype=float)
            n = ks + 1.0
            ratio = (a + ks) * (b + ks) / ((c + ks) * n)
            edge = _SERIES_RTOL * (1.0 + alpha / (n + 1.0) + beta / ((c + n) * (n + 1.0)))
        p = np.multiply.outer(ratio[k:stop], z)
        p[0] *= term
        np.cumprod(p, axis=0, out=p)  # row j: c_N z^N, N = k + 1 + j
        s = np.empty((stop - k + 1, idx.size))  # row j: S_N
        s[0] = total
        np.cumsum(p, axis=0, out=s[1:])
        s[1:] += total
        # _SERIES_RTOL (1 - z R_N) S_N, negative where z R_N >= 1
        bound = np.multiply.outer(edge[k:stop], z)
        np.subtract(_SERIES_RTOL, bound, out=bound)
        bound *= s[:-1]
        met = p < bound
        first = met.argmax(axis=0)
        done = met[first, np.arange(idx.size)]
        keep = ~done & np.isfinite(s[-1])
        if not keep.all():
            count[idx[done]] = k + 1 + first[done]
            partial[idx[done]] = s[first[done], done.nonzero()[0]]
            idx, z = idx[keep], z[keep]
        term, total = p[-1, keep], s[-1, keep]
        k = stop
    return count, partial


def _power_table(t: np.ndarray, count: int, scale: np.ndarray | None = None) -> np.ndarray:
    """[t_i^n] for n < ``count``, one row per node, times ``scale[n]`` when
    given, with subnormal entries flushed to 0.  t^(q m + r) is the product
    of np.power's t^(q m) and t^r, m = _POWER_STEP, r < m, so that np.power
    runs on a fraction of the entries."""
    step = min(count, _POWER_STEP)
    reps = -(-count // step)
    table = np.empty((t.size, reps, step))
    np.multiply(np.power(t[:, None], step * np.arange(reps, dtype=float))[:, :, None],
                np.power(t[:, None], np.arange(step, dtype=float))[:, None, :], out=table)
    table = table.reshape(t.size, reps * step)[:, :count]
    if scale is not None:
        table *= scale[:count]
    if table.min() < _TINY:
        table[table < _TINY] = 0.0
    return table


def _near_starts(t: np.ndarray) -> np.ndarray:
    """For each node t_i of ascending ``t``, the first j with t_i t_j in the
    near-one window (1 - t_i t_j < _NEAR_ONE_W, as ``hyp2f1_grid`` decides
    it), or t.size: the window is a suffix of every row."""
    n = t.size
    with np.errstate(divide="ignore"):
        k = np.searchsorted(t, (1.0 - _NEAR_ONE_W) / t)
    while True:  # the rounded products are monotone, so k moves one way
        back = (k > 0) & (1.0 - t * t[np.maximum(k - 1, 0)] < _NEAR_ONE_W)
        ahead = (k < n) & ~(1.0 - t * t[np.minimum(k, n - 1)] < _NEAR_ONE_W)
        if not (back.any() or ahead.any()):
            return k
        k = k - back + ahead


def _block_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """One block of a product grid: sum_n left[i, n] right[j, n] (BLAS dgemm)."""
    return left @ right.T


def hyp2f1_outer(a: float, b: float, c: float, t) -> np.ndarray:
    """The exactly symmetric grid 2F1(a, b; c; t_i t_j) for ascending t in
    [0,1) and a series with non-negative terms (a, b >= 0, c > 0).

    The Gauss series sum_n c_n (t_i t_j)^n is a sum of rank-one terms
    (t_i^n)(t_j^n), a degenerate kernel (Atkinson, The Numerical Solution
    of Integral Equations of the Second Kind, 1997, ch. 2).  The nodes are
    split into contiguous groups at dyadic scales of log(1/t), which near
    1 are those of 1 - t (``_dyadic_groups``).  A block of two groups in
    the upper triangle whose largest product z is below the near-one cut
    1 - _NEAR_ONE_W is one dgemm T_I (T_J diag(c_0 ... c_(N-1)))^T, with
    T = [t^n] (``_power_table``) and N from the tail bound of
    ``_series_lengths`` at that z; a block that straddles the cut takes N
    at its largest z below the cut.  A row group's power table has the
    columns of its own largest N, is made at its first block and freed
    after its last; a column group is scaled by the c_n in tiles of at
    most _TILE entries.  No dgemm operand holds a subnormal.  Each block
    is written into the upper triangle and mirrored, and a diagonal tile
    takes its lower triangle from its upper one, so the grid is exactly
    symmetric.

    ``hyp2f1_grid`` takes the rest at the rounded products, whole rows at a
    time in slices of at most _OUTER_SLICE entries: in each row, the
    entries at or above the cut (``_near_starts``), and every entry from
    the first block of its row group whose N passes _SERIES_CAP, whose
    coefficients overflow or whose sum at its largest z could overflow.
    A dgemm entry is the series at the exact product t_i t_j, summed in
    BLAS's order; it differs from ``hyp2f1_grid`` at the rounded product by
    about z F'(z)/F(z) units of rounding of z, plus a few of the sum.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or (t.size and not 0.0 <= t[0] <= t[-1] < 1.0) or np.any(np.diff(t) < 0.0):
        raise ValueError("hyp2f1_outer needs a 1-D ascending t in [0,1)")
    if not (a >= 0.0 and b >= 0.0 and c > 0.0):
        raise ValueError(f"hyp2f1_outer needs a, b >= 0 and c > 0, got ({a}, {b}, {c})")
    n = t.size
    out = np.empty((n, n))
    if not n:
        return out
    starts = _dyadic_groups(t)
    groups = [slice(lo, hi) for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())]
    # the blocks g <= h of the upper triangle, column by column: which lie
    # wholly in the near-one window, and the z each other one's N is sized at
    col, row = np.tril_indices(len(groups))
    top = t[starts[1:] - 1]
    tops = top[row] * top[col]
    above = 1.0 - t[starts[row]] * t[starts[col]] < _NEAR_ONE_W
    zs = tops.copy()
    for k in np.flatnonzero(~above & (1.0 - tops < _NEAR_ONE_W)).tolist():
        prod = np.multiply.outer(t[groups[row[k]]], t[groups[col[k]]])
        zs[k] = prod[1.0 - prod >= _NEAR_ONE_W].max()
    count, partial = np.zeros(zs.size, dtype=np.intp), np.zeros(zs.size)
    count[~above], partial[~above] = _series_lengths(a, b, c, zs[~above])
    ks = np.arange(count.max(initial=1) - 1, dtype=float)
    with np.errstate(over="ignore"):
        coef = np.cumprod(np.concatenate(([1.0], (a + ks) * (b + ks) / ((c + ks) * (ks + 1.0)))))
    overflow = ~np.isfinite(coef)
    finite = int(overflow.argmax()) if overflow.any() else coef.size  # finite c_n, n < this
    # a straddling block sums its entries above the cut too: there S_N is at
    # most S_N(z) (top/z)^(N-1), which must stay inside double range
    with np.errstate(divide="ignore"):
        growth = np.log(np.divide(tops, zs, out=np.ones_like(zs), where=tops > zs))
        headroom = np.log(partial) + np.maximum(count - 1, 0) * growth
    failed = ~above & ~((count > 0) & (count <= finite) & (headroom < _LOG_HUGE))
    # the first column of each row group that hyp2f1_grid takes whole
    give_up = np.full(len(groups), n)
    np.minimum.at(give_up, row[failed], starts[col[failed]])
    summed = ~above & (starts[col] < give_up[row])
    # each group's largest N as a row group and as a column group, and the
    # last column group a row group is summed with
    row_width, col_width = np.zeros((2, len(groups)), dtype=np.intp)
    np.maximum.at(row_width, row[summed], count[summed])
    np.maximum.at(col_width, col[summed], count[summed])
    last = np.full(len(groups), -1)
    np.maximum.at(last, row[summed], col[summed])
    tables: dict[int, np.ndarray] = {}
    for h, cols in enumerate(groups):
        mine = np.flatnonzero(summed & (col == h))
        if not mine.size:
            continue
        for done in [g for g in tables if last[g] < h]:
            del tables[done]
        blocks = list(zip(row[mine].tolist(), count[mine].tolist()))
        for g, _ in blocks:
            if g not in tables:
                tables[g] = _power_table(t[groups[g]], row_width[g])
        width = col_width[h]
        size = max(1, _TILE // width)
        for lo in range(cols.start, cols.stop, size):
            tile = slice(lo, min(lo + size, cols.stop))
            # from the group's own row table, when it has one wide enough
            if h in tables and row_width[h] >= width:
                scaled = tables[h][lo - cols.start:tile.stop - cols.start, :width] * coef[:width]
                if scaled.min() < _TINY:
                    scaled[scaled < _TINY] = 0.0
            else:
                scaled = _power_table(t[tile], width, coef)
            for g, m in blocks:
                rows = groups[g] if g < h else slice(cols.start, tile.stop)
                block = _block_sum(tables[g][:rows.stop - rows.start, :m], scaled[:, :m])
                out[rows, tile] = block
                out[tile, rows] = block.T
                if g == h:  # the tile's own square, from its upper triangle
                    square = block[lo - cols.start:]
                    np.copyto(out[tile, tile], square, where=~np.tri(len(square), dtype=bool))
    del tables
    # the rest of each row, by hyp2f1_grid, whole rows at a time
    group = np.repeat(np.arange(len(groups)), np.diff(starts))
    begin = np.maximum(np.arange(n), np.minimum(_near_starts(t), give_up[group]))
    rest = np.flatnonzero(begin < n)
    length = n - begin[rest]
    ends = np.cumsum(length)
    lo = 0
    while lo < rest.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - length[lo] + _OUTER_SLICE, "right")))
        size = length[lo:hi]
        i = np.repeat(rest[lo:hi], size)
        j = np.arange(i.size) + np.repeat(begin[rest[lo:hi]] - (np.cumsum(size) - size), size)
        out[i, j] = out[j, i] = hyp2f1_grid(a, b, c, t[i] * t[j])
        lo = hi
    return out


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a,b;c;z) for z in [0,1]: Gauss summation at
    z = 1, else the one entry of ``hyp2f1_grid``.  A c that is a
    non-positive integer raises ValueError first, then a z outside [0,1]
    ValueError, and z = 1 with c-a-b <= 0 DivergenceError."""
    _check_c(c)
    if z == 1.0:
        return hyp2f1_at_one(a, b, c)
    return float(hyp2f1_grid(a, b, c, np.array([z]))[0])
