"""Special functions used throughout the package.

Everything here is self-contained double-precision code: a fixed-coefficient
Lanczos log-gamma, a shift-plus-asymptotic digamma, Pochhammer symbols, the
Euler beta function, and a Gauss hypergeometric evaluator 2F1(a,b;c;z) for
real parameters and z in [0,1], scalar (``hyp2f1``) or over an array of z
with shared parameters (``hyp2f1_grid``).

The 2F1 evaluator picks between three routes:

  * the raw power series (z <= 0.7, or whenever it terminates),
  * the Euler transform (1-z)^(c-a-b) * 2F1(c-a,c-b;c;z) when z > 0.7 and
    the transform improves the convergence exponent c-a-b,
  * a connection-formula evaluation in powers of w = 1-z when z is within
    _NEAR_ONE_W of 1, where both series above need ~1/(1-z) terms and blow
    past the term cap.  The connection route handles the generic
    (non-integer c-a-b) case and the logarithmic (integer) case, on a whole
    array of arguments at once; the scalar evaluator passes it one entry.

Series termination: a term below 1e-16 of the partial sum three times in a
row, with a hard cap of 100000 terms; exceeding the cap raises
ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "DivergenceError",
    "HypArgs",
    "SupResult",
    "beta_fn",
    "diag_sup",
    "digamma",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_grid",
    "log_gamma",
    "pochhammer",
]

_SERIES_RTOL = 1e-16
_SERIES_CONSEC = 3
_SERIES_CAP = 100_000
_RAW_SERIES_Z = 0.7
_NEAR_ONE_W = 5e-3      # switch to connection formulas when 1-z is below this
_INT_SNAP = 1e-6        # treat c-a-b this close to an integer as the log case
_W_BLOCK = 12           # terms per block of the near-one series
_POCH_LOG_SWITCH = 32   # product path below this k (exact recurrence), log path above

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


class ConvergenceError(RuntimeError):
    """A series or iteration failed to converge within its budget."""


class DivergenceError(ValueError):
    """A quantity that is genuinely infinite was requested.

    Carries a growth classification so callers can report *how* the
    divergence happens: ``growth`` is "logarithmic" or "power", and for the
    power class ``exponent`` is the (negative) exponent of (1-r).
    """

    def __init__(self, message, growth=None, coefficient=None, exponent=None):
        super().__init__(message)
        self.growth = growth
        self.coefficient = coefficient
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


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x), for real non-pole x.

    Recurrence pushes the argument above 8, then a Bernoulli-number
    asymptotic series; negative arguments use the reflection
    psi(x) = psi(1-x) - pi/tan(pi*x).
    """
    if x <= 0.0:
        if x == math.floor(x):
            raise ValueError(f"digamma pole at {x}")
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli tail: 1/12, -1/120, 1/252, -1/240, 1/132, -691/32760, 1/12
    tail = inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (
        1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def pochhammer(q: float, k: int) -> float:
    """Rising factorial (q)_k = q (q+1) ... (q+k-1), with (q)_0 = 1.

    Small k (and every non-positive q) use the literal left-to-right
    product, so the recurrence (q)_{k+1} = (q)_k * (q+k) holds exactly in
    floating point on that path.  Large positive q+k go through log-gamma.
    """
    if k < 0 or k != int(k):
        raise ValueError(f"pochhammer order must be a non-negative integer, got {k!r}")
    k = int(k)
    if k == 0:
        return 1.0
    if q > 0.0 and k > _POCH_LOG_SWITCH:
        return math.exp(log_gamma(q + k) - log_gamma(q))
    out = 1.0
    for i in range(k):
        out *= q + i
    return out


def beta_fn(a: float, b: float) -> float:
    """Euler beta B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b), a,b > 0, via logs."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_fn requires positive arguments, got ({a!r}, {b!r})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


@dataclass(frozen=True)
class HypArgs:
    """Argument bundle for 2F1(a,b;c;z) with the domain this package needs.

    Real parameters, z in [0,1]; c must not be a non-positive integer, and
    z = 1 is only admitted when c-a-b > 0 (otherwise the function has no
    finite value there).
    """

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        if self.c <= 0.0 and self.c == math.floor(self.c):
            raise ValueError(f"2F1 parameter c must not be a non-positive integer, got {self.c!r}")
        if not 0.0 <= self.z <= 1.0:
            raise ValueError(f"2F1 argument z must lie in [0,1], got {self.z!r}")
        if self.z == 1.0 and self.c - self.a - self.b <= 0.0:
            d = self.c - self.a - self.b
            raise DivergenceError(
                f"2F1 diverges at z=1 when c-a-b = {d} <= 0",
                growth="logarithmic" if d == 0.0 else "power",
                exponent=d if d < 0.0 else None,
            )


def _is_nonpos_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _series(a: float, b: float, c: float, z: float) -> float:
    """Raw defining series; c may be any real that never hits a zero factor."""
    term = 1.0
    total = 1.0
    small = 0
    for k in range(_SERIES_CAP):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if term == 0.0:
            return total
        if abs(term) < _SERIES_RTOL * abs(total):
            small += 1
            if small >= _SERIES_CONSEC:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"2F1 series exceeded {_SERIES_CAP} terms at (a={a}, b={b}, c={c}, z={z})")


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


def _map(f, x: np.ndarray) -> np.ndarray:
    """``f`` (a ``math`` function) on each entry of a 1-D array.

    ``np.log``/``np.exp`` can differ from libm in the last bit, so the
    near-one route calls the scalar functions the connection formulas were
    written with; errors such as ``math.exp`` overflow propagate unchanged.
    """
    return np.fromiter(map(f, x.tolist()), dtype=float, count=x.size)


def _w_block(term: np.ndarray, total: np.ndarray, steps: np.ndarray,
             bracket: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Terms and partial sums of one block of a series in w, one column per entry.

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


def _series_w(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """``_series(a, b, c, w)`` for each entry of a 1-D array ``w``, same bits.

    Terms are formed _W_BLOCK at a time by ``_w_block``; the stopping rule
    (a zero term, or three small terms in a row, _SERIES_CONSEC) is then
    applied to the block.  Entries still summing carry their term, sum and the
    smallness of their last two terms into the next block.
    """
    out = np.empty(w.size)
    idx = np.arange(w.size)
    term = np.ones(w.size)
    total = np.ones(w.size)
    last2 = np.zeros((2, w.size), dtype=bool)
    k = 0
    while idx.size:
        if k >= _SERIES_CAP:
            raise ConvergenceError(
                f"2F1 series exceeded {_SERIES_CAP} terms near z = 1; worst 1-z = "
                f"{w.max()} at (a={a}, b={b}, c={c})")
        ks = range(k, min(k + _W_BLOCK, _SERIES_CAP))
        ratio = np.array([(a + j) * (b + j) / ((c + j) * (j + 1)) for j in ks])
        p, s = _w_block(term, total, ratio[:, None] * w)
        tiny = np.concatenate([last2, np.abs(p[1:]) < _SERIES_RTOL * np.abs(s[1:])])
        stop = (p[1:] == 0.0) | (tiny[2:] & tiny[1:-1] & tiny[:-2])
        done = stop.any(axis=0)
        cols = np.flatnonzero(done)
        out[idx[cols]] = s[stop[:, cols].argmax(axis=0) + 1, cols]
        keep = ~done
        idx, w, term, total, last2 = (
            idx[keep], w[keep], p[-1, keep], s[-1, keep], tiny[-2:, keep])
        k += len(ks)
    return out


def _log_series_w(w: np.ndarray, logw: np.ndarray, term0: float, ratio, bracket,
                  scaled: bool) -> np.ndarray:
    """Sum over n of term_n * bracket_n for each entry of ``w``, same bits
    as the scalar loops of the logarithmic connection formulas.

    term_0 = ``term0`` and term_(n+1) = term_n * (ratio(n) * w);
    ``bracket(logw, ns)`` gives the brackets of the indices ``ns``, one row
    per index.  A loop stops after index n > 2 once the next term (times
    logw when ``scaled``) is below _SERIES_RTOL of the sum, and otherwise
    ends at _SERIES_CAP terms.
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
        nxt = p[1:] * logw if scaled else p[1:]
        stop = np.abs(nxt) < _SERIES_RTOL * np.abs(s[1:])
        stop[:max(0, 3 - n)] = False
        done = stop.any(axis=0)
        cols = np.flatnonzero(done)
        out[idx[cols]] = s[stop[:, cols].argmax(axis=0) + 1, cols]
        keep = ~done
        idx, w, logw, term, total = idx[keep], w[keep], logw[keep], p[-1, keep], s[-1, keep]
        n += len(ns)
    out[idx] = total
    return out


@np.errstate(over="ignore", invalid="ignore")  # silent like the scalar float loops
def _near_one_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Evaluate 2F1 in powers of w = 1-z via connection formulas, for a
    1-D array ``z`` of arguments close to 1.

    Normalizes first so the effective exponent d = c-a-b is positive
    (applying the Euler transform when it is negative), then uses the
    generic two-series connection formula, or its logarithmic limit when d
    sits (numerically) on a non-negative integer.  The Gamma-ratio
    coefficients and digamma constants are computed once per call; each
    entry gets the bits of a scalar evaluation in the same order of
    operations, through ``math.log``/``math.exp`` and ``_w_block``.
    """
    if not z.size:
        return np.empty(0)
    w = 1.0 - z
    logw = _map(math.log, w)
    d = c - a - b
    prefactor = None
    if d < 0.0:
        prefactor = _map(math.exp, d * logw)
        a, b = c - a, c - b
        d = -d
    m = round(d)
    if abs(d - m) > _INT_SNAP:
        # generic case: two analytic series in w
        s1 = gamma_ratio_log((c, d), (c - a, c - b))
        s2 = gamma_ratio_log((c, -d), (a, b))
        out = (s1 * _series_w(a, b, 1.0 - d, w)
               + s2 * _map(math.exp, d * logw) * _series_w(c - a, c - b, 1.0 + d, w))
        return out if prefactor is None else prefactor * out
    # logarithmic case, c = a + b + m with integer m >= 0
    if m == 0:
        front = gamma_ratio_log((c,), (a, b))
        # terms are (a)_n (b)_n / (n!)^2 * w^n
        total = _log_series_w(
            w, logw, 1.0,
            lambda n: (a + n) * (b + n) / ((n + 1.0) * (n + 1.0)),
            lambda lw, ns: np.array([2.0 * digamma(n + 1.0) - digamma(a + n) - digamma(b + n)
                                     for n in ns])[:, None] - lw,
            scaled=False)
        return (front if prefactor is None else prefactor * front) * total
    finite = np.zeros(w.size)
    term = np.ones(w.size)  # (a)_n (b)_n / (n! (1-m)_n) * w^n
    for n in range(m):
        finite = finite + term
        if n + 1 < m:
            term = term * ((a + n) * (b + n) / ((n + 1.0) * (1.0 - m + n)) * w)
    first = gamma_ratio_log((float(m), c), (a + m, b + m)) * finite
    ga, sa = _log_gamma_signed(a)
    gb, sb = _log_gamma_signed(b)
    if sa == 0.0 or sb == 0.0:
        second = 0.0  # 1/Gamma pole kills the logarithmic branch
    else:
        front = sa * sb * _map(math.exp, (log_gamma(c) - ga - gb) + m * logw)

        def bracket(lw, ns):
            psi = np.array([(digamma(n + 1.0), digamma(n + m + 1.0),
                             digamma(a + n + m), digamma(b + n + m)) for n in ns]).T[..., None]
            return lw - psi[0] - psi[1] + psi[2] + psi[3]

        # terms are (a+m)_n (b+m)_n / (n! (n+m)!) * w^n
        total = _log_series_w(
            w, logw, 1.0 / math.exp(log_gamma(m + 1.0)),
            lambda n: (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)),
            bracket, scaled=True)
        second = -((-1.0) ** m) * front * total
    out = first + second
    return out if prefactor is None else prefactor * out


def _hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Strategy dispatcher; assumes the HypArgs domain has been validated."""
    if z == 0.0:
        return 1.0
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _series(a, b, c, z)  # terminating polynomial
    if z == 1.0:
        return hyp2f1_at_one(a, b, c)
    if z <= _RAW_SERIES_Z:
        return _series(a, b, c, z)
    d = c - a - b
    if d < 0.0 and (_is_nonpos_int(c - a) or _is_nonpos_int(c - b)):
        # transform side terminates: exact, any z
        return (1.0 - z) ** d * _series(c - a, c - b, c, z)
    if 1.0 - z < _NEAR_ONE_W:
        return float(_near_one_vec(a, b, c, np.array([z]))[0])
    if d < 0.0:
        # Euler transform raises the convergence exponent to -d > 0
        return (1.0 - z) ** d * _series(c - a, c - b, c, z)
    return _series(a, b, c, z)


def hyp2f1(args: HypArgs) -> float:
    """Gauss hypergeometric 2F1 on the validated HypArgs domain."""
    return _hyp2f1(args.a, args.b, args.c, args.z)


def _series_vec(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """Chunked vector version of the raw series (shared parameters).

    The entries still summing are kept packed in contiguous arrays of z,
    term, partial sum and small-term count, updated in place for 64 terms
    at a time; finished entries are written back and the arrays shrink only
    between chunks.  Each entry sees the same arithmetic and stopping rule
    whatever else shares the array, so a value does not depend on the grid
    it was evaluated in.  Accepts any shape.
    """
    out = np.ones(z.size)
    zp = z.ravel()
    idx = np.arange(z.size)
    term = np.ones(z.size)
    total = np.ones(z.size)
    small = np.zeros(z.size, dtype=np.int64)
    step = np.empty(z.size)
    k = 0
    while idx.size:
        for _ in range(64):
            ratio = (a + k) * (b + k) / ((c + k) * (k + 1))
            np.multiply(zp, ratio, out=step)
            np.multiply(term, step, out=term)
            np.add(total, term, out=total)
            k += 1
        tiny = np.abs(term) < _SERIES_RTOL * np.abs(total)
        small = np.where(tiny, small + 64, 0)
        done = small >= _SERIES_CONSEC
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, zp, term, total, small = (
                idx[keep], zp[keep], term[keep], total[keep], small[keep])
            step = step[:idx.size]
        if k >= _SERIES_CAP and idx.size:
            raise ConvergenceError(
                f"2F1 series exceeded {_SERIES_CAP} terms on a grid; worst z = "
                f"{zp.max()} at (a={a}, b={b}, c={c})")
    return out.reshape(z.shape)


def hyp2f1_grid(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1(a,b;c;z) over an array of arguments in [0,1), shared parameters.

    Same route selection as the scalar evaluator; the entries in the
    near-one window go through the connection formulas in one call.  Each
    entry's value depends on its own z alone, never on the other entries,
    so a caller may evaluate any subset of a grid (``intop`` builds its
    symmetric Nystrom grid from the upper triangle) and place the values
    back unchanged.
    """
    z = np.asarray(z, dtype=float)
    if z.size and (z.min() < 0.0 or z.max() >= 1.0):
        raise ValueError("hyp2f1_grid needs 0 <= z < 1")
    out = np.empty_like(z)
    d = c - a - b
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        return _series_vec(a, b, c, z)
    low = z <= _RAW_SERIES_Z
    if np.any(low):
        out[low] = _series_vec(a, b, c, z[low])
    high = ~low
    if not np.any(high):
        return out
    transform_terminates = d < 0.0 and (_is_nonpos_int(c - a) or _is_nonpos_int(c - b))
    near = high & (1.0 - z < _NEAR_ONE_W)
    if transform_terminates:
        near &= False  # the transformed series is exact arbitrarily close to 1
    mid = high & ~near
    if np.any(mid):
        zm = z[mid]
        if d < 0.0:
            out[mid] = (1.0 - zm) ** d * _series_vec(c - a, c - b, c, zm)
        else:
            out[mid] = _series_vec(a, b, c, zm)
    if np.any(near):
        out[near] = _near_one_vec(a, b, c, z[near])
    return out


@dataclass(frozen=True)
class SupResult:
    """Classification of sup over r in (0,1) of 2F1(x,x;y;r).

    kind "bounded": value is the (finite) supremum, attained at r -> 1.
    kind "logarithmic": grows like value * log(1/(1-r)).
    kind "power": grows like value * (1-r)**exponent with exponent < 0.
    """

    kind: str
    value: float
    exponent: float | None = None

    @property
    def bounded(self) -> bool:
        return self.kind == "bounded"


def diag_sup(x: float, y: float) -> SupResult:
    """Boundedness trichotomy for 2F1(x,x;y;r) on (0,1), keyed by y - 2x.

    The series has non-negative coefficients (the numerator parameters are
    equal, so each coefficient is a square over a positive factor), hence
    the function is nondecreasing and its sup is the r -> 1 limit.
    """
    if y <= 0.0:
        raise ValueError(f"diag_sup requires y > 0, got {y!r}")
    gap = y - 2.0 * x
    if gap > 0.0:
        return SupResult("bounded", gamma_ratio_log((y, gap), (y - x, y - x)))
    if gap == 0.0:
        return SupResult("logarithmic", gamma_ratio_log((2.0 * x,), (x, x)))
    return SupResult("power", gamma_ratio_log((y, -gap), (x, x)), exponent=gap)
