"""Unit-ball consequences of the interval operator.

Every norm on the ball reduces to the interval machinery through two
facts: the weighted volume normalizer c_sigma, and the radial reduction
(applying the positive-kernel majorant to a radial function h(w) =
H(|w|^2) is c_sigma times the interval operator applied to H).  This
module evaluates the resulting closed forms -- the majorant's exact
L^p norm, its conjugate, the projection's exact L^1/L^2 norms with the
interpolated bound, the Bloch-space constants, and the Berezin transform
norms -- plus small two-dimensional disc quadratures used purely as
independent cross-checks of the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .intop import (
    OperatorParams,
    _as_exponent,
    apply,
    kernel_moments,
    require_bounded,
)
from .quadrature import DEFAULT_ORDER, QuadratureError, make_jacobi_rule
from .specfun import hyp2f1_grid, log_gamma

__all__ = [
    "BallParams",
    "RadialFunction",
    "BergmanNorms",
    "BlochConstants",
    "c_sigma",
    "sphere_kernel_average",
    "radial_apply",
    "tilde_norm_formula",
    "conj_tilde_norm_formula",
    "bergman_exact_norms",
    "riesz_thorin_bound",
    "bloch_constants",
    "berezin_norm",
    "berezin_l2_doublefactorial",
    "berezin_asymptotic_p_to_1",
    "berezin_apply_disc",
    "berezin_radial_apply",
    "tilde_apply_disc",
]

#: direct 2-D disc quadratures refuse evaluation points beyond this radius;
#: the kernel mass concentrates too sharply for the fixed polar grid there
DISC_RADIUS_LIMIT = 0.95

_DISC_RADIAL_ORDER = 96
_DISC_ANGULAR_ORDER = 384


def _check_dimension(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class BallParams:
    """Dimension and weight exponent of the ball-side operators.

    ``n`` is the complex dimension (a positive integer; the disc is n=1)
    and ``sigma > -1`` the exponent of the radial weight (1-|w|^2)^sigma.
    ``lam = (n+sigma+1)/2`` is the half-exponent of the kernel.
    """

    n: int
    sigma: float
    lam: float = field(init=False)

    def __post_init__(self):
        _check_dimension(self.n)
        if not self.sigma > -1.0:
            raise ValueError(f"sigma must exceed -1, got {self.sigma!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "lam", (self.n + self.sigma + 1.0) / 2.0)

    @property
    def interval_params(self) -> OperatorParams:
        """The interval operator this ball problem reduces to (mu = n)."""
        return OperatorParams(float(self.n), self.sigma)


@dataclass(frozen=True)
class RadialFunction:
    """A radial function h(w) = H(|w|^2) given by its profile H on (0,1).

    The L^p norm over the ball equals the profile's weighted interval
    norm: ||h||_p^p = n * integral_0^1 s^(n-1) |H(s)|^p ds.
    """

    profile: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        return self.profile(np.asarray(s, dtype=float))

    def norm(self, n: int, p: float, order: int = DEFAULT_ORDER) -> float:
        exp = _as_exponent(p)
        rule = make_jacobi_rule(order, float(n), 1.0)
        values = np.abs(np.asarray(self.profile(rule.nodes), dtype=float))
        if exp.is_infinite:
            return float(np.max(values))
        return float((n * rule.integrate(values ** exp.p)) ** exp.inv)


def c_sigma(n: int, sigma: float) -> float:
    """Normalizer making c_sigma (1-|w|^2)^sigma dv a probability measure:
    Gamma(n+sigma+1) / (Gamma(sigma+1) Gamma(n+1)), in log domain."""
    if not sigma > -1.0:
        raise ValueError(f"sigma must exceed -1, got {sigma!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return math.exp(log_gamma(n + sigma + 1.0)
                    - log_gamma(sigma + 1.0) - log_gamma(n + 1.0))


def sphere_kernel_average(n: int, c: float, r2) -> float | np.ndarray:
    """Average of |1 - <z, zeta>|^(-(n+c)) over the unit sphere.

    Depends on z only through r2 = |z|^2 and equals
    2F1((n+c)/2, (n+c)/2; n; r2).  At c = -n the exponent vanishes and
    the average is identically 1.
    """
    half = (n + c) / 2.0
    r2_arr = np.atleast_1d(np.asarray(r2, dtype=float))
    if r2_arr.min() < 0.0 or r2_arr.max() >= 1.0:
        raise ValueError("r2 must lie in [0, 1)")
    out = hyp2f1_grid(half, half, float(n), r2_arr)
    return float(out[0]) if np.ndim(r2) == 0 else out


def radial_apply(bp: BallParams, H, r2, order: int = DEFAULT_ORDER):
    """The majorant operator on a radial function, via the reduction
    to the interval: c_sigma * (F H)(|z|^2) with mu = n."""
    return c_sigma(bp.n, bp.sigma) * apply(bp.interval_params, H, r2, order)


# ----------------------------------------------------------------------
# closed-form norms
# ----------------------------------------------------------------------

def tilde_norm_formula(bp: BallParams, p) -> float:
    """Exact L^p -> L^p norm of the positive-kernel majorant:

        Gamma(n+sigma+1) / (Gamma(lam)^2 Gamma(sigma+1))
            * Gamma(1/p) Gamma(sigma+1-1/p),

    finite exactly when sigma > 1/p - 1.  Evaluated directly in log
    domain; by construction it also equals c_sigma times the interval
    operator norm, which the tests exercise as a bridge identity.  It is
    also the upper bound this package uses for the Bergman projection's
    norm on L^p; at sigma = 0 it collapses by reflection to
    Gamma(n+1)/Gamma((n+1)/2)^2 * pi/sin(pi/p).
    """
    exp = _as_exponent(p)
    margin = require_bounded(bp.interval_params, exp)
    return math.exp(log_gamma(bp.n + bp.sigma + 1.0) - 2.0 * log_gamma(bp.lam)
                    - log_gamma(bp.sigma + 1.0)
                    + log_gamma(exp.inv) + log_gamma(margin))


def conj_tilde_norm_formula(bp: BallParams, p) -> float:
    """Norm of the conjugate (adjoint) majorant on L^p, 1 < p <= inf:
    by duality it is the majorant's norm at the conjugate exponent."""
    exp = _as_exponent(p)
    if exp.is_one:
        raise ValueError("the conjugate operator needs 1 < p <= infinity")
    return tilde_norm_formula(bp, exp.conjugate)


class BergmanNorms(NamedTuple):
    """Exact projection norms at the two classical exponents (None where
    the formula's range excludes sigma)."""

    l1: Optional[float]
    l2: Optional[float]


def bergman_exact_norms(bp: BallParams) -> BergmanNorms:
    """Exact norms of the weighted projection onto holomorphic functions:
    L^1 for sigma > 0, L^2 for sigma > -1/2."""
    l1 = None
    if bp.sigma > 0.0:
        l1 = math.exp(log_gamma(bp.sigma) - log_gamma(bp.sigma + 1.0)
                      + log_gamma(2.0 * bp.lam) - 2.0 * log_gamma(bp.lam))
    l2 = None
    if bp.sigma > -0.5:
        l2 = math.exp(0.5 * log_gamma(2.0 * bp.sigma + 1.0)
                      - log_gamma(bp.sigma + 1.0))
    return BergmanNorms(l1=l1, l2=l2)


def riesz_thorin_bound(bp: BallParams, p: float) -> float:
    """Interpolated projection bound on [1,2]: the exact L^1 and L^2
    norms combined with exponents 2/p - 1 and 2 - 2/p."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"interpolation covers 1 <= p <= 2, got {p!r}")
    require_bounded(bp.interval_params, 1.0)   # the L^1 endpoint: sigma > 0
    norms = bergman_exact_norms(bp)
    return math.exp((2.0 / p - 1.0) * math.log(norms.l1)
                    + (2.0 - 2.0 / p) * math.log(norms.l2))


class BlochConstants(NamedTuple):
    beta_norm: float
    full_norm: float


def bloch_constants(bp: BallParams) -> BlochConstants:
    """Semi-norm of the projection from L^inf into the Bloch space,
    Gamma(2 lam + 1)/Gamma(lam + 1/2)^2, and the full norm 1 + that."""
    beta = math.exp(log_gamma(2.0 * bp.lam + 1.0)
                    - 2.0 * log_gamma(bp.lam + 0.5))
    return BlochConstants(beta_norm=beta, full_norm=1.0 + beta)


# ----------------------------------------------------------------------
# Berezin transform
# ----------------------------------------------------------------------

def berezin_norm(n: int, p) -> float:
    """Exact L^p -> L^p norm of the Berezin transform on the ball:

        prod_{k=1}^n (1 + 1/(k p)) * (pi/p) / sin(pi/p)

    for 1 < p < inf, and exactly 1 at p = inf.  Diverges as p -> 1, so
    p <= 1 is rejected.
    """
    _check_dimension(n)
    exp = _as_exponent(p)
    if exp.is_infinite:
        return 1.0
    if exp.p <= 1.0:
        raise ValueError("the Berezin norm diverges as p -> 1; need p > 1")
    prod = math.prod(1.0 + 1.0 / (k * exp.p) for k in range(1, n + 1))
    x = math.pi / exp.p
    return prod * x / math.sin(x)


def berezin_l2_doublefactorial(n: int) -> float:
    """The L^2 Berezin norm in double-factorial form,
    (2n+1)!!/(2n)!! * pi/2, evaluated as sqrt(pi) Gamma(n+3/2)/Gamma(n+1)
    to avoid factorial overflow."""
    _check_dimension(n)
    return math.exp(0.5 * math.log(math.pi)
                    + log_gamma(n + 1.5) - log_gamma(n + 1.0))


def berezin_asymptotic_p_to_1(n: int, p: float) -> float:
    """Leading behavior (n+1)/(p-1) of the Berezin norm as p -> 1+."""
    _check_dimension(n)
    if not 1.0 < p < 1.2:
        raise ValueError(f"asymptotic regime is 1 < p < 1.2, got {p!r}")
    return (n + 1.0) / (p - 1.0)


def _polar_grid(radial_order: int, angular_order: int, beta: float = 0.0):
    """Tensor polar grid on the disc: Gauss-Jacobi in s = r^2 (optionally
    carrying (1-s)^beta) and a uniform angular trapezoid, which is exact
    for trigonometric polynomials."""
    if radial_order < 2 or angular_order < 4:
        raise ValueError("polar grid needs radial_order >= 2, angular_order >= 4")
    rule = make_jacobi_rule(radial_order, 1.0, beta + 1.0)
    theta = 2.0 * math.pi * np.arange(angular_order) / angular_order
    w = np.sqrt(rule.nodes)[:, None] * np.exp(1j * theta)[None, :]
    return rule, w


def _disc_integral(f, z, power: float, radial_order: int, angular_order: int,
                   beta: float = 0.0) -> float:
    """integral_U (1-|w|^2)^beta f(w) |1 - z conj(w)|^(-power) dv(w) on the
    polar grid, the radial weight folded into the rule; ``f`` takes the
    grid array or, failing that, one point at a time."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"evaluation point must lie in the open disc, got {z!r}")
    if abs(z) > DISC_RADIUS_LIMIT:
        raise QuadratureError(
            f"kernel too concentrated at |z| = {abs(z):.3f} > {DISC_RADIUS_LIMIT} "
            "for the fixed polar grid")
    rule, w = _polar_grid(radial_order, angular_order, beta=beta)
    try:
        values = np.asarray(f(w), dtype=float)
        if values.shape != w.shape:
            raise TypeError
    except TypeError:
        values = np.array([[float(f(x)) for x in row] for row in w])
    kernel = np.abs(1.0 - np.conj(z) * w) ** -power
    return float(rule.integrate(np.mean(values * kernel, axis=1)))


def berezin_apply_disc(f, z, radial_order: int = _DISC_RADIAL_ORDER,
                       angular_order: int = _DISC_ANGULAR_ORDER) -> float:
    """Berezin transform on the disc by direct 2-D polar quadrature:

        (1-|z|^2)^2 * integral_U f(w) / |1 - z conj(w)|^4 dv(w)

    with dv the normalized area measure.  This is deliberately
    independent of the radial-reduction pipeline (no kernel reductions,
    no interval operator) so it can cross-check them; it is not a
    general-purpose ball integrator.
    """
    integral = _disc_integral(f, z, 4, radial_order, angular_order)
    return (1.0 - abs(complex(z)) ** 2) ** 2 * integral


def tilde_apply_disc(sigma: float, f, z,
                     radial_order: int = _DISC_RADIAL_ORDER,
                     angular_order: int = _DISC_ANGULAR_ORDER) -> float:
    """The disc majorant applied by direct 2-D polar quadrature,

        c_sigma * integral_U (1-|w|^2)^sigma f(w) / |1 - z conj(w)|^(sigma+2) dv(w),

    with the radial weight (1-s)^sigma folded into the quadrature rule.
    Cross-checks ``radial_apply`` (the n = 1 radial reduction).
    """
    if not sigma > -1.0:
        raise ValueError(f"sigma must exceed -1, got {sigma!r}")
    return c_sigma(1, sigma) * _disc_integral(f, z, sigma + 2.0, radial_order,
                                              angular_order, beta=sigma)


def berezin_radial_apply(n: int, H, r2, order: int = DEFAULT_ORDER):
    """Berezin transform of a radial function via the radial reduction:

        (1-r2)^(n+1) * n * integral_0^1 s^(n-1)
            2F1(n+1, n+1; n; s r2) H(s) ds,

    i.e. the conjugate majorant at weight exponent n+1, divided by its
    normalizer.  The kernel 2F1(n+1, n+1; n; .) is the interval kernel at
    mu = n, sigma = n+1.  Valid for r2 in [0,1).
    """
    _check_dimension(n)
    r2_arr = np.atleast_1d(np.asarray(r2, dtype=float))
    if r2_arr.min() < 0.0 or r2_arr.max() >= 1.0:
        raise ValueError("r2 must lie in [0, 1)")
    rule = make_jacobi_rule(order, float(n), 1.0)
    moments = kernel_moments(OperatorParams(float(n), float(n + 1)), r2_arr,
                             rule, H(rule.nodes))
    out = (1.0 - r2_arr) ** (n + 1) * moments
    return float(out[0]) if np.ndim(r2) == 0 else out
