"""Independent numerical routes to the operator norm of F.

None of the routes trusts the closed form it is checking.

* L^1 and Schur are one column integral at three exponents: the
  weighted column integral C_beta(x) of ``column_closed``, scanned over
  an endpoint-refined grid by its hypergeometric reduction and by direct
  quadrature.  At beta = 0 it is the column mass integral K(s,x) dmu(s),
  whose supremum is the L^1 norm, closed at x -> 1 by Gauss summation.
  At beta = sigma - 1/p and beta = -1/q it is the right and left Schur
  quotient of the test function phi(t) = (1-t)^(-1/(pq)), whose suprema
  reproduce the closed-form norm from above;

* the extremal-family route: a two-parameter family of unit-norm function
  pairs whose bilinear forms against the operator are computable in closed
  form and climb to the norm from below as the family degenerates;

* the discrete route: the measure-weighted p-norm of a Nystrom matrix,
  bracketed from both sides by the power method from one positive start
  and checked at p = 2 by the top singular value (Lanczos).  It certifies
  the *matrix*, whose norm approaches the operator's from below as the
  order grows: like 1/log(order) on one Gauss-Jacobi rule (``discretize``,
  0.863*pi at order 256 for the flagship (1, 0, 2), the rule
  ``norm_report`` uses), faster on panels graded toward t = 1
  (``discretize_graded``, 0.956*pi at order 256).

``norm_report`` bundles all applicable routes for one (mu, sigma, p) into
a NormReport record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .intop import (
    DiscretizedOperator,
    LebesgueExponent,
    OperatorParams,
    UnboundedOperatorError,
    _as_exponent,
    boundedness_margin,
    discretize,
    kernel_moments,
    norm_formula,
)
from .quadrature import IDENTITY_CHECK_ORDER, QuadratureError, make_jacobi_rule
from .specfun import (
    ConvergenceError,
    beta_fn,
    diag_sup,
    hyp2f1_grid,
    log_gamma,
)

__all__ = [
    "ColumnProfile",
    "ExtremalFamily",
    "NormReport",
    "bilinear_form_closed",
    "bilinear_form_numeric",
    "column_closed",
    "column_quadrature",
    "family_on_path",
    "l1_norm_numeric",
    "l1_profile",
    "l2_opnorm_svd",
    "lower_bound_sweep",
    "lp_opnorm_numeric",
    "make_extremal_family",
    "norm_report",
    "schur_check",
    "schur_profile",
    "supremum_grid",
]

# quadrature cross-checks stop here; closer to 1 the integrands' near-pole
# at s = 1/t is too sharp for a fixed-order rule and only the analytic
# route remains trustworthy
QUAD_ROUTE_CUTOFF = 1.0 - 2.0 ** -6

# bilinear_form_numeric: entries per hyp2f1_grid call, and the coarse/fine
# gap above which the order is doubled once (acceptance criterion 5's 1e-7)
_TWIN_GRID_CAP = 8192
_TWIN_RTOL = 1e-7


def supremum_grid(grid_size: int = 64, k_max: int = 40) -> np.ndarray:
    """Chebyshev-spaced points of (0,1) plus geometric refinement 1 - 2^-k.

    The profiles being scanned increase toward the right endpoint, so the
    grid packs points there down to 1 - 2^-k_max.
    """
    if grid_size < 1 or k_max < 1:
        raise ValueError("grid_size and k_max must be positive")
    j = np.arange(1, grid_size + 1, dtype=float)
    cheb = 0.5 * (1.0 - np.cos(np.pi * j / (grid_size + 1.0)))
    geo = 1.0 - 2.0 ** -np.arange(1.0, k_max + 1.0)
    return np.unique(np.concatenate([cheb, geo]))


# ----------------------------------------------------------------------
# L^1 and Schur routes: one weighted column integral
# ----------------------------------------------------------------------

def column_closed(params: OperatorParams, beta: float, x) -> np.ndarray:
    """The weighted column integral in closed form:

        C_beta(x) = (1-x)^(sigma-beta) mu integral_0^1 y^(mu-1) (1-y)^beta
                                       2F1(lam, lam; mu; x y) dy
                  = mu B(mu, beta+1) 2F1(c-lam, c-lam; c; x),  c = mu+beta+1.

    Term-by-term integration against the beta density raises the 2F1's
    c-parameter to mu+beta+1, and its Euler transform absorbs the prefactor.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = params.mu + (beta + 1.0)
    front = params.mu * beta_fn(params.mu, beta + 1.0)
    return front * hyp2f1_grid(c - params.lam, c - params.lam, c, x)


def column_quadrature(params: OperatorParams, beta: float, x,
                      order: int = IDENTITY_CHECK_ORDER) -> np.ndarray:
    """C_beta(x) by direct quadrature in y, independent of any reduction;
    (1-y)^beta is folded into the rule's weight, never sampled."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rule = make_jacobi_rule(order, params.mu - 1.0, beta)
    return (1.0 - x) ** (params.sigma - beta) * kernel_moments(params, x, rule)


@dataclass(frozen=True)
class ColumnProfile:
    """C_beta on the supremum grid by both routes.

    ``closed`` is ``column_closed`` on the full grid; ``quadrature`` is
    ``column_quadrature`` on the sub-grid where a fixed-order rule still
    resolves the integrand.  ``endpoint`` is the x -> 1 limit by Gauss
    summation where the route has one (the L^1 route), else None.
    """

    beta: float
    grid: np.ndarray
    closed: np.ndarray
    quadrature_grid: np.ndarray
    quadrature: np.ndarray
    endpoint: float | None = None

    @property
    def maximum(self) -> float:
        """Largest value of either route and of the endpoint limit; NaN when
        any of them is NaN, so that a broken route cannot hide."""
        extra = () if self.endpoint is None else (self.endpoint,)
        return float(np.max(np.concatenate([self.closed, self.quadrature, extra])))

    @property
    def route_disagreement(self) -> float:
        """Max relative gap between the two routes on the shared sub-grid."""
        closed_sub = self.closed[: self.quadrature_grid.size]
        return float(np.max(np.abs(self.quadrature - closed_sub)
                            / np.abs(closed_sub)))


def _column_profile(params: OperatorParams, beta: float, grid_size: int,
                    order: int, endpoint: float | None = None) -> ColumnProfile:
    grid = supremum_grid(grid_size)
    quad_grid = grid[grid <= QUAD_ROUTE_CUTOFF]
    return ColumnProfile(beta=beta, grid=grid,
                         closed=column_closed(params, beta, grid),
                         quadrature_grid=quad_grid,
                         quadrature=column_quadrature(params, beta, quad_grid, order),
                         endpoint=endpoint)


def l1_profile(params: OperatorParams, grid_size: int = 64,
               order: int = IDENTITY_CHECK_ORDER) -> ColumnProfile:
    """The column masses C_0, whose supremum is the L^1 norm.

    The profile increases, so its supremum is the t -> 1 limit, taken by
    Gauss summation; raises when that limit is infinite.
    """
    a = params.mu + 1.0 - params.lam
    sup = diag_sup(a, params.mu + 1.0)
    if not sup.bounded:
        raise UnboundedOperatorError(
            f"L^1 column masses diverge at t -> 1 (sigma = {params.sigma} <= 0), "
            f"{sup.kind} growth",
            growth=sup.kind, margin=params.sigma)
    return _column_profile(params, 0.0, grid_size, order, endpoint=sup.value)


def l1_norm_numeric(params: OperatorParams, grid_size: int = 64) -> float:
    """Numerical L^1 operator norm: the column-mass supremum."""
    return l1_profile(params, grid_size).maximum


def schur_profile(params: OperatorParams, p, grid_size: int = 64,
                  order: int = IDENTITY_CHECK_ORDER) -> tuple[ColumnProfile, ColumnProfile]:
    """The right and left Schur quotients of phi(t) = (1-t)^(-1/(pq)).

    integral K(s,t) phi(t)^q dmu(t) / phi(s)^q is C_beta(s) at
    beta = sigma - 1/p, and integral K(s,t) phi(s)^p dmu(s) / phi(t)^p is
    C_beta(t) at beta = -1/q.  Both increase to the closed-form norm.
    """
    exp = _as_exponent(p)
    if exp.is_one or exp.is_infinite:
        raise ValueError("the Schur route needs 1 < p < infinity")
    margin = boundedness_margin(params, exp)
    if margin <= 0.0:
        raise UnboundedOperatorError(
            f"Schur test undefined: sigma <= 1/p - 1 (margin {margin})",
            growth="logarithmic" if margin == 0.0 else "power", margin=margin)
    # -1/q written as 1/p - 1: beta + 1 then gives back 1/p (exactly for p <= 2)
    return (_column_profile(params, params.sigma - exp.inv, grid_size, order),
            _column_profile(params, exp.inv - 1.0, grid_size, order))


def schur_check(params: OperatorParams, p, grid_size: int = 64) -> tuple[float, float]:
    """Maxima of the right and left Schur quotients over the supremum grid."""
    right, left = schur_profile(params, p, grid_size)
    return right.maximum, left.maximum


# ----------------------------------------------------------------------
# extremal-family route: certified lower bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalFamily:
    """The unit-norm test pair Phi, Psi of the lower-bound construction.

    Phi(t) = C t^(theta/p) (1-t)^(theta_tilde/p) normalized in L^p;
    Psi(s) = C_tilde s^(vartheta/q) (1-s)^(vartheta_tilde/q) normalized in
    L^q.  ``vartheta`` is identically 0 and ``vartheta_tilde`` is tied to
    theta by (theta - p)/(p - 1), which is exactly the coupling that keeps
    the bilinear form in closed form.  Build it with
    ``make_extremal_family``, which checks p, theta and theta_tilde.
    """

    p: LebesgueExponent
    theta: float
    theta_tilde: float
    C: float
    C_tilde: float
    vartheta: float = 0.0
    vartheta_tilde: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vartheta_tilde",
                           (self.theta - self.p.p) / (self.p.p - 1.0))

    def phi_values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.C * t ** (self.theta / self.p.p) \
            * (1.0 - t) ** (self.theta_tilde / self.p.p)

    def psi_values(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self.C_tilde * (1.0 - s) ** (self.vartheta_tilde / self.p.q)


def make_extremal_family(params: OperatorParams, p, theta: float,
                         theta_tilde: float) -> ExtremalFamily:
    """Build the family with its normalizers, all in log domain.

    C^p = 1 / (mu B(theta + mu, theta_tilde + 1)) makes ||Phi||_p = 1, and
    C_tilde^q = 1 / (mu B(mu, vartheta_tilde + 1)) makes ||Psi||_q = 1.
    """
    exp = _as_exponent(p)
    if exp.is_one or exp.is_infinite:
        raise ValueError("the extremal family needs 1 < p < infinity")
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta!r}")
    if not theta_tilde > -1.0:
        raise ValueError(f"theta_tilde must exceed -1, got {theta_tilde!r}")
    mu = params.mu
    vt = (theta - exp.p) / (exp.p - 1.0)
    log_c = -(math.log(mu) + log_gamma(theta + mu) + log_gamma(theta_tilde + 1.0)
              - log_gamma(theta + mu + theta_tilde + 1.0)) / exp.p
    log_ct = -(math.log(mu) + log_gamma(mu) + log_gamma(vt + 1.0)
               - log_gamma(mu + vt + 1.0)) / exp.q
    return ExtremalFamily(p=exp, theta=theta, theta_tilde=theta_tilde,
                          C=math.exp(log_c), C_tilde=math.exp(log_ct))


def family_on_path(params: OperatorParams, p, eta: float) -> ExtremalFamily:
    """The degeneration path theta = 1 + (p-1) eta, theta_tilde = eta - 1.

    As eta -> 0+ the bilinear form of the family climbs to the operator
    norm; eta must be positive.
    """
    exp = _as_exponent(p)
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    return make_extremal_family(params, exp, 1.0 + (exp.p - 1.0) * eta, eta - 1.0)


def bilinear_form_closed(params: OperatorParams, fam: ExtremalFamily) -> float:
    """Closed form of the pairing <F Phi, Psi> over the mu-measure.

    Integrating in s first (the vartheta_tilde coupling makes the total
    t-exponent match the resulting hypergeometric c-parameter) gives

        mu C C_tilde Gamma(mu+1) Gamma(theta/p) Gamma(theta_tilde/p+sigma+1)
        * Gamma(g) / Gamma(g + lam)^2,      g = (theta + theta_tilde)/p,

    every factor evaluated in log domain.
    """
    exp = fam.p
    if boundedness_margin(params, exp) <= 0.0:
        raise UnboundedOperatorError(
            "bilinear closed form requires sigma > 1/p - 1",
            margin=boundedness_margin(params, exp))
    g = (fam.theta + fam.theta_tilde) / exp.p
    log_val = (math.log(params.mu) + math.log(fam.C) + math.log(fam.C_tilde)
               + log_gamma(params.mu + 1.0)
               + log_gamma(fam.theta / exp.p)
               + log_gamma(fam.theta_tilde / exp.p + params.sigma + 1.0)
               + log_gamma(g) - 2.0 * log_gamma(g + params.lam))
    return math.exp(log_val)


def bilinear_form_numeric(params: OperatorParams, fam: ExtremalFamily,
                          order: int = IDENTITY_CHECK_ORDER) -> float:
    """The same pairing by honest double quadrature.

    A plain tensor rule stalls here: the kernel behaves like
    (1 - s t)^-(sigma+1) along the diagonal, so the mass of the double
    integral piles up at the corner s = t = 1 faster than any fixed
    Gauss-Jacobi grid can follow.  Instead we factor that ridge out of the
    kernel (Euler transform, leaving a factor bounded up to the corner),
    substitute u = 1 - t, v = 1 - s, and split the square along v = u.  On
    each triangle the scaling v = u w turns every endpoint power -- the
    pair weights *and* the ridge -- into exact Jacobi exponents, and only
    smooth factors are sampled.  Each triangle is summed in row blocks of
    the u rule, at most _TWIN_GRID_CAP sampled entries at a time, so the
    work arrays stay small whatever the order.

    An order-halving self-check guards the result.  When the order/2 and
    order values differ by more than _TWIN_RTOL (relative to max(1, |value|),
    the tolerance acceptance criterion 5 holds this route to), the order is
    doubled once and the order value becomes the coarse one.  A gap still
    above 1e-6 at the final order raises QuadratureError rather than
    silently degrading (e.g. mu < 1, whose corner singularity is not
    absorbed).
    """
    exp = fam.p
    mu, lam, sigma = params.mu, params.lam, params.sigma
    a_t = mu - 1.0 + fam.theta / exp.p          # t exponent of the pair weight
    b_t = sigma + fam.theta_tilde / exp.p       # (1-t) exponent
    a_s = mu - 1.0
    b_s = fam.vartheta_tilde / exp.q
    a_u = b_t + b_s - sigma                     # ridge-corrected corner exponent

    def triangle(n: int, outer_beta: float, inner_alpha: float,
                 sampled_exp: float) -> float:
        # outer variable u (distance to the corner), inner scaling w = v/u
        rule_u = make_jacobi_rule(n, a_u, outer_beta)
        rule_w = make_jacobi_rule(n, inner_alpha, 0.0)
        w = rule_w.nodes[None, :]
        acc = np.zeros(n)
        step = max(1, _TWIN_GRID_CAP // n)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            u = rule_u.nodes[rows, None]
            z = (1.0 - u) * (1.0 - u * w)
            grid = hyp2f1_grid(mu - lam, mu - lam, mu, z)
            sampled = ((1.0 - u * w) ** sampled_exp
                       * (1.0 + w - u * w) ** (-(sigma + 1.0)) * grid)
            acc += rule_u.weights[rows] @ sampled
        return float(acc @ rule_w.weights)

    def value_at(n: int) -> float:
        lower = triangle(n, a_t, b_s, a_s)      # v <= u, i.e. 1-s <= 1-t
        upper = triangle(n, a_s, b_t, a_t)      # u <= v
        return mu ** 2 * fam.C * fam.C_tilde * (lower + upper)

    def gap(coarse: float, fine: float) -> float:
        return abs(fine - coarse) / max(1.0, abs(fine))

    coarse = value_at(order // 2)
    fine = value_at(order)
    if gap(coarse, fine) > _TWIN_RTOL:
        order *= 2
        coarse, fine = fine, value_at(order)
    if gap(coarse, fine) > 1e-6:
        raise QuadratureError(
            f"bilinear double quadrature not converged at order {order}: "
            f"{coarse!r} vs {fine!r}")
    return fine


def lower_bound_sweep(params: OperatorParams, p, eta_sequence) -> list[tuple[float, float]]:
    """Closed-form bilinear values along the degeneration path.

    Returns (eta, value) pairs in the order given; each value is a
    certified lower bound on the norm (Cauchy-Schwarz/Hoelder against the
    unit-norm pair), increasing toward it as eta decreases.
    """
    etas = [float(e) for e in eta_sequence]
    if any(e <= 0.0 for e in etas):
        raise ValueError("eta values must be positive")
    out = []
    for eta in etas:
        fam = family_on_path(params, p, eta)
        out.append((eta, bilinear_form_closed(params, fam)))
    return out


# ----------------------------------------------------------------------
# discrete route: weighted p-norm power method
# ----------------------------------------------------------------------

_POWER_MAXITER = 10_000
_BRACKET_RTOL = 1e-12   # relative width at which the p-norm bracket stops
_LANCZOS_RTOL = 1e-15   # Ritz residual bound, relative to the top singular value


def _weight_conjugated(disc: DiscretizedOperator, p: float):
    """Similarity transform B = D A D^{-1} with D = diag(w^(1/p)) that turns
    the measure-weighted p-norm into the plain vector p-norm."""
    d = disc.measure_weights ** (1.0 / p)
    return (d[:, None] * disc.matrix) / d[None, :]


def _reorthogonalize(x: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """x minus its projection on the orthonormal ``basis`` (one Gram-Schmidt pass)."""
    q = np.array(basis)
    return x - q.T @ (q @ x)


def l2_opnorm_svd(disc: DiscretizedOperator) -> float:
    """Largest singular value of the weight-symmetrized matrix: the
    discrete L^2 operator norm.

    Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J. Numer.
    Anal. B 2 (1965) 205-224), both bases fully reorthogonalized, started
    from the positive vector ones(n)/sqrt(n).  The matrix B is entrywise
    positive, so the top eigenvector of B^T B (its top right singular
    vector) is entrywise positive by Perron-Frobenius and overlaps the
    start vector: the Krylov spaces cannot miss the top value.  After step
    k, theta is the top singular value of the k x k bidiagonal and
    beta_k*|x_k|, with x its top left singular vector, the residual of the
    Ritz pair.  The iteration stops once that residual is at most
    _LANCZOS_RTOL*theta, or on breakdown (a zero alpha or beta), where the
    Krylov space is invariant and theta exact.  Raises ConvergenceError if
    n steps do not meet the bound.
    """
    b = _weight_conjugated(disc, 2.0)
    n = b.shape[1]
    vs = [np.full(n, 1.0 / math.sqrt(n))]
    us: list[np.ndarray] = []
    alphas: list[float] = []
    betas: list[float] = []
    u = b @ vs[0]
    for _ in range(n):
        if us:
            u = _reorthogonalize(u, us)
        alpha = float(np.linalg.norm(u))
        alphas.append(alpha)
        beta = 0.0
        if alpha > 0.0:
            us.append(u / alpha)
            v = _reorthogonalize(b.T @ us[-1] - alpha * vs[-1], vs)
            beta = float(np.linalg.norm(v))
        betas.append(beta)
        x, s, _ = np.linalg.svd(np.diag(alphas) + np.diag(betas[:-1], 1))
        theta = float(s[0])
        if beta * abs(x[-1, 0]) <= _LANCZOS_RTOL * theta:
            return theta
        vs.append(v / beta)
        u = b @ vs[-1] - beta * us[-1]
    raise ConvergenceError(
        f"Lanczos bidiagonalization did not reach its residual bound in {n} steps")


class _Bracket(NamedTuple):
    lower: float
    upper: float
    steps: int


def _pnorm_bracket(disc: DiscretizedOperator) -> _Bracket:
    """Two-sided bracket on ||B||_p, B the weight-conjugated Nystrom matrix,
    by the duality-map power method from ones(n).  As B > 0 (checked),
    S(x) = J_q(B^T J_p(B x)), J_r(v) = v^(r-1), is order-preserving and of
    degree (p-1)(q-1) = 1 on the positive cone, with eigenvalue ||B||_p^q,
    which the Collatz-Wielandt ratios S(x)/x of any positive x enclose (Boyd,
    Linear Algebra Appl. 9 (1974) 95-101; Lemmens & Nussbaum 2012).  Runs in
    logs, each vector shifted by its maximum, so no power overflows; stops
    when the bracket is _BRACKET_RTOL wide (relative), and raises
    ConvergenceError after _POWER_MAXITER steps or when B is not positive.
    """
    exp = disc.p
    if exp.is_one or exp.is_infinite:
        raise ValueError("power method covers 1 < p < infinity only "
                         "(use l1_norm_numeric for p = 1)")
    p, q = exp.p, exp.q
    b = _weight_conjugated(disc, p)
    if not b.min() > 0.0:   # also catches NaN
        raise ConvergenceError("p-norm power method needs an entrywise positive "
                               f"matrix; its smallest entry is {b.min()!r}")
    log_x = np.zeros(b.shape[1])
    for step in range(1, _POWER_MAXITER + 1):
        y = b @ np.exp(log_x)
        y_max = y.max()
        log_s = math.log(y_max) + (q - 1.0) * np.log((y / y_max) ** (p - 1.0) @ b)
        log_ratio = log_s - log_x
        lo, hi = log_ratio.min(), log_ratio.max()
        if math.expm1((hi - lo) / q) <= _BRACKET_RTOL:
            return _Bracket(math.exp(lo / q), math.exp(hi / q), step)
        log_x = log_s - log_s.max()
    raise ConvergenceError(f"p-norm power method: bracket open after {step} steps")


def lp_opnorm_numeric(disc: DiscretizedOperator, *, seed: int | None = None) -> float:
    """Discrete L^p norm: the certified lower end of ``_pnorm_bracket``.  It
    certifies the Nystrom matrix, not the operator.  ``seed`` is ignored;
    ``bench/worker.py`` passes ``seed=0`` and compares the float as JSON."""
    return _pnorm_bracket(disc).lower


# ----------------------------------------------------------------------
# consolidated report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    """All routes for one (mu, sigma, p), with their gaps to the closed form.

    In the unbounded regime ``closed_form`` is +inf, the route fields that
    need boundedness are NaN, and ``divergence_flagged`` records whether
    the discrete estimates were seen growing with the order (the numeric
    signature of an unbounded operator).  For 1 < p < infinity,
    ``nystrom_estimate`` is the certified lower end of the Nystrom matrix's
    norm (at the largest probe order when unbounded); it certifies the
    matrix, not the operator.  At p = 1 it is the column-mass supremum.
    """

    params: OperatorParams
    p: LebesgueExponent
    closed_form: float
    schur_max_ratio_right: float
    schur_max_ratio_left: float
    sweep_best_lower: float
    nystrom_estimate: float
    rel_gap_lower: float
    rel_gap_nystrom: float
    unbounded: bool = False
    growth: str | None = None
    divergence_flagged: bool = False

    def to_dict(self) -> dict:
        return {
            "mu": self.params.mu,
            "sigma": self.params.sigma,
            "lam": self.params.lam,
            "p": self.p.p,
            "closed_form": self.closed_form,
            "schur_max_ratio_right": self.schur_max_ratio_right,
            "schur_max_ratio_left": self.schur_max_ratio_left,
            "sweep_best_lower": self.sweep_best_lower,
            "nystrom_estimate": self.nystrom_estimate,
            "rel_gap_lower": self.rel_gap_lower,
            "rel_gap_nystrom": self.rel_gap_nystrom,
            "unbounded": self.unbounded,
            "growth": self.growth,
            "divergence_flagged": self.divergence_flagged,
        }


_DIVERGENCE_PROBE_ORDERS = (64, 128, 256)


def norm_report(params: OperatorParams, p, order: int = 128,
                grid_size: int = 64, eta_min: float = 1e-4) -> NormReport:
    """Assemble every applicable route for one parameter set.

    Bounded, 1 < p < infinity: Schur maxima, the eta-sweep lower bound,
    and the Nystrom estimate, the certified lower end of the discrete norm
    (``lp_opnorm_numeric``: it certifies the matrix, not the operator).
    p = 1: the column-mass supremum plays the numeric role and the
    Schur/sweep fields are NaN.  Unbounded: the discrete estimates are
    probed across increasing orders and flagged when they grow.
    """
    exp = _as_exponent(p)
    nan = math.nan
    try:
        closed = norm_formula(params, exp)
    except UnboundedOperatorError as err:
        estimates = []
        for n in _DIVERGENCE_PROBE_ORDERS:
            disc = discretize(params, exp, n)
            if exp.is_infinite:
                # sup norm of the discrete image of the constant one
                estimates.append(float(np.max(disc.matrix.sum(axis=1))))
            elif exp.is_one:
                # largest discrete column mass relative to its own weight
                col = disc.measure_weights @ disc.matrix
                estimates.append(float(np.max(col / disc.measure_weights)))
            else:
                estimates.append(lp_opnorm_numeric(disc))
        flagged = estimates[-1] > estimates[0] * 1.02
        return NormReport(params=params, p=exp, closed_form=math.inf,
                          schur_max_ratio_right=nan, schur_max_ratio_left=nan,
                          sweep_best_lower=nan, nystrom_estimate=estimates[-1],
                          rel_gap_lower=nan, rel_gap_nystrom=nan,
                          unbounded=True, growth=err.growth,
                          divergence_flagged=flagged)
    if exp.is_one:
        est = l1_norm_numeric(params, grid_size)
        return NormReport(params=params, p=exp, closed_form=closed,
                          schur_max_ratio_right=nan, schur_max_ratio_left=nan,
                          sweep_best_lower=nan, nystrom_estimate=est,
                          rel_gap_lower=nan,
                          rel_gap_nystrom=(closed - est) / closed)
    right, left = schur_check(params, exp, grid_size)
    n_decades = max(1, round(-math.log10(eta_min)) - 1)
    etas = [10.0 ** -k for k in range(1, n_decades + 1)]
    if etas[-1] > eta_min:
        etas.append(eta_min)
    sweep = lower_bound_sweep(params, exp, etas)
    best_lower = max(v for _, v in sweep)
    est = lp_opnorm_numeric(discretize(params, exp, order))
    return NormReport(params=params, p=exp, closed_form=closed,
                      schur_max_ratio_right=right, schur_max_ratio_left=left,
                      sweep_best_lower=best_lower, nystrom_estimate=est,
                      rel_gap_lower=(closed - best_lower) / closed,
                      rel_gap_nystrom=(closed - est) / closed)
