"""Independent numerical routes to the operator norm of F.

None of the routes trusts the closed form it is checking.

* L^1 and Schur are one column integral at three weights: the weighted
  column integral C_beta(x) of ``column_closed``, named by the mass
  beta + 1 of its weight (1-y)^beta, scanned over an endpoint-refined
  grid by its hypergeometric reduction and by direct quadrature, and
  closed at its supremum, the x -> 1 limit, by Gauss summation.  At mass
  1 it is the column mass integral K(s,x) dmu(s), whose supremum is the
  L^1 norm.  At masses sigma + 1 - 1/p and 1/p it is the right and left
  Schur quotient of the test function phi(t) = (1-t)^(-1/(pq)), whose
  suprema bound the norm from above and here equal it.  A grid value
  above the limit shows a broken route;

* the extremal-family route: a two-parameter family of unit-norm function
  pairs whose bilinear forms against the operator are computable in closed
  form and climb to the norm from below as the family degenerates;

* the discrete route: the measure-weighted p-norm of a Nystrom matrix,
  exact at p = 1 and p = infinity, otherwise bracketed from both sides by
  the Collatz-Wielandt ratios of the power method from one positive start,
  its log iterates Anderson-mixed, and checked at p = 2 by the top singular
  value (Lanczos).  It certifies the *matrix*, whose norm
  approaches the operator's from below as the order grows: like
  1/log(order) on one Gauss-Jacobi rule (``discretize``, 0.863*pi at order
  256 for the flagship (1, 0, 2)), faster on panels graded toward t = 1
  (``discretize_graded``, 0.956*pi at 256).

``norm_report`` bundles all applicable routes for one (mu, sigma, p) into
a NormReport: the closed form, and a route table (name -> value, in
record order) with the names of the routes held to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    require_bounded,
)
from .quadrature import (QUADRATURE_TWIN_ORDER, QuadratureError, make_jacobi_rule,
                         make_jacobi_rules)
from .specfun import ConvergenceError, beta_fn, hyp2f1_grid, log_gamma

__all__ = [
    "ColumnProfile",
    "ExtremalFamily",
    "NormReport",
    "bilinear_form_closed",
    "bilinear_form_numeric",
    "column_closed",
    "column_quadrature",
    "family_on_path",
    "l1_profile",
    "l2_opnorm_svd",
    "lower_bound_sweep",
    "lp_opnorm_numeric",
    "make_extremal_family",
    "norm_report",
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

def _column_terms(params: OperatorParams, mass: float) -> tuple[float, float, float]:
    """(mu B(mu, mass), c - lam, c) with c = mu + mass: the front factor and
    the 2F1 parameters of C_beta's closed form at beta = mass - 1."""
    c = params.mu + mass
    return params.mu * beta_fn(params.mu, mass), c - params.lam, c


def column_closed(params: OperatorParams, mass: float, x) -> np.ndarray:
    """The weighted column integral in closed form, for the weight
    (1-y)^beta of mass beta + 1:

        C_beta(x) = (1-x)^(sigma-beta) mu integral_0^1 y^(mu-1) (1-y)^beta
                                       2F1(lam, lam; mu; x y) dy
                  = mu B(mu, mass) 2F1(c-lam, c-lam; c; x),  c = mu + mass.

    Term-by-term integration against the beta density raises the 2F1's
    c-parameter to mu + mass, and its Euler transform absorbs the prefactor.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    front, a, c = _column_terms(params, mass)
    return front * hyp2f1_grid(a, a, c, x)


def column_quadrature(params: OperatorParams, mass: float, x,
                      order: int = QUADRATURE_TWIN_ORDER, rule=None) -> np.ndarray:
    """C_beta(x) at beta = mass - 1 by direct quadrature in y, independent of
    any reduction; (1-y)^beta is folded into the rule's weight, never
    sampled.  ``rule`` is the order-point Gauss-Jacobi rule of masses
    (mu, mass) when the caller has built it, else it comes from
    ``make_jacobi_rule``'s cache."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if rule is None:
        rule = make_jacobi_rule(order, params.mu, mass)
    return (1.0 - x) ** (params.sigma + 1.0 - mass) * kernel_moments(params, x, rule)


@dataclass(frozen=True)
class ColumnProfile:
    """C_beta on the supremum grid by both routes, and its x -> 1 limit.

    ``closed`` is ``column_closed`` on the full grid; ``quadrature`` is
    ``column_quadrature`` on the sub-grid where a fixed-order rule still
    resolves the integrand, both at beta = ``mass`` - 1.  ``endpoint`` is
    the x -> 1 limit by Gauss summation, mu B(mu, mass) 2F1(c-lam, c-lam;
    c; 1): finite on the bounded side, because c - 2(c-lam) = sigma - beta
    is sigma, 1/p or the boundedness margin at the three masses.
    """

    mass: float
    grid: np.ndarray
    closed: np.ndarray
    quadrature_grid: np.ndarray
    quadrature: np.ndarray
    endpoint: float

    @property
    def maximum(self) -> float:
        """Largest value of the endpoint limit and of either route on the
        grid.  C_beta increases to its limit, so this is the limit unless a
        grid value exceeds it; NaN when any value is NaN, so that a broken
        route cannot hide."""
        return float(np.max(np.concatenate([self.closed, self.quadrature,
                                            (self.endpoint,)])))

    @property
    def route_disagreement(self) -> float:
        """Max relative gap between the two routes on the shared sub-grid."""
        closed_sub = self.closed[: self.quadrature_grid.size]
        return float(np.max(np.abs(self.quadrature - closed_sub)
                            / np.abs(closed_sub)))


def _column_endpoint(params: OperatorParams, mass: float, gap: float) -> float:
    """C_beta's x -> 1 limit at beta = mass - 1 by Gauss summation,
    mu B(mu, mass) Gamma(c) Gamma(gap) / Gamma(lam)^2, c = mu + mass, taking
    the mass and the gap sigma - beta as the caller forms them."""
    front, _, c = _column_terms(params, mass)
    return front * math.exp(log_gamma(c) + log_gamma(gap) - 2.0 * log_gamma(params.lam))


def _column_profile(params: OperatorParams, mass: float, gap: float,
                    rule=None) -> ColumnProfile:
    """C_beta at beta = mass - 1 with its ``_column_endpoint`` at ``gap``;
    ``rule`` is ``column_quadrature``'s."""
    grid = supremum_grid()
    quad_grid = grid[grid <= QUAD_ROUTE_CUTOFF]
    return ColumnProfile(mass=mass, grid=grid, closed=column_closed(params, mass, grid),
                         quadrature_grid=quad_grid,
                         quadrature=column_quadrature(params, mass, quad_grid, rule=rule),
                         endpoint=_column_endpoint(params, mass, gap))


def l1_profile(params: OperatorParams) -> ColumnProfile:
    """The column masses C_0, whose supremum, the t -> 1 limit, is the L^1
    norm; raises UnboundedOperatorError when that limit is infinite."""
    return _column_profile(params, 1.0, require_bounded(params, 1.0))


def schur_profile(params: OperatorParams, p) -> tuple[ColumnProfile, ColumnProfile]:
    """The right and left Schur quotients of phi(t) = (1-t)^(-1/(pq)).

    integral K(s,t) phi(t)^q dmu(t) / phi(s)^q is C_beta(s) at
    beta = sigma - 1/p, and integral K(s,t) phi(s)^p dmu(s) / phi(t)^p is
    C_beta(t) at beta = -1/q.  Both increase to the closed-form norm, their
    common x -> 1 limit.  The weights' masses beta + 1 and gaps sigma - beta
    are the margin sigma + 1/q and 1/p, each formed once: on the right the
    mass is the margin and the gap 1/p, on the left the other way round.
    The two quadrature rules are built in one ``make_jacobi_rules`` batch,
    each with the bits of its one-rule build.
    """
    exp = _as_exponent(p)
    if exp.is_one or exp.is_infinite:
        raise ValueError("the Schur route needs 1 < p < infinity")
    margin = require_bounded(params, exp)
    sides = ((margin, exp.inv), (exp.inv, margin))
    rules = make_jacobi_rules(QUADRATURE_TWIN_ORDER, [(params.mu, mass) for mass, _ in sides])
    return tuple(_column_profile(params, mass, gap, rule)
                 for (mass, gap), rule in zip(sides, rules))


# ----------------------------------------------------------------------
# extremal-family route: certified lower bounds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalFamily:
    """The unit-norm test pair Phi, Psi of the lower-bound construction.

    Phi(t) = C t^(theta/p) (1-t)^(theta_tilde/p) normalized in L^p;
    Psi(s) = C_tilde s^(vartheta/q) (1-s)^(vartheta_tilde/q) normalized in
    L^q, with vartheta = 0.  ``vartheta_tilde`` is tied to theta by
    (theta - p)/(p - 1), which is exactly the coupling that keeps the
    bilinear form in closed form.

    The family is stored by its two gaps, ``theta_gap`` = theta - 1 and
    ``tilde_gap`` = theta_tilde + 1, which the degeneration path sends to 0
    together.  Every quantity that vanishes with them is formed from the
    gaps, never as a difference of O(1) numbers: theta_tilde + 1,
    ``vartheta_gap`` = vartheta_tilde + 1 = theta_gap/(p-1) and
    g = (theta_gap + tilde_gap)/p.
    Build it with ``make_extremal_family`` or ``family_on_path``.
    """

    p: LebesgueExponent
    theta_gap: float
    tilde_gap: float
    C: float
    C_tilde: float

    @property
    def theta(self) -> float:
        return 1.0 + self.theta_gap

    @property
    def theta_tilde(self) -> float:
        return self.tilde_gap - 1.0

    @property
    def vartheta_gap(self) -> float:
        return self.theta_gap / (self.p.p - 1.0)

    @property
    def vartheta_tilde(self) -> float:
        return self.vartheta_gap - 1.0

    def phi_values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.C * t ** (self.theta / self.p.p) \
            * (1.0 - t) ** (self.theta_tilde / self.p.p)

    def psi_values(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self.C_tilde * (1.0 - s) ** (self.vartheta_tilde / self.p.q)


def _family(params: OperatorParams, p, theta_gap: float,
            tilde_gap: float) -> ExtremalFamily:
    """The family at gaps theta - 1 and theta_tilde + 1, with its
    normalizers in log domain:

    C^p = 1 / (mu B(theta + mu, theta_tilde + 1)) makes ||Phi||_p = 1, and
    C_tilde^q = 1 / (mu B(mu, vartheta_tilde + 1)) makes ||Psi||_q = 1.
    """
    exp = _as_exponent(p)
    if exp.is_one or exp.is_infinite:
        raise ValueError("the extremal family needs 1 < p < infinity")
    mu = params.mu
    theta = 1.0 + theta_gap
    vartheta_gap = theta_gap / (exp.p - 1.0)
    log_c = -(math.log(mu) + log_gamma(theta + mu) + log_gamma(tilde_gap)
              - log_gamma(theta + mu + tilde_gap)) / exp.p
    log_ct = -(math.log(mu) + log_gamma(mu) + log_gamma(vartheta_gap)
               - log_gamma(mu + vartheta_gap)) / exp.q
    return ExtremalFamily(p=exp, theta_gap=theta_gap, tilde_gap=tilde_gap,
                          C=math.exp(log_c), C_tilde=math.exp(log_ct))


def make_extremal_family(params: OperatorParams, p, theta: float,
                         theta_tilde: float) -> ExtremalFamily:
    """The family at exponents theta > 1 and theta_tilde > -1, for
    1 < p < infinity."""
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta!r}")
    if not theta_tilde > -1.0:
        raise ValueError(f"theta_tilde must exceed -1, got {theta_tilde!r}")
    return _family(params, p, theta - 1.0, theta_tilde + 1.0)


def family_on_path(params: OperatorParams, p, eta: float) -> ExtremalFamily:
    """The degeneration path theta = 1 + (p-1) eta, theta_tilde = eta - 1.

    As eta -> 0+ the bilinear form of the family climbs to the operator
    norm; eta must be positive.  The family is built from its gaps
    (p-1) eta and eta, so it stays exact where 1 + (p-1) eta rounds to 1.
    """
    exp = _as_exponent(p)
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta!r}")
    return _family(params, exp, (exp.p - 1.0) * eta, eta)


def bilinear_form_closed(params: OperatorParams, fam: ExtremalFamily) -> float:
    """Closed form of the pairing <F Phi, Psi> over the mu-measure.

    Integrating in s first (the vartheta_tilde coupling makes the total
    t-exponent match the resulting hypergeometric c-parameter) gives

        mu C C_tilde Gamma(mu+1) Gamma(theta/p) Gamma(theta_tilde/p+sigma+1)
        * Gamma(g) / Gamma(g + lam)^2,      g = (theta + theta_tilde)/p,

    every factor evaluated in log domain.  theta_tilde/p + sigma + 1 is
    formed as margin + (theta_tilde + 1)/p, with the boundedness margin
    sigma + 1 - 1/p, so that it keeps its digits when both are small.
    """
    exp = fam.p
    margin = require_bounded(params, exp)
    g = (fam.theta_gap + fam.tilde_gap) / exp.p
    log_val = (math.log(params.mu) + math.log(fam.C) + math.log(fam.C_tilde)
               + log_gamma(params.mu + 1.0)
               + log_gamma(fam.theta / exp.p)
               + log_gamma(margin + fam.tilde_gap / exp.p)
               + log_gamma(g) - 2.0 * log_gamma(g + params.lam))
    return math.exp(log_val)


def bilinear_form_numeric(params: OperatorParams, fam: ExtremalFamily,
                          order: int = QUADRATURE_TWIN_ORDER) -> float:
    """The same pairing by honest double quadrature.

    A plain tensor rule stalls here: the kernel behaves like
    (1 - s t)^-(sigma+1) along the diagonal, so the mass of the double
    integral piles up at the corner s = t = 1 faster than any fixed
    Gauss-Jacobi grid can follow.  Instead we factor that ridge out of the
    kernel (Euler transform, leaving a factor bounded up to the corner),
    substitute u = 1 - t, v = 1 - s, and split the square along v = u.  On
    each triangle the scaling v = u w turns every endpoint power -- the
    pair weights *and* the ridge -- into exact Jacobi weights, whose masses
    are formed from the family's gaps as in ``bilinear_form_closed``, and
    only smooth factors are sampled.  Each triangle is summed in row blocks
    of the u rule, at most _TWIN_GRID_CAP sampled entries at a time, so the
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
    a_s = mu - 1.0
    # masses of the (1-t) and (1-s) factors and of the ridge-corrected corner
    t_side = require_bounded(params, exp) + fam.tilde_gap / exp.p
    s_side = exp.inv + fam.vartheta_gap / exp.q
    corner = fam.tilde_gap / exp.p + fam.vartheta_gap / exp.q

    def triangle(n: int, rule_u, rule_w, sampled_exp: float) -> float:
        # outer variable u (distance to the corner), inner scaling w = v/u
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
        u_lower, w_lower, u_upper, w_upper = make_jacobi_rules(
            n, [(corner, mu + fam.theta / exp.p), (s_side, 1.0), (corner, mu), (t_side, 1.0)])
        lower = triangle(n, u_lower, w_lower, a_s)      # v <= u, i.e. 1-s <= 1-t
        upper = triangle(n, u_upper, w_upper, a_t)      # u <= v
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
    unit-norm pair), increasing toward it as eta decreases.  Raises
    ValueError, through ``family_on_path``, at any eta <= 0.
    """
    return [(eta, bilinear_form_closed(params, family_on_path(params, p, eta)))
            for eta in map(float, eta_sequence)]


# ----------------------------------------------------------------------
# discrete route: weighted p-norm power method
# ----------------------------------------------------------------------

_POWER_MAXITER = 10_000
_ANDERSON_DEPTH = 5     # past iterates mixed into each power step; 0 is the plain method
_BRACKET_RTOL = 1e-12   # relative width at which the p-norm bracket stops
_LANCZOS_RTOL = 1e-15   # Ritz residual bound, relative to the top singular value


def _weight_conjugated(disc: DiscretizedOperator, p: float):
    """Similarity transform B = D A D^{-1} with D = diag(w^(1/p)) that turns
    the measure-weighted p-norm into the plain vector p-norm."""
    d = disc.measure_weights ** (1.0 / p)
    b = d[:, None] * disc.matrix
    b /= d[None, :]
    return b


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


def _anderson_step(history: list[tuple[np.ndarray, np.ndarray]],
                   log_x: np.ndarray, log_s: np.ndarray) -> np.ndarray:
    """The next log iterate of ``_pnorm_bracket`` from log x and log S(x).

    Type-II Anderson mixing (Anderson 1965; Walker & Ni 2011) of the map
    u -> log S(exp u) over ``history``, which keeps the last
    _ANDERSON_DEPTH + 1 pairs (u, log S(exp u)), each centred by its mean:
    S is homogeneous of degree 1, so a shift of u only shifts its image,
    and centring leaves the map on the mean-zero vectors.  The coefficients
    gamma minimise |f_k - dF gamma| over the residuals f = image - u, and
    the mixed iterate is image_k - dG gamma.  With fewer than two pairs, or
    coefficients that are not finite (the history then resets), it is the
    plain power step log S(x).  Either way the result is shifted by its
    maximum, so exp of it cannot overflow.
    """
    history.append((log_x - log_x.mean(), log_s - log_s.mean()))
    del history[:-_ANDERSON_DEPTH - 1]
    if len(history) > 1:
        us, images = (np.array(h) for h in zip(*history))
        residuals = images - us
        gamma = np.linalg.lstsq(np.diff(residuals, axis=0).T, residuals[-1],
                                rcond=None)[0]
        if np.isfinite(gamma).all():
            mixed = images[-1] - gamma @ np.diff(images, axis=0)
            return mixed - mixed.max()
        history.clear()
    return log_s - log_s.max()


def _pnorm_bracket(disc: DiscretizedOperator) -> _Bracket:
    """Two-sided bracket on ||B||_p, B the weight-conjugated Nystrom matrix,
    by the duality-map power method from ones(n), Anderson-accelerated.  As
    B > 0 (checked), S(x) = J_q(B^T J_p(B x)), J_r(v) = v^(r-1), is
    order-preserving and of degree (p-1)(q-1) = 1 on the positive cone, with
    eigenvalue ||B||_p^q, which the Collatz-Wielandt ratios S(x)/x of any
    positive x enclose (Boyd, Linear Algebra Appl. 9 (1974) 95-101; Lemmens
    & Nussbaum 2012).  Runs in logs, each vector shifted by its maximum, so
    no power overflows and every iterate is positive: its ratios bracket the
    eigenvalue whatever step produced it.  So the next iterate may mix the
    last ones (``_anderson_step``; D. G. Anderson, J. ACM 12 (1965)
    547-560; Walker & Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735).  A
    plain step never widens the bracket; when a step does not narrow it,
    the history resets and the plain step runs.  Stops when the bracket is
    _BRACKET_RTOL wide (relative), and raises ConvergenceError after
    _POWER_MAXITER steps or when B is not positive.  Needs 1 < p < infinity.
    """
    p, q = disc.p.p, disc.p.q
    b = _weight_conjugated(disc, p)
    if not b.min() > 0.0:   # also catches NaN
        raise ConvergenceError("p-norm power method needs an entrywise positive "
                               f"matrix; its smallest entry is {b.min()!r}")
    log_x = np.zeros(b.shape[1])
    history: list[tuple[np.ndarray, np.ndarray]] = []
    width = math.inf
    for step in range(1, _POWER_MAXITER + 1):
        y = b @ np.exp(log_x)
        y_max = y.max()
        log_s = math.log(y_max) + (q - 1.0) * np.log((y / y_max) ** (p - 1.0) @ b)
        log_ratio = log_s - log_x
        lo, hi = log_ratio.min(), log_ratio.max()
        if math.expm1((hi - lo) / q) <= _BRACKET_RTOL:
            return _Bracket(math.exp(lo / q), math.exp(hi / q), step)
        if hi - lo >= width:
            history.clear()
        width = hi - lo
        log_x = _anderson_step(history, log_x, log_s)
    raise ConvergenceError(f"p-norm power method: bracket open after {step} steps")


def lp_opnorm_numeric(disc: DiscretizedOperator, *, seed: int | None = None) -> float:
    """Discrete L^p norm of the Nystrom matrix A, in ``disc.p``: exact at
    p = infinity (the largest row sum of A, the sup norm of the image of
    the constant one) and at p = 1 (the largest column mass m^T A relative
    to its own measure weight m_j); otherwise the certified lower end of
    ``_pnorm_bracket``, the Collatz-Wielandt bracket of the duality-map power
    method with Anderson mixing (D. G. Anderson, J. ACM 12 (1965) 547-560;
    Walker & Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735), at most 1e-12
    wide.  It certifies the matrix, not the operator.  ``seed``
    is ignored; ``bench/worker.py`` passes ``seed=0`` and compares the float
    as JSON."""
    if disc.p.is_infinite:
        return float(np.max(disc.matrix.sum(axis=1)))
    if disc.p.is_one:
        col = disc.measure_weights @ disc.matrix
        return float(np.max(col / disc.measure_weights))
    return _pnorm_bracket(disc).lower


# ----------------------------------------------------------------------
# consolidated report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    """Every applicable route for one (mu, sigma, p), as one table.

    ``routes`` maps each route's name, as the CLI records print it, to its
    value, in record order; ``gated`` names those whose gap to the closed
    form is held to a tolerance.  ``eta_min`` is the smallest path
    parameter of the eta-sweep, None where no sweep runs.  In the
    unbounded regime ``closed_form`` is +inf, and ``divergence_flagged``
    records whether the discrete estimates were seen growing with the
    order (the numeric signature of an unbounded operator).
    """

    closed_form: float
    routes: dict[str, float]
    gated: tuple[str, ...] = ()
    eta_min: float | None = None
    unbounded: bool = False
    growth: str | None = None
    divergence_flagged: bool = False


_DIVERGENCE_PROBE_ORDERS = (64, 128, 256)

# the eta-sweep stops where its shortfall, about eta/e, is this small
_SWEEP_GAP = 1e-10


def norm_report(params: OperatorParams, p, order: int = 128) -> NormReport:
    """Assemble every applicable route for one parameter set.

    Bounded, 1 < p < infinity: the Schur maxima ``schur_right`` and
    ``schur_left`` and the eta-sweep lower bound ``sweep_lower``, gated,
    and ``nystrom``, the discrete norm of ``discretize`` at ``order``: it
    certifies the matrix, not the operator, so it is not gated.  p = 1:
    the column-mass supremum ``column_mass_sup``, gated.  Unbounded: the
    discrete norms of ``discretize`` at orders 64, 128 and 256 are flagged
    when they grow; ``largest_probe_estimate`` is the last of them.

    The sweep falls short of the norm by about eta/e, where
    e = min(1/p, 1/q, sigma + 1 - 1/p) is the smallest of the exponents
    that set how fast the pairing climbs, so a fixed depth leaves the
    bound short wherever e is small (p near 1 or large, sigma near
    1/p - 1).  It
    therefore runs by decades from eta = 0.1 down to
    eta_min = _SWEEP_GAP * e = 1e-10 e, which leaves a shortfall of about
    1e-10 whatever the exponents; ``family_on_path`` keeps the pairing
    exact that deep.
    """
    exp = _as_exponent(p)
    try:
        closed = norm_formula(params, exp)
    except UnboundedOperatorError as err:
        estimates = [lp_opnorm_numeric(discretize(params, exp, n))
                     for n in _DIVERGENCE_PROBE_ORDERS]
        return NormReport(closed_form=math.inf,
                          routes={"largest_probe_estimate": estimates[-1]},
                          unbounded=True, growth=err.growth,
                          divergence_flagged=estimates[-1] > estimates[0] * 1.02)
    if exp.is_one:
        return NormReport(closed_form=closed,
                          routes={"column_mass_sup": l1_profile(params).maximum},
                          gated=("column_mass_sup",))
    right, left = schur_profile(params, exp)
    eta_min = _SWEEP_GAP * min(exp.inv, 1.0 / exp.q, boundedness_margin(params, exp))
    decades = range(1, math.ceil(-math.log10(eta_min)) + 1)
    etas = [10.0 ** -k for k in decades if 10.0 ** -k > eta_min] + [eta_min]
    sweep = lower_bound_sweep(params, exp, etas)
    routes = {
        "schur_right": right.maximum,
        "schur_left": left.maximum,
        "sweep_lower": max(v for _, v in sweep),
        "nystrom": lp_opnorm_numeric(discretize(params, exp, order)),
    }
    return NormReport(closed_form=closed, routes=routes,
                      gated=("schur_right", "schur_left", "sweep_lower"),
                      eta_min=eta_min)
