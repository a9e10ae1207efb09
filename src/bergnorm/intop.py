"""The hypergeometric-kernel integral operator on weighted L^p of (0,1).

For parameters mu > 0 and sigma > -1, with lam = (mu + sigma + 1)/2, the
operator acts on functions over (0,1) by

    (F phi)(s) = mu * integral_0^1 (1-t)^sigma 2F1(lam, lam; mu; s t)
                                   phi(t) t^(mu-1) dt,

viewed on L^p of the probability measure mu t^(mu-1) dt.  This module owns
the parameter bundles, kernel evaluation, quadrature discretization, and
the closed-form operator norm

    ||F|| = Gamma(mu+1)/Gamma(lam)^2 * Gamma(1/p) Gamma(sigma + 1 - 1/p)

valid exactly when sigma > 1/p - 1 (with the p = 1 limit
Gamma(mu+1) Gamma(sigma) / Gamma(lam)^2, valid for sigma > 0); outside
that range the operator is unbounded and ``norm_formula`` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import DEFAULT_ORDER, JacobiRule, make_graded_rule, make_jacobi_rule
from .specfun import hyp2f1_grid, hyp2f1_outer, log_gamma

__all__ = [
    "DiscretizedOperator",
    "LebesgueExponent",
    "OperatorParams",
    "UnboundedOperatorError",
    "apply",
    "discretize",
    "discretize_graded",
    "image_of_one",
    "kernel_eval",
    "kernel_moments",
    "norm_formula",
]

class UnboundedOperatorError(ValueError):
    """The requested operator norm is infinite.

    ``growth`` distinguishes the borderline logarithmic divergence
    (sigma = 1/p - 1) from the power-type one (sigma < 1/p - 1).
    """

    def __init__(self, message, growth=None, margin=None):
        super().__init__(message)
        self.growth = growth
        self.margin = margin


@dataclass(frozen=True)
class OperatorParams:
    """Parameter pair (mu, sigma) with the derived kernel parameter lam."""

    mu: float
    sigma: float
    lam: float = field(init=False)

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if not self.sigma > -1.0:
            raise ValueError(f"sigma must exceed -1, got {self.sigma!r}")
        object.__setattr__(self, "lam", 0.5 * (self.mu + self.sigma + 1.0))


@dataclass(frozen=True)
class LebesgueExponent:
    """An exponent p in [1, infinity] with its conjugate bookkeeping."""

    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"Lebesgue exponent must satisfy p >= 1, got {self.p!r}")

    @property
    def inv(self) -> float:
        """1/p, with 1/infinity = 0."""
        return 0.0 if math.isinf(self.p) else 1.0 / self.p

    @property
    def q(self) -> float:
        """The conjugate exponent p/(p-1)."""
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    @property
    def conjugate(self) -> "LebesgueExponent":
        return LebesgueExponent(self.q)

    @property
    def is_one(self) -> bool:
        return self.p == 1.0

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.p)


def _as_exponent(p) -> LebesgueExponent:
    return p if isinstance(p, LebesgueExponent) else LebesgueExponent(float(p))


def kernel_eval(params: OperatorParams, s, t) -> np.ndarray:
    """Pointwise kernel K(s,t) = (1-t)^sigma 2F1(lam,lam;mu;st).

    Broadcasts over array arguments; s*t must stay inside [0,1).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    z = s * t
    f = hyp2f1_grid(params.lam, params.lam, params.mu, np.atleast_1d(z))
    out = (1.0 - t) ** params.sigma * f.reshape(z.shape)
    return out if out.shape else float(out)


def kernel_moments(params: OperatorParams, x, rule: JacobiRule,
                   values=None) -> np.ndarray:
    """mu * sum_j w_j 2F1(lam, lam; mu; x_i t_j) v_j for each entry x_i of x.

    The rule's weights carry every known endpoint power of the integrand;
    ``values`` (one per node t_j, 1 when omitted) is the sampled rest.
    ``apply``, the column quadrature of ``normest`` and the Berezin radial
    reduction all integrate the kernel this way.
    """
    fgrid = hyp2f1_grid(params.lam, params.lam, params.mu, np.outer(x, rule.nodes))
    if values is not None:
        values = np.asarray(values, dtype=float)
        if values.shape != rule.nodes.shape:
            raise ValueError(f"expected one value per node, got shape {values.shape}")
        fgrid = fgrid * values
    return params.mu * fgrid @ rule.weights


def apply(params: OperatorParams, phi, s, order: int = DEFAULT_ORDER,
          phi_alpha: float = 0.0, phi_beta: float = 0.0):
    """Evaluate (F phi)(s) by Gauss-Jacobi quadrature.

    ``phi`` maps a vector of nodes in (0,1) to values.  If phi carries
    known endpoint powers t^phi_alpha (1-t)^phi_beta, declare them here:
    they are folded into the rule's weight exactly and ``phi`` then only
    supplies the remaining smooth factor.  ``s`` may be a scalar or a
    one-dimensional array with entries in [0,1].
    """
    rule = make_jacobi_rule(order, params.mu + phi_alpha, params.sigma + 1.0 + phi_beta)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if s_arr.min() < 0.0 or s_arr.max() > 1.0:
        raise ValueError("evaluation points must lie in [0,1]")
    out = kernel_moments(params, s_arr, rule, phi(rule.nodes))
    return float(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


def image_of_one(params: OperatorParams, s):
    """Closed form of F applied to the constant function 1:

        (F 1)(s) = Gamma(mu+1) Gamma(sigma+1) / Gamma(2 lam)
                   * 2F1(lam, lam; 2 lam; s),

    which follows from integrating the kernel series term by term against
    the beta density.  Used as an exactness cross-check for ``apply``.
    """
    front = math.exp(log_gamma(params.mu + 1.0) + log_gamma(params.sigma + 1.0)
                     - log_gamma(2.0 * params.lam))
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    f = hyp2f1_grid(params.lam, params.lam, 2.0 * params.lam, s_arr)
    out = front * f
    return float(out[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else out


@dataclass(frozen=True)
class DiscretizedOperator:
    """Nystrom discretization of F on a shared grid: one Gauss-Jacobi
    rule (``discretize``) or a graded composite (``discretize_graded``).

    ``matrix[i, j] = mu * w_j * 2F1(lam, lam; mu; s_i t_j)`` where the rule
    has masses (mu, sigma + 1), so the kernel's (1-t)^sigma factor is
    carried by the rule's weight rather than sampled pointwise.  Row and
    column grids coincide (the rule's nodes), so the 2F1 grid is the
    exactly symmetric ``hyp2f1_outer`` grid: blocks of power tables summed
    by BLAS dgemm below the near-one cut, ``hyp2f1_grid`` entries at and
    above it, each block written once and mirrored.  It is scaled by mu and
    the weights in place, with no second array of its size.  ``p`` records the exponent
    the discretization is meant to be measured in; ``measure_weights`` are
    the weights of the plain measure mu t^(mu-1) dt re-expressed on the
    same nodes, which the discrete L^p norms use.
    """

    params: OperatorParams
    rule: JacobiRule
    matrix: np.ndarray
    p: LebesgueExponent
    measure_weights: np.ndarray

    @property
    def order(self) -> int:
        return self.rule.order

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    def apply_values(self, phi_values: np.ndarray) -> np.ndarray:
        """Image of a function given by its node values."""
        phi_values = np.asarray(phi_values, dtype=float)
        if phi_values.shape != (self.order,):
            raise ValueError(f"expected {self.order} node values, got {phi_values.shape}")
        return self.matrix @ phi_values


def _nystrom(params: OperatorParams, p, rule: JacobiRule) -> DiscretizedOperator:
    """Assemble the Nystrom matrix of F on a rule with masses (mu, sigma + 1).

    The 2F1 grid 2F1(lam, lam; mu; t_i t_j) on the rule's ascending nodes
    is ``hyp2f1_outer``'s exactly symmetric product grid: blocked power
    tables summed by BLAS below the near-one cut, ``hyp2f1_grid`` at and
    above it.  Then mu and the weights scale it in place, in the order
    (mu * f) * w_j, so no other array of the matrix's size is made.
    """
    t = rule.nodes
    matrix = hyp2f1_outer(params.lam, params.lam, params.mu, t)
    np.multiply(matrix, params.mu, out=matrix)
    np.multiply(matrix, rule.weights, out=matrix)
    measure = params.mu * rule.weights * (1.0 - t) ** (-params.sigma)
    matrix.setflags(write=False)
    measure.setflags(write=False)
    return DiscretizedOperator(params=params, rule=rule, matrix=matrix,
                               p=_as_exponent(p), measure_weights=measure)


def discretize(params: OperatorParams, p=2.0,
               order: int = DEFAULT_ORDER) -> DiscretizedOperator:
    """Build the Nystrom matrix of F on ``make_jacobi_rule``'s cached rule.

    One Gauss-Jacobi rule comes only to within about 1/order^2 of the
    corner s = t = 1.  There the kernel is close to a multiple of
    (1-t)^sigma (2-s-t)^(-1-sigma), homogeneous of degree -1 in
    (1-s, 1-t), so every scale of 1 - t weighs alike and the estimates
    close their gap to the norm like 1/log(order).
    """
    if order < 2:
        raise ValueError(f"discretization needs order >= 2, got {order!r}")
    return _nystrom(params, p, make_jacobi_rule(order, params.mu, params.sigma + 1.0))


def discretize_graded(params: OperatorParams, p=2.0,
                      order: int = DEFAULT_ORDER) -> DiscretizedOperator:
    """Build the Nystrom matrix of F on a composite rule graded toward t = 1.

    ``make_graded_rule`` gives each dyadic scale of 1 - t a panel of its
    own, down to 1 - t = 2^-40, which resolves the corner that
    ``discretize`` cannot (graded meshes for Mellin-type kernels: Chandler
    and Graham, Math. Comp. 50 (1988) 125-138).
    """
    return _nystrom(params, p, make_graded_rule(order, params.mu, params.sigma + 1.0))


def boundedness_margin(params: OperatorParams, p) -> float:
    """sigma + 1 - 1/p, formed as sigma + 1/q to keep its relative accuracy
    near p = 1; the operator is bounded on L^p iff this is positive."""
    return params.sigma + 1.0 / _as_exponent(p).q


def require_bounded(params: OperatorParams, p) -> float:
    """The margin sigma + 1 - 1/p of an operator bounded on L^p, else raise.

    The one decision of boundedness: UnboundedOperatorError outside the
    range sigma > 1/p - 1 (for p = 1: sigma > 0), and for p = infinity,
    where the image of the constant 1 already grows logarithmically at
    s -> 1.  Its ``growth`` is "logarithmic" at margin 0 and at
    p = infinity, "power" below 0.
    """
    exp = _as_exponent(p)
    margin = boundedness_margin(params, exp)
    if margin > 0.0 and not exp.is_infinite:
        return margin
    raise UnboundedOperatorError(
        f"operator unbounded on L^p, p = {exp.p}: needs sigma > 1/p - 1 and "
        f"p < infinity, margin = {margin}",
        growth="power" if margin < 0.0 else "logarithmic", margin=margin)


def norm_formula(params: OperatorParams, p) -> float:
    """Exact operator norm of F on L^p(mu t^(mu-1) dt); raises
    UnboundedOperatorError where ``require_bounded`` does."""
    exp = _as_exponent(p)
    margin = require_bounded(params, exp)
    # p = 1 is the continuous limit of the same expression: Gamma(1/p)
    # becomes Gamma(1) = 1 and the margin factor becomes Gamma(sigma)
    gam = log_gamma(exp.inv) + log_gamma(margin)
    return math.exp(log_gamma(params.mu + 1.0) - 2.0 * log_gamma(params.lam) + gam)
