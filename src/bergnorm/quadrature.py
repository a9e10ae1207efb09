"""Gauss-Jacobi quadrature on (0,1) for the weighted measures of this package.

A rule with masses (a, b) integrates

    integral_0^1 t^(a-1) (1-t)^(b-1) f(t) dt  ~=  sum_i w_i f(t_i)

exactly for polynomials f up to degree 2*order - 1; its total mass is
B(a, b).  Both endpoint powers live in the weight, so integrands with
t^(mu-1) or (1-t)^sigma singularities are handled by folding those powers
into the rule analytically instead of sampling them.  A mass as small as
1/p = 1e-12 reaches the total mass and the Jacobi matrix as the caller
formed it, with no digit lost to (1/p - 1) + 1.

Every rule starts from the symmetric tridiagonal Jacobi matrix of the
weight's orthogonal polynomials, assembled from the known three-term
recurrence, and maps the standard [-1,1] rule affinely onto (0,1).  One
builder, ``make_jacobi_rules``, serves every route: LAPACK's eigenvalues,
one Newton step on the recurrence, and Christoffel weights
mu0 / sum_k p_k(x)^2, a sum of positive terms that keeps every weight's
relative accuracy.  ``make_jacobi_rule`` is its cached one-rule form.

Golub-Welsch weights, mu0 v_1^2 from the eigenvectors' first components,
are not used: they are accurate only in absolute terms (Golub and Welsch,
Math. Comp. 23 (1969); Hale and Townsend, SIAM J. Sci. Comput. 35 (2013)),
so beside a (1-t)^20 endpoint at order 128 the smallest weight reads
3.6e-40, not 1.0e-44, and a kernel growing like (1-t)^(-sigma-1) makes
that a wrong norm.

``make_graded_rule`` composes rules into panels that halve in width
toward t = 1, for integrands that vary on every scale of 1 - t;
``make_two_sided_rule`` grades Gauss-Legendre panels toward both ends,
for weights t^(c-1) (1-t)^(d-1) that each caller samples itself.

LAPACK is reached through ``scipy.linalg._flapack``, the compiled f2py
module that ``scipy.linalg.lapack`` re-exports, loaded from scipy's
package directory without running ``scipy/linalg/__init__.py`` (about
0.3 s and 24 MiB per process, which nothing here needs).  The one call
is ``dsterf``, eigenvalues only, as ``scipy.linalg.eigh_tridiagonal``
makes it, so every rule has its bits.  If a scipy release moves the
module, the import fails and names it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

from .specfun import beta_fn

__all__ = ["JacobiRule", "QuadratureError", "make_graded_rule",
           "make_jacobi_rule", "make_jacobi_rules", "make_two_sided_rule"]

DEFAULT_ORDER = 64
# default order of normest's quadrature twins: the column integral and the
# extremal-family bilinear form
QUADRATURE_TWIN_ORDER = 128
# graded composite rules: nominal points per panel, and the deepest
# breakpoint 1 - 2^-GRADED_MAX_DEPTH
GRADED_PANEL_POINTS = 8
GRADED_MAX_DEPTH = 40
# the two-sided rule's deepest dyadic panels: [2^-30, 2^-29] toward t = 0,
# closed by [0, 2^-30], and [2^-52, 2^-51] in 1 - t toward t = 1, the last
# scale whose nodes still round below 1
TWO_SIDED_DEPTHS = (30, 52)


class QuadratureError(RuntimeError):
    """Rule construction produced something unusable (solver failure,
    non-increasing nodes, or a non-positive weight)."""


def _load_flapack():
    """``scipy.linalg._flapack``, loaded without ``scipy.linalg``'s package init.

    ``import scipy`` runs only the top-level ``__init__``, which sets up the
    libraries the compiled module links against.  The module stays out of
    ``sys.modules``, so that a later ``import scipy.linalg`` loads it as
    usual; if that import came first, its module is taken.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled module {name} "
                          f"in {finder.path}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)  # an f2py module registers itself on creation
    return module


_flapack = _load_flapack()


def _tridiagonal_eigen(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix (diag, off).

    LAPACK ``dsterf``, called as ``eigh_tridiagonal`` calls it; like it, an
    order-1 matrix is answered directly, because f2py rejects an empty
    off-diagonal.
    """
    if diag.size == 1:
        return diag.copy()
    vals, info = _flapack.dsterf(diag, off)
    if info != 0:
        raise QuadratureError(f"tridiagonal eigensolver dsterf failed: info = {info}")
    return vals


@dataclass(frozen=True)
class JacobiRule:
    """An immutable rule on (0,1) for the weight t^(a-1) (1-t)^(b-1) of masses
    (a, b): one Gauss-Jacobi rule, or a graded composite (``make_graded_rule``).

    The weights already include the full weight function, so plain dot
    products against sampled integrand values perform the weighted integral.
    """

    a: float
    b: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def total_mass(self) -> float:
        """sum of weights = B(a, b), the weight's total measure."""
        return float(self.weights.sum())

    def integrate(self, values) -> float:
        """Dot the weights against integrand values sampled at the nodes."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise ValueError(
                f"expected {self.nodes.shape[0]} sampled values, got shape {values.shape}")
        return float(self.weights @ values)


def _recurrence(order: int, a, b):
    """Three-term recurrence coefficients for the monic Jacobi polynomials
    with weight (1-x)^(a-1) (1+x)^(b-1) on [-1,1], of masses a and b.

    Returns (diag, offdiag) of the symmetric Jacobi matrix.  The k = 0
    diagonal and the k = 1 off-diagonal are formed from the masses, the
    later entries from the exponents a - 1 and b - 1.  ``a`` and ``b`` are
    floats, or 1-D arrays with one mass per rule; then row r of each result
    is rule r's matrix, with the bits a call on that rule's floats gives.
    """
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    A, B = a - 1.0, b - 1.0
    k = np.arange(order, dtype=float)
    s = 2.0 * k + A + B
    diag = np.empty(s.shape)
    diag[..., :1] = (b - a) / (a + b)
    diag[..., 1:] = (B * B - A * A) / (s[..., 1:] * (s[..., 1:] + 2.0))
    off = np.empty(s.shape[:-1] + (max(order - 1, 0),))
    if order > 1:
        # k = 1 separately: the generic expression is 0/0 at a + b = 1
        off[..., :1] = np.sqrt(4.0 * a * b / ((a + b) * (a + b) * (a + b + 1.0)))
    if order > 2:
        kk = k[2:]
        sk = s[..., 2:]
        num = 4.0 * kk * (kk + A) * (kk + B) * (kk + A + B)
        den = sk * sk * (sk + 1.0) * (sk - 1.0)
        off[..., 1:] = np.sqrt(num / den)
    return diag, off


def _checked_rules(order: int, masses, nodes: np.ndarray,
                   weights: np.ndarray) -> list[JacobiRule]:
    """Freeze computed rules, one per (a, b) pair of masses and row of ``nodes``
    and ``weights``, after checking in one pass over the batch that every
    rule is usable."""
    if np.any(np.diff(nodes, axis=1) <= 0.0):
        raise QuadratureError("quadrature nodes are not strictly increasing")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise QuadratureError("quadrature weights must be positive and finite")
    if np.any(nodes[:, 0] <= 0.0) or np.any(nodes[:, -1] >= 1.0):
        raise QuadratureError("quadrature nodes left the open interval (0,1)")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return [JacobiRule(a=a, b=b, order=order, nodes=t, weights=w)
            for (a, b), t, w in zip(masses, nodes, weights)]


@lru_cache(maxsize=256)
def make_jacobi_rule(order: int, a: float, b: float) -> JacobiRule:
    """Build (and cache) the order-point rule for weight t^(a-1) (1-t)^(b-1):
    ``make_jacobi_rules`` for the one pair of masses."""
    return make_jacobi_rules(order, [(a, b)])[0]


def make_jacobi_rules(order: int, masses) -> list[JacobiRule]:
    """One order-point rule per (a, b) pair of masses, for weight
    t^(a-1) (1-t)^(b-1).

    Nodes are each Jacobi matrix's eigenvalues (no eigenvectors), polished
    by one Newton step delta on the three-term recurrence; weights are the
    Christoffel numbers 1 / S, S = sum_k p_k(x_i)^2 over the orthonormal p_k
    with p_0 = 1, rescaled to each rule's mass B(a, b).  The
    batch's Jacobi matrices come from one ``_recurrence`` call and its
    rules are checked in one ``_checked_rules`` pass; only LAPACK's
    ``dsterf`` and the mass are taken rule by rule.  One recurrence pass
    over the whole batch (``order`` array steps) carries p_k, p_k', S and
    D = sum_k p_k p_k'; S + 2 delta D is S at the polished node to first
    order.  Each rule has the bits of its one-rule batch.  No cache.
    """
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    masses = [(float(a), float(b)) for a, b in masses]
    for a, b in masses:
        if not (a > 0.0 and b > 0.0):
            raise ValueError(f"integrability requires masses a, b > 0, got ({a!r}, {b!r})")
    count = len(masses)
    a_masses, b_masses = np.array(masses).reshape(count, 2).T
    # diag[r, k] = a_k; off[r, k] = b_k couples p_(k-1) and p_k, with b_0 = 0
    # and b_order = 1 (the last step then gives b_order p_order, whose zeros
    # are the nodes).  On [-1,1] the (1-x) power pairs with the (1-t)
    # factor and the (1+x) power with the t factor.
    off = np.zeros((count, order + 1))
    off[:, order] = 1.0
    diag, off[:, 1:order] = _recurrence(order, b_masses, a_masses)
    x = np.empty((count, order))
    mass = np.empty((count, 1))
    for r, (a, b) in enumerate(masses):
        x[r] = _tridiagonal_eigen(diag[r], off[r, 1:order])
        mass[r] = beta_fn(a, b)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
    christoffel, slope = np.zeros_like(x), np.zeros_like(x)
    for k in range(order):
        christoffel += p * p
        slope += p * dp
        shifted = x - diag[:, k:k + 1]
        b_in, b_out = off[:, k:k + 1], off[:, k + 1:k + 2]
        dp_prev, dp = dp, (p + shifted * dp - b_in * dp_prev) / b_out
        p_prev, p = p, (shifted * p - b_in * p_prev) / b_out
    delta = -p / dp
    x += delta
    christoffel += 2.0 * delta * slope
    weights = 1.0 / christoffel
    weights *= mass / weights.sum(axis=1, keepdims=True)
    return _checked_rules(order, masses, 0.5 * (x + 1.0), weights)


def make_graded_rule(order: int, a: float, b: float) -> JacobiRule:
    """Composite rule for weight t^(a-1) (1-t)^(b-1), graded toward t = 1.

    The panels are [0, 1/2], [1/2, 3/4], ..., [1 - 2^-depth, 1]: each is
    half as wide as the one before, so every dyadic scale of 1 - t gets
    its own panel.  The first panel is Gauss-Jacobi with t^(a-1) folded
    into its weight, the last one Gauss-Jacobi with (1-t)^(b-1), and the
    ones between Gauss-Legendre; the factor a panel's rule does not carry
    is smooth there and is sampled at the nodes, (1-t)^(b-1) on a middle
    panel from its unrounded u = 1 - t.  The ``order`` points are
    spread as evenly as possible over order // GRADED_PANEL_POINTS panels
    (at least two, at most GRADED_MAX_DEPTH + 1, earlier panels taking any
    remainder).  Stopping at depth 2^-40 keeps the last panel thousands of
    double-precision spacings wide, so its nodes stay distinct and
    products s*t of nodes stay below 1.
    """
    if not isinstance(order, int) or order < 2:
        raise ValueError(f"a graded rule needs an integer order >= 2, got {order!r}")
    panels = min(max(order // GRADED_PANEL_POINTS, 2), GRADED_MAX_DEPTH + 1)
    edges = [1.0 - 2.0 ** -k for k in range(panels)] + [1.0]
    base, extra = divmod(order, panels)
    nodes, weights = [], []
    for k in range(panels):
        h, n = edges[k + 1] - edges[k], base + (k < extra)
        if k == 0:
            panel = make_jacobi_rule(n, a, 1.0)
            t = h * panel.nodes
            w = h ** a * panel.weights * (1.0 - t) ** (b - 1.0)
        elif k == panels - 1:
            panel = make_jacobi_rule(n, 1.0, b)
            t = edges[k] + h * panel.nodes
            w = h ** b * panel.weights * t ** (a - 1.0)
        else:
            # (1-t)^(b-1) from u = 1 - t as the panel gives it, not from a
            # rounded t; the node is the rounded 1 - u
            panel = make_jacobi_rule(n, 1.0, 1.0)
            u = h * (2.0 - panel.nodes)
            t = 1.0 - u
            w = h * panel.weights * t ** (a - 1.0) * u ** (b - 1.0)
        nodes.append(t)
        weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return JacobiRule(a=a, b=b, order=order, nodes=nodes, weights=weights)


@lru_cache(maxsize=None)
def make_two_sided_rule() -> JacobiRule:
    """Composite Gauss-Legendre rule for dt on (0,1), graded toward both ends.

    Panels of GRADED_PANEL_POINTS points: [h, 2h] for h = 2^-2, ..., 2^-30
    and a closing [0, 2^-30] toward t = 0; the same dyadic panels in
    u = 1 - t, down to [2^-52, 2^-51], toward t = 1.  A caller samples a
    weight t^(c-1) (1-t)^(d-1) with c, d > 0 at the nodes; every dyadic
    scale of t and of u has its own panel, so the weight and a function
    with a (1-t)^gap kink at t = 1 are smooth on each.  The left-out tail
    beyond 1 - 2^-52 costs about 2^(-52 d) / d.

    A node near 1 is the rounded 1 - u, so 1 - t is exact there (Sterbenz)
    and is the node's own u: a weight sampled at 1 - t and a function
    sampled at t see one point.  The deepest panels are a few spacings of
    the doubles below 1 wide; nodes that round together merge and carry
    their summed weight.  Built on first use, not at import.
    """
    panel = make_jacobi_rule(GRADED_PANEL_POINTS, 1.0, 1.0)
    low, high = TWO_SIDED_DEPTHS
    to_zero = 2.0 ** -np.arange(2, low + 1)[:, None]
    to_one = 2.0 ** -np.arange(2, high + 1)[:, None]
    nodes = np.concatenate([2.0 ** -low * panel.nodes,
                            (to_zero * (1.0 + panel.nodes)).ravel(),
                            1.0 - (to_one * (1.0 + panel.nodes)).ravel()])
    widths = np.concatenate([[2.0 ** -low], to_zero[:, 0], to_one[:, 0]])
    nodes, point = np.unique(nodes, return_inverse=True)
    weights = np.bincount(point, weights=(widths[:, None] * panel.weights).ravel())
    return _checked_rules(nodes.size, [(1.0, 1.0)], nodes[None], weights[None])[0]
