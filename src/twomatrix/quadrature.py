"""Quadrature rules for the weighted integrals of the two-matrix model.

Two families of rules are provided:

* :func:`build_rule` - a Gauss rule for a Gaussian reference weight
  (Golub-Welsch on the symmetric tridiagonal recurrence), affinely rescaled
  so the joint weight decays below ``exp(-margin)`` beyond the node span.
  The stored weights are for the bare Lebesgue measure; integrands carry
  the exponential weight explicitly, in log space.

* :func:`refined_rule` - a composite Gauss-Legendre rule on the same span
  whose panels are geometrically graded toward the real parts of a set of
  off-axis poles.  This is the workhorse for Cauchy-kernel integrals: it
  stays accurate to machine precision for ``|Im pole|`` down to 1e-3.

Both kinds share the :class:`QuadratureRule` container, so every integral
in the package is a plain weighted sum over ``rule.nodes``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from .errors import ModelValidationError, QuadratureError
from .model import ModelSpec, polyder_ascending, polyval_ascending

__all__ = [
    "QuadratureRule",
    "build_rule",
    "refined_rule",
    "doubled_rule",
    "weighted_tensor",
    "MIN_POLE_IMAG",
]

MIN_POLE_IMAG = 1e-3

# span solve: weight tail below exp(-_SPAN_MARGIN) * (1+|x|)**(-_SPAN_DEGREE)
_SPAN_MARGIN = 40.0
_SPAN_DEGREE = 32.0


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and strictly positive bare-Lebesgue weights on the real line.

    ``center`` and ``scale`` record the affine map applied to the reference
    rule; for composite rules ``edges`` holds the panel boundaries and
    ``panel_nodes`` the Gauss-Legendre order per panel.
    """

    nodes: np.ndarray
    weights: np.ndarray
    node_count: int
    center: float
    scale: float
    axis: str = "x"
    edges: np.ndarray | None = None
    panel_nodes: int | None = None

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise QuadratureError("quadrature weights must be strictly positive")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise QuadratureError("quadrature nodes must be strictly increasing")

    @property
    def span(self):
        return float(self.nodes[0]), float(self.nodes[-1])

    @property
    def log_weights(self):
        return np.log(self.weights)


# ---------------------------------------------------------------------------
# Gaussian-reference Gauss rule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _hermite_reference(n):
    """Nodes of the n-point Gauss rule for weight exp(-t**2), plus the log of
    the bare-Lebesgue weights w_i * exp(t_i**2).

    The weights come from the Christoffel function 1/sum_k p_k(x_i)**2 of the
    orthonormal polynomials, evaluated with a running log rescale so that the
    tail weights keep full relative accuracy at any node count (eigenvector
    first components underflow into noise long before this recurrence does).
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    if n == 1:
        return np.array([0.0]), np.array([0.5 * np.log(np.pi)])
    off = np.sqrt(np.arange(1, n) / 2.0)
    t = eigh_tridiagonal(np.zeros(n), off, eigvals_only=True)
    p_prev = np.zeros_like(t)
    p_cur = np.full_like(t, np.pi**-0.25)
    log_scale = np.zeros_like(t)
    sum_sq = p_cur**2
    for j in range(n - 1):
        p_next = (t * p_cur - np.sqrt(j / 2.0) * p_prev) / off[j]
        p_prev, p_cur = p_cur, p_next
        big = np.abs(p_cur) > 1e100
        if big.any():
            shrink = np.where(big, 1e-100, 1.0)
            p_prev = p_prev * shrink
            p_cur = p_cur * shrink
            sum_sq = sum_sq * shrink**2
            log_scale = log_scale + np.where(big, np.log(1e100), 0.0)
        sum_sq = sum_sq + p_cur**2
    log_bare = -np.log(sum_sq) - 2.0 * log_scale + t * t
    return t, log_bare


def _legendre_sup(coeffs, p):
    """sup over real y of p*y - poly(y) for an even-degree coercive poly."""
    d = polyder_ascending(coeffs)
    # roots of poly'(y) = p
    c = list(d)
    c[0] -= p
    roots = np.roots(c[::-1])
    real = roots[np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))].real
    if real.size == 0:  # numerically degenerate; fall back to a grid
        yg = np.linspace(-100, 100, 4001)
        return float(np.max(p * yg - polyval_ascending(coeffs, yg)))
    vals = p * real - polyval_ascending(coeffs, real)
    return float(np.max(vals))


def effective_potential(model: ModelSpec, axis, x):
    """Decay exponent of the marginal weight along one axis.

    For the x axis this is ``V(x) - sup_y (tau*x*y - W(y))``: the joint
    weight maximized over the other variable, which is what the node span
    must cover (the coupling fattens the marginal tails).  The sup is taken
    over a shared grid spanning beyond the extremal stationary points.
    """
    own, other = (
        (model.v_coeffs, model.w_coeffs) if axis == "x" else (model.w_coeffs, model.v_coeffs)
    )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = model.tau * x
    pmax = float(np.max(np.abs(p))) if p.size else 0.0
    # size the grid from the extremal stationary point, then refine the sup
    # near each maximizer with one exact solve for scalar inputs
    y_edge = 1.0
    for sgn in (-pmax, pmax):
        d = list(polyder_ascending(other))
        d[0] -= sgn
        roots = np.roots(d[::-1])
        real = roots[np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))].real
        if real.size:
            y_edge = max(y_edge, 1.5 * float(np.max(np.abs(real))) + 1.0)
    yg = np.linspace(-y_edge, y_edge, 2048)
    wy = polyval_ascending(other, yg)
    sup = np.max(np.multiply.outer(p, yg) - wy[None, :], axis=1)
    if x.size <= 4:  # scalar-ish calls (bisection) get the exact sup
        sup = np.array([_legendre_sup(other, pi) for pi in p])
    return polyval_ascending(own, x) - sup


@lru_cache(maxsize=64)
def _axis_span(model: ModelSpec, axis):
    """Node-span data for one axis: the margin-based span (effective
    potential rises by _SPAN_MARGIN plus _SPAN_DEGREE * log(1+distance)
    above its minimum on each side) plus the mean and standard deviation
    of the effective marginal weight."""
    grid = np.linspace(-60.0, 60.0, 1201)
    veff = effective_potential(model, axis, grid)
    i0 = int(np.argmin(veff))
    x0, v0 = grid[i0], veff[i0]

    def g(x):
        return (
            float(effective_potential(model, axis, x)[0])
            - v0
            - _SPAN_DEGREE * np.log1p(abs(x - x0))
            - _SPAN_MARGIN
        )

    def outward(direction):
        step = 1.0
        lo = x0
        hi = x0 + direction * step
        while g(hi) < 0:
            lo = hi
            step *= 1.7
            hi = x0 + direction * (abs(hi - x0) + step)
            if abs(hi) > 1e6:
                raise ModelValidationError("weight does not decay; check the model")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        return hi

    lo, hi = outward(-1.0), outward(+1.0)
    # mean/sigma of the bare one-axis weight exp(-V): the small-rule
    # variance match targets the bare decay, per the rule's contract
    own = model.v_coeffs if axis == "x" else model.w_coeffs
    fine = np.linspace(lo, hi, 4001)
    bare = polyval_ascending(own, fine)
    dens = np.exp(-(bare - np.min(bare)))
    total = float(np.sum(dens))
    mean = float(np.sum(fine * dens) / total)
    sigma = float(np.sqrt(np.sum((fine - mean) ** 2 * dens) / total))
    return lo, hi, mean, sigma


@lru_cache(maxsize=64)
def build_rule(model: ModelSpec, axis, node_count=200):
    """Gauss rule adapted to the decay of the weight along one axis.

    The reference rule (Gaussian weight) is affinely mapped onto the smaller
    of two spans: the variance-matched width sqrt(2 n) * sqrt(2) * sigma of
    the effective marginal weight (for a Gaussian weight this reproduces the
    classical rule, exact on polynomials of degree < 2 n), and the margin
    span where the weight has decayed below exp(-40) * (1+s)**-32 (beyond
    which even high moments contribute under 1e-12 relative).  Small rules
    are therefore variance-matched; large rules keep full tail coverage.

    Parameters
    ----------
    axis : {"x", "y"}
    node_count : int, >= 2
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if node_count < 2:
        raise ValueError("node_count must be >= 2")
    lo, hi, mean, sigma = _axis_span(model, axis)
    t, log_bare = _hermite_reference(node_count)
    half_var = float(t[-1]) * np.sqrt(2.0) * sigma
    lo = max(lo, mean - half_var)
    hi = min(hi, mean + half_var)
    center = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo) / float(t[-1])
    nodes = center + scale * t
    weights = np.exp(log_bare + np.log(scale))
    return QuadratureRule(nodes, weights, node_count, center, scale, axis)


# ---------------------------------------------------------------------------
# Pole-graded composite Gauss-Legendre rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _gl_reference(m):
    return roots_legendre(m)


def _background_cap(rule: QuadratureRule):
    lo, hi = rule.span
    return min((hi - lo) / 32.0, 1.0)


def _graded_edges(lo, hi, poles, cap):
    edges = {lo, hi}
    n_back = int(np.ceil((hi - lo) / cap))
    for e in np.linspace(lo, hi, n_back + 1):
        edges.add(float(e))
    for pole in poles:
        a = float(np.clip(np.real(pole), lo, hi))
        b = max(abs(float(np.imag(pole))), 1e-8)
        offsets = [0.0]
        step = 0.5 * b
        while step < 2.0 * cap:
            offsets.extend((step, -step))
            step *= 2.0
        for o in offsets:
            e = a + o
            if lo < e < hi:
                edges.add(e)
    arr = np.array(sorted(edges))
    keep = [arr[0]]
    for e in arr[1:]:
        if e - keep[-1] > 1e-12 * (hi - lo):
            keep.append(e)
    if keep[-1] != hi:
        keep[-1] = hi
    return np.array(keep)


def refined_rule(rule: QuadratureRule, poles=(), nodes_per_panel=16, cap=None):
    """Composite Gauss-Legendre rule over ``rule``'s span, graded toward the
    real parts of ``poles`` with panel widths shrinking to half the pole's
    distance from the axis.  With no poles this is a uniform composite rule.
    """
    lo, hi = rule.span
    if cap is None:
        cap = _background_cap(rule)
    edges = _graded_edges(lo, hi, poles, cap)
    xg, wg = _gl_reference(nodes_per_panel)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return QuadratureRule(
        nodes,
        weights,
        nodes.size,
        float(0.5 * (lo + hi)),
        float(0.5 * (hi - lo)),
        rule.axis,
        edges=edges,
        panel_nodes=nodes_per_panel,
    )


def doubled_rule(rule: QuadratureRule, model: ModelSpec | None = None):
    """Same span at doubled resolution, for refinement error estimates."""
    if rule.edges is not None:
        xg, wg = _gl_reference(2 * rule.panel_nodes)
        mid = 0.5 * (rule.edges[1:] + rule.edges[:-1])
        half = 0.5 * (rule.edges[1:] - rule.edges[:-1])
        nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        weights = (half[:, None] * wg[None, :]).ravel()
        return replace(
            rule,
            nodes=nodes,
            weights=weights,
            node_count=nodes.size,
            panel_nodes=2 * rule.panel_nodes,
        )
    if model is None:
        raise ValueError("doubling a Gauss rule needs the model")
    return build_rule(model, rule.axis, 2 * rule.node_count)


# ---------------------------------------------------------------------------
# The joint weight on a tensor grid
# ---------------------------------------------------------------------------


def weighted_tensor(model: ModelSpec, rule_x: QuadratureRule, rule_y: QuadratureRule):
    """Tensor of weight * quadrature weights, returned as (matrix, log_offset).

    The true tensor is ``matrix * exp(log_offset)``; the offset keeps the
    stored matrix in a safe floating-point range.  The exponent is assembled
    and exponentiated in place, so only one node-grid array is allocated.
    """
    xn, yn = rule_x.nodes, rule_y.nodes
    out = np.outer(xn, yn)
    out *= model.tau
    out += (rule_x.log_weights - model.v(xn))[:, None]
    out += (rule_y.log_weights - model.w(yn))[None, :]
    off = float(np.max(out))
    out -= off
    return np.exp(out, out=out), off
