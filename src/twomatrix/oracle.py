"""Brute-force oracle for averages over the coupled eigenvalue measure.

The average of a product of per-eigenvalue factors f(lambda_m) g(mu_m)
reduces, after symmetrizing the eigenvalue integral twice, to a ratio of
n x n determinants of modified moments

    M[i][j] = integral x**i y**j f(x) g(y) weight(x, y) dx dy,

normalized by the plain moment determinant (f = g = 1); the symmetrization
constants cancel in the ratio.  This reduction is *not* taken on faith: it
is validated against a reduction-free direct quadrature at n = 1
(:func:`oracle_direct_n1`) and, behind a slow path, against a literal
four-dimensional eigenvalue integral at n = 2 (:func:`oracle_direct_n2`).

For an average of products and ratios of characteristic polynomials the
factors are

    f(x) = prod_i (x_i - x) / prod_k (v_k - x),
    g(y) = prod_j (y_j - y) / prod_l (w_l - y),

with the denominator sources off the real axis.  Trace moments come from
the same determinants with exponentially tilted weights, differentiated by
central finite differences.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import QuadratureError, TiltDegreeError
from .model import ModelSpec
from .quadrature import build_rule, refined_rule, weighted_tensor
from . import averages as _averages

__all__ = [
    "oracle_average",
    "oracle_direct_n1",
    "oracle_direct_n2",
    "oracle_trace_moments",
]


def _rational(numer_roots, denom_roots):
    """f(t) = prod (a - t) over numerator roots / prod (b - t) over poles."""

    def f(t):
        out = np.ones_like(np.asarray(t), dtype=complex)
        for a in numer_roots:
            out = out * (a - t)
        for b in denom_roots:
            out = out / (b - t)
        return out

    return f


def _axis_rule(model, axis, poles, panel_nodes):
    """Pole-graded rule when rational factors are present, Gauss otherwise."""
    base = build_rule(model, axis)
    if not poles:
        return base
    return refined_rule(base, poles, nodes_per_panel=panel_nodes)


def _modified_moments(model, n, f, g, rule_x, rule_y):
    """M[i][j] = integral x**i y**j f(x) g(y) weight for i, j < n."""
    xn, yn = rule_x.nodes, rule_y.nodes
    wmat, off = weighted_tensor(model, rule_x, rule_y)
    fx = np.broadcast_to(np.asarray(f(xn)), xn.shape)
    gy = np.broadcast_to(np.asarray(g(yn)), yn.shape)
    vx = np.vander(xn, n, increasing=True) * fx[:, None]
    vy = np.vander(yn, n, increasing=True) * gy[:, None]
    return (vx.T @ wmat @ vy) * np.exp(off)


def _det(mat):
    return complex(np.linalg.det(mat)) if mat.size else 1.0 + 0.0j


def oracle_average(model: ModelSpec, n: int, cfg, tol=1e-8, panel_nodes=12):
    """Average of the characteristic-polynomial ratio, by determinant ratio.

    ``cfg`` is a :class:`~twomatrix.averages.SourceConfig`.  Both the
    modified and the plain moment determinants are recomputed at doubled
    resolution; disagreement beyond ``tol`` raises.
    """
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    cfg = _averages.SourceConfig.make(cfg.xs, cfg.ys, cfg.vs, cfg.ws)
    cfg.validate(n)
    f = _rational(cfg.xs, cfg.vs)
    g = _rational(cfg.ys, cfg.ws)

    def ratio(px, py):
        rx = _axis_rule(model, "x", list(cfg.vs), px)
        ry = _axis_rule(model, "y", list(cfg.ws), py)
        xn, yn = rx.nodes, ry.nodes
        wmat, _ = weighted_tensor(model, rx, ry)  # offset cancels in the det ratio
        vx = np.vander(xn, n, increasing=True)
        vy = np.vander(yn, n, increasing=True)
        core = vx.T @ wmat  # (n, ny)
        den = core @ vy
        num = (vx * np.asarray(f(xn))[:, None]).T @ wmat @ (
            vy * np.asarray(g(yn))[:, None]
        )
        return _det(num) / _det(den)

    coarse = ratio(panel_nodes, panel_nodes)
    fine = ratio(2 * panel_nodes, 2 * panel_nodes)
    if abs(fine - coarse) > tol * max(abs(fine), 1.0):
        raise QuadratureError(
            f"oracle determinant ratio not converged: {abs(fine - coarse):.3e} "
            f"change under node doubling"
        )
    return fine


def oracle_direct_n1(model: ModelSpec, cfg, panel_nodes=24):
    """Reduction-free oracle at n = 1: one literal 2d quadrature.

    Deliberately uses its own (denser, differently built) rules so that it
    shares as little as possible with :func:`oracle_average`.
    """
    cfg = _averages.SourceConfig.make(cfg.xs, cfg.ys, cfg.vs, cfg.ws)
    cfg.validate(1)
    f = _rational(cfg.xs, cfg.vs)
    g = _rational(cfg.ys, cfg.ws)
    base_x = build_rule(model, "x", 240)
    base_y = build_rule(model, "y", 240)
    rx = refined_rule(base_x, list(cfg.vs), nodes_per_panel=panel_nodes)
    ry = refined_rule(base_y, list(cfg.ws), nodes_per_panel=panel_nodes)
    expo = (
        -model.v(rx.nodes)[:, None]
        - model.w(ry.nodes)[None, :]
        + model.tau * np.outer(rx.nodes, ry.nodes)
        + rx.log_weights[:, None]
        + ry.log_weights[None, :]
    )
    off = float(np.max(expo))
    wmat = np.exp(expo - off)
    num = np.asarray(f(rx.nodes)) @ wmat @ np.asarray(g(ry.nodes))
    den = np.sum(wmat)
    return complex(num / den)


def oracle_direct_n2(model: ModelSpec, cfg, nodes_per_axis=96):
    """Reduction-free oracle at n = 2: the literal 4d eigenvalue integral.

    Computes the symmetrized integral with the Vandermonde factors and the
    2x2 exponential-coupling determinant written out term by term, chunked
    over the first axis.  Slow; used to certify the determinant reduction.
    """
    cfg = _averages.SourceConfig.make(cfg.xs, cfg.ys, cfg.vs, cfg.ws)
    cfg.validate(2)
    f = _rational(cfg.xs, cfg.vs)
    g = _rational(cfg.ys, cfg.ws)
    panels = max(nodes_per_axis // 12, 4)
    rx = refined_rule(
        build_rule(model, "x"), list(cfg.vs), nodes_per_panel=12,
        cap=_span_width(model, "x") / panels,
    )
    ry = refined_rule(
        build_rule(model, "y"), list(cfg.ws), nodes_per_panel=12,
        cap=_span_width(model, "y") / panels,
    )
    lam, mu = rx.nodes, ry.nodes
    ax = rx.weights * np.exp(-model.v(lam))
    by = ry.weights * np.exp(-model.w(mu))
    fx = np.asarray(f(lam))
    gy = np.asarray(g(mu))
    e_mat = np.exp(model.tau * np.outer(lam, mu))  # (nx, ny)

    def quad_sum(fa, ga):
        """The literal quadruple sum over (l1, l2, m1, m2) of the
        antisymmetrized integrand; the mu-pair factor is contracted first
        (a pure reassociation of the sum, no determinant identity used)."""
        a_all = ax * fa
        b_all = by * ga
        # bb[m1, m2] = b(m1) b(m2) (mu_{m2} - mu_{m1})
        bb = np.outer(b_all, b_all) * (mu[None, :] - mu[:, None])
        total = 0.0 + 0.0j
        for i1 in range(lam.size):
            s_direct = e_mat @ (bb.T @ e_mat[i1])  # sum bb E[l1,m1] E[l2,m2]
            s_swapped = e_mat @ (bb @ e_mat[i1])  # sum bb E[l1,m2] E[l2,m1]
            inner = a_all * (lam - lam[i1]) * (s_direct - s_swapped)
            total += a_all[i1] * np.sum(inner)
        return total

    return complex(quad_sum(fx, gy) / quad_sum(np.ones_like(fx), np.ones_like(gy)))


def _span_width(model, axis):
    rule = build_rule(model, axis, 16)
    lo, hi = rule.span
    return hi - lo


def _tilt_guard(model, m_list, p_list, step):
    axes = ((m_list, "x", model.v_coeffs), (p_list, "y", model.w_coeffs))
    for exponents, axis, coeffs in axes:
        deg = len(coeffs) - 1
        rule = build_rule(model, axis, 16)
        edge = max(abs(rule.nodes[0]), abs(rule.nodes[-1]))
        for e in exponents:
            if e < 0:
                raise TiltDegreeError("trace exponents must be nonnegative")
            if e < deg:
                continue
            if e == deg and step < coeffs[-1]:
                continue
            # above the potential degree the tilted integral formally
            # diverges; accept only tilts that stay negligible over the span
            if step * edge**e > 1.0:
                raise TiltDegreeError(
                    f"exponent {e} with step {step:g} tilts the weight by "
                    f"{step * edge**e:.2g} at the span edge (> 1); not integrable"
                )


def oracle_trace_moments(model: ModelSpec, n: int, m_list, p_list, step=1e-3):
    """E[prod_i Tr(M1**m_i) * prod_j Tr(M2**p_j)] by finite differences.

    The generating ratio Z(s, t) = det(M tilted) / det(M plain) with tilts
    exp(sum s_i x**m_i) and exp(sum t_j y**p_j) has this trace average as
    its mixed first derivative at zero.  Central differences with one
    Richardson level; a warning is emitted when the Richardson correction
    exceeds 10 percent of max(|value|, 1) (finite-difference instability).
    Roundoff grows like eps/step**k with k factors, hence the coarse default
    step, cut tenfold where a tilt above the potential's degree needs it.
    """
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    m_list = [int(m) for m in m_list]
    p_list = [int(p) for p in p_list]
    try:
        _tilt_guard(model, m_list, p_list, step)
    except TiltDegreeError:
        step /= 10.0
        _tilt_guard(model, m_list, p_list, step)
    rule_x = build_rule(model, "x")
    rule_y = build_rule(model, "y")
    den = _det(_modified_moments(model, n, lambda t: 1.0, lambda t: 1.0, rule_x, rule_y))

    def z_value(svec, tvec):
        def f(x):
            acc = np.zeros_like(x, dtype=float)
            for s, m in zip(svec, m_list):
                acc = acc + s * x**m
            return np.exp(acc)

        def g(y):
            acc = np.zeros_like(y, dtype=float)
            for t, p in zip(tvec, p_list):
                acc = acc + t * y**p
            return np.exp(acc)

        return _det(_modified_moments(model, n, f, g, rule_x, rule_y)) / den

    k = len(m_list) + len(p_list)
    if k == 0:
        return 1.0

    def central(h):
        total = 0.0 + 0.0j
        for signs in np.ndindex(*(2,) * k):
            sgn = np.where(np.asarray(signs) == 0, 1.0, -1.0)
            sv = sgn[: len(m_list)] * h
            tv = sgn[len(m_list):] * h
            total += np.prod(sgn) * z_value(sv, tv)
        return total / (2.0 * h) ** k

    d_h = central(step)
    d_h2 = central(step / 2.0)
    refined = (4.0 * d_h2 - d_h) / 3.0
    if abs(refined - d_h2) > 0.1 * max(abs(refined), 1.0):
        warnings.warn(
            f"trace-moment finite difference unstable: Richardson correction "
            f"{abs(refined - d_h2):.3e} vs value {abs(refined):.3e}",
            stacklevel=2,
        )
    return float(refined.real)
