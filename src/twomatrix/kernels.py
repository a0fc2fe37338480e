"""The four correlation kernels and their Cauchy-transformed counterparts.

With h_i**2 the biorthogonality norms, the plain kernels at truncation
index n are the sums over i < n of

    K_{1,1}(x1, x2) = p_i(x1) Q_i(x2) / h_i**2
    K_{1,2}(x, y)   = p_i(x) q_i(y) / h_i**2
    K_{2,1}(y, x)   = P_i(y) Q_i(x) / h_i**2  -  weight(x, y)
    K_{2,2}(y1, y2) = P_i(y1) q_i(y2) / h_i**2

The Cauchy-transformed kernels move arguments off the real axis.  They are
evaluated through their summation formulas,

    K~_{1,1}(x, v) = sum p_i(x) Q~_i(v) / h_i**2  -  1/(v - x)
    K~_{1,2}(x, y) = K_{1,2}(x, y)
    K~_{2,1}(w, v) = sum P~_i(w) Q~_i(v) / h_i**2
                     -  integral weight(xi, eta) / ((w - eta)(v - xi))
    K~_{2,2}(w, y) = sum P~_i(w) q_i(y) / h_i**2  -  1/(w - y),

with the equivalent defining integral forms provided alongside as
independent cross-checks (``*_integral`` functions; these integrate the
plain kernels against Cauchy factors directly and share nothing with the
summation route except the transforms' quadrature grid).

The truncation index is an explicit field of :class:`KernelContext`, never
implicit, because the determinant formulas for averages require the same
kernels re-indexed at n + p; :func:`with_index` re-indexes for free.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .biorth import BiorthogonalSystem, build_system, eval_p_table, eval_q_table
from .errors import CoincidenceError
from .model import ModelSpec, log_weight
from .quadrature import refined_rule
from .transforms import TransformEvaluator

__all__ = [
    "KernelContext",
    "kernel_context",
    "with_index",
    "k11",
    "k12",
    "k21",
    "k22",
    "k11_tilde",
    "k12_tilde",
    "k21_tilde",
    "k22_tilde",
    "k11_hat",
    "k22_hat",
    "k11_tilde_integral",
    "k21_tilde_integral",
    "k22_tilde_integral",
]

_COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class KernelContext:
    """Everything needed to evaluate the kernels at truncation index n.

    The sums run over i = 0..n-1; n = 0 (all sums empty) is legitimate and
    occurs in the determinant formulas whenever the index shift reaches -n.
    """

    model: ModelSpec
    sys: BiorthogonalSystem
    transforms: TransformEvaluator
    n: int

    def __post_init__(self):
        if not 0 <= self.n <= self.sys.order:
            raise ValueError(
                f"truncation index {self.n} outside 0..{self.sys.order}"
            )


def kernel_context(model: ModelSpec, n: int, order=None, node_count=200):
    """Build the biorthogonal system and transforms for kernels at index n."""
    order = order if order is not None else max(n, 1)
    sys = build_system(model, order, node_count=node_count)
    tev = TransformEvaluator(model, sys, node_count=node_count, memoize=True)
    return KernelContext(model, sys, tev, n)


def with_index(ctx: KernelContext, n: int):
    """Same system and transforms, different truncation index."""
    return replace(ctx, n=n)


def _inv_h(ctx):
    return 1.0 / ctx.sys.h_sq[: ctx.n]


def k11(ctx: KernelContext, x1, x2):
    """sum p_i(x1) Q_i(x2) / h_i**2 over i < n."""
    if ctx.n == 0:
        return 0.0
    pv = eval_p_table(ctx.sys, np.asarray(x1))[: ctx.n]
    qv = ctx.transforms.Q_values(x2)[0, : ctx.n]
    val = np.sum(pv * qv * _inv_h(ctx))
    return val if np.iscomplexobj(val) else float(val)


def k12(ctx: KernelContext, x, y):
    """sum p_i(x) q_i(y) / h_i**2 over i < n (a bivariate polynomial)."""
    if ctx.n == 0:
        return 0.0
    pv = eval_p_table(ctx.sys, np.asarray(x))[: ctx.n]
    qv = eval_q_table(ctx.sys, np.asarray(y))[: ctx.n]
    val = np.sum(pv * qv * _inv_h(ctx))
    return val if np.iscomplexobj(val) else float(val)


def k21(ctx: KernelContext, y, x):
    """sum P_i(y) Q_i(x) / h_i**2 minus the bare weight at (x, y)."""
    sub = np.exp(log_weight(ctx.model, x, y))
    if ctx.n == 0:
        return -sub
    pv = ctx.transforms.P_values(y)[0, : ctx.n]
    qv = ctx.transforms.Q_values(x)[0, : ctx.n]
    val = np.sum(pv * qv * _inv_h(ctx)) - sub
    return val if np.iscomplexobj(val) else float(val)


def k22(ctx: KernelContext, y1, y2):
    """sum P_i(y1) q_i(y2) / h_i**2 over i < n."""
    if ctx.n == 0:
        return 0.0
    pv = ctx.transforms.P_values(y1)[0, : ctx.n]
    qv = eval_q_table(ctx.sys, np.asarray(y2))[: ctx.n]
    val = np.sum(pv * qv * _inv_h(ctx))
    return val if np.iscomplexobj(val) else float(val)


# -- Cauchy-transformed kernels (summation formulas) ------------------------


def _guard_coincidence(a, b, what):
    if abs(complex(a) - complex(b)) < _COINCIDENCE_TOL:
        raise CoincidenceError(
            f"{what} arguments coincide ({a!r} vs {b!r}); the confluent "
            "limit is not implemented"
        )


def k11_tilde(ctx: KernelContext, x, v):
    """Cauchy-transformed 1,1 kernel: sum p_i(x) Q~_i(v)/h_i**2 - 1/(v-x)."""
    _guard_coincidence(v, x, "k11_tilde")
    v = complex(v)
    acc = 0.0 + 0.0j
    if ctx.n > 0:
        pv = eval_p_table(ctx.sys, np.asarray(x))[: ctx.n]
        qt = ctx.transforms.Q_tilde_values([v])[0, : ctx.n]
        acc = np.sum(pv * qt * _inv_h(ctx))
    return complex(acc - 1.0 / (v - complex(x)))


def k12_tilde(ctx: KernelContext, x, y):
    """Identical to the plain 1,2 kernel (no transform needed)."""
    return k12(ctx, x, y)


def k21_tilde(ctx: KernelContext, w, v):
    """sum P~_i(w) Q~_i(v)/h_i**2 minus the double Cauchy weight term."""
    w = complex(w)
    v = complex(v)
    sub = ctx.transforms.weight_double_cauchy(w, v)
    if ctx.n == 0:
        return -sub
    pt = ctx.transforms.P_tilde_values([w])[0, : ctx.n]
    qt = ctx.transforms.Q_tilde_values([v])[0, : ctx.n]
    return complex(np.sum(pt * qt * _inv_h(ctx)) - sub)


def k22_tilde(ctx: KernelContext, w, y):
    """sum P~_i(w) q_i(y)/h_i**2 - 1/(w - y)."""
    _guard_coincidence(w, y, "k22_tilde")
    w = complex(w)
    acc = 0.0 + 0.0j
    if ctx.n > 0:
        pt = ctx.transforms.P_tilde_values([w])[0, : ctx.n]
        qv = eval_q_table(ctx.sys, np.asarray(y))[: ctx.n]
        acc = np.sum(pt * qv * _inv_h(ctx))
    return complex(acc - 1.0 / (w - complex(y)))


def k11_hat(ctx: KernelContext, x):
    """Diagonal resolvent kernel: sum p_i(x) Q~_i(x) / h_i**2, x off-axis.

    This is the 1,1 summation formula without its rational subtraction; it
    appears on the diagonal of the trace-generating determinant.
    """
    if ctx.n == 0:
        return 0.0 + 0.0j
    x = complex(x)
    pv = eval_p_table(ctx.sys, np.asarray(x))[: ctx.n]
    qt = ctx.transforms.Q_tilde_values([x])[0, : ctx.n]
    return complex(np.sum(pv * qt * _inv_h(ctx)))


def k22_hat(ctx: KernelContext, y):
    """Diagonal resolvent kernel: sum P~_i(y) q_i(y) / h_i**2, y off-axis."""
    if ctx.n == 0:
        return 0.0 + 0.0j
    y = complex(y)
    pt = ctx.transforms.P_tilde_values([y])[0, : ctx.n]
    qv = eval_q_table(ctx.sys, np.asarray(y))[: ctx.n]
    return complex(np.sum(pt * qv * _inv_h(ctx)))


# -- defining integral forms (independent cross-checks) ---------------------


def k11_tilde_integral(ctx: KernelContext, x, v, nodes_per_panel=24):
    """1/(x-v) * integral (x-t)/(v-t) K_{1,1}(x, t) dt."""
    _guard_coincidence(v, x, "k11_tilde_integral")
    v = complex(v)
    r = refined_rule(ctx.transforms.rule_x, [v], nodes_per_panel=nodes_per_panel)
    if ctx.n == 0:
        kvals = np.zeros(r.node_count)
    else:
        pv = eval_p_table(ctx.sys, np.asarray(x))[: ctx.n]
        qmat = ctx.transforms.Q_values(r.nodes)[:, : ctx.n]
        kvals = qmat @ (pv * _inv_h(ctx))
    integrand = (complex(x) - r.nodes) / (v - r.nodes) * kvals
    return complex(np.sum(r.weights * integrand) / (complex(x) - v))


def k21_tilde_integral(ctx: KernelContext, w, v, nodes_per_panel=24):
    """Double integral of K_{2,1}(eta, xi) / ((w - eta)(v - xi))."""
    w = complex(w)
    v = complex(v)
    rx = refined_rule(ctx.transforms.rule_x, [v], nodes_per_panel=nodes_per_panel)
    ry = refined_rule(ctx.transforms.rule_y, [w], nodes_per_panel=nodes_per_panel)
    wmat = np.exp(log_weight(ctx.model, rx.nodes[:, None], ry.nodes[None, :]))
    if ctx.n == 0:
        k21mat = -wmat
    else:
        qmat = ctx.transforms.Q_values(rx.nodes)[:, : ctx.n]
        pmat = ctx.transforms.P_values(ry.nodes)[:, : ctx.n]
        k21mat = (qmat * _inv_h(ctx)) @ pmat.T - wmat  # (nx, ny)
    uv = rx.weights / (v - rx.nodes)
    uw = ry.weights / (w - ry.nodes)
    return complex(uv @ k21mat @ uw)


def k22_tilde_integral(ctx: KernelContext, w, y, nodes_per_panel=24):
    """1/(y-w) * integral (y-t)/(w-t) K_{2,2}(t, y) dt."""
    _guard_coincidence(w, y, "k22_tilde_integral")
    w = complex(w)
    r = refined_rule(ctx.transforms.rule_y, [w], nodes_per_panel=nodes_per_panel)
    if ctx.n == 0:
        kvals = np.zeros(r.node_count)
    else:
        qv = eval_q_table(ctx.sys, np.asarray(y))[: ctx.n]
        pmat = ctx.transforms.P_values(r.nodes)[:, : ctx.n]
        kvals = pmat @ (qv * _inv_h(ctx))
    integrand = (complex(y) - r.nodes) / (w - r.nodes) * kvals
    return complex(np.sum(r.weights * integrand) / (complex(y) - w))
