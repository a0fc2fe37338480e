"""Named invariant checks with measured residuals.

Each check exercises one identity of the system - biorthogonality,
kernel summation-vs-integral equivalence, reproducing and vanishing
integrals, determinant-vs-oracle agreement, index-shift invariance - and
reports the measured residual against its tolerance.  The CLI ``verify``
command runs the whole list; the test suite asserts on the same residuals
at its own (often tighter) settings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averages import SourceConfig, _evaluate, average, christoffel_a, christoffel_b
from .applications import correlation, trace_product_average
from .biorth import build_system, eval_p_table, eval_q_table
from .kernels import (
    KernelContext,
    k11_tilde,
    k11_tilde_integral,
    k21_tilde,
    k21_tilde_integral,
    k22_tilde,
    k22_tilde_integral,
    with_index,
)
from .model import ModelSpec, log_weight
from .oracle import oracle_average, oracle_direct_n1, oracle_trace_moments
from .quadrature import refined_rule, weighted_tensor
from .transforms import TransformEvaluator

__all__ = ["CheckResult", "Workspace", "run_all_checks", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self):
        return self.residual <= self.tol


class Workspace:
    """Shared state for the verification checks: one model, one system."""

    def __init__(self, model: ModelSpec, n_max=4, order=None, node_count=200, seed=0):
        self.model = model
        self.n_max = n_max
        self.order = order if order is not None else min(n_max + 6, 10)
        self.sys = build_system(model, self.order, node_count=node_count)
        self.tev = TransformEvaluator(model, self.sys, node_count=node_count, memoize=True)
        self.rng = np.random.default_rng(seed)
        self.rule_x = self.tev.rule_x
        self.rule_y = self.tev.rule_y

    def ctx(self, n):
        return KernelContext(self.model, self.sys, self.tev, n)

    def draw_sources(self, i, j, k, l, n):
        rng = self.rng
        while True:
            cfg = SourceConfig.make(
                rng.uniform(-2, 2, i),
                rng.uniform(-2, 2, j),
                rng.uniform(-2, 2, k) + 1j * rng.uniform(0.5, 3, k) * rng.choice([-1, 1], k),
                rng.uniform(-2, 2, l) + 1j * rng.uniform(0.5, 3, l) * rng.choice([-1, 1], l),
            )
            try:
                cfg.validate(n)
                return cfg
            except Exception:
                continue

    def weight_tensor(self):
        if not hasattr(self, "_wt"):
            self._wt = weighted_tensor(self.model, self.rule_x, self.rule_y)
        return self._wt


def _rel(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


# -- individual checks -------------------------------------------------------


def check_rule_convergence(ws: Workspace):
    """Doubling the node count moves the weight normalization by < 1e-10."""
    from .quadrature import doubled_rule

    worst = 0.0
    for rule in (ws.rule_x, ws.rule_y):
        fine = doubled_rule(rule, ws.model)
        for r1, r2, axis in ((rule, fine, rule.axis),):
            def norm(r):
                other = ws.rule_y if axis == "x" else ws.rule_x
                mat, off = weighted_tensor(
                    ws.model, r if axis == "x" else other, other if axis == "x" else r
                )
                return float(np.sum(mat)) * np.exp(off)

            worst = max(worst, _rel(norm(r1), norm(r2)))
    return CheckResult("weights.rule_convergence", worst, 1e-10)


def check_biorthogonality(ws: Workspace):
    """integral of p_i q_j against the weight is diag(h**2) to 1e-9*h_i*h_j."""
    mat, off = ws.weight_tensor()
    ptab = eval_p_table(ws.sys, ws.rule_x.nodes)
    qtab = eval_q_table(ws.sys, ws.rule_y.nodes)
    gram = (ptab @ mat @ qtab.T) * np.exp(off)
    h = np.sqrt(ws.sys.h_sq)
    resid = (gram - np.diag(ws.sys.h_sq)) / np.outer(h, h)
    return CheckResult("biorth.biorthogonality", float(np.max(np.abs(resid))), 1e-9)


def check_monic_and_positive(ws: Workspace):
    d = np.arange(ws.sys.order + 1)
    monic_err = max(
        float(np.max(np.abs(ws.sys.p_coeffs[d, d] - 1.0))),
        float(np.max(np.abs(ws.sys.q_coeffs[d, d] - 1.0))),
    )
    positive = float(np.min(ws.sys.h_sq))
    resid = monic_err if positive > 0 else float("inf")
    return CheckResult("biorth.monic_and_positive", resid, 1e-14)


def check_transform_moment_ladder(ws: Workspace):
    """1/v expansion of Q~_j: coefficients vanish below order j+1 and the
    j+1 coefficient is h_j**2 (checked at two radii with extrapolation)."""
    worst = 0.0
    for j in range(min(3, ws.sys.order) + 1):
        for radius in (150.0, 300.0):
            v = 1j * radius
            lead = ws.tev.Q_tilde(j, v) * v ** (j + 1) / ws.sys.h_sq[j]
            worst = max(worst, abs(lead - 1.0) * radius / 150.0 / 5.0)
        a = ws.tev.Q_tilde(j, 150j) * (150j) ** (j + 1) / ws.sys.h_sq[j]
        b = ws.tev.Q_tilde(j, 300j) * (300j) ** (j + 1) / ws.sys.h_sq[j]
        extrap = 2.0 * b - a  # kills the 1/v term
        worst = max(worst, abs(extrap - 1.0))
    return CheckResult("transforms.moment_ladder", worst, 1e-2)


def check_transform_integral_identity(ws: Workspace):
    """P~_n(w) from the 1d Cauchy integral equals the double-integral form."""
    worst = 0.0
    for n in range(min(5, ws.sys.order) + 1):
        for w in (1.5j, -0.7 + 0.9j, 2.0 - 0.6j):
            direct = ws.tev.P_tilde(n, w)
            ry = refined_rule(ws.rule_y, [w], nodes_per_panel=24)
            wmat, off = weighted_tensor(ws.model, ws.rule_x, ry)
            pn = eval_p_table(ws.sys, ws.rule_x.nodes)[n]
            val = (pn @ wmat @ (1.0 / (w - ry.nodes))) * np.exp(off)
            worst = max(worst, _rel(direct, complex(val)))
    return CheckResult("transforms.integral_identity", worst, 1e-8)


def check_kernel_sum_vs_integral(ws: Workspace):
    """Summation formulas against the defining integrals, all tilde kernels."""
    worst = 0.0
    rng = np.random.default_rng(11)
    for n in range(1, min(5, ws.sys.order) + 1):
        ctx = ws.ctx(n)
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(-1.5, 1.5))
        v = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
        w = complex(rng.uniform(-1, 1), -rng.uniform(0.5, 2))
        worst = max(worst, _rel(k11_tilde(ctx, x, v), k11_tilde_integral(ctx, x, v)))
        worst = max(worst, _rel(k21_tilde(ctx, w, v), k21_tilde_integral(ctx, w, v)))
        worst = max(worst, _rel(k22_tilde(ctx, w, y), k22_tilde_integral(ctx, w, y)))
    return CheckResult("kernels.sum_vs_integral", worst, 1e-8)


def check_kernel_reproducing(ws: Workspace):
    """K_{1,1} and K_{2,2} reproduce polynomials below the truncation index;
    the 1,2 kernel reproduces through its weighted double integral."""
    rng = np.random.default_rng(5)
    worst = 0.0
    mat, off = ws.weight_tensor()
    for n in range(1, min(5, ws.sys.order) + 1):
        coeff = rng.normal(size=n)
        x0 = float(rng.uniform(-1.5, 1.5))
        y0 = float(rng.uniform(-1.5, 1.5))
        inv_h = 1.0 / ws.sys.h_sq[:n]
        ptab = eval_p_table(ws.sys, ws.rule_x.nodes)[:n]
        qtab = eval_q_table(ws.sys, ws.rule_y.nodes)[:n]
        p_x0 = eval_p_table(ws.sys, np.asarray(x0))[:n]
        q_y0 = eval_q_table(ws.sys, np.asarray(y0))[:n]
        # K11 reproducing: integral p(t) K11(x0, t) dt = p(x0)
        qvals = ws.tev.Q_values(ws.rule_x.nodes)[:, :n]
        k11_vals = qvals @ (p_x0 * inv_h)
        p_nodes = coeff @ ptab
        lhs = float(np.sum(ws.rule_x.weights * p_nodes * k11_vals))
        worst = max(worst, _rel(lhs, float(coeff @ p_x0)))
        # K22 reproducing: integral q(t) K22(t, y0) dt = q(y0)
        pvals = ws.tev.P_values(ws.rule_y.nodes)[:, :n]
        k22_vals = pvals @ (q_y0 * inv_h)
        q_nodes = coeff @ qtab
        lhs = float(np.sum(ws.rule_y.weights * q_nodes * k22_vals))
        worst = max(worst, _rel(lhs, float(coeff @ q_y0)))
        # K12 reproducing through the double integral, both orientations
        k12_x0 = (p_x0 * inv_h) @ qtab  # K12(x0, y) on y nodes
        lhs = float((p_nodes @ mat @ k12_x0) * np.exp(off))
        worst = max(worst, _rel(lhs, float(coeff @ p_x0)))
        k12_y0 = (q_y0 * inv_h) @ ptab  # K12(x, y0) on x nodes
        lhs = float((k12_y0 @ mat @ q_nodes) * np.exp(off))
        worst = max(worst, _rel(lhs, float(coeff @ q_y0)))
    return CheckResult("kernels.reproducing", worst, 1e-8)


def check_kernel_vanishing(ws: Workspace):
    """Weighted double integrals of the transformed 1,1 and 2,2 kernels
    against low-degree polynomials vanish."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in range(1, min(5, ws.sys.order) + 1):
        coeff = rng.normal(size=n)
        v = complex(rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.5, 2))
        w = complex(rng.uniform(-1, 1), rng.choice([-1, 1]) * rng.uniform(0.5, 2))
        inv_h = 1.0 / ws.sys.h_sq[:n]
        # integral K11~(t, v) q(s) w(t, s) dt ds = 0
        rx = refined_rule(ws.rule_x, [v], nodes_per_panel=24)
        wmat, off = weighted_tensor(ws.model, rx, ws.rule_y)
        qt_v = ws.tev.Q_tilde_values([v])[0, :n]
        pvals = eval_p_table(ws.sys, rx.nodes)[:n]
        sum_part = (qt_v * inv_h) @ pvals
        qpoly = coeff @ eval_q_table(ws.sys, ws.rule_y.nodes)[:n]
        piece1 = complex((sum_part @ wmat @ qpoly) * np.exp(off))
        piece2 = complex(((1.0 / (v - rx.nodes)) @ wmat @ qpoly) * np.exp(off))
        worst = max(worst, abs(piece1 - piece2) / max(abs(piece1), abs(piece2), 1e-300))
        # integral K22~(w, s) p(t) w(t, s) dt ds = 0
        ry = refined_rule(ws.rule_y, [w], nodes_per_panel=24)
        wmat, off = weighted_tensor(ws.model, ws.rule_x, ry)
        pt_w = ws.tev.P_tilde_values([w])[0, :n]
        qvals = eval_q_table(ws.sys, ry.nodes)[:n]
        sum_part = (pt_w * inv_h) @ qvals
        ppoly = coeff @ eval_p_table(ws.sys, ws.rule_x.nodes)[:n]
        piece1 = complex((ppoly @ wmat @ sum_part) * np.exp(off))
        piece2 = complex((ppoly @ wmat @ (1.0 / (w - ry.nodes))) * np.exp(off))
        worst = max(worst, abs(piece1 - piece2) / max(abs(piece1), abs(piece2), 1e-300))
    return CheckResult("kernels.vanishing", worst, 1e-8)


def check_kernel_integral_relations(ws: Workspace):
    """The 2,1 and 2,2 transformed kernels reproduced from the 1,1 and 1,2
    kernels by weighted Cauchy integrals."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in range(1, min(5, ws.sys.order) + 1):
        ctx = ws.ctx(n)
        v = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
        w = complex(rng.uniform(-1, 1), -rng.uniform(0.5, 2))
        y0 = float(rng.uniform(-1.5, 1.5))
        inv_h = 1.0 / ws.sys.h_sq[:n]
        # K21~(w, v) = integral K11~(t, v) weight(t, s) / (w - s) dt ds
        rx = refined_rule(ws.rule_x, [v], nodes_per_panel=24)
        ry = refined_rule(ws.rule_y, [w], nodes_per_panel=24)
        wmat, off = weighted_tensor(ws.model, rx, ry)
        qt_v = ws.tev.Q_tilde_values([v])[0, :n]
        k11_vals = (qt_v * inv_h) @ eval_p_table(ws.sys, rx.nodes)[:n] - 1.0 / (
            v - rx.nodes
        )
        rhs = complex((k11_vals @ wmat @ (1.0 / (w - ry.nodes))) * np.exp(off))
        worst = max(worst, _rel(k21_tilde(ctx, w, v), rhs))
        # K22~(w, y0) = 1/(y0-w) integral K12(t, y0) weight(t, s) (y0-s)/(w-s)
        wmat2, off2 = weighted_tensor(ws.model, ws.rule_x, ry)
        q_y0 = eval_q_table(ws.sys, np.asarray(y0))[:n]
        k12_vals = (q_y0 * inv_h) @ eval_p_table(ws.sys, ws.rule_x.nodes)[:n]
        frac = (y0 - ry.nodes) / (w - ry.nodes)
        rhs = complex((k12_vals @ wmat2 @ frac) * np.exp(off2) / (y0 - w))
        worst = max(worst, _rel(k22_tilde(ctx, w, y0), rhs))
    return CheckResult("kernels.integral_relations", worst, 1e-8)


def check_average_vs_oracle(ws: Workspace):
    """Determinant formulas against the brute-force oracle, mixed configs."""
    worst = 0.0
    shapes = [
        (1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1),
        (0, 0, 1, 1), (2, 1, 0, 0), (1, 1, 1, 1), (2, 0, 1, 1), (0, 2, 1, 0),
    ]
    for (i, j, k, l) in shapes:
        for n in (1, min(3, ws.n_max)):
            if min(i - k, j - l) < -n:
                continue
            cfg = ws.draw_sources(i, j, k, l, n)
            got = average(ws.ctx(n), cfg).value
            want = oracle_average(ws.model, n, cfg)
            worst = max(worst, _rel(got, want, floor=1e-9))
    return CheckResult("averages.oracle_agreement", worst, 1e-6)


def check_index_shift(ws: Workspace):
    """All admissible kernel index shifts give the same determinant."""
    worst = 0.0
    for (i, j, k, l) in [(3, 1, 1, 0), (2, 2, 0, 1), (1, 3, 0, 1)]:
        n = min(2, ws.n_max)
        if min(i - k, j - l) < -n:
            continue
        cfg = ws.draw_sources(i, j, k, l, n)
        lo, hi = sorted((i - k, j - l))
        vals = [average(ws.ctx(n), cfg, p_shift=p).value for p in range(lo, hi + 1)]
        base = max(abs(v) for v in vals)
        worst = max(worst, max(abs(v - vals[0]) for v in vals) / max(base, 1e-300))
    return CheckResult("averages.index_shift", worst, 1e-8)


def check_orientation_consistency(ws: Workspace):
    """When I-K = J-L the two printed orientations agree."""
    worst = 0.0
    for (i, j, k, l) in [(1, 1, 0, 0), (2, 1, 1, 0), (1, 2, 0, 1), (2, 2, 1, 1)]:
        n = min(2, ws.n_max)
        cfg = ws.draw_sources(i, j, k, l, n)
        ctx = ws.ctx(n)
        va = _evaluate(ctx, cfg, i - k, True).value
        vb = _evaluate(ctx, cfg, j - l, False).value
        worst = max(worst, _rel(va, vb))
    return CheckResult("averages.orientation_consistency", worst, 1e-8)


def check_oracle_direct(ws: Workspace):
    """Determinant-reduced oracle equals the literal 2d integral at n = 1."""
    worst = 0.0
    for (i, j, k, l) in [(1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1), (2, 1, 1, 1)]:
        cfg = ws.draw_sources(i, j, k, l, 1)
        worst = max(
            worst, _rel(oracle_average(ws.model, 1, cfg), oracle_direct_n1(ws.model, cfg))
        )
    return CheckResult("oracle.direct_n1_agreement", worst, 1e-10)


def check_christoffel(ws: Workspace):
    """Perturbed-weight polynomials satisfy their biorthogonality residuals."""
    rng = np.random.default_rng(13)
    worst = 0.0
    mat, off = ws.weight_tensor()
    xnodes, ynodes = ws.rule_x.nodes, ws.rule_y.nodes
    for n in (1, 2, min(4, ws.n_max)):
        for i_ in (1, 2, 3):
            if n + i_ > ws.sys.order:
                continue
            xs = tuple(rng.uniform(-1.5, 1.5, i_))
            # residual of A_n: integral A_n(t) s**j prod(t - x_i) w = 0, j < n
            a_vals = np.array(
                [christoffel_a(ws.sys, n, xs, t) for t in xnodes], dtype=complex
            )
            root_fact = np.ones_like(xnodes)
            for xi in xs:
                root_fact = root_fact * (xnodes - xi)
            smat = np.vander(ynodes, n, increasing=True)  # s**j, j < n
            resid_vec = (a_vals * root_fact) @ mat @ smat * np.exp(off)
            scale = (np.abs(a_vals * root_fact)) @ mat @ np.abs(smat) * np.exp(off)
            worst = max(worst, float(np.max(np.abs(resid_vec) / np.maximum(scale, 1e-300))))
            # residual of B_n for J < I
            for j_ in range(0, min(i_, 2)):
                ys = tuple(rng.uniform(-1.5, 1.5, j_))
                ctx = ws.ctx(n)
                b_vals = np.array(
                    [christoffel_b(ctx, xs, ys, t) for t in ynodes], dtype=complex
                )
                rooty = np.ones_like(ynodes)
                for yj in ys:
                    rooty = rooty * (ynodes - yj)
                tmat = np.vander(xnodes, n, increasing=True)
                resid_vec = (root_fact[:, None] * mat).T @ tmat  # (ny, n) pre-contraction
                resid = (b_vals * rooty) @ resid_vec * np.exp(off)
                scale = (np.abs(b_vals * rooty)) @ np.abs(resid_vec) * np.exp(off)
                worst = max(worst, float(np.max(np.abs(resid) / np.maximum(scale, 1e-300))))
    return CheckResult("averages.christoffel_residuals", worst, 1e-8)


def check_em_identity(ws: Workspace):
    """n=1 correlation equals the normalized joint density; the one-point
    function integrates to n."""
    worst = 0.0
    ctx1 = ws.ctx(1)
    g00 = ws.sys.h_sq[0]
    for lam in (-1.0, 0.3, 1.7):
        for mu in (-0.6, 0.9):
            got = correlation(ctx1, [lam], [mu])
            want = float(np.exp(log_weight(ws.model, lam, mu))) / g00
            worst = max(worst, _rel(got, want))
    for n in range(1, ws.n_max + 1):
        ctx = ws.ctx(n)
        dens = np.array([correlation(ctx, [t], []) for t in ws.rule_x.nodes])
        total = float(np.sum(ws.rule_x.weights * dens))
        worst = max(worst, abs(total - n) / n)
    return CheckResult("applications.em_identity", worst, 1e-6)


def check_trace_sample(ws: Workspace):
    """Exact-residue trace averages against the finite-difference oracle."""
    import warnings

    worst = 0.0
    n = min(2, ws.n_max)
    ctx = ws.ctx(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ml, pl in [([1], [1]), ([2], [])]:
            got = trace_product_average(ctx, ml, pl)
            want = oracle_trace_moments(ws.model, n, ml, pl)
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    return CheckResult("applications.trace_sample", worst, 1e-4)


CHECKS = [
    check_rule_convergence,
    check_biorthogonality,
    check_monic_and_positive,
    check_transform_moment_ladder,
    check_transform_integral_identity,
    check_kernel_sum_vs_integral,
    check_kernel_reproducing,
    check_kernel_vanishing,
    check_kernel_integral_relations,
    check_average_vs_oracle,
    check_index_shift,
    check_orientation_consistency,
    check_oracle_direct,
    check_christoffel,
    check_em_identity,
    check_trace_sample,
]


def run_all_checks(model: ModelSpec, n_max=4, node_count=200, seed=0):
    """Run every named check; returns the list of CheckResults."""
    ws = Workspace(model, n_max=n_max, node_count=node_count, seed=seed)
    return [chk(ws) for chk in CHECKS]
