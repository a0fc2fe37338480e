"""Applications: trace-product averages and eigenvalue correlation functions.

Two determinantal consequences of the characteristic-polynomial formulas:

* the multivariate resolvent average
  E[prod_i sum_k 1/(x_i - lam_k) * prod_j sum_k 1/(y_j - mu_k)]
  equals a determinant whose off-diagonal entries are the Cauchy-transformed
  kernels and whose diagonal entries are the subtraction-free sums
  (:func:`resolvent_generating`); expanding it at infinity generates all
  averages of products of traces, which :func:`trace_product_average`
  extracts by contour integration over circles enclosing the spectrum;

* the joint eigenvalue intensities R_{I,J} equal the block determinant of
  the four plain kernels (:func:`correlation`).
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .biorth import eval_p_table, eval_q_table
from .errors import QuadratureError, check_distinct
from .kernels import KernelContext
from .model import log_weight

__all__ = ["resolvent_generating", "trace_product_average", "correlation"]


def resolvent_generating(ctx: KernelContext, xs, ys):
    """E[prod_i sum_k 1/(x_i - lam_k) * prod_j sum_k 1/(y_j - mu_k)].

    All arguments must be off the real axis and pairwise distinct within
    each list.  The value is the determinant whose off-diagonal entries are
    the transformed kernels at truncation index ctx.n and whose diagonal
    carries the subtraction-free sums, plus one correction per partial
    pairing of same-axis arguments: the derivative-at-coincidence operator
    that produces the generating determinant also differentiates the
    prefactor, leaving -1/(z_a - z_b)**2 per pair times the complementary
    principal minor.  (Over nested circles of distinct radii every pairing
    term integrates to zero, so contour extraction of trace moments uses
    the bare determinant.)
    """
    xs = tuple(complex(x) for x in xs)
    ys = tuple(complex(y) for y in ys)
    check_distinct(xs, "xs")
    check_distinct(ys, "ys")
    tev = ctx.transforms
    i_, j_ = len(xs), len(ys)
    if i_ + j_ == 0:
        return 1.0 + 0.0j
    n = ctx.n
    inv_h = 1.0 / ctx.sys.h_sq[:n]
    p_x = eval_p_table(ctx.sys, np.asarray(xs))[:n]  # (n, I)
    q_y = eval_q_table(ctx.sys, np.asarray(ys))[:n]
    qt_x = tev.Q_tilde_values(xs)[:, :n] if i_ else np.zeros((0, n), complex)
    pt_y = tev.P_tilde_values(ys)[:, :n] if j_ else np.zeros((0, n), complex)

    d = i_ + j_
    mat = np.zeros((d, d), dtype=complex)
    if i_:
        blk = p_x.T @ (qt_x * inv_h).T  # sum p(x_a) Qt(x_b) / h
        off_diag = ~np.eye(i_, dtype=bool)
        denom = np.subtract.outer(np.asarray(xs), np.asarray(xs)).T  # x_b - x_a
        blk[off_diag] -= 1.0 / denom[off_diag]
        mat[:i_, :i_] = blk
    if i_ and j_:
        mat[:i_, i_:] = p_x.T @ (q_y * inv_h[:, None])  # K12(x_a, y_b)
        t_mat = tev.weight_double_cauchy_batch(ys, xs)  # (J, I)
        mat[i_:, :i_] = (pt_y * inv_h) @ qt_x.T - t_mat
    if j_:
        blk = (pt_y * inv_h) @ q_y  # sum Pt(y_a) q(y_b) / h
        off_diag = ~np.eye(j_, dtype=bool)
        denom = np.subtract.outer(np.asarray(ys), np.asarray(ys))  # y_a - y_b
        blk[off_diag] -= 1.0 / denom[off_diag]
        mat[i_:, i_:] = blk

    pts = np.asarray(xs + ys)
    axis = [0] * i_ + [1] * j_
    total = 0.0 + 0.0j
    for match in _same_axis_matchings(tuple(range(d)), axis):
        used = {a for pair in match for a in pair}
        keep = [a for a in range(d) if a not in used]
        minor = np.linalg.det(mat[np.ix_(keep, keep)]) if keep else 1.0
        factor = 1.0 + 0.0j
        for a, b in match:
            factor *= -1.0 / (pts[a] - pts[b]) ** 2
        total += factor * minor
    return complex(total)


def _same_axis_matchings(indices, axis):
    """All partial matchings of the index list into same-axis pairs,
    including the empty matching."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for match in _same_axis_matchings(rest, axis):
        yield match
    for k, other in enumerate(rest):
        if axis[first] == axis[other]:
            for match in _same_axis_matchings(rest[:k] + rest[k + 1 :], axis):
                yield [(first, other)] + match


def _cached(ctx, build, *args):
    """Exponent-independent contour data, cached on the evaluator."""
    key = (build, ctx.n) + args
    cache = ctx.transforms.contour_cache
    if key not in cache:
        cache[key] = build(ctx, *args)
    return cache[key]


class _ContourTables:
    """Kernel building blocks tabulated on one circle per trace variable."""

    def __init__(self, ctx, n_x, n_y, radius, num_points):
        tev = ctx.transforms
        n = ctx.n
        self.inv_h = 1.0 / ctx.sys.h_sq[:n]
        theta = 2.0 * np.pi * (np.arange(num_points) + 0.5) / num_points
        base = np.exp(1j * theta)
        # one radius per variable keeps same-axis variables apart: the
        # transformed kernels have removable double poles at coincident
        # arguments that a shared grid would step on
        self.radii = [radius * (1.0 + 0.08 * v) for v in range(n_x + n_y)]
        self.points = [r * base for r in self.radii]
        self.x_vars = list(range(n_x))
        self.y_vars = list(range(n_x, n_x + n_y))
        self.p_tab = {}
        self.q_tab = {}
        self.qt_tab = {}
        self.pt_tab = {}
        for v in self.x_vars:
            z = self.points[v]
            self.p_tab[v] = eval_p_table(ctx.sys, z)[:n].T  # (N, n)
            self.qt_tab[v] = tev.Q_tilde_values(z)[:, :n]
        for v in self.y_vars:
            z = self.points[v]
            self.q_tab[v] = eval_q_table(ctx.sys, z)[:n].T
            self.pt_tab[v] = tev.P_tilde_values(z)[:, :n]
        self.t_mats = {}
        for a in self.y_vars:
            for b in self.x_vars:
                self.t_mats[a, b] = tev.weight_double_cauchy_batch(
                    self.points[a], self.points[b]
                )

    def diag(self, v):
        """Subtraction-free diagonal entries on variable v's circle."""
        if v in self.x_vars:
            return np.sum(self.p_tab[v] * self.qt_tab[v] * self.inv_h, axis=1)
        return np.sum(self.pt_tab[v] * self.q_tab[v] * self.inv_h, axis=1)

    def cross(self, a, b):
        """Kernel matrix between variable a's and variable b's circles."""
        if a in self.x_vars and b in self.x_vars:
            mat = self.p_tab[a] @ (self.qt_tab[b] * self.inv_h).T
            return mat - 1.0 / (self.points[b][None, :] - self.points[a][:, None])
        if a in self.x_vars:
            return self.p_tab[a] @ (self.q_tab[b] * self.inv_h).T
        if b in self.x_vars:
            mat = (self.pt_tab[a] * self.inv_h) @ self.qt_tab[b].T
            return mat - self.t_mats[a, b]
        mat = (self.pt_tab[a] * self.inv_h) @ self.q_tab[b].T
        return mat - 1.0 / (self.points[a][:, None] - self.points[b][None, :])


def _contour_value(tables, exponents, num_points):
    """Average over the product grid of contour points of the determinant,
    each variable weighted by z**(m+1)/N (trapezoid moment extraction).
    Over the permutations of the determinant the sum factorizes exactly by
    cycles: (a1 ... ac) gives trace(W_a1 M_a1a2 ... W_ac M_aca1)."""
    k = len(exponents)
    weights = [z ** (e + 1) / num_points for z, e in zip(tables.points, exponents)]
    links = {  # (a, b) -> W_a M_ab
        (a, b): weights[a][:, None] * tables.cross(a, b)
        for a, b in itertools.permutations(range(k), 2)
    }

    @functools.cache  # keyed by the cycle, smallest index first
    def cycle_value(cycle):
        if len(cycle) == 1:
            return np.sum(weights[cycle[0]] * tables.diag(cycle[0]))
        chain = [links[ab] for ab in zip(cycle, cycle[1:] + cycle[:1])]
        head = functools.reduce(np.matmul, chain[:-1])
        # trace(head @ last) without forming the product
        return (-1) ** (len(cycle) - 1) * np.sum(head * chain[-1].T)

    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        term, todo = 1.0 + 0.0j, set(range(k))
        while todo:
            cycle = [min(todo)]
            while perm[cycle[-1]] != cycle[0]:
                cycle.append(perm[cycle[-1]])
            todo -= set(cycle)
            term *= cycle_value(tuple(cycle))
        total += term
    return complex(total)


def _detected_support(ctx):
    """Largest |t| where the one-point density is above 1e-13 of its peak,
    over both axes.  The trace contours must enclose this region and not
    much more: far-out circles amplify cancellation noise in the
    transformed-kernel entries by powers of the radius.
    """
    n = max(ctx.n, 1)
    inv_h = 1.0 / ctx.sys.h_sq[:n]
    tev = ctx.transforms
    edge = 0.0
    for nodes, dens in (
        (
            tev.rule_x.nodes,
            np.sum(
                eval_p_table(ctx.sys, tev.rule_x.nodes)[:n].T
                * tev.Q_values(tev.rule_x.nodes)[:, :n]
                * inv_h,
                axis=1,
            ),
        ),
        (
            tev.rule_y.nodes,
            np.sum(
                tev.P_values(tev.rule_y.nodes)[:, :n]
                * eval_q_table(ctx.sys, tev.rule_y.nodes)[:n].T
                * inv_h,
                axis=1,
            ),
        ),
    ):
        live = np.abs(dens) >= 1e-13 * np.max(np.abs(dens))
        edge = max(edge, float(np.max(np.abs(nodes[live]))))
    return edge


def trace_product_average(
    ctx: KernelContext,
    m_list,
    p_list,
    num_points=128,
    radius=None,
    radius_check=True,
    tol=1e-6,
):
    """E[prod_i Tr(M1**m_i) * prod_j Tr(M2**p_j)] by contour extraction.

    Each variable of the resolvent determinant is integrated over its own
    circle enclosing the numerically detected spectrum support (midpoint
    trapezoid, spectrally accurate for periodic integrands); the z**m
    moment picks out the trace power.  With ``radius_check`` the value is
    recomputed on circles of twice the radius and a mismatch beyond ``tol``
    raises.
    """
    m_list = [int(m) for m in m_list]
    p_list = [int(p) for p in p_list]
    if min(m_list + p_list, default=0) < 0:
        raise ValueError("trace exponents must be nonnegative")
    if not m_list and not p_list:
        return 1.0
    if radius is None:
        radius = 2.0 * _cached(ctx, _detected_support)

    exponents = m_list + p_list

    def run(r):
        tables = _cached(
            ctx, _ContourTables, len(m_list), len(p_list), float(r), num_points
        )
        return _contour_value(tables, exponents, num_points), tables.radii

    val, _ = run(radius)
    if radius_check:
        val2, radii = run(2.0 * radius)
        # extraction noise scales like the product of contour-radius powers;
        # below that floor a doubled-radius mismatch carries no information
        amp = np.prod([r ** (e + 1) for r, e in zip(radii, exponents)])
        floor = 256.0 * np.finfo(float).eps * amp
        if abs(val - val2) > max(tol * max(abs(val2), 1.0), floor):
            raise QuadratureError(
                f"contour radius {radius:g} too small: value moved by "
                f"{abs(val - val2):.3e} when the radius doubled"
            )
        # the base-radius value carries less amplification noise
    return float(val.real)


def correlation(ctx: KernelContext, lams, mus):
    """Joint eigenvalue intensity R_{I,J} as the plain-kernel block
    determinant: I first-matrix eigenvalues at ``lams``, J second-matrix
    eigenvalues at ``mus``.
    """
    lams = np.asarray([float(t) for t in lams])
    mus = np.asarray([float(t) for t in mus])
    i_, j_ = lams.size, mus.size
    if i_ + j_ < 1:
        raise ValueError("need at least one evaluation point")
    n = ctx.n
    tev = ctx.transforms
    inv_h = 1.0 / ctx.sys.h_sq[:n]
    mat = np.zeros((i_ + j_, i_ + j_))
    p_l = eval_p_table(ctx.sys, lams)[:n]  # (n, I)
    q_m = eval_q_table(ctx.sys, mus)[:n]
    q_l = tev.Q_values(lams)[:, :n] if i_ else np.zeros((0, n))
    p_m = tev.P_values(mus)[:, :n] if j_ else np.zeros((0, n))
    if i_:
        mat[:i_, :i_] = p_l.T @ (q_l * inv_h).T
    if i_ and j_:
        mat[:i_, i_:] = p_l.T @ (q_m * inv_h[:, None])
        wts = np.exp(log_weight(ctx.model, lams[None, :], mus[:, None]))
        mat[i_:, :i_] = (p_m * inv_h) @ q_l.T - wts
    if j_:
        mat[i_:, i_:] = (p_m * inv_h) @ q_m
    return float(np.linalg.det(mat))
