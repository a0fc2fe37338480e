"""Applications: trace-product averages and eigenvalue correlation functions.

Two determinantal consequences of the characteristic-polynomial formulas:

* the multivariate resolvent average
  E[prod_i sum_k 1/(x_i - lam_k) * prod_j sum_k 1/(y_j - mu_k)]
  equals a determinant whose off-diagonal entries are the Cauchy-transformed
  kernels and whose diagonal entries are the subtraction-free sums
  (:func:`resolvent_generating`); expanding it at infinity generates all
  averages of products of traces, which :func:`trace_product_average`
  reads off exactly as residues of the kernels' finite Laurent
  coefficients, with no quadrature on circles;

* the joint eigenvalue intensities R_{I,J} equal the block determinant of
  the four plain kernels (:func:`correlation`).
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .biorth import eval_p_table, eval_q_table, monomial_bimoments
from .errors import check_distinct
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
    term has zero residue, so the trace-moment residues of
    :func:`trace_product_average` come from the bare determinant.)
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


def _kernel_coefficients(ctx, n_x, size):
    """Laurent coefficients of the kernel entries of the resolvent
    determinant, variables 0..n_x-1 on M1 and the rest on M2.

    Each variable z has the basis (1, z, ..., z**(size-1), z**-1, ...,
    z**-size); ``entry(a, b)`` is the 2size x 2size matrix of the entry in
    row a, column b over the bases of z_a and z_b.  Variable v sits on the
    v-th of nested circles, so 1/(z_b - z_a) expands in powers of the inner
    variable.  A Cauchy transform has the moments of its density as
    coefficients, Q~_i(z) = sum_k z**-(k+1) integral t**k Q_i(t) dt: with
    G the bimoments, those of Q~_i are mu = Q G^T, those of P~_i are
    nu = P G, and those of the weight's double Cauchy transform are G^T.
    """
    n = ctx.n
    g = monomial_bimoments(ctx.model, ctx.transforms.rule_x, ctx.transforms.rule_y, size)
    p = np.zeros((n, size))
    q = np.zeros((n, size))
    p[:, :n] = ctx.sys.p_coeffs[:n, :n]
    q[:, :n] = ctx.sys.q_coeffs[:n, :n]
    p_h = p.T / ctx.sys.h_sq[:n]
    nu_h = (p @ g).T / ctx.sys.h_sq[:n]
    mu = q @ g.T
    pos, neg = slice(0, size), slice(size, 2 * size)
    eye = np.eye(size)

    def entry(a, b):
        mat = np.zeros((2 * size, 2 * size))
        if a < n_x and b < n_x:  # K~11 = sum p Q~ / h - 1/(z_b - z_a)
            mat[pos, neg] = p_h @ mu - eye * (a < b)
            mat[neg, pos] = eye * (a > b)
        elif a < n_x:  # K12 = sum p q / h
            mat[pos, pos] = p_h @ q
        elif b < n_x:  # K~21 = sum P~ Q~ / h - double Cauchy transform
            mat[neg, neg] = nu_h @ mu - g.T
        else:  # K~22 = sum P~ q / h - 1/(z_a - z_b)
            mat[neg, pos] = nu_h @ q - eye * (a > b)
            mat[pos, neg] = eye * (a < b)
        return mat

    return entry


def _moment_pairing(size, e):
    """0/1 matrix R with residue(z**e f(z) g(z)) = f^T R g over the basis
    of :func:`_kernel_coefficients`: z**i pairs with z**-(i+e+1), and
    z**-(k+1) with z**-(e-k)."""
    r = np.zeros((2 * size, 2 * size))
    i = np.arange(size - e)
    r[i, size + i + e] = r[size + i + e, i] = 1.0
    k = np.arange(e)
    r[size + k, size + e - 1 - k] = 1.0
    return r


def _contour_value(entry, pairings):
    """Residue of the determinant times prod z_v**e_v over all variables.
    Over the permutations of the determinant the sum factorizes exactly by
    cycles: (a1 ... ac) gives trace(A_a1a2 R_a2 ... A_aca1 R_a1)."""
    k = len(pairings)
    links = {  # (a, b) -> A_ab R_b
        (a, b): entry(a, b) @ pairings[b] for a, b in itertools.permutations(range(k), 2)
    }

    @functools.cache  # keyed by the cycle, smallest index first
    def cycle_value(cycle):
        if len(cycle) == 1:
            return np.sum(entry(cycle[0], cycle[0]) * pairings[cycle[0]])
        chain = [links[ab] for ab in zip(cycle, cycle[1:] + cycle[:1])]
        head = functools.reduce(np.matmul, chain[:-1])
        # trace(head @ last) without forming the product
        return (-1) ** (len(cycle) - 1) * np.sum(head * chain[-1].T)

    total = 0.0
    for perm in itertools.permutations(range(k)):
        term, todo = 1.0, set(range(k))
        while todo:
            cycle = [min(todo)]
            while perm[cycle[-1]] != cycle[0]:
                cycle.append(perm[cycle[-1]])
            todo -= set(cycle)
            term *= cycle_value(tuple(cycle))
        total += term
    return float(total)


def trace_product_average(ctx: KernelContext, m_list, p_list):
    """E[prod_i Tr(M1**m_i) * prod_j Tr(M2**p_j)] by exact residues.

    The residue of z**e times the resolvent determinant in each variable
    picks out one trace power.  A chain of kernel entries raises a degree
    below n by at most the exponent sum, so the Laurent coefficients up to
    z**(n + sum e) reach every residue; they come from the polynomial
    coefficients and the bimoments on the evaluator's base rules.  The value
    depends on the model, the system, n and the exponents only.  Cost:
    O(k! k (2L)**3) for k factors and L = n + sum e + 1.
    """
    m_list = [int(m) for m in m_list]
    p_list = [int(p) for p in p_list]
    if min(m_list + p_list, default=0) < 0:
        raise ValueError("trace exponents must be nonnegative")
    if not m_list and not p_list:
        return 1.0
    exponents = m_list + p_list
    size = ctx.n + sum(exponents) + 1
    entry = _kernel_coefficients(ctx, len(m_list), size)
    return _contour_value(entry, [_moment_pairing(size, e) for e in exponents])


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
