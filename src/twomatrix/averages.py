"""Averages of products and ratios of characteristic polynomials.

The average with I numerator sources x_i and J numerator sources y_j on the
two matrices, and K resp. L off-axis denominator sources v_k, w_l, equals a
prefactor times a structured determinant whose entries are the
Cauchy-transformed kernels at a shifted truncation index, padded with rows
of plain polynomials and transforms.  Two printed orientations cover
I - K >= J - L and the mirrored case; any kernel index shift p inside the
admissible range {J-L, ..., I-K} (resp. mirrored) gives the same value,
which is exposed for testing via the ``p_shift`` argument.

Special configurations (single source, single inverse source, the four
two-source patterns, numerator-only) are reached as genuine special cases
of the same assembly; the ``formula_used`` field only labels them.

Also provided are the two perturbed-weight constructions: the monic
polynomial biorthogonal to a weight multiplied by prod (x - x_i)
(:func:`christoffel_a`), and its counterpart for a weight carrying both
x and y root factors (:func:`christoffel_b`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor

from .biorth import eval_p_table, eval_q_table
from .errors import (
    DegeneracyError,
    DistinctnessError,
    UnsupportedConfigurationError,
    check_distinct,
)
from .kernels import KernelContext, with_index

__all__ = [
    "SourceConfig",
    "AverageResult",
    "average",
    "christoffel_a",
    "christoffel_b",
]

@dataclass(frozen=True)
class SourceConfig:
    """External sources: numerator xs (I), ys (J); denominator vs (K), ws (L).

    Denominator sources must lie off the real axis; xs together with vs must
    be pairwise distinct, likewise ys with ws.
    """

    xs: tuple
    ys: tuple
    vs: tuple
    ws: tuple

    @classmethod
    def make(cls, xs=(), ys=(), vs=(), ws=()):
        conv = lambda seq: tuple(complex(z) for z in seq)
        return cls(conv(xs), conv(ys), conv(vs), conv(ws))

    @property
    def counts(self):
        return len(self.xs), len(self.ys), len(self.vs), len(self.ws)

    def validate(self, n, min_imag=0.0):
        for z in self.vs + self.ws:
            if z.imag == 0.0 or abs(z.imag) < min_imag:
                raise DistinctnessError(
                    f"denominator source {z} must be off the real axis"
                )
        check_distinct(self.xs + self.vs, "x-type sources")
        check_distinct(self.ys + self.ws, "y-type sources")
        i, j, k, l = self.counts
        if min(i - k, j - l) < -n:
            raise UnsupportedConfigurationError(
                f"min(I-K, J-L) = {min(i - k, j - l)} < -n = {-n}: "
                "configuration outside the supported range"
            )


@dataclass(frozen=True)
class AverageResult:
    value: complex
    formula_used: str
    p_index_used: int
    condition_estimate: float

    def __post_init__(self):
        if not np.isfinite([self.value.real, self.value.imag]).all():
            raise ArithmeticError("average evaluated to a non-finite value")
        if self.condition_estimate < 1.0:
            raise ArithmeticError("condition estimate must be >= 1")


def _pair_product(left, right):
    """prod over all pairs (a, b) of (a - b)."""
    out = 1.0 + 0.0j
    for a in left:
        for b in right:
            out *= a - b
    return out


def _vandermonde_asc(points):
    """prod over i < j of (points[j] - points[i])."""
    out = 1.0 + 0.0j
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            out *= points[b] - points[a]
    return out


def _vandermonde_desc(points):
    """prod over i < j of (points[i] - points[j])."""
    out = 1.0 + 0.0j
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            out *= points[a] - points[b]
    return out


def _lu_det(mat):
    """Determinant and pivot-ratio condition estimate via partial-pivot LU."""
    d = mat.shape[0]
    if d == 0:
        return 1.0 + 0.0j, 1.0
    lu, piv = lu_factor(mat)
    diag = np.abs(np.diag(lu))
    if np.any(diag == 0.0):
        return 0.0 + 0.0j, float("inf")
    sign = 1.0
    for i, p in enumerate(piv):
        if p != i:
            sign = -sign
    det = sign * complex(np.prod(np.diag(lu)))
    return det, float(diag.max() / diag.min())


def _label(i, j, k, l):
    if (i, j, k, l) in ((1, 0, 0, 0), (0, 1, 0, 0)):
        return "theorem1"
    if (i, j, k, l) in ((0, 0, 1, 0), (0, 0, 0, 1)):
        return "theorem2"
    if (i, j, k, l) in ((1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)):
        return "theorem3"
    if k == 0 and l == 0:
        return "theorem4"
    return None


def average(ctx: KernelContext, cfg: SourceConfig, p_shift=None):
    """Evaluate the characteristic-polynomial average for one configuration.

    ``ctx.n`` is the matrix size; the kernel truncation index used inside
    the determinant is ``n + p``.  By default p = I-K in the first
    orientation and p = J-L in the mirrored one (fewest high polynomial
    indices); any admissible p gives the same value.
    """
    cfg = SourceConfig.make(cfg.xs, cfg.ys, cfg.vs, cfg.ws)
    n = ctx.n
    cfg.validate(n, min_imag=ctx.transforms.min_imag)
    i_, j_, k_, l_ = cfg.counts
    orient_a = i_ - k_ >= j_ - l_
    lo, hi = sorted((i_ - k_, j_ - l_))
    if p_shift is None:
        p_shift = i_ - k_ if orient_a else j_ - l_
    if not lo <= p_shift <= hi:
        raise UnsupportedConfigurationError(
            f"kernel index shift {p_shift} outside admissible range [{lo}, {hi}]"
        )
    needed = max(n + hi - 1, n + p_shift - 1, 0)
    if needed > ctx.sys.order:
        raise ValueError(
            f"system order {ctx.sys.order} too small; need indices up to {needed}"
        )
    return _evaluate(ctx, cfg, p_shift, orient_a)


def _evaluate(ctx, cfg, p_shift, orient_a):
    """Prefactor times the determinant in one printed orientation."""
    n = ctx.n
    i_, j_, k_, l_ = cfg.counts
    mat = _general_matrix(ctx, cfg, n, p_shift, orient_a)
    det, cond = _lu_det(mat)

    xs = np.asarray(cfg.xs)
    ys = np.asarray(cfg.ys)
    vs = np.asarray(cfg.vs)
    ws = np.asarray(cfg.ws)
    pref = (
        _pair_product(xs, vs)
        / (_vandermonde_asc(xs) * _vandermonde_desc(vs))
        * _pair_product(ys, ws)
        / (_vandermonde_asc(ys) * _vandermonde_desc(ws))
    )
    sign = -1.0 if ((i_ + k_) * l_) % 2 else 1.0
    h = ctx.sys.h_sq
    gap = j_ - l_ if orient_a else i_ - k_
    if gap >= 0:
        const = sign * np.prod(h[n : n + gap])
    else:
        const = sign / np.prod(h[n + gap : n])

    label = _label(i_, j_, k_, l_) or ("gencase_a" if orient_a else "gencase_b")
    return AverageResult(complex(const * pref * det), label, p_shift, cond)


def _general_matrix(ctx, cfg, n, p_shift, orient_a):
    i_, j_, k_, l_ = cfg.counts
    tev = ctx.transforms
    sys = ctx.sys
    m = n + p_shift  # kernel truncation index
    inv_h = 1.0 / sys.h_sq[:m]

    xs = np.asarray(cfg.xs)
    ys = np.asarray(cfg.ys)
    vs = np.asarray(cfg.vs)
    ws = np.asarray(cfg.ws)
    p_x = eval_p_table(sys, xs)  # (order+1, I)
    q_y = eval_q_table(sys, ys)
    qt_v = tev.Q_tilde_values(vs) if k_ else np.zeros((0, sys.order + 1), complex)
    pt_w = tev.P_tilde_values(ws) if l_ else np.zeros((0, sys.order + 1), complex)
    t_mat = (
        tev.weight_double_cauchy_batch(ws, vs)
        if (k_ and l_)
        else np.zeros((l_, k_), complex)
    )

    def k11_row(k):  # over xs
        acc = (qt_v[k, :m] * inv_h) @ p_x[:m]
        return acc - 1.0 / (vs[k] - xs)

    def k21_row(k):  # over ws
        return (pt_w[:, :m] * inv_h) @ qt_v[k, :m] - t_mat[:, k]

    def k12_row(j):  # over xs
        return (q_y[:m, j] * inv_h) @ p_x[:m]

    def k22_row(j):  # over ws
        return (pt_w[:, :m] * inv_h) @ q_y[:m, j] - 1.0 / (ws - ys[j])

    if orient_a:
        d = i_ + l_
        mat = np.zeros((d, d), dtype=complex)
        for k in range(k_):
            mat[k, :i_] = k11_row(k)
            mat[k, i_:] = k21_row(k)
        for j in range(j_):
            mat[k_ + j, :i_] = k12_row(j)
            mat[k_ + j, i_:] = k22_row(j)
        for r in range((i_ - k_) - (j_ - l_)):
            t = n + (j_ - l_) + r
            mat[k_ + j_ + r, :i_] = p_x[t]
            mat[k_ + j_ + r, i_:] = pt_w[:, t]
        return mat

    d = j_ + k_
    mat = np.zeros((d, d), dtype=complex)
    for i in range(i_):
        mat[i, :k_] = np.array([k11_row(k)[i] for k in range(k_)])
        mat[i, k_:] = np.array([k12_row(j)[i] for j in range(j_)])
    for l in range(l_):
        mat[i_ + l, :k_] = np.array([k21_row(k)[l] for k in range(k_)])
        mat[i_ + l, k_:] = np.array([k22_row(j)[l] for j in range(j_)])
    for r in range((j_ - l_) - (i_ - k_)):
        t = n + (i_ - k_) + r
        mat[i_ + l_ + r, :k_] = qt_v[:, t]
        mat[i_ + l_ + r, k_:] = q_y[t]
    return mat


def christoffel_a(sys, n, xs, x):
    """Monic degree-n polynomial biorthogonal to the weight multiplied by
    prod_i (x - x_i), as a ratio of determinants of the unperturbed family.
    """
    xs = tuple(complex(z) for z in xs)
    check_distinct(xs + (complex(x),), "xs and evaluation point")
    i_ = len(xs)
    if n + i_ > sys.order:
        raise ValueError("system order too small for the requested indices")
    if i_ == 0:
        table = eval_p_table(sys, np.asarray(x))
        return complex(table[n])
    pts = np.asarray(xs + (complex(x),))
    table = eval_p_table(sys, pts)  # (order+1, I+1)
    num = table[n : n + i_ + 1].T  # rows: points, cols: indices n..n+I
    den = table[n : n + i_, :-1].T
    det_den, _ = _lu_det(den.astype(complex))
    scale = np.max(np.abs(den)) ** max(i_, 1)
    if abs(det_den) <= 1e-13 * max(scale, 1e-300):
        raise DegeneracyError(n, abs(det_den), 1e-13 * scale)
    det_num, _ = _lu_det(num.astype(complex))
    return complex(det_num / det_den / np.prod(complex(x) - np.asarray(xs)))


def christoffel_b(ctx: KernelContext, xs, ys, y):
    """Monic degree-n polynomial in y biorthogonal to the weight multiplied
    by prod_i (x - x_i) prod_j (y - y_j), for I > J >= 0.

    Determinant ratio with kernel entries at index n + p, p in {J+1..I}
    (p = I used here), and trailing plain polynomial columns.
    """
    xs = tuple(complex(z) for z in xs)
    ys = tuple(complex(z) for z in ys)
    i_, j_ = len(xs), len(ys)
    if not i_ > j_ >= 0:
        raise UnsupportedConfigurationError("christoffel_b requires I > J >= 0")
    check_distinct(xs, "xs")
    check_distinct(ys + (complex(y),), "ys and evaluation point")
    n = ctx.n
    sys = ctx.sys
    if n + i_ > sys.order:
        raise ValueError("system order too small for the requested indices")
    ctx_p = with_index(ctx, n + i_)
    m = ctx_p.n
    inv_h = 1.0 / sys.h_sq[:m]
    p_x = eval_p_table(sys, np.asarray(xs))
    q_pts = eval_q_table(sys, np.asarray(ys + (complex(y),)))

    def k12_col(col):
        return (q_pts[:m, col] * inv_h) @ p_x[:m]

    num = np.zeros((i_, i_), dtype=complex)
    den = np.zeros((i_, i_), dtype=complex)
    for j in range(j_):
        num[:, j] = k12_col(j)
        den[:, j] = k12_col(j)
    num[:, j_] = k12_col(j_)  # the evaluation point's kernel column
    for c in range(i_ - j_ - 1):
        num[:, j_ + 1 + c] = p_x[n + j_ + 1 + c]
    for c in range(i_ - j_):
        den[:, j_ + c] = p_x[n + j_ + c]
    det_den, _ = _lu_det(den)
    scale = np.max(np.abs(den)) ** max(i_, 1)
    if abs(det_den) <= 1e-13 * max(scale, 1e-300):
        raise DegeneracyError(n, abs(det_den), 1e-13 * scale)
    det_num, _ = _lu_det(num)
    denom_roots = np.prod(complex(y) - np.asarray(ys)) if j_ else 1.0
    return complex(sys.h_sq[n + j_] * det_num / det_den / denom_roots)
