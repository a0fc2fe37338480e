"""Bimoment matrix and its biorthogonalization.

The mixed moments G[i][j] = integral of x**i y**j against the joint weight
determine the monic biorthogonal families p_n(x), q_n(y) through an LDU
factorization: with G = L D U (L unit lower, U unit upper triangular), the
p coefficients are the rows of inv(L), the q coefficients the columns of
inv(U), and the squared norms h_n**2 sit on D.

Raw monomial moments become numerically useless past order ~10, so the
factorization is carried out in affinely rescaled variables x/s_x, y/s_y
(second moments of order one) and the coefficients are mapped back at the
end.  This is exact algebra on the moment matrix, not a re-integration.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import BimomentError, DegeneracyError
from .model import ModelSpec
from .quadrature import QuadratureRule, build_rule, doubled_rule, weighted_tensor

__all__ = [
    "BimomentMatrix",
    "BiorthogonalSystem",
    "compute_bimoments",
    "biorthogonalize",
    "build_system",
    "eval_p",
    "eval_q",
    "DEFAULT_MAX_ORDER",
]

DEFAULT_MAX_ORDER = 12


@dataclass(frozen=True)
class BimomentMatrix:
    """Moments G[i][j] for 0 <= i, j <= N, with per-entry error estimates."""

    order: int  # N + 1, the matrix dimension
    entries: np.ndarray
    error_estimates: np.ndarray

    def __post_init__(self):
        if self.entries.shape != (self.order, self.order):
            raise ValueError("entries shape does not match order")
        if self.entries[0, 0] <= 0.0:
            raise ValueError("G[0][0] must be positive")


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Monic coefficient tables of p_0..p_N, q_0..q_N and norms h_0**2..h_N**2.

    ``p_coeffs[n]`` holds the coefficients of p_n in ascending degree (zero
    padded); rows are monic: p_coeffs[n][n] == 1.  Same layout for q.
    """

    order: int
    p_coeffs: np.ndarray
    q_coeffs: np.ndarray
    h_sq: np.ndarray

    def __post_init__(self):
        n1 = self.order + 1
        if self.p_coeffs.shape != (n1, n1) or self.q_coeffs.shape != (n1, n1):
            raise ValueError("coefficient tables must be (N+1, N+1)")
        if np.any(self.h_sq <= 0.0):
            raise ValueError("all h_n**2 must be positive")
        d = np.arange(n1)
        if not (
            np.allclose(self.p_coeffs[d, d], 1.0)
            and np.allclose(self.q_coeffs[d, d], 1.0)
        ):
            raise ValueError("polynomials must be monic")

    def to_json(self):
        return json.dumps(
            {
                "N": self.order,
                "p": self.p_coeffs.tolist(),
                "q": self.q_coeffs.tolist(),
                "h_sq": self.h_sq.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        return cls(
            int(data["N"]),
            np.asarray(data["p"], dtype=float),
            np.asarray(data["q"], dtype=float),
            np.asarray(data["h_sq"], dtype=float),
        )

    def h_sq_csv(self):
        buf = io.StringIO()
        buf.write("n,h_sq\n")
        for n, h in enumerate(self.h_sq):
            buf.write(f"{n},{float(h)!r}\n")
        return buf.getvalue()


def compute_bimoments(
    model: ModelSpec,
    n_max: int,
    rule_x: QuadratureRule | None = None,
    rule_y: QuadratureRule | None = None,
    node_count=200,
    tol=1e-9,
    allow_high_order=False,
):
    """Moment matrix G[i][j], 0 <= i, j <= n_max, with doubling estimates.

    Raises :class:`BimomentError` naming the first entry whose node-doubling
    estimate exceeds ``tol`` relative to the entry's natural scale
    sqrt(G[i][i] * G[j][j]).  Orders beyond :data:`DEFAULT_MAX_ORDER` hit a
    documented double-precision cliff and require ``allow_high_order=True``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > DEFAULT_MAX_ORDER and not allow_high_order:
        raise ValueError(
            f"order {n_max} exceeds the double-precision default "
            f"{DEFAULT_MAX_ORDER}; pass allow_high_order=True to override"
        )
    rule_x = rule_x or build_rule(model, "x", node_count)
    rule_y = rule_y or build_rule(model, "y", node_count)

    def moments(rx, ry):
        mat, off = weighted_tensor(model, rx, ry)
        vx = np.vander(rx.nodes, n_max + 1, increasing=True)
        vy = np.vander(ry.nodes, n_max + 1, increasing=True)
        return (vx.T @ mat @ vy) * np.exp(off)

    coarse = moments(rule_x, rule_y)
    fine = moments(doubled_rule(rule_x, model), doubled_rule(rule_y, model))
    err = np.abs(fine - coarse)
    diag = np.abs(np.diag(fine))
    scale = np.sqrt(diag[:, None] * diag[None, :])
    bad = err > tol * scale
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise BimomentError(int(i), int(j), float(err[i, j]), float(tol * scale[i, j]))
    return BimomentMatrix(n_max + 1, fine, err)


def biorthogonalize(g: BimomentMatrix, pivot_tol=1e-10):
    """LDU-factorize the bimoment matrix into a :class:`BiorthogonalSystem`.

    No pivoting: row or column swaps would break the triangular/monic
    correspondence that identifies the factors with the polynomial families.
    A pivot below ``pivot_tol * norm`` of the rescaled matrix raises
    :class:`DegeneracyError` with the failing order.
    """
    n1 = g.order
    raw = g.entries
    s_x = float(np.sqrt(raw[2, 0] / raw[0, 0])) if n1 > 2 else 1.0
    s_y = float(np.sqrt(raw[0, 2] / raw[0, 0])) if n1 > 2 else 1.0
    powers = np.arange(n1)
    scaled = raw / (s_x**powers)[:, None] / (s_y**powers)[None, :]

    lower = np.eye(n1)
    upper = np.eye(n1)
    diag = np.zeros(n1)
    work = scaled.copy()
    for k in range(n1):
        piv = work[k, k]
        # yardstick: the same-order diagonal moment, not the global norm
        # (high-order moments dwarf legitimate low-order pivots)
        floor = pivot_tol * abs(scaled[k, k])
        if not np.isfinite(piv) or abs(piv) <= floor:
            raise DegeneracyError(k, float(piv), float(floor))
        diag[k] = piv
        lower[k + 1 :, k] = work[k + 1 :, k] / piv
        upper[k, k + 1 :] = work[k, k + 1 :] / piv
        work[k + 1 :, k + 1 :] -= np.outer(lower[k + 1 :, k], upper[k, k + 1 :]) * piv

    if np.any(diag <= 0.0):
        k = int(np.argmax(diag <= 0.0))
        raise DegeneracyError(k, float(diag[k]), 0.0)

    # p rows: inv(L); q rows: rows of inv(U).T, i.e. columns of inv(U)
    inv_l = solve_triangular(lower, np.eye(n1), lower=True, unit_diagonal=True)
    inv_u = solve_triangular(upper, np.eye(n1), lower=False, unit_diagonal=True)

    n_idx = powers[:, None]
    k_idx = powers[None, :]
    p_coeffs = inv_l * (s_x ** (n_idx - k_idx))
    q_coeffs = inv_u.T * (s_y ** (n_idx - k_idx))
    h_sq = diag * (s_x * s_y) ** powers
    return BiorthogonalSystem(n1 - 1, p_coeffs, q_coeffs, h_sq)


def build_system(model: ModelSpec, n_max: int, node_count=200, **kwargs):
    """Convenience path: bimoments then biorthogonalization."""
    return biorthogonalize(compute_bimoments(model, n_max, node_count=node_count, **kwargs))


def _eval_rows(coeffs, z):
    """Evaluate every polynomial in a coefficient table at z (Horner).

    Returns an array with one leading axis per polynomial index, broadcast
    against the shape of z.
    """
    z = np.asarray(z)
    out = np.zeros(coeffs.shape[:1] + z.shape, dtype=np.result_type(z.dtype, float))
    for col in range(coeffs.shape[1] - 1, -1, -1):
        out = out * z + coeffs[:, col][(...,) + (None,) * z.ndim]
    return out


def eval_p(sys: BiorthogonalSystem, n: int, z):
    """p_n at real or complex z (scalar or array)."""
    if not 0 <= n <= sys.order:
        raise IndexError(f"index {n} outside 0..{sys.order}")
    return eval_p_table(sys, z)[n]


def eval_q(sys: BiorthogonalSystem, n: int, z):
    """q_n at real or complex z (scalar or array)."""
    if not 0 <= n <= sys.order:
        raise IndexError(f"index {n} outside 0..{sys.order}")
    return eval_q_table(sys, z)[n]


def eval_p_table(sys: BiorthogonalSystem, z):
    """Values p_0(z)..p_N(z) stacked along the first axis."""
    return _eval_rows(sys.p_coeffs, np.asarray(z))


def eval_q_table(sys: BiorthogonalSystem, z):
    """Values q_0(z)..q_N(z) stacked along the first axis."""
    return _eval_rows(sys.q_coeffs, np.asarray(z))
