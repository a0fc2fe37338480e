"""Transformed functions of the biorthogonal family and their Cauchy
transforms.

For the polynomial families p_i, q_j of a :class:`BiorthogonalSystem`, the
weighted transforms are

    P_i(y) = integral p_i(x) exp(-V(x) - W(y) + tau*x*y) dx,
    Q_j(x) = integral q_j(y) exp(-V(x) - W(y) + tau*x*y) dy,

and their Cauchy transforms move an argument off the real axis:

    P_tilde_i(w) = integral P_i(t) / (w - t) dt,
    Q_tilde_j(v) = integral Q_j(t) / (v - t) dt.

Everything is evaluated by quadrature; closed forms are reserved for tests.
Evaluation is vectorized over the family index (all indices at once) and,
where possible, over batches of arguments.  An optional memo layer caches
per-argument index vectors; a hit returns the vector computed first, which
can differ in the last digits from a recomputation on refined grids.

Cauchy transforms at poles comfortably off the axis go through a shared
"dense grid": a pole-independent composite rule on which the transforms are
tabulated once, making each additional pole a dot product.  Poles closer to
the axis than the grid can resolve fall back to a per-pole graded rule.
"""
from __future__ import annotations

import numpy as np

from .biorth import BiorthogonalSystem, eval_p_table, eval_q_table
from .errors import PoleProximityError
from .model import ModelSpec
from .quadrature import (
    MIN_POLE_IMAG,
    QuadratureRule,
    build_rule,
    refined_rule,
    weighted_tensor,
)

__all__ = ["TransformEvaluator"]

# a pole uses a dense grid only when |Im| >= _DENSE_SAFETY * panel cap
_DENSE_SAFETY = 2.2
_DEFAULT_DENSE_CAP = 0.2
_MAX_TABLE_NODES = 8000  # per-axis cap for the 1d transform tables
_MAX_TENSOR_NODES = 3000  # per-axis cap for the double-Cauchy tensor


class _DenseGrid:
    """A composite rule shared by all poles it can resolve."""

    def __init__(self, rule: QuadratureRule, cap: float):
        self.rule = rule
        self.cap = cap
        self.table = None  # weighted transform values on rule.nodes, filled by owner

    def resolves(self, im):
        return im >= _DENSE_SAFETY * self.cap * (1.0 - 1e-9)

    def cauchy_rows(self, poles):
        """Rows 1 / (pole_b - t_a) for a batch of poles; the quadrature
        weights live in the transform table and the weight tensor."""
        poles = np.asarray(poles, dtype=complex)
        return 1.0 / (poles[:, None] - self.rule.nodes[None, :])


class TransformEvaluator:
    """Evaluates P_i, Q_j and their Cauchy transforms for one system.

    Parameters
    ----------
    model, sys : the weight and its biorthogonal system
    rule_x, rule_y : optional prebuilt Gauss rules (defaults: 200 nodes)
    memoize : cache per-argument transform vectors (a hit returns the first value)
    min_imag : pole-proximity floor for all Cauchy transforms
    """

    def __init__(
        self,
        model: ModelSpec,
        sys: BiorthogonalSystem,
        rule_x: QuadratureRule | None = None,
        rule_y: QuadratureRule | None = None,
        node_count=200,
        memoize=False,
        min_imag=MIN_POLE_IMAG,
    ):
        self.model = model
        self.sys = sys
        self.order = sys.order
        self.rule_x = rule_x or build_rule(model, "x", node_count)
        self.rule_y = rule_y or build_rule(model, "y", node_count)
        self.min_imag = float(min_imag)
        self._p_on_x = eval_p_table(sys, self.rule_x.nodes)  # (N+1, nx)
        self._q_on_y = eval_q_table(sys, self.rule_y.nodes)  # (N+1, ny)
        self._memo = {} if memoize else None
        self._grids = {}  # axis -> _DenseGrid with transform table
        self._tensor = None  # (grid_x, grid_y, matrix, log_offset)
        self._t_memo = {}

    # -- plain transforms ---------------------------------------------------

    def Q_values(self, x):
        """Q_j(x) for j = 0..N, batched: returns shape (len(x), N+1)."""
        x = np.atleast_1d(np.asarray(x))
        yn = self.rule_y.nodes
        expo = (
            -self.model.v(x)[:, None]
            - self.model.w(yn)[None, :]
            + self.model.tau * np.multiply.outer(x, yn)
            + self.rule_y.log_weights[None, :]
        )
        off = np.max(expo.real, axis=1)
        mat = np.exp(expo - off[:, None])
        return (mat @ self._q_on_y.T) * np.exp(off)[:, None]

    def P_values(self, y):
        """P_i(y) for i = 0..N, batched: returns shape (len(y), N+1)."""
        y = np.atleast_1d(np.asarray(y))
        xn = self.rule_x.nodes
        expo = (
            -self.model.v(xn)[None, :]
            - self.model.w(y)[:, None]
            + self.model.tau * np.multiply.outer(y, xn)
            + self.rule_x.log_weights[None, :]
        )
        off = np.max(expo.real, axis=1)
        mat = np.exp(expo - off[:, None])
        return (mat @ self._p_on_x.T) * np.exp(off)[:, None]

    def Q(self, j, x):
        """Q_j at a single (real or complex) argument."""
        self._check_index(j)
        return self._scalar("Q", self.Q_values, x)[j]

    def P(self, i, y):
        """P_i at a single (real or complex) argument."""
        self._check_index(i)
        return self._scalar("P", self.P_values, y)[i]

    # -- Cauchy transforms --------------------------------------------------

    def Q_tilde_values(self, vs):
        """Q_tilde_j(v), j = 0..N, over a batch of off-axis poles."""
        return self._tilde_values("x", np.asarray(vs, dtype=complex))

    def P_tilde_values(self, ws):
        """P_tilde_i(w), i = 0..N, over a batch of off-axis poles."""
        return self._tilde_values("y", np.asarray(ws, dtype=complex))

    def Q_tilde(self, j, v):
        self._check_index(j)
        return complex(self._scalar("Qt", self.Q_tilde_values, complex(v))[j])

    def P_tilde(self, i, w):
        self._check_index(i)
        return complex(self._scalar("Pt", self.P_tilde_values, complex(w))[i])

    # -- double Cauchy transform of the bare weight -------------------------

    def weight_double_cauchy(self, w, v):
        """integral of weight(x, y) / ((w - y) (v - x)) over the plane.

        The subtracted term of the Cauchy-transformed 2,1 kernel; the single
        most expensive scalar in the general determinant formula, so values
        are memoized per (w, v) pair.
        """
        w = complex(w)
        v = complex(v)
        key = (w, v)
        hit = self._t_memo.get(key)
        if hit is None:
            hit = complex(self.weight_double_cauchy_batch([w], [v])[0, 0])
            self._t_memo[key] = hit
        return hit

    def weight_double_cauchy_batch(self, ws, vs):
        """Batched double Cauchy transform, shape (len(ws), len(vs))."""
        ws = np.asarray(ws, dtype=complex)
        vs = np.asarray(vs, dtype=complex)
        self._check_poles(ws)
        self._check_poles(vs)
        memo_pairs = ws.size * vs.size <= 1024
        keys = (
            [[(complex(w), complex(v)) for v in vs] for w in ws] if memo_pairs else []
        )
        if memo_pairs and all(k in self._t_memo for row in keys for k in row):
            cached = np.empty((ws.size, vs.size), dtype=complex)
            for a, row in enumerate(keys):
                for b, k in enumerate(row):
                    cached[a, b] = self._t_memo[k]
            return cached
        gx, gy, tensor, off = self._weight_tensor(
            float(np.min(np.abs(vs.imag))), float(np.min(np.abs(ws.imag)))
        )
        out = np.empty((ws.size, vs.size), dtype=complex)
        ok_w = gy.resolves(np.abs(ws.imag))
        ok_v = gx.resolves(np.abs(vs.imag))
        if ok_w.any() and ok_v.any():
            uw = gy.cauchy_rows(ws)  # (nw, ndy)
            uv = gx.cauchy_rows(vs)  # (nv, ndx)
            # keep the big tensor real: two real GEMMs beat one complex copy
            left = (
                np.ascontiguousarray(uw.real) @ tensor.T
                + 1j * (np.ascontiguousarray(uw.imag) @ tensor.T)
            )
            out[:] = (left @ uv.T) * np.exp(off)
        # pairs too close to the axis for the shared tensor get their own rules
        for a in np.nonzero(~ok_w)[0]:
            for b in range(vs.size):
                out[a, b] = self._t_slow(complex(ws[a]), complex(vs[b]))
        for b in np.nonzero(~ok_v)[0]:
            for a in np.nonzero(ok_w)[0]:
                out[a, b] = self._t_slow(complex(ws[a]), complex(vs[b]))
        if memo_pairs:
            for a, row in enumerate(keys):
                for b, k in enumerate(row):
                    self._t_memo[k] = complex(out[a, b])
        return out

    # -- internals ----------------------------------------------------------

    def _check_index(self, i):
        if not 0 <= i <= self.order:
            raise IndexError(f"index {i} outside 0..{self.order}")

    def _check_poles(self, poles):
        for z in np.atleast_1d(poles):
            if abs(complex(z).imag) < self.min_imag:
                raise PoleProximityError(complex(z), self.min_imag)

    def _scalar(self, kind, batch_fn, arg):
        key = (kind, complex(arg)) if self._memo is not None else None
        if key is not None:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        vec = batch_fn(np.asarray([arg]))[0]
        if key is not None:
            self._memo[key] = vec
        return vec

    def _base_rule(self, axis):
        return self.rule_x if axis == "x" else self.rule_y

    def _grid_cap(self, axis, min_im, max_nodes):
        """Panel cap that resolves poles at height min_im, subject to a
        per-axis node budget and the background (weight-resolution) cap."""
        base = self._base_rule(axis)
        lo, hi = base.span
        background = min((hi - lo) / 32.0, 1.0)
        want = min(_DEFAULT_DENSE_CAP, background)
        if min_im < _DENSE_SAFETY * want:
            want = min_im / _DENSE_SAFETY
        floor = (hi - lo) * 16.0 / max_nodes
        return max(want, floor)

    def _table_grid(self, axis, min_im):
        cap = self._grid_cap(axis, min_im, _MAX_TABLE_NODES)
        cur = self._grids.get(axis)
        if cur is not None and cur.cap <= cap * (1 + 1e-12):
            return cur
        rule = refined_rule(self._base_rule(axis), [], cap=cap)
        grid = _DenseGrid(rule, cap)
        values = self.Q_values(rule.nodes) if axis == "x" else self.P_values(rule.nodes)
        grid.table = rule.weights[:, None] * values
        self._grids[axis] = grid
        return grid

    def _tilde_values(self, axis, poles):
        self._check_poles(poles)
        out = np.empty((poles.size, self.order + 1), dtype=complex)
        grid = self._table_grid(axis, float(np.min(np.abs(poles.imag))))
        eligible = np.abs(poles.imag) >= _DENSE_SAFETY * grid.cap
        if eligible.any():
            out[eligible] = grid.cauchy_rows(poles[eligible]) @ grid.table
        for k in np.nonzero(~eligible)[0]:
            out[k] = self._tilde_slow(axis, complex(poles[k]))
        return out

    def _tilde_slow(self, axis, pole):
        r = refined_rule(self._base_rule(axis), [pole])
        table = self.Q_values(r.nodes) if axis == "x" else self.P_values(r.nodes)
        return (r.weights / (pole - r.nodes)) @ table

    def _weight_tensor(self, min_im_x, min_im_y):
        cap_x = self._grid_cap("x", min_im_x, _MAX_TENSOR_NODES)
        cap_y = self._grid_cap("y", min_im_y, _MAX_TENSOR_NODES)
        if self._tensor is not None:
            gx, gy, _, _ = self._tensor
            if gx.cap <= cap_x * (1 + 1e-12) and gy.cap <= cap_y * (1 + 1e-12):
                return self._tensor
        gx = _DenseGrid(refined_rule(self.rule_x, [], cap=cap_x), cap_x)
        gy = _DenseGrid(refined_rule(self.rule_y, [], cap=cap_y), cap_y)
        self._tensor = (gx, gy) + weighted_tensor(self.model, gx.rule, gy.rule)
        self._t_memo.clear()
        return self._tensor

    def _t_slow(self, w, v):
        rx = refined_rule(self.rule_x, [v])
        ry = refined_rule(self.rule_y, [w])
        mat, off = weighted_tensor(self.model, rx, ry)
        uv = 1.0 / (v - rx.nodes)
        uw = 1.0 / (w - ry.nodes)
        return complex((uv @ mat @ uw) * np.exp(off))
