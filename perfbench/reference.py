"""Independent trace-moment reference for the benchmark (numpy only).

E[prod_i Tr(M1**m_i) * prod_j Tr(M2**p_j)] is the mixed first derivative,
at zero tilt, of

    Z(s, t) = det M(s, t) / det M(0, 0),
    M(s, t)[a][b] = sum_x sum_y x**a y**b f_s(x) g_t(y) w(x, y) dx dy,

with tilts f_s(x) = exp(sum_i s_i x**m_i), g_t(y) = exp(sum_j t_j y**p_j)
and w the coupled weight exp(-V(x) - W(y) + tau*x*y).  Each first
derivative is a Cauchy integral over a small circle in its complex tilt
variable; the trapezoid rule on the circle is spectrally accurate and free
of the cancellation a finite difference suffers.  M is built on the
benchmark's own composite Gauss-Legendre grid, so nothing here shares code
with the library under test.

On the Gaussian model the reference is also checked against Wick
contraction (:func:`wick_gaussian`).

Run ``python3 perfbench/reference.py`` to regenerate the cached values in
``trace_reference.json`` from scratch.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("trace_reference.json")

# the three models of the test suite's conftest: (V, W, tau), ascending
MODELS = {
    "gaussian": ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5), 0.5),
    "quartic": ((0.0, 0.0, 0.5, 0.0, 0.25), (0.0, 0.0, 0.0, 0.0, 0.25), 1.0),
    "skew": ((0.0, 0.2, 0.5, 0.2, 0.25), (0.0, -0.1, 1.0, 0.1, 0.25), 0.7),
}

_PANEL_WIDTH = 0.25
_PANEL_NODES = 16
_LOG_DROP = 60.0  # grid covers where the weight is above exp(-60) of its peak
_CIRCLE_POINTS = 16
_CIRCLE_SCALE = 0.05  # tilt radius times the factor's size scale


def _log_weight(model, x, y):
    v, w, tau = model
    return (
        -np.polynomial.polynomial.polyval(x, v)[:, None]
        - np.polynomial.polynomial.polyval(y, w)[None, :]
        + tau * np.outer(x, y)
    )


def _box(model):
    """Bounding box of the region where the weight is above exp(-_LOG_DROP)
    of its peak, found on a coarse scan and padded by two panels."""
    t = np.linspace(-30.0, 30.0, 1201)
    lw = _log_weight(model, t, t)
    live = lw >= lw.max() - _LOG_DROP
    xs = t[np.any(live, axis=1)]
    ys = t[np.any(live, axis=0)]
    pad = 2 * _PANEL_WIDTH
    return (xs[0] - pad, xs[-1] + pad), (ys[0] - pad, ys[-1] + pad)


def _composite_gl(lo, hi, panel_width, panel_nodes):
    panels = int(np.ceil((hi - lo) / panel_width))
    edges = np.linspace(lo, hi, panels + 1)
    xg, wg = np.polynomial.legendre.leggauss(panel_nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel()


class MomentGrid:
    """The weight tabulated on a tensor composite Gauss-Legendre grid."""

    def __init__(self, model, panel_width=_PANEL_WIDTH, panel_nodes=_PANEL_NODES):
        (xlo, xhi), (ylo, yhi) = _box(model)
        self.x, wx = _composite_gl(xlo, xhi, panel_width, panel_nodes)
        self.y, wy = _composite_gl(ylo, yhi, panel_width, panel_nodes)
        lw = _log_weight(model, self.x, self.y)
        # the constant offset cancels in det M(s, t) / det M(0, 0)
        self.wmat = np.exp(lw - lw.max()) * wx[:, None] * wy[None, :]
        # monomials in the scaled variable x / sx keep M well balanced;
        # the scaling multiplies both determinants by the same constant
        self.sx = max(1.0, float(np.sqrt(np.sum(self.wmat.sum(1) * self.x**2) / self.wmat.sum())))
        self.sy = max(1.0, float(np.sqrt(np.sum(self.wmat.sum(0) * self.y**2) / self.wmat.sum())))

    def size_scale(self, axis, power, n):
        """Rough size of Tr(M**power) for an n x n matrix: n times the
        weighted RMS of t**power on that axis."""
        t = self.x if axis == "x" else self.y
        marg = self.wmat.sum(1) if axis == "x" else self.wmat.sum(0)
        return n * float(np.sqrt(np.sum(marg * t ** (2 * power)) / marg.sum()))


def _tilt_factors(t, exps, radii, points):
    """exp(sum_a s_a t**e_a) for every combination of circle points, with
    the trapezoid weights e^{-i theta} / (P rho) of the first Cauchy
    coefficient.  Returns (combos, len(t)) factors and (combos,) weights."""
    unit = np.exp(2j * np.pi * np.arange(points) / points)
    weight = np.ones(1, dtype=complex)
    expo = np.zeros((1, t.size), dtype=complex)
    for e, rho in zip(exps, radii):
        weight = (weight[:, None] * (np.conj(unit) / (points * rho))[None, :]).ravel()
        tilt = (rho * unit)[:, None] * (t**e)[None, :]
        expo = (expo[:, None, :] + tilt[None, :, :]).reshape(-1, t.size)
    return np.exp(expo), weight


def trace_moment(grid: MomentGrid, n, m_list, p_list, points=_CIRCLE_POINTS):
    """E[prod Tr(M1**m) prod Tr(M2**p)] for n x n matrices, by Cauchy
    integrals of the tilted determinant ratio."""
    m_list = [int(m) for m in m_list]
    p_list = [int(p) for p in p_list]
    vx = np.vander(grid.x / grid.sx, n, increasing=True)
    vy = np.vander(grid.y / grid.sy, n, increasing=True)
    den = np.linalg.det(vx.T @ grid.wmat @ vy)
    rx = [_CIRCLE_SCALE / grid.size_scale("x", m, n) for m in m_list]
    ry = [_CIRCLE_SCALE / grid.size_scale("y", p, n) for p in p_list]
    fx, wtx = _tilt_factors(grid.x, m_list, rx, points)  # (A, nx)
    gy, wty = _tilt_factors(grid.y, p_list, ry, points)  # (B, ny)
    left = np.einsum("ax,xi->aix", fx, vx)  # (A, n, nx)
    right = np.einsum("by,yj->byj", gy, vy)  # (B, ny, n)
    if left.shape[0] <= right.shape[0]:
        mid = left @ grid.wmat  # (A, n, ny)
        mats = np.einsum("aiy,byj->abij", mid, right)
    else:
        mid = grid.wmat @ right  # (B, nx, n)
        mats = np.einsum("aix,bxj->abij", left, mid)
    ratios = np.linalg.det(mats) / den  # (A, B)
    return float((wtx @ ratios @ wty).real)


def wick_gaussian(tau, n, m_list, p_list):
    """Closed form on the Gaussian model V = W = t**2 / 2 by Wick contraction.

    M1 and M2 are jointly Gaussian with E[A_ij B_kl] = C_AB d_il d_jk,
    C11 = C22 = 1/(1 - tau**2), C12 = tau/(1 - tau**2).  The average of a
    product of traces sums over pairings sigma of the half-edges the product
    of the covariances times n**(cycles of gamma o sigma), gamma being the
    cyclic order inside each trace.
    """
    c_same = 1.0 / (1.0 - tau * tau)
    cov = {(0, 0): c_same, (1, 1): c_same, (0, 1): tau * c_same, (1, 0): tau * c_same}
    kinds, gamma = [], []
    for kind, exps in ((0, m_list), (1, p_list)):
        for e in exps:
            start = len(kinds)
            for r in range(e):
                kinds.append(kind)
                gamma.append(start + (r + 1) % e)
    total = len(kinds)
    if total % 2:
        return 0.0

    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for k, other in enumerate(rest):
            for tail in pairings(rest[:k] + rest[k + 1 :]):
                yield [(first, other)] + tail

    value = 0.0
    for pairing in pairings(list(range(total))):
        sigma = [0] * total
        weight = 1.0
        for a, b in pairing:
            sigma[a], sigma[b] = b, a
            weight *= cov[kinds[a], kinds[b]]
        seen, cycles = [False] * total, 0
        for h in range(total):
            if not seen[h]:
                cycles += 1
                while not seen[h]:
                    seen[h] = True
                    h = gamma[sigma[h]]
        value += weight * n**cycles
    return value


# -- the cached question set -----------------------------------------------

TRACE_NS = (2, 3)
_EXPONENTS = (1, 2, 3)


def one_and_two_factor_questions():
    """Every product of one or two trace factors with exponents 1..3."""
    out = [((m,), ()) for m in _EXPONENTS] + [((), (p,)) for p in _EXPONENTS]
    out += [(c, ()) for c in itertools.combinations_with_replacement(_EXPONENTS, 2)]
    out += [((), c) for c in itertools.combinations_with_replacement(_EXPONENTS, 2)]
    out += [((m,), (p,)) for m in _EXPONENTS for p in _EXPONENTS]
    return out


# Three-factor products, one Tr(M1**m) and two Tr(M2**p) factors, per
# (model, n).  The first entry of each list is the warm-up question, asked
# untimed and unchecked, and nonzero on every model; the others are asked
# and checked in every round.
THREE_FACTOR = {
    ("gaussian", 3): [((3,), (1, 2)), ((1,), (1, 2)), ((2,), (2, 3))],
    ("quartic", 2): [((3,), (1, 2)), ((1,), (1, 2)), ((2,), (2, 3))],
    ("skew", 3): [((3,), (1, 2)), ((1,), (1, 2)), ((2,), (2, 3))],
}


def key(model_name, n, m_list, p_list):
    return f"{model_name}|{n}|{','.join(map(str, m_list))}|{','.join(map(str, p_list))}"


def all_questions():
    for name in MODELS:
        for n in TRACE_NS:
            for m_list, p_list in one_and_two_factor_questions():
                yield name, n, m_list, p_list
    for (name, n), qs in THREE_FACTOR.items():
        for m_list, p_list in qs:
            yield name, n, m_list, p_list


def load():
    """The cached reference values, keyed by :func:`key`."""
    with open(REFERENCE_FILE) as fh:
        data = json.load(fh)
    if data.get("settings") != _settings():
        raise RuntimeError(
            f"{REFERENCE_FILE.name} was made with other settings; "
            "regenerate it with python3 perfbench/reference.py"
        )
    return data["values"]


def _settings():
    return {
        "models": {k: [list(v), list(w), t] for k, (v, w, t) in MODELS.items()},
        "panel_width": _PANEL_WIDTH,
        "panel_nodes": _PANEL_NODES,
        "log_drop": _LOG_DROP,
        "circle_points": _CIRCLE_POINTS,
        "circle_scale": _CIRCLE_SCALE,
    }


def regenerate():
    """Recompute every reference value from scratch, self-checked by grid
    doubling, by 8 more circle points, and by Wick contraction on the
    Gaussian model; then write the cache file."""
    grids = {name: MomentGrid(m) for name, m in MODELS.items()}
    fine = {
        name: MomentGrid(m, _PANEL_WIDTH / 2, _PANEL_NODES) for name, m in MODELS.items()
    }
    values, worst = {}, {"grid": 0.0, "circle": 0.0, "wick": 0.0}
    for name, n, m_list, p_list in all_questions():
        val = trace_moment(grids[name], n, m_list, p_list)
        scale = max(abs(val), 1.0)
        worst["grid"] = max(
            worst["grid"], abs(trace_moment(fine[name], n, m_list, p_list) - val) / scale
        )
        worst["circle"] = max(
            worst["circle"],
            abs(trace_moment(grids[name], n, m_list, p_list, _CIRCLE_POINTS + 8) - val)
            / scale,
        )
        if name == "gaussian":
            want = wick_gaussian(MODELS[name][2], n, m_list, p_list)
            worst["wick"] = max(worst["wick"], abs(want - val) / max(abs(want), 1.0))
        values[key(name, n, m_list, p_list)] = val
    print(
        f"{len(values)} values; worst relative change under grid doubling "
        f"{worst['grid']:.1e}, under 8 more circle points {worst['circle']:.1e}; "
        f"worst Wick mismatch {worst['wick']:.1e}"
    )
    if max(worst.values()) > 1e-9:
        print("reference self-checks exceed 1e-9; not written", file=sys.stderr)
        return 1
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"settings": _settings(), "self_check": worst, "values": values}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
