"""Model definition: the potentials, the coupling and the joint weight.

The joint eigenvalue weight is ``exp(-V(x) - W(y) + tau*x*y)`` with V and W
real polynomials of even degree and positive leading coefficient.  Pointwise
weight values go through :func:`log_weight`; weight matrices on quadrature
grids come from :func:`twomatrix.quadrature.weighted_tensor`, which applies
the exponential with a per-matrix offset.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError

__all__ = ["ModelSpec", "log_weight", "polyval_ascending", "polyder_ascending"]


def polyval_ascending(coeffs, z):
    """Horner evaluation of coefficients stored in ascending degree."""
    z = np.asarray(z)
    out = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
    for c in reversed(tuple(coeffs)):
        out = out * z + c
    return out


def polyder_ascending(coeffs):
    """Coefficients (ascending) of the derivative polynomial."""
    c = tuple(coeffs)
    if len(c) <= 1:
        return (0.0,)
    return tuple(k * c[k] for k in range(1, len(c)))


@dataclass(frozen=True)
class ModelSpec:
    """Potentials V, W (ascending coefficients) and coupling constant tau.

    Invariants enforced at construction:

    * deg V and deg W are even with positive leading coefficients,
    * tau != 0 (at tau = 0 the pairing has rank one and biorthogonalization
      fails beyond order zero),
    * if both potentials are quadratic with leading coefficients a, b then
      tau**2 < 4*a*b, otherwise the joint weight is not integrable.
    """

    v_coeffs: tuple
    w_coeffs: tuple
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "v_coeffs", _normalize(self.v_coeffs, "V"))
        object.__setattr__(self, "w_coeffs", _normalize(self.w_coeffs, "W"))
        object.__setattr__(self, "tau", float(self.tau))
        if self.tau == 0.0:
            raise ModelValidationError("coupling tau must be nonzero")
        a = self.v_coeffs[-1]
        b = self.w_coeffs[-1]
        if self.deg_v == 2 and self.deg_w == 2 and self.tau**2 >= 4 * a * b:
            raise ModelValidationError(
                f"quadratic potentials need tau**2 < 4ab; got tau**2 = "
                f"{self.tau**2:g} with 4ab = {4 * a * b:g}"
            )

    @property
    def deg_v(self):
        return len(self.v_coeffs) - 1

    @property
    def deg_w(self):
        return len(self.w_coeffs) - 1

    def v(self, x):
        """V(x) for real or complex x (scalars or arrays)."""
        return polyval_ascending(self.v_coeffs, x)

    def w(self, y):
        """W(y) for real or complex y."""
        return polyval_ascending(self.w_coeffs, y)

    def to_json(self):
        """Serialize as {"V": [...], "W": [...], "tau": t}."""
        return json.dumps(
            {"V": list(self.v_coeffs), "W": list(self.w_coeffs), "tau": self.tau}
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text) if isinstance(text, str) else text
        unknown = set(data) - {"V", "W", "tau"}
        if unknown:
            raise ModelValidationError(f"unknown model keys: {sorted(unknown)}")
        return cls(tuple(data["V"]), tuple(data["W"]), data["tau"])


def _normalize(coeffs, name):
    c = tuple(float(x) for x in coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c = c[:-1]
    deg = len(c) - 1
    if deg < 2 or deg % 2 != 0:
        raise ModelValidationError(
            f"deg {name} must be even and >= 2, got degree {deg}"
        )
    if c[-1] <= 0.0:
        raise ModelValidationError(
            f"{name} needs a positive leading coefficient, got {c[-1]:g}"
        )
    return c


def log_weight(model: ModelSpec, x, y):
    """Exponent of the joint weight: -V(x) - W(y) + tau*x*y.

    Broadcasts over array arguments; the caller exponentiates (usually after
    subtracting the maximum over the quadrature grid).
    """
    return -model.v(x) - model.w(y) + model.tau * np.asarray(x) * np.asarray(y)
