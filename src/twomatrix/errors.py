"""Exception types shared across the package."""


class TwoMatrixError(Exception):
    """Base class for all package errors."""


class ModelValidationError(TwoMatrixError, ValueError):
    """Potentials or coupling violate the integrability requirements."""


class QuadratureError(TwoMatrixError, ArithmeticError):
    """A quadrature did not converge to the requested tolerance."""


class BimomentError(QuadratureError):
    """A bimoment entry failed its convergence check.

    Carries the offending (i, j) index pair.
    """

    def __init__(self, i, j, estimate, tol):
        self.index = (i, j)
        self.estimate = estimate
        self.tol = tol
        super().__init__(
            f"bimoment entry ({i}, {j}) error estimate {estimate:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class PoleProximityError(TwoMatrixError, ValueError):
    """A Cauchy-transform pole sits on or too close to the real axis."""

    def __init__(self, pole, floor):
        self.pole = pole
        self.floor = floor
        super().__init__(
            f"pole {pole} has |Im| = {abs(pole.imag):.3e} below the "
            f"configured floor {floor:.3e}"
        )


class CoincidenceError(TwoMatrixError, ValueError):
    """Kernel arguments coincide where the formula has a removable pole.

    Confluent limits are not implemented; perturb the arguments instead.
    """


class DegeneracyError(TwoMatrixError, ArithmeticError):
    """A pivot of the bimoment factorization is numerically zero.

    Carries the first failing order so callers can retry with smaller N.
    """

    def __init__(self, order, pivot, threshold):
        self.order = order
        self.pivot = pivot
        self.threshold = threshold
        super().__init__(
            f"factorization pivot at order {order} is {pivot:.3e}, below "
            f"threshold {threshold:.3e}; reduce the order or change the model"
        )


class DistinctnessError(TwoMatrixError, ValueError):
    """Source points that must be pairwise distinct coincide."""


_DISTINCT_TOL = 1e-12


def check_distinct(points, what):
    """Raise :class:`DistinctnessError` naming the first coincident pair."""
    pts = list(points)
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if abs(pts[a] - pts[b]) < _DISTINCT_TOL:
                raise DistinctnessError(
                    f"{what} must be pairwise distinct; "
                    f"{pts[a]} and {pts[b]} coincide"
                )


class UnsupportedConfigurationError(TwoMatrixError, ValueError):
    """Source counts violate min(I-K, J-L) >= -n."""


class TiltDegreeError(TwoMatrixError, ValueError):
    """A trace exponent makes the exponentially tilted weight blow up."""
