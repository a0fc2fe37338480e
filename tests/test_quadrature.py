import numpy as np
import pytest
from scipy.special import wofz

from twomatrix import build_rule
from twomatrix.errors import PoleProximityError
from twomatrix.quadrature import doubled_rule, refined_rule, weighted_tensor

SQRT_2PI = np.sqrt(2.0 * np.pi)


def gaussian_cauchy_exact(pole):
    """integral of exp(-t**2/2) / (pole - t), via the Faddeeva function."""
    if pole.imag > 0:
        return -1j * np.pi * wofz(pole / np.sqrt(2.0))
    return np.conj(-1j * np.pi * wofz(np.conj(pole) / np.sqrt(2.0)))


class TestBuildRule:
    def test_two_node_symmetry(self, gaussian_model):
        rule = build_rule(gaussian_model, "x", 2)
        np.testing.assert_allclose(rule.nodes[1] / rule.scale, 1 / np.sqrt(2))
        np.testing.assert_allclose(rule.nodes.sum(), 0.0, atol=1e-12)

    def test_sixteen_node_gaussian_moment(self, gaussian_model):
        rule = build_rule(gaussian_model, "x", 16)
        val = np.sum(rule.weights * rule.nodes**2 * np.exp(-rule.nodes**2 / 2))
        assert abs(val - SQRT_2PI) <= 1e-12 * SQRT_2PI

    def test_quartic_doubling_stable(self, quartic_model):
        vals = []
        for n in (32, 64):
            rule = build_rule(quartic_model, "x", n)
            vals.append(np.sum(rule.weights * np.exp(-quartic_model.v(rule.nodes))))
        assert abs(vals[1] - vals[0]) <= 1e-10 * abs(vals[1])

    def test_weights_positive_nodes_increasing(self, quartic_model):
        rule = build_rule(quartic_model, "y", 150)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_normalization_convergence_contract(self, both_models):
        # doubling nodes moves the weight normalization by < 1e-10 relative
        for model in both_models.values():
            rx = build_rule(model, "x", 200)
            ry = build_rule(model, "y", 200)
            mat, off = weighted_tensor(model, rx, ry)
            coarse = np.sum(mat) * np.exp(off)
            mat2, off2 = weighted_tensor(
                model, doubled_rule(rx, model), doubled_rule(ry, model)
            )
            fine = np.sum(mat2) * np.exp(off2)
            assert abs(fine - coarse) <= 1e-10 * abs(fine)

    def test_bad_axis_and_count(self, gaussian_model):
        with pytest.raises(ValueError):
            build_rule(gaussian_model, "z", 64)
        with pytest.raises(ValueError):
            build_rule(gaussian_model, "x", 1)


class TestIntegrate2d:
    """Closed-form integrals against the joint weight, on weighted_tensor."""

    @staticmethod
    def integral(model, f, rx, ry):
        mat, off = weighted_tensor(model, rx, ry)
        return np.sum(f(rx.nodes[:, None], ry.nodes[None, :]) * mat) * np.exp(off)

    def test_normalization(self, gaussian_model):
        rx = build_rule(gaussian_model, "x", 200)
        ry = build_rule(gaussian_model, "y", 200)
        val = self.integral(gaussian_model, lambda x, y: 1.0, rx, ry)
        expect = 2 * np.pi / np.sqrt(1 - 0.25)
        np.testing.assert_allclose(val, expect, rtol=1e-12)

    def test_odd_integrand_vanishes(self, gaussian_model):
        rx = build_rule(gaussian_model, "x", 200)
        ry = build_rule(gaussian_model, "y", 200)
        val = self.integral(gaussian_model, lambda x, y: x + 0 * y, rx, ry)
        assert abs(val) < 1e-12

    def test_covariance(self, gaussian_model):
        rx = build_rule(gaussian_model, "x", 200)
        ry = build_rule(gaussian_model, "y", 200)
        norm = self.integral(gaussian_model, lambda x, y: 1.0, rx, ry)
        num = self.integral(gaussian_model, lambda x, y: x * y, rx, ry)
        np.testing.assert_allclose(num / norm, 0.5 / 0.75, rtol=1e-12)


class TestCauchyIntegrate:
    """Cauchy integrals of exp(-t**2/2) as plain sums on a pole-graded rule."""

    @staticmethod
    def integral(f, pole, rule):
        r = refined_rule(rule, [pole])
        return complex(np.sum(r.weights * f(r.nodes) / (pole - r.nodes)))

    def test_against_faddeeva(self, gaussian_model):
        rule = build_rule(gaussian_model, "x", 200)
        f = lambda t: np.exp(-t * t / 2)
        for pole in (1 + 2j, -0.5 + 0.7j, 2 - 0.3j, 0.001j, 1.3 - 0.001j):
            got = self.integral(f, pole, rule)
            want = gaussian_cauchy_exact(complex(pole))
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_far_pole_leading_term(self, gaussian_model):
        # result * (i R) approaches the plain integral sqrt(2 pi) as O(1/R^2)
        rule = build_rule(gaussian_model, "x", 200)
        f = lambda t: np.exp(-t * t / 2)
        errs = []
        for radius in (100.0, 200.0):
            val = self.integral(f, 1j * radius, rule)
            errs.append(abs(val * 1j * radius - SQRT_2PI))
        assert errs[0] < 3e-4
        assert errs[1] == pytest.approx(errs[0] / 4, rel=0.1)

    def test_parity_at_imaginary_pole(self, gaussian_model):
        # writing 1/(iy - t) = (-iy - t)/(y**2 + t**2): an odd integrand
        # leaves only the real part, an even integrand only the imaginary
        rule = build_rule(gaussian_model, "x", 200)
        odd = self.integral(lambda t: t * np.exp(-t * t / 2), 1.7j, rule)
        assert abs(odd.imag) < 1e-14 * abs(odd)
        even = self.integral(lambda t: np.exp(-t * t / 2), 1.7j, rule)
        assert abs(even.real) < 1e-14 * abs(even)

    def test_schwarz_reflection(self, gaussian_model):
        rule = build_rule(gaussian_model, "x", 200)
        f = lambda t: np.exp(-t * t / 2)
        up = self.integral(f, 1 + 1j, rule)
        down = self.integral(f, 1 - 1j, rule)
        np.testing.assert_allclose(down, np.conj(up), rtol=1e-14)

    def test_pole_floor(self, gaussian_tev):
        # the Cauchy transforms refuse poles below the floor and name it
        with pytest.raises(PoleProximityError) as err:
            gaussian_tev.Q_tilde_values([0.5 + 1e-5j])
        assert "1.000e-03" in str(err.value)


class TestRefinedRule:
    def test_refined_is_still_a_rule(self, gaussian_model):
        base = build_rule(gaussian_model, "x", 200)
        rule = refined_rule(base, [0.3 + 0.01j])
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        # panels tile exactly the base rule's span
        assert (rule.edges[0], rule.edges[-1]) == pytest.approx(base.span, abs=1e-9)

    def test_plain_refined_integrates_weight(self, quartic_model):
        base = build_rule(quartic_model, "x", 200)
        rule = refined_rule(base, [])
        got = np.sum(rule.weights * np.exp(-quartic_model.v(rule.nodes)))
        want = np.sum(base.weights * np.exp(-quartic_model.v(base.nodes)))
        np.testing.assert_allclose(got, want, rtol=1e-12)
