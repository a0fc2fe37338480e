import numpy as np
import pytest

from twomatrix import (
    SourceConfig,
    oracle_average,
    oracle_direct_n1,
    oracle_direct_n2,
    oracle_trace_moments,
)
from twomatrix.errors import TiltDegreeError
from conftest import draw_sources


class TestOracleAverage:
    def test_empty_config_is_one(self, both_models):
        for model in both_models.values():
            for n in (1, 3):
                val = oracle_average(model, n, SourceConfig.make())
                np.testing.assert_allclose(val, 1.0, rtol=1e-12)

    def test_n1_single_numerator_is_linear(self, gaussian_model):
        # odd first moments vanish: the n=1 average of (x - lam) is x itself
        for x in (-1.7, 0.0, 2.3):
            val = oracle_average(gaussian_model, 1, SourceConfig.make(xs=[x]))
            np.testing.assert_allclose(val, x, atol=1e-12)

    def test_n1_pair_covariance(self, gaussian_model):
        x, y = 0.8, -0.6
        val = oracle_average(gaussian_model, 1, SourceConfig.make(xs=[x], ys=[y]))
        np.testing.assert_allclose(val, x * y + 2.0 / 3.0, rtol=1e-11)

    def test_monic_polynomial_in_single_source(self, quartic_model):
        # with one numerator source the average is a monic degree-n poly in x
        n = 3
        pts = np.linspace(-1.5, 1.5, n + 2)
        vals = [
            complex(oracle_average(quartic_model, n, SourceConfig.make(xs=[p])))
            for p in pts
        ]
        coeffs = np.polynomial.polynomial.polyfit(pts, np.real(vals), n + 1)
        assert abs(coeffs[n] - 1.0) < 1e-8
        assert abs(coeffs[n + 1]) < 1e-8

    def test_permutation_invariance(self, gaussian_model):
        rng = np.random.default_rng(9)
        cfg = draw_sources(rng, 2, 0, 2, 1)
        swapped = SourceConfig.make(
            cfg.xs[::-1], cfg.ys, cfg.vs[::-1], cfg.ws
        )
        a = oracle_average(gaussian_model, 2, cfg)
        b = oracle_average(gaussian_model, 2, swapped)
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_partition_determinant_positive(self, both_models):
        from twomatrix.oracle import _modified_moments
        from twomatrix.quadrature import build_rule

        for model in both_models.values():
            rx = build_rule(model, "x")
            ry = build_rule(model, "y")
            for n in range(1, 7):
                mat = _modified_moments(
                    model, n, lambda t: np.ones_like(t), lambda t: np.ones_like(t),
                    rx, ry,
                )
                assert np.linalg.det(mat).real > 0


class TestDirectValidation:
    """The determinant reduction is not trusted until it reproduces the
    unreduced eigenvalue integrals."""

    def test_n1_agreement(self, both_models):
        rng = np.random.default_rng(17)
        for model in both_models.values():
            for (i, j, k, l) in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (2, 1, 1, 1)]:
                cfg = draw_sources(rng, i, j, k, l)
                a = oracle_average(model, 1, cfg)
                b = oracle_direct_n1(model, cfg)
                np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_n1_inverse_source(self, gaussian_model):
        cfg = SourceConfig.make(vs=[2j])
        a = oracle_average(gaussian_model, 1, cfg)
        b = oracle_direct_n1(gaussian_model, cfg)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_n2_agreement_polynomial_sources(self, quartic_model):
        # quadruple-integral brute force against the reduction at n = 2
        rng = np.random.default_rng(23)
        cfg = draw_sources(rng, 2, 1, 0, 0)
        a = oracle_average(quartic_model, 2, cfg)
        b = oracle_direct_n2(quartic_model, cfg)
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_n2_agreement_with_poles(self, quartic_model):
        rng = np.random.default_rng(29)
        cfg = draw_sources(rng, 1, 0, 1, 1)
        a = oracle_average(quartic_model, 2, cfg)
        b = oracle_direct_n2(quartic_model, cfg, nodes_per_axis=132)
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_n2_agreement_gaussian(self, gaussian_model):
        rng = np.random.default_rng(31)
        cfg = draw_sources(rng, 1, 1, 0, 0)
        a = oracle_average(gaussian_model, 2, cfg)
        b = oracle_direct_n2(gaussian_model, cfg, nodes_per_axis=144)
        np.testing.assert_allclose(a, b, rtol=1e-6)


class TestTraceMoments:
    def test_trivial_zeroth(self, gaussian_model):
        for n in (1, 3):
            val = oracle_trace_moments(gaussian_model, n, [0], [])
            np.testing.assert_allclose(val, n, rtol=1e-9)

    def test_n1_cross_moment(self, gaussian_model):
        val = oracle_trace_moments(gaussian_model, 1, [1], [1])
        np.testing.assert_allclose(val, 2.0 / 3.0, rtol=1e-7)

    def test_n1_second_moment(self, gaussian_model):
        val = oracle_trace_moments(gaussian_model, 1, [2], [])
        np.testing.assert_allclose(val, 4.0 / 3.0, rtol=1e-7)

    def test_three_factor_wick_value(self, gaussian_model):
        # E[Tr M1 Tr M2 Tr M2^2] at n = 3 by Wick pairing; roundoff in the
        # third mixed difference grows like eps / step**3
        val = oracle_trace_moments(gaussian_model, 3, [1], [1, 2])
        np.testing.assert_allclose(val, 88.0 / 3.0, rtol=1e-5)

    def test_quartic_tilt_on_quadratic_takes_finer_step(self, gaussian_model):
        # x**4 tilts a quadratic potential beyond the guard at the default
        # step; E[Tr M1^4] = (2n^3 + n) (4/3)^2 at n = 2
        val = oracle_trace_moments(gaussian_model, 2, [4], [])
        np.testing.assert_allclose(val, 32.0, rtol=1e-6)

    def test_tilt_guard(self, gaussian_model):
        # degree-4 tilt on a quadratic potential is visibly non-integrable
        with pytest.raises(TiltDegreeError):
            oracle_trace_moments(gaussian_model, 1, [6], [])

    def test_cubic_tilt_on_quadratic_allowed(self, gaussian_model):
        # formally divergent but negligible over the node span; must work
        val = oracle_trace_moments(gaussian_model, 1, [3], [])
        assert abs(val) < 1e-6  # odd moment vanishes
