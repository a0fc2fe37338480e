import numpy as np
import pytest

from twomatrix import (
    SourceConfig,
    average,
    christoffel_a,
    christoffel_b,
    eval_p,
    k11_tilde,
    k12,
    oracle_average,
    with_index,
)
from twomatrix.errors import (
    DistinctnessError,
    UnsupportedConfigurationError,
)
from twomatrix.quadrature import weighted_tensor
from conftest import draw_sources


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestNamedSpecialCases:
    """The single- and two-source formulas, reached through the general path."""

    def test_single_numerator_is_p_n(self, gaussian_ctx, gaussian_system):
        ctx = gaussian_ctx(2)
        res = average(ctx, SourceConfig.make(xs=[1.0]))
        assert res.formula_used == "theorem1"
        np.testing.assert_allclose(res.value, -1.0 / 3.0, rtol=1e-9)
        np.testing.assert_allclose(
            res.value, eval_p(gaussian_system, 2, 1.0), rtol=1e-12
        )

    def test_single_numerator_y_side(self, quartic_ctx, quartic_system):
        from twomatrix.biorth import eval_q

        ctx = quartic_ctx(3)
        y0 = -0.8
        res = average(ctx, SourceConfig.make(ys=[y0]))
        assert res.formula_used == "theorem1"
        np.testing.assert_allclose(
            res.value, eval_q(quartic_system, 3, y0), rtol=1e-12
        )

    def test_single_inverse_sources(self, gaussian_ctx, gaussian_tev, gaussian_system):
        n = 3
        ctx = gaussian_ctx(n)
        v = 0.3 + 1.2j
        res = average(ctx, SourceConfig.make(vs=[v]))
        assert res.formula_used == "theorem2"
        want = gaussian_tev.Q_tilde(n - 1, v) / gaussian_system.h_sq[n - 1]
        np.testing.assert_allclose(res.value, want, rtol=1e-12)
        w = -1.1 - 0.7j
        res = average(ctx, SourceConfig.make(ws=[w]))
        want = gaussian_tev.P_tilde(n - 1, w) / gaussian_system.h_sq[n - 1]
        np.testing.assert_allclose(res.value, want, rtol=1e-12)

    def test_two_source_pair(self, gaussian_ctx):
        # one x and one y source at n = 1: x*y + tau/(1-tau^2)
        ctx = gaussian_ctx(1)
        x0, y0 = 0.7, -0.4
        res = average(ctx, SourceConfig.make(xs=[x0], ys=[y0]))
        assert res.formula_used == "theorem3"
        np.testing.assert_allclose(res.value, x0 * y0 + 2.0 / 3.0, rtol=1e-10)

    def test_two_source_mixed(self, gaussian_ctx):
        ctx = gaussian_ctx(2)
        x0, v0 = 0.9, 0.2 + 1.5j
        res = average(ctx, SourceConfig.make(xs=[x0], vs=[v0]))
        assert res.formula_used == "theorem3"
        want = (x0 - v0) * k11_tilde(ctx, x0, v0)
        np.testing.assert_allclose(res.value, want, rtol=1e-12)

    def test_pair_kernel_index_shift(self, gaussian_ctx, gaussian_system):
        # the 1,2 kernel inside the pair formula runs at index n+1
        n = 1
        ctx = gaussian_ctx(n)
        x0, y0 = 1.0, 1.0
        res = average(ctx, SourceConfig.make(xs=[x0], ys=[y0]))
        shifted = with_index(ctx, n + 1)
        want = gaussian_system.h_sq[n] * k12(shifted, x0, y0)
        np.testing.assert_allclose(res.value, want, rtol=1e-13)
        np.testing.assert_allclose(res.value, 1.0 + 2.0 / 3.0, rtol=1e-9)


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "shape",
        [
            (0, 0, 1, 1), (2, 1, 0, 0), (2, 0, 1, 1), (1, 2, 0, 1),
            (0, 0, 2, 2), (2, 2, 1, 0), (1, 1, 1, 1), (0, 3, 0, 1),
            (1, 0, 0, 2), (0, 1, 2, 0),
        ],
    )
    def test_mixed_shapes(self, gaussian_ctx, gaussian_model, shape):
        rng = np.random.default_rng(sum(shape) * 37 + shape[0])
        i, j, k, l = shape
        for n in (1, 3):
            if min(i - k, j - l) < -n:
                continue
            cfg = draw_sources(rng, i, j, k, l)
            got = average(gaussian_ctx(n), cfg)
            want = oracle_average(gaussian_model, n, cfg)
            assert rel(got.value, want) < 1e-6
            assert got.condition_estimate >= 1.0

    def test_quartic_sample(self, quartic_ctx, quartic_model):
        rng = np.random.default_rng(101)
        for shape in [(2, 1, 1, 0), (1, 1, 0, 1), (3, 0, 0, 0)]:
            cfg = draw_sources(rng, *shape)
            for n in (1, 2, 4):
                got = average(quartic_ctx(n), cfg)
                want = oracle_average(quartic_model, n, cfg)
                assert rel(got.value, want) < 1e-6

    def test_complex_numerator_sources(self, gaussian_ctx, gaussian_model):
        # numerator sources may be complex (moderate imaginary parts)
        rng = np.random.default_rng(55)
        cfg = SourceConfig.make(
            xs=rng.uniform(-2, 2, 2) + 1j * rng.uniform(-5, 5, 2),
            ys=rng.uniform(-2, 2, 1) + 1j * rng.uniform(-5, 5, 1),
            vs=[0.4 + 1.3j],
        )
        for n in (1, 3):
            got = average(gaussian_ctx(n), cfg)
            want = oracle_average(gaussian_model, n, cfg)
            assert rel(got.value, want) < 1e-6


class TestStructureInvariants:
    def test_index_shift_invariance(self, gaussian_ctx):
        rng = np.random.default_rng(7)
        cfg = draw_sources(rng, 3, 1, 1, 0)
        ctx = gaussian_ctx(2)
        lo, hi = 1 - 0, 3 - 1  # J-L .. I-K
        vals = [average(ctx, cfg, p_shift=p).value for p in range(lo, hi + 1)]
        for v in vals[1:]:
            assert rel(v, vals[0]) < 1e-8

    def test_orientation_agreement(self, gaussian_ctx):
        # I-K = J-L: both printed orientations must give the same value
        from twomatrix.averages import _evaluate

        rng = np.random.default_rng(8)
        cfg = draw_sources(rng, 2, 2, 1, 1)
        ctx = gaussian_ctx(2)
        va = _evaluate(ctx, cfg, 1, True).value
        vb = _evaluate(ctx, cfg, 1, False).value
        assert rel(va, vb) < 1e-8

    def test_permutation_invariance(self, gaussian_ctx):
        rng = np.random.default_rng(9)
        cfg = draw_sources(rng, 3, 0, 2, 0)
        ctx = gaussian_ctx(2)
        base = average(ctx, cfg).value
        perm = SourceConfig.make(
            (cfg.xs[2], cfg.xs[0], cfg.xs[1]), (), cfg.vs[::-1], ()
        )
        np.testing.assert_allclose(average(ctx, perm).value, base, rtol=1e-10)

    def test_growth_in_far_numerator_source(self, gaussian_ctx):
        # average ~ x^n as one numerator source goes to infinity
        ctx = gaussian_ctx(2)
        vals = []
        for radius in (100.0, 200.0):
            cfg = SourceConfig.make(xs=[radius, 0.3])
            vals.append(average(ctx, cfg).value / radius**2)
        assert rel(vals[0], vals[1]) < 5e-2

    def test_decay_in_far_denominator_source(self, gaussian_ctx):
        # average ~ w^{-n} as a denominator source goes to infinity
        ctx = gaussian_ctx(2)
        vals = []
        for radius in (100.0, 200.0):
            cfg = SourceConfig.make(ws=[1j * radius])
            vals.append(average(ctx, cfg).value * (1j * radius) ** 2)
        assert rel(vals[0], vals[1]) < 5e-2


class TestValidation:
    def test_real_denominator_source_rejected(self, gaussian_ctx):
        with pytest.raises(DistinctnessError):
            average(gaussian_ctx(2), SourceConfig.make(vs=[1.0 + 0j]))

    def test_coincident_sources_rejected(self, gaussian_ctx):
        with pytest.raises(DistinctnessError):
            average(gaussian_ctx(2), SourceConfig.make(xs=[0.5, 0.5 + 1e-14]))
        with pytest.raises(DistinctnessError):
            average(
                gaussian_ctx(2),
                SourceConfig.make(ys=[1j + 1.0], ws=[1.0 + 1j]),
            )

    def test_mild_assumption_violation(self, gaussian_ctx):
        cfg = SourceConfig.make(vs=[1j, 2j, 0.5 + 1j])
        with pytest.raises(UnsupportedConfigurationError):
            average(gaussian_ctx(2), cfg)

    def test_inadmissible_p_shift(self, gaussian_ctx):
        cfg = SourceConfig.make(xs=[0.5, -0.5])
        with pytest.raises(UnsupportedConfigurationError):
            average(gaussian_ctx(2), cfg, p_shift=3)


class TestNumeratorOnly:
    def test_reduces_to_single(self, quartic_ctx, quartic_system):
        ctx = quartic_ctx(2)
        got = average(ctx, SourceConfig.make(xs=[0.4])).value
        np.testing.assert_allclose(got, eval_p(quartic_system, 2, 0.4), rtol=1e-12)

    def test_closed_form_two_sources(self, gaussian_ctx):
        # I=2, J=0 at n=1: E[(0 - lam)(1 - lam)] = E[lam**2] = 4/3
        ctx = gaussian_ctx(1)
        got = average(ctx, SourceConfig.make(xs=[0.0, 1.0])).value
        np.testing.assert_allclose(got, 4.0 / 3.0, rtol=1e-9)

    def test_pair_value(self, gaussian_ctx):
        # I=J=1 at n=1: E[(1 - lam)(1 - mu)] = 1 + E[lam mu] = 5/3
        ctx = gaussian_ctx(1)
        got = average(ctx, SourceConfig.make(xs=[1.0], ys=[1.0])).value
        np.testing.assert_allclose(got, 5.0 / 3.0, rtol=1e-9)

    def test_index_shift_choices_agree(self, gaussian_ctx):
        rng = np.random.default_rng(13)
        ctx = gaussian_ctx(2)
        cfg = draw_sources(rng, 3, 1, 0, 0)
        vals = [average(ctx, cfg, p_shift=p).value for p in range(1, 4)]
        for v in vals[1:]:
            assert rel(v, vals[0]) < 1e-10


class TestChristoffel:
    def test_empty_perturbation_is_p_n(self, gaussian_system):
        for n in (0, 2, 4):
            for x in (-0.9, 1.4):
                np.testing.assert_allclose(
                    christoffel_a(gaussian_system, n, (), x),
                    eval_p(gaussian_system, n, x),
                    rtol=1e-12,
                )

    def test_a_biorthogonality_residual(self, quartic_model, quartic_system, quartic_tev):
        rng = np.random.default_rng(31)
        rx, ry = quartic_tev.rule_x, quartic_tev.rule_y
        mat, off = weighted_tensor(quartic_model, rx, ry)
        for n in (1, 3):
            for i_ in (1, 3):
                xs = tuple(rng.uniform(-1.5, 1.5, i_))
                a_vals = np.array(
                    [christoffel_a(quartic_system, n, xs, t) for t in rx.nodes]
                )
                roots = np.prod(rx.nodes[:, None] - np.asarray(xs)[None, :], axis=1)
                smat = np.vander(ry.nodes, n, increasing=True)
                resid = (a_vals * roots) @ mat @ smat * np.exp(off)
                scale = np.abs(a_vals * roots) @ mat @ np.abs(smat) * np.exp(off)
                assert np.max(np.abs(resid) / np.maximum(scale, 1e-300)) < 1e-8

    def test_a_is_monic(self, gaussian_system):
        n, xs = 3, (0.3, -0.8)
        hi, lo = 3e6, 1e6
        slope = (
            christoffel_a(gaussian_system, n, xs, hi)
            - christoffel_a(gaussian_system, n, xs, lo)
        ) / (hi**n - lo**n)
        assert abs(slope - 1.0) < 1e-6

    def test_b_biorthogonality_residual(self, gaussian_model, gaussian_ctx, gaussian_tev):
        rng = np.random.default_rng(37)
        ctx = gaussian_ctx(2)
        rx, ry = gaussian_tev.rule_x, gaussian_tev.rule_y
        mat, off = weighted_tensor(gaussian_model, rx, ry)
        for i_, j_ in ((1, 0), (2, 1), (3, 1)):
            xs = tuple(rng.uniform(-1.5, 1.5, i_))
            ys = tuple(rng.uniform(-1.5, 1.5, j_))
            b_vals = np.array(
                [christoffel_b(ctx, xs, ys, t) for t in ry.nodes]
            )
            rootx = np.prod(rx.nodes[:, None] - np.asarray(xs)[None, :], axis=1)
            rooty = (
                np.prod(ry.nodes[:, None] - np.asarray(ys)[None, :], axis=1)
                if j_
                else np.ones_like(ry.nodes)
            )
            tmat = np.vander(rx.nodes, ctx.n, increasing=True)
            pre = (rootx[:, None] * mat).T @ tmat  # (ny, n)
            resid = (b_vals * rooty) @ pre * np.exp(off)
            scale = np.abs(b_vals * rooty) @ np.abs(pre) * np.exp(off)
            assert np.max(np.abs(resid) / np.maximum(scale, 1e-300)) < 1e-8

    def test_b_is_monic(self, gaussian_ctx):
        ctx = gaussian_ctx(2)
        xs, ys = (0.4, -1.0), (0.2,)
        hi, lo = 3e5, 1e5
        slope = (
            christoffel_b(ctx, xs, ys, hi) - christoffel_b(ctx, xs, ys, lo)
        ) / (hi**ctx.n - lo**ctx.n)
        assert abs(slope - 1.0) < 1e-6

    def test_b_requires_more_x_than_y(self, gaussian_ctx):
        with pytest.raises(UnsupportedConfigurationError):
            christoffel_b(gaussian_ctx(2), (0.5,), (0.1, 0.7), 0.0)
