import tracemalloc

import numpy as np
import pytest

from twomatrix import TransformEvaluator, build_system
from twomatrix.biorth import eval_p, eval_q_table
from twomatrix.errors import PoleProximityError
from twomatrix.quadrature import build_rule, refined_rule

SQRT_2PI = np.sqrt(2.0 * np.pi)
TAU = 0.5
C = 1.0 - TAU * TAU


class TestPlainTransforms:
    """Closed forms exist for the Gaussian coupling and are used only here."""

    def test_q0_closed_form(self, gaussian_tev):
        # Q_0(x) = sqrt(2 pi) exp(-(1-tau^2) x^2 / 2)
        np.testing.assert_allclose(gaussian_tev.Q(0, 0.0), SQRT_2PI, rtol=1e-12)
        for x in (-1.3, 0.4, 2.1):
            want = SQRT_2PI * np.exp(-C * x * x / 2)
            np.testing.assert_allclose(gaussian_tev.Q(0, x), want, rtol=1e-12)

    def test_q1_odd(self, gaussian_tev):
        assert abs(gaussian_tev.Q(1, 0.0)) < 1e-14

    def test_qn_proportional_to_pn(self, gaussian_tev, gaussian_system):
        # Q_n(x) = sqrt(2 pi) tau^n exp(-(1-tau^2) x^2/2) p_n(x)
        for n in (1, 2, 4):
            for x in (-0.7, 1.9):
                want = (
                    SQRT_2PI
                    * TAU**n
                    * np.exp(-C * x * x / 2)
                    * eval_p(gaussian_system, n, x)
                )
                np.testing.assert_allclose(gaussian_tev.Q(n, x), want, rtol=1e-9)

    def test_fubini_against_bimoment(self, gaussian_model, gaussian_tev, gaussian_system):
        # integral of Q_0 over x is the total weight mass G[0][0]
        rule = gaussian_tev.rule_x
        total = np.sum(rule.weights * gaussian_tev.Q_values(rule.nodes)[:, 0])
        np.testing.assert_allclose(total, gaussian_system.h_sq[0], rtol=1e-12)

    def test_complex_argument(self, quartic_tev):
        # evaluation at complex arguments broadcasts and stays finite
        vals = quartic_tev.P_values(np.array([0.3 + 0.4j, -1.0 - 2j]))
        assert vals.shape == (2, quartic_tev.order + 1)
        assert np.all(np.isfinite(vals))


class TestCauchyTransforms:
    def test_leading_asymptotics(self, gaussian_tev, gaussian_system):
        # P~_n(w) w^{n+1} / h_n^2 -> 1, deviation O(1/w) bounded at R=100
        for n in (0, 2):
            devs = []
            for radius in (100.0, 200.0):
                w = 1j * radius
                val = gaussian_tev.P_tilde(n, w) * w ** (n + 1) / gaussian_system.h_sq[n]
                devs.append(abs(val - 1.0))
            assert devs[0] < 5e-2
            assert devs[1] <= 0.6 * devs[0]  # at least halving

    def test_schwarz_reflection(self, quartic_tev):
        w = 0.8 + 1.1j
        for n in (0, 3):
            np.testing.assert_allclose(
                quartic_tev.P_tilde(n, np.conj(w)),
                np.conj(quartic_tev.P_tilde(n, w)),
                rtol=1e-13,
            )
            np.testing.assert_allclose(
                quartic_tev.Q_tilde(n, np.conj(w)),
                np.conj(quartic_tev.Q_tilde(n, w)),
                rtol=1e-13,
            )

    def test_two_integral_forms_agree(self, gaussian_model, gaussian_tev, gaussian_system):
        # 1d Cauchy transform of Q_0 vs the double-integral form at v = 2i
        v = 2j
        rx = refined_rule(gaussian_tev.rule_x, [v], nodes_per_panel=24)
        ry = build_rule(gaussian_model, "y", 220)
        expo = (
            -gaussian_model.v(rx.nodes)[:, None]
            - gaussian_model.w(ry.nodes)[None, :]
            + gaussian_model.tau * np.outer(rx.nodes, ry.nodes)
            + ry.log_weights[None, :]
        )
        off = expo.max()
        q0 = eval_q_table(gaussian_system, ry.nodes)[0]
        double_form = complex(
            (rx.weights / (v - rx.nodes))
            @ np.exp(expo - off)
            @ q0
            * np.exp(off)
        )
        np.testing.assert_allclose(
            gaussian_tev.Q_tilde(0, v), double_form, rtol=1e-8
        )

    def test_moment_ladder(self, quartic_tev, quartic_system):
        # coefficients of 1/v below order j+1 vanish; the j+1 one is h_j^2,
        # seen by Richardson extrapolation over two radii
        for j in (0, 1, 3):
            a = quartic_tev.Q_tilde(j, 150j) * (150j) ** (j + 1) / quartic_system.h_sq[j]
            b = quartic_tev.Q_tilde(j, 300j) * (300j) ** (j + 1) / quartic_system.h_sq[j]
            assert abs(2 * b - a - 1.0) < 1e-4
            # lower inverse powers: |Q~_j(v) v^{k+1}| stays O(h^2/R) for k < j
            for k in range(j):
                small = quartic_tev.Q_tilde(j, 150j) * (150j) ** (k + 1)
                assert abs(small) < 10 * quartic_system.h_sq[j] / 150.0

    def test_pole_floor(self, gaussian_tev):
        with pytest.raises(PoleProximityError):
            gaussian_tev.Q_tilde(0, 1.0 + 1e-6j)
        with pytest.raises(PoleProximityError):
            gaussian_tev.P_tilde_values([2j, 0.5 + 1e-9j])

    def test_dense_and_slow_paths_agree(self, quartic_model):
        sys_ = build_system(quartic_model, 6)
        tev = TransformEvaluator(quartic_model, sys_)
        for pole in (0.4 + 0.9j, -1.2 - 2.5j):
            fast = tev.Q_tilde_values([pole])[0]
            slow = tev._tilde_slow("x", complex(pole))
            np.testing.assert_allclose(fast, slow, rtol=1e-11)

    def test_memo_does_not_change_results(self, quartic_model, quartic_system):
        plain = TransformEvaluator(quartic_model, quartic_system, memoize=False)
        memo = TransformEvaluator(quartic_model, quartic_system, memoize=True)
        w = -0.3 + 1.4j
        first = memo.P_tilde(2, w)
        second = memo.P_tilde(2, w)  # cache hit
        assert first == second
        assert plain.P_tilde(2, w) == first


class TestWeightDoubleCauchy:
    def test_dense_vs_slow(self, gaussian_tev):
        w, v = 0.4 + 0.8j, -0.3 + 0.6j
        dense = gaussian_tev.weight_double_cauchy_batch([w], [v])[0, 0]
        slow = gaussian_tev._t_slow(w, v)
        np.testing.assert_allclose(dense, slow, rtol=1e-12)

    def test_conjugation(self, gaussian_tev):
        w, v = 0.9 - 1.1j, -0.2 + 0.7j
        a = gaussian_tev.weight_double_cauchy(w, v)
        b = gaussian_tev.weight_double_cauchy(np.conj(w), np.conj(v))
        np.testing.assert_allclose(b, np.conj(a), rtol=1e-13)

    def test_memoized(self, quartic_tev):
        w, v = 1.0 + 1.5j, 0.5 - 0.8j
        first = quartic_tev.weight_double_cauchy(w, v)
        assert quartic_tev._t_memo[(w, v)] == first

    def test_tensor_build_peak_memory(self, gaussian_model, gaussian_system):
        tev = TransformEvaluator(gaussian_model, gaussian_system)
        tracemalloc.start()
        try:
            tev.weight_double_cauchy_batch([0.4 + 1.0j], [-0.3 + 1.0j])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tensor = tev._tensor[2]
        assert tensor.shape[0] > 1000 and tensor.shape[1] > 1000
        assert peak <= 2.5 * tensor.nbytes
