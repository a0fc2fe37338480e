import itertools
import warnings

import numpy as np
import pytest

from twomatrix import (
    SourceConfig,
    correlation,
    log_weight,
    oracle_average,
    oracle_trace_moments,
    resolvent_generating,
    trace_product_average,
)
from twomatrix.applications import _ContourTables, _contour_value
from twomatrix.errors import DistinctnessError, PoleProximityError
from twomatrix.quadrature import build_rule, refined_rule, weighted_tensor


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def grid_determinant_sum(tables, exponents, num_points):
    """Reference contour value: the trapezoid sum over the whole product
    grid of contour points, one k x k determinant per point tuple."""
    k = len(exponents)
    weights = [tables.points[v] ** (exponents[v] + 1) / num_points for v in range(k)]
    diags = [tables.diag(v) for v in range(k)]
    crosses = {(a, b): tables.cross(a, b) for a in range(k) for b in range(k) if a != b}
    total = 0.0 + 0.0j
    for idx in itertools.product(range(num_points), repeat=k):
        mat = np.empty((k, k), dtype=complex)
        for a in range(k):
            for b in range(k):
                mat[a, b] = diags[a][idx[a]] if a == b else crosses[a, b][idx[a], idx[b]]
        total += np.prod([weights[a][idx[a]] for a in range(k)]) * np.linalg.det(mat)
    return total


def resolvent_oracle(model, n, xs, ys, step=1e-3):
    """E[prod sum 1/(x_i - lam) ...] by finite differences of the
    characteristic-polynomial oracle with matched numerator/denominator.

    The mixed difference amplifies oracle noise by (2 step)**-k, so the
    step stays coarse; truncation is O(step**2) ~ 1e-6 relative.
    """
    k = len(xs) + len(ys)
    total = 0.0 + 0.0j
    for signs in np.ndindex(*(2,) * k):
        sgn = np.where(np.asarray(signs) == 0, 1.0, -1.0)
        cfg = SourceConfig.make(
            [x + s * step for x, s in zip(xs, sgn[: len(xs)])],
            [y + s * step for y, s in zip(ys, sgn[len(xs):])],
            xs,
            ys,
        )
        total += np.prod(sgn) * oracle_average(model, n, cfg)
    return total / (2 * step) ** k


class TestResolventGenerating:
    def test_empty_is_one(self, gaussian_ctx):
        assert resolvent_generating(gaussian_ctx(2), [], []) == 1.0 + 0.0j

    def test_single_x_n1_against_direct(self, gaussian_model, gaussian_ctx):
        x = 0.8 + 1.3j
        got = resolvent_generating(gaussian_ctx(1), [x], [])
        rrx = refined_rule(build_rule(gaussian_model, "x", 240), [x], nodes_per_panel=24)
        ry = build_rule(gaussian_model, "y", 240)
        mat, off = weighted_tensor(gaussian_model, rrx, ry)
        want = np.sum(mat / (x - rrx.nodes)[:, None]) / np.sum(mat)
        assert rel(got, want) < 1e-8

    def test_conjugation(self, quartic_ctx):
        xs = [0.5 + 0.9j]
        ys = [-0.3 - 1.4j]
        a = resolvent_generating(quartic_ctx(2), xs, ys)
        b = resolvent_generating(
            quartic_ctx(2), [np.conj(x) for x in xs], [np.conj(y) for y in ys]
        )
        np.testing.assert_allclose(b, np.conj(a), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_finite_difference_oracle(self, gaussian_model, gaussian_ctx, n):
        xs = [0.6 + 1.1j]
        ys = [-0.4 - 0.9j]
        got = resolvent_generating(gaussian_ctx(n), xs, ys)
        want = resolvent_oracle(gaussian_model, n, xs, ys)
        assert rel(got, want) < 1e-5

    def test_pair_same_matrix_against_oracle(self, quartic_model, quartic_ctx):
        xs = [0.6 + 1.1j, -0.8 + 1.6j]
        got = resolvent_generating(quartic_ctx(2), xs, [])
        want = resolvent_oracle(quartic_model, 2, xs, [])
        assert rel(got, want) < 1e-5

    def test_single_point_resolvent_integral_form(self, gaussian_model, gaussian_ctx, gaussian_tev):
        # det at one x equals the Cauchy transform of the one-point density
        n = 2
        x = 0.4 + 1.2j
        got = resolvent_generating(gaussian_ctx(n), [x], [])
        rule = refined_rule(gaussian_tev.rule_x, [x], nodes_per_panel=24)
        dens = np.array([correlation(gaussian_ctx(n), [t], []) for t in rule.nodes])
        want = np.sum(rule.weights * dens / (x - rule.nodes))
        assert rel(got, want) < 1e-6

    def test_distinctness_guard(self, gaussian_ctx):
        with pytest.raises(DistinctnessError):
            resolvent_generating(gaussian_ctx(1), [1j, 1j], [])

    @pytest.mark.parametrize("xs, ys", [([0.5 + 5e-4j], []), ([1j], [0.5 - 5e-4j])])
    def test_pole_proximity_guard(self, gaussian_ctx, xs, ys):
        with pytest.raises(PoleProximityError):
            resolvent_generating(gaussian_ctx(1), xs, ys)


class TestTraceProducts:
    def test_zeroth_moment_counts_eigenvalues(self, gaussian_ctx):
        for n in (1, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                val = trace_product_average(gaussian_ctx(n), [0], [])
            np.testing.assert_allclose(val, n, rtol=1e-8)

    def test_n1_cross_moment(self, gaussian_ctx):
        val = trace_product_average(gaussian_ctx(1), [1], [1])
        np.testing.assert_allclose(val, 2.0 / 3.0, rtol=1e-6)

    def test_n2_second_moment_vs_oracle(self, gaussian_model, gaussian_ctx):
        got = trace_product_average(gaussian_ctx(2), [2], [])
        want = oracle_trace_moments(gaussian_model, 2, [2], [])
        assert abs(got - want) <= 1e-4 * max(abs(want), 1.0)

    @pytest.mark.parametrize(
        "m_list,p_list",
        [([1], []), ([2], []), ([3], []), ([], [2]), ([1], [1]), ([2], [2]),
         ([2, 2], []), ([1, 3], []), ([3], [2])],
    )
    def test_sweep_against_oracle(self, quartic_model, quartic_ctx, m_list, p_list):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = trace_product_average(quartic_ctx(2), m_list, p_list)
            want = oracle_trace_moments(quartic_model, 2, m_list, p_list)
        assert abs(got - want) <= 1e-4 * max(abs(want), 1.0)


class TestCycleFactorization:
    def test_three_factors_against_product_grid(self, quartic_ctx):
        ctx = quartic_ctx(2)
        exponents = [1, 2, 1]  # Tr M1 Tr M1^2 Tr M2: x-x, x-y and y-x links
        tables = _ContourTables(ctx, 2, 1, 3.0, 16)
        got = _contour_value(tables, exponents, 16)
        want = grid_determinant_sum(tables, exponents, 16)
        assert abs(got - want) <= 1e-12 * abs(want)

    # Gaussian closed forms: Tr M1 and Tr M2 are jointly normal with
    # variance 4n/3 and covariance 2n/3, and Tr M2^2 = (Tr M2)^2/n plus an
    # independent traceless part of mean 4(n^2-1)/3 (Isserlis/Wick)
    @pytest.mark.parametrize(
        "n,m_list,p_list,want",
        [
            (2, [1, 1], [1, 1], 32.0 / 3.0),
            (3, [1], [1, 1, 1], 24.0),
            (2, [1, 1], [1, 1, 2], 896.0 / 9.0),
            (3, [1, 1, 1], [1, 2], 368.0),
        ],
    )
    def test_four_and_five_factors_against_wick(self, gaussian_ctx, n, m_list, p_list, want):
        got = trace_product_average(gaussian_ctx(n), m_list, p_list)
        assert rel(got, want) < 1e-7


class TestCorrelation:
    def test_n1_joint_density(self, gaussian_model, gaussian_ctx, gaussian_system):
        ctx = gaussian_ctx(1)
        g00 = gaussian_system.h_sq[0]
        for lam in (-1.2, 0.4):
            for mu in (0.8, -0.1):
                want = np.exp(log_weight(gaussian_model, lam, mu)) / g00
                np.testing.assert_allclose(
                    correlation(ctx, [lam], [mu]), want, rtol=1e-10
                )

    def test_one_point_integrates_to_n(self, quartic_ctx, quartic_tev):
        for n in (1, 2, 4):
            ctx = quartic_ctx(n)
            rule = quartic_tev.rule_x
            dens = np.array([correlation(ctx, [t], []) for t in rule.nodes])
            np.testing.assert_allclose(
                np.sum(rule.weights * dens), n, rtol=1e-8
            )

    def test_cross_intensity_integrates_to_n_squared(self, gaussian_model, gaussian_ctx, gaussian_tev):
        from twomatrix.biorth import eval_p_table, eval_q_table

        for n in (1, 3):
            ctx = gaussian_ctx(n)
            rx, ry = gaussian_tev.rule_x, gaussian_tev.rule_y
            # vectorized R_{1,1} over the tensor grid
            inv_h = 1.0 / ctx.sys.h_sq[:n]
            p_l = eval_p_table(ctx.sys, rx.nodes)[:n]
            q_m = eval_q_table(ctx.sys, ry.nodes)[:n]
            q_l = gaussian_tev.Q_values(rx.nodes)[:, :n]
            p_m = gaussian_tev.P_values(ry.nodes)[:, :n]
            k11_diag = np.sum(p_l.T * q_l * inv_h, axis=1)
            k22_diag = np.sum(p_m * q_m.T * inv_h, axis=1)
            k12_mat = p_l.T @ (q_m * inv_h[:, None])
            wts = np.exp(
                log_weight(gaussian_model, rx.nodes[:, None], ry.nodes[None, :])
            )
            k21_mat = (q_l * inv_h) @ p_m.T - wts  # (nx, ny)
            r11 = np.outer(k11_diag, k22_diag) - k12_mat * k21_mat
            total = rx.weights @ r11 @ ry.weights
            np.testing.assert_allclose(total, n * n, rtol=1e-6)

    def test_repeated_point_vanishes(self, gaussian_ctx):
        val = correlation(gaussian_ctx(3), [0.7, 0.7], [])
        assert abs(val) < 1e-12

    def test_permutation_symmetry(self, quartic_ctx):
        ctx = quartic_ctx(3)
        a = correlation(ctx, [0.3, -0.5], [0.8])
        b = correlation(ctx, [-0.5, 0.3], [0.8])
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_nonnegative_on_grid(self, quartic_ctx):
        ctx = quartic_ctx(2)
        grid = np.linspace(-2, 2, 9)
        for lam in grid:
            for mu in grid:
                assert correlation(ctx, [lam], [mu]) >= -1e-8
