"""Tests for the minimum-norm ascent solver and simplex projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moascent.pareto import (
    analytic_two_objective_alpha,
    min_norm_direction,
    project_to_simplex,
)

from .oracles import min_norm_grid, project_simplex_bisect


class TestSimplexProjection:
    def test_interior_two_dim(self):
        # Oracle: bisection on the shift threshold agrees with (0.15, 0.85).
        np.testing.assert_allclose(project_to_simplex([0.2, 0.9]), [0.15, 0.85], atol=1e-12)

    def test_already_feasible_vertex(self):
        np.testing.assert_array_equal(project_to_simplex([1.0, 0.0]), [1.0, 0.0])

    def test_symmetric_input_gives_uniform(self):
        np.testing.assert_allclose(project_to_simplex([2.0, 2.0, 2.0]), np.full(3, 1 / 3))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(2, 6))
            v = rng.uniform(-5.0, 5.0, size=m)
            got = project_to_simplex(v)
            want = project_simplex_bisect(v)
            assert np.max(np.abs(got - want)) < 1e-8

    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=6),
    )
    def test_output_always_feasible(self, values):
        w = project_to_simplex(values)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_to_simplex([np.nan, 0.0])


class TestMinNormDirection:
    def test_orthogonal_pair(self):
        # Grid oracle (step 1e-4 over alpha) puts the minimum at (0.5, 0.5)
        # with squared norm 0.5 for orthonormal rows.
        res = min_norm_direction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(res.alpha, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(res.direction, [0.5, 0.5], atol=1e-9)
        assert res.squared_norm == pytest.approx(0.5, abs=1e-9)
        assert not res.stationary

    def test_opposing_gradients_are_stationary(self):
        res = min_norm_direction(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(res.alpha, [0.5, 0.5], atol=1e-9)
        assert res.squared_norm == pytest.approx(0.0, abs=1e-12)
        assert res.stationary

    def test_collinear_same_direction_picks_shorter(self):
        res = min_norm_direction(np.array([[1.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(res.alpha, [1.0, 0.0], atol=1e-9)
        np.testing.assert_allclose(res.direction, [1.0, 0.0], atol=1e-9)

    def test_direction_is_alpha_combination(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            G = rng.uniform(-1, 1, size=(int(rng.integers(2, 5)), int(rng.integers(2, 8))))
            res = min_norm_direction(G)
            np.testing.assert_allclose(res.direction, G.T @ res.alpha, atol=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            d = int(rng.integers(2, 11))
            G = rng.uniform(-1, 1, size=(m, d))
            res = min_norm_direction(G)
            assert res.squared_norm <= min_norm_grid(G) + 1e-6

    def test_equal_projection_property(self):
        # KKT: objectives carrying weight see the same projection onto the
        # direction; zero-weight objectives see at least that much.
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            G = rng.uniform(-1, 1, size=(m, int(rng.integers(2, 11))))
            res = min_norm_direction(G)
            sn = res.squared_norm
            for i in range(m):
                proj = float(G[i] @ res.direction)
                if res.alpha[i] > 1e-9:
                    assert abs(proj - sn) <= 1e-6 * max(1.0, sn)
                else:
                    assert proj >= sn - 1e-6
            if not res.stationary:
                assert all(float(G[i] @ res.direction) >= sn - 1e-6 > 0 for i in range(m))

    def test_scale_covariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            G = rng.uniform(-1, 1, size=(3, 6))
            c = float(rng.uniform(0.1, 10.0))
            base = min_norm_direction(G)
            scaled = min_norm_direction(c * G)
            np.testing.assert_allclose(scaled.alpha, base.alpha, atol=1e-6)
            np.testing.assert_allclose(scaled.direction, c * base.direction, atol=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            min_norm_direction(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            min_norm_direction(np.array([[1.0, 0.0]]))


class TestAnalyticTwoObjective:
    def test_orthogonal_pair(self):
        # Direct substitution: ((-1, 1) . (0, 1)) / 2 = 0.5.
        assert analytic_two_objective_alpha([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_clamped_collinear(self):
        # Unconstrained optimum 2 is clamped to 1.
        assert analytic_two_objective_alpha([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)

    def test_equal_gradients_tie_break(self):
        assert analytic_two_objective_alpha([1.0, 0.0], [1.0, 0.0]) == 0.5

    def test_agrees_with_iterative_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            d = int(rng.integers(1, 11))
            g1 = rng.uniform(-1, 1, size=d)
            g2 = rng.uniform(-1, 1, size=d)
            a = analytic_two_objective_alpha(g1, g2)
            res = min_norm_direction(np.stack([g1, g2]))
            assert abs(a - res.alpha[0]) < 1e-6
            # Two objectives are solved by this closed form, not iterated.
            np.testing.assert_array_equal(res.alpha, [a, 1.0 - a])


class TestStationarity:
    def test_opposing_nonzero(self):
        g = np.array([0.3, -0.7, 0.2])
        assert min_norm_direction(np.stack([g, -g])).stationary

    def test_all_zero(self):
        assert min_norm_direction(np.zeros((2, 4))).stationary

    def test_orthogonal_not_stationary(self):
        # Minimum squared norm is 0.5: above a tolerance of 0.4, below one of
        # 0.6, and far above the solver's scale-aware one.
        result = min_norm_direction(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert result.squared_norm == 0.5
        assert not result.stationary


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gram_shortcut_matches_row_products(seed):
    rng = np.random.default_rng(seed)
    G = rng.uniform(-1, 1, size=(3, 7))
    K = G @ G.T
    direct = np.array([[float(G[i] @ G[j]) for j in range(3)] for i in range(3)])
    assert np.max(np.abs(K - direct)) < 1e-10
