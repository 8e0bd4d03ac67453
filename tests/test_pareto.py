"""Tests for the minimum-norm ascent solver and simplex projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moascent import pareto
from moascent.pareto import (
    analytic_two_objective_alpha,
    min_norm_direction,
    project_to_simplex,
    validate_weights,
)

from .oracles import (
    min_norm_grid,
    min_norm_one_lane,
    project_simplex_bisect,
    two_objective_alpha_one_lane,
)


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


class TestValidateWeights:
    def test_stack_equals_stacked_rows(self):
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(3), size=8)
        rows[0] = [1.0 + 4e-7, -4e-7, 0.0]  # within tolerance: clipped and renormalized
        stack = rows.reshape(2, 4, 3)
        np.testing.assert_array_equal(
            validate_weights(stack), np.stack([validate_weights(w) for w in rows]).reshape(2, 4, 3))

    def test_one_off_simplex_row_rejected(self):
        stack = np.array([[0.5, 0.5], [0.7, 0.7], [1.0, 0.0]])
        with pytest.raises(ValueError, match="sum=1.4"):
            validate_weights(stack)
        stack[1] = [1.1, -0.1]
        with pytest.raises(ValueError, match="min=-0.1"):
            validate_weights(stack)


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


def assert_lanes_match_one_lane_solver(G):
    """Each lane of the stacked solve has the bytes of the one-lane solver."""
    result = min_norm_direction(G)
    for lane in np.ndindex(G.shape[:-2]):
        alpha, direction, squared_norm, stationary = min_norm_one_lane(G[lane])
        assert result.alpha[lane].tobytes() == alpha.tobytes(), lane
        assert result.direction[lane].tobytes() == direction.tobytes(), lane
        assert np.float64(result.squared_norm[lane]).tobytes() == np.float64(squared_norm).tobytes()
        assert bool(result.stationary[lane]) == stationary, lane


def edge_case_stack(rng, m, d):
    """Nine lanes of (m, d) gradients: random, then each edge case once."""
    G = rng.standard_normal((9, m, d))
    G[1, 1] = G[1, 0]            # duplicated rows
    G[2, 1] = -G[2, 0]           # opposed rows
    G[3] = 0.0                   # all-zero lane
    G[4, 0] = 0.0                # one zero row
    G[5] *= 1e-8
    G[6] *= 1e8
    G[7, :, 1:] = 0.0            # rank one
    G[8, -1] = 0.0               # last row zero
    return G


class TestStackedSolve:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 40])
    def test_lanes_match_one_lane_solver(self, m, d):
        # m = 4 with d < m has faces tying below 1e-30; the candidates'
        # values come from the one-lane solver's own products, so even the
        # tie breaks the same way.
        rng = np.random.default_rng(100 * m + d)
        for _ in range(20):
            assert_lanes_match_one_lane_solver(edge_case_stack(rng, m, d))
            scales = 10.0 ** rng.integers(-8, 9, size=(5, 1, 1))
            assert_lanes_match_one_lane_solver(scales * rng.standard_normal((5, m, d)))

    def test_lane_less_and_nested_stacks(self):
        rng = np.random.default_rng(4)
        G = rng.standard_normal((2, 3, 3, 5))
        result = min_norm_direction(G)
        assert result.alpha.shape == (2, 3, 3) and result.squared_norm.shape == (2, 3)
        assert_lanes_match_one_lane_solver(G)
        one = min_norm_direction(G[1, 2])
        assert one.alpha.shape == (3,) and np.ndim(one.squared_norm) == 0
        assert one.alpha.tobytes() == result.alpha[1, 2].tobytes()

    def test_singular_face_is_nan_in_its_own_lane(self):
        # Lane 0's three gradients are equal: its 3-face KKT system is
        # singular, so the stacked solve raises and each system is solved
        # alone. Lane 1 (orthonormal rows) keeps its interior minimizer.
        G = np.stack([np.ones((3, 4)), np.eye(3, 4)])
        K = G @ G.swapaxes(-1, -2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.block([[K, np.ones((2, 3, 1))],
                                      [np.ones((2, 1, 3)), np.zeros((2, 1, 1))]]),
                            np.tile([[0.0], [0.0], [0.0], [1.0]], (2, 1, 1)))
        faces = pareto._face_candidates(G, K)
        assert np.all(np.isnan(faces[0, 3]))
        np.testing.assert_allclose(faces[1, 3], np.full(3, 1 / 3), rtol=1e-12)
        assert_lanes_match_one_lane_solver(G)
        np.testing.assert_allclose(min_norm_direction(G).alpha[1], np.full(3, 1 / 3), rtol=1e-12)

    def test_rejects_non_finite_lane(self):
        G = np.random.default_rng(0).standard_normal((3, 2, 4))
        G[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            min_norm_direction(G)


class TestAnalyticTwoObjective:
    def test_stack_matches_one_lane_form(self):
        rng = np.random.default_rng(19)
        g1, g2 = rng.standard_normal((2, 6, 5))
        g2[0] = g1[0]                 # tie: 0.5
        g1[1], g2[1] = 1.0, 2.0       # clamped to 1
        g2[2] = 0.0                   # zero numerator: 0
        g1[3], g2[3] = 2.0, 1.0       # clamped to 0
        a = analytic_two_objective_alpha(g1, g2)
        assert a.shape == (6,)
        want = [two_objective_alpha_one_lane(x, y) for x, y in zip(g1, g2)]
        assert a.tobytes() == np.array(want).tobytes()
        assert a[2] == a[3] == 0.0 and a[0] == 0.5 and a[1] == 1.0

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
