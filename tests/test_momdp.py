"""Environment and return tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moascent.momdp import MOMDPSpec, make_env, mo_return

from .oracles import quad_front_points


def rollout_rewards(env, actions, seed=0):
    """(T, m) rewards of one episode stepped state by state through ``actions``."""
    state = env.reset(seed)
    rewards = []
    for action in actions:
        state, reward, terminal = env.step(state, action)
        rewards.append(reward)
        if terminal:
            break
    return np.array(rewards)


class TestSpecValidation:
    def test_rejects_single_objective(self):
        with pytest.raises(ValueError):
            MOMDPSpec(1, 1, 1, 10, 0.9, np.array([-1.0]), np.array([1.0]))

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            MOMDPSpec(1, 1, 2, 10, 0.0, np.array([-1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            MOMDPSpec(1, 1, 2, 10, 1.5, np.array([-1.0]), np.array([1.0]))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            MOMDPSpec(1, 1, 2, 10, 0.9, np.array([1.0]), np.array([-1.0]))


class TestReset:
    def test_quadratic_initial_state_is_origin(self):
        env = make_env("mo_quadratic")
        np.testing.assert_array_equal(env.reset(0), np.zeros(1))
        np.testing.assert_array_equal(env.reset(12345), np.zeros(1))

    def test_same_seed_same_state(self):
        env = make_env("mo_point")
        np.testing.assert_array_equal(env.reset(42), env.reset(42))

    def test_point_seeds_differ_only_in_position(self):
        # Documented initial distribution: position uniform in the noise
        # box, velocity deterministically zero.
        env = make_env("mo_point")
        s1, s2 = env.reset(1), env.reset(2)
        assert not np.array_equal(s1[:2], s2[:2])
        np.testing.assert_array_equal(s1[2:], np.zeros(2))
        np.testing.assert_array_equal(s2[2:], np.zeros(2))
        assert np.all(np.abs(s1[:2]) <= env.init_noise)


class TestStep:
    def test_point_reward_formulas(self):
        # Construct a state whose post-step x-velocity is exactly 0.3 under
        # action (0.5, 0.5) (squared magnitude 0.5): with damping 0.95 and
        # dt 0.1, solve 0.95 * vx + 0.05 = 0.3. Speed pays the resulting
        # velocity plus the alive bonus; energy pays the negative squared
        # action plus alive bonus plus shift.
        env = make_env("mo_point")  # r_alive = 1, shift = 2
        vx = 0.25 / 0.95
        state = np.array([0.0, 0.0, vx, 0.0])
        action = np.array([0.5, 0.5])
        next_state, reward, terminal = env.step(state, action)
        assert next_state[2] == pytest.approx(0.3)
        assert reward[0] == pytest.approx(0.3 + 1.0)
        assert reward[1] == pytest.approx(-0.5 + 1.0 + 2.0)
        assert not terminal

    def test_point_zero_action_zero_velocity(self):
        env = make_env("mo_point")
        _, reward, _ = env.step(np.zeros(4), np.zeros(2))
        assert reward[0] == pytest.approx(env.r_alive)
        assert reward[1] == pytest.approx(env.r_alive + env.shift)

    def test_quadratic_reward_at_own_target(self):
        env = make_env("mo_quadratic")
        c1, c2 = env.targets
        _, reward, terminal = env.step(env.reset(0), c1)
        assert reward[0] == pytest.approx(0.0)
        assert reward[1] == pytest.approx(-float(np.sum((c1 - c2) ** 2)))
        assert terminal

    def test_non_finite_action_rejected(self):
        for name in ("mo_point", "mo_quadratic"):
            env = make_env(name)
            with pytest.raises(ValueError, match="non-finite"):
                env.step(env.reset(0), np.full(env.spec.action_dim, np.nan))
            # One bad entry rejects the whole batch.
            actions = np.zeros((4, env.spec.action_dim))
            actions[2, -1] = np.inf
            with pytest.raises(ValueError, match="non-finite"):
                env.step(np.stack([env.reset(0)] * 4), actions)

    def test_actions_clamped_to_bounds(self):
        env = make_env("mo_quadratic")
        big = np.full(2, 100.0)
        clamped = env.clamp(big)
        assert np.all(clamped == env.spec.action_high)
        # reward reflects the clamped action
        _, reward, _ = env.step(env.reset(0), big)
        diffs = clamped[None, :] - env.targets
        np.testing.assert_allclose(reward, -np.einsum("ij,ij->i", diffs, diffs))

    @pytest.mark.parametrize("name", ["mo_point", "mo_quadratic", "mo_quadratic3"])
    def test_batched_step_matches_single_states(self, name):
        # One call on a (3, 2, ·) batch gives, entry by entry, what stepping
        # each state alone gives.
        env = make_env(name)
        rng = np.random.default_rng(3)
        states = rng.uniform(-1, 1, size=(3, 2, env.spec.state_dim))
        actions = rng.uniform(-2, 2, size=(3, 2, env.spec.action_dim))
        next_states, rewards, terminal = env.step(states, actions)
        assert rewards.shape == (3, 2, env.spec.num_objectives)
        assert terminal.shape == (3, 2)
        for i, j in itertools.product(range(3), range(2)):
            one_next, one_reward, one_terminal = env.step(states[i, j], actions[i, j])
            np.testing.assert_allclose(next_states[i, j], one_next, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rewards[i, j], one_reward, rtol=0, atol=1e-12)
            assert terminal[i, j] == one_terminal

    def test_wrong_action_width_rejected(self):
        env = make_env("mo_point")
        with pytest.raises(ValueError, match="shape"):
            env.step(np.zeros((4, 4)), np.zeros((4, 3)))

    def test_reward_has_m_finite_components(self):
        rng = np.random.default_rng(0)
        for name in ("mo_point", "mo_quadratic", "mo_quadratic3"):
            env = make_env(name)
            state = env.reset(0)
            for _ in range(20):
                action = rng.uniform(-2, 2, size=env.spec.action_dim)
                state_next, reward, terminal = env.step(state, action)
                assert reward.shape == (env.spec.num_objectives,)
                assert np.all(np.isfinite(reward))
                state = env.reset(0) if terminal else state_next


class TestMoReturn:
    def test_single_step(self):
        env = make_env("mo_quadratic")
        rewards = rollout_rewards(env, [env.targets[0]])
        np.testing.assert_allclose(
            mo_return(rewards, 0.37), [0.0, -np.sum((env.targets[0] - env.targets[1]) ** 2)]
        )

    def test_two_step_discounting(self):
        # Direct evaluation: (1, 0) + 0.5 * (0, 1) = (1, 0.5).
        np.testing.assert_allclose(mo_return([[1.0, 0.0], [0.0, 1.0]], 0.5), [1.0, 0.5])

    def test_zero_rewards(self):
        np.testing.assert_array_equal(mo_return(np.zeros((4, 2)), 0.9), np.zeros(2))

    def test_empty_trajectory_errors(self):
        with pytest.raises(ValueError):
            mo_return(np.zeros((0, 2)), 0.9)

    @given(st.floats(-4.0, 4.0), st.floats(0.1, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_rewards(self, scale, gamma):
        rewards = np.random.default_rng(4).uniform(-1, 1, size=(5, 2))
        np.testing.assert_allclose(
            mo_return(scale * rewards, gamma), scale * mo_return(rewards, gamma), atol=1e-12
        )

    def test_leading_axes_are_episodes(self):
        rewards = np.random.default_rng(5).uniform(-1, 1, size=(3, 2, 7, 2))
        returns = mo_return(rewards, 0.9)
        assert returns.shape == (3, 2, 2)
        for i, j in itertools.product(range(3), range(2)):
            np.testing.assert_allclose(returns[i, j], mo_return(rewards[i, j], 0.9),
                                       rtol=0, atol=1e-12)


class TestQuadraticFrontOracle:
    def test_weighted_optimum_is_target_mix(self):
        # The weighted reward is concave with gradient -2 sum_i w_i (a - c_i),
        # so the optimum is the weight-mix of the targets; sampling candidate
        # actions never beats it.
        env = make_env("mo_quadratic")
        rng = np.random.default_rng(9)
        for _ in range(25):
            w1 = float(rng.uniform())
            w = np.array([w1, 1.0 - w1])
            best = quad_front_points(env.targets, w[None, :])[0]
            for _ in range(200):
                a = rng.uniform(-1.5, 1.5, size=2)
                _, reward, _ = env.step(env.reset(0), a)
                assert float(w @ reward) <= float(w @ best) + 1e-12


class TestReturnLowerBound:
    @pytest.mark.parametrize("name", ["mo_point", "mo_quadratic", "mo_quadratic3"])
    def test_attained_by_constant_corner_actions(self, name):
        # Full thrust against the speed objective and farthest-corner actions
        # for the quadratic objectives reach each objective's bound exactly.
        env = make_env(name)
        corners = itertools.product((-1.0, 1.0), repeat=env.spec.action_dim)
        returns = np.array([
            mo_return(rollout_rewards(
                env, np.tile(corner, (env.spec.horizon, 1)) * env.spec.action_high),
                env.spec.gamma)
            for corner in corners
        ])
        np.testing.assert_allclose(returns.min(axis=0), env.return_lower_bound(), atol=1e-9)

    @pytest.mark.parametrize("name, params", [
        ("mo_point", {"action_bound": 2.0, "damping": 1.0, "dt": 0.3}),
        ("mo_quadratic", {"action_bound": 4.0}),
        ("mo_quadratic3", {"action_bound": 0.5}),
    ])
    def test_no_rollout_goes_below(self, name, params):
        env = make_env(name, **params)
        low = env.return_lower_bound()
        rng = np.random.default_rng(0)
        for _ in range(50):
            # Out-of-box actions get clamped onto the box faces.
            actions = rng.uniform(-3.0, 3.0, size=(env.spec.horizon, env.spec.action_dim))
            ret = mo_return(rollout_rewards(env, actions * env.spec.action_high), env.spec.gamma)
            assert np.all(ret >= low - 1e-9)


def test_unknown_env_name():
    with pytest.raises(ValueError, match="mo_point"):
        make_env("nope")
