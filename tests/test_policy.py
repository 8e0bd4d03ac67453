"""Tests for the Gaussian policy, gradients, GAE, and the PPO update."""

import dataclasses

import numpy as np
import pytest

from moascent.config import ConfigError, PolicyConfig
from moascent.momdp import MoPoint, make_env, mo_return
from moascent.policy import (
    GaussianPolicy,
    VectorCritic,
    collect_batch,
    estimate_gradient_set,
    gae,
    ppo_update,
    run_episode,
)


def finite_difference_log_prob(policy, params, state, action, h=1e-5):
    grad = np.empty(params.size)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (
            policy.score(up, state[None], action[None])[0][0]
            - policy.score(down, state[None], action[None])[0][0]
        ) / (2 * h)
    return grad


def log_prob_grad(policy, params, state, action):
    """Gradient of ``log pi(action | state)`` for a single state-action pair."""
    return policy.score(params, state[None], action[None])[1](np.ones(1))


class TestAct:
    def test_zero_params_standard_normal(self):
        policy = GaussianPolicy(3, 2, hidden=0)
        params = np.zeros(policy.num_params)  # zero net, log_std 0 -> N(0, I)
        rng = np.random.default_rng(0)
        draws = policy.act(params, np.ones((4000, 3)), rng.standard_normal((4000, 2)))
        assert np.max(np.abs(draws.mean(axis=0))) < 0.06
        assert np.max(np.abs(draws.std(axis=0) - 1.0)) < 0.06

    def test_deterministic_mode_returns_mean(self):
        policy = GaussianPolicy(2, 2, hidden=16)
        params = policy.init_params(np.random.default_rng(1), 0.7, -0.5)
        states = np.array([[0.3, -0.8], [1.0, 0.5]])
        np.testing.assert_array_equal(policy.act(params, states), policy.mean(params, states))

    def test_same_rng_seed_same_action(self):
        policy = GaussianPolicy(2, 2, hidden=32)
        params = policy.init_params(np.random.default_rng(2), 0.1, -0.5)
        state = np.array([[0.1, 0.2]])
        a1 = policy.act(params, state, np.random.default_rng(77).standard_normal((1, 2)))
        a2 = policy.act(params, state, np.random.default_rng(77).standard_normal((1, 2)))
        np.testing.assert_array_equal(a1, a2)


class TestLogProbGrad:
    @pytest.mark.parametrize("hidden", [0, 16])
    def test_matches_central_differences(self, hidden):
        rng = np.random.default_rng(3)
        policy = GaussianPolicy(3, 2, hidden=hidden)
        for _ in range(10):
            params = policy.init_params(
                rng, weight_scale=0.5, log_std_init=float(rng.uniform(-1.5, 0.5))
            )
            state = rng.standard_normal(3)
            action = rng.standard_normal(2)
            analytic = log_prob_grad(policy, params, state, action)
            numeric = finite_difference_log_prob(policy, params, state, action)
            assert np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric))) < 1e-4

    def test_zero_mean_gradient_at_mean_action(self):
        policy = GaussianPolicy(3, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(4), 0.1, -0.5)
        state = np.array([0.5, -0.5, 1.0])
        mean = policy.mean(params, state)[0]
        grad = log_prob_grad(policy, params, state, mean)
        assert np.max(np.abs(grad[: policy.net.num_params])) == 0.0

    def test_log_std_gradient_at_mean_is_minus_one(self):
        # Gaussian score w.r.t. log sigma is z^2 - 1, which is -1 at the mean;
        # central differences agree.
        policy = GaussianPolicy(3, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(5), 0.1, -0.5)
        state = np.array([0.2, 0.4, -1.0])
        mean = policy.mean(params, state)[0]
        grad = log_prob_grad(policy, params, state, mean)
        np.testing.assert_allclose(grad[policy.net.num_params :], [-1.0, -1.0], atol=1e-12)
        numeric = finite_difference_log_prob(policy, params, state, mean)
        np.testing.assert_allclose(numeric[policy.net.num_params :], [-1.0, -1.0], atol=1e-6)

    def test_clamped_log_std_has_zero_gradient(self):
        policy = GaussianPolicy(2, 1, hidden=0, log_std_min=-1.0, log_std_max=1.0)
        params = policy.init_params(np.random.default_rng(6), 0.1, 5.0)
        grad = log_prob_grad(policy, params, np.ones(2), np.zeros(1))
        assert grad[policy.net.num_params :] == pytest.approx(0.0)


def make_batch(env, policy, critic, seed=0, episodes=12):
    rng = np.random.default_rng(seed)
    params = policy.init_params(rng, 0.1, -0.5)
    critic_params = critic.init_params(rng, 0.1)
    batch = collect_batch(env, policy, params, critic, critic_params, episodes, 1.0, 0.95, rng)
    return params, critic_params, batch


class TestGradientSet:
    def setup_method(self):
        self.env = make_env("mo_quadratic")
        self.policy = GaussianPolicy(1, 2, hidden=8)
        self.critic = VectorCritic(1, 2, hidden=8)

    def test_zero_advantages_zero_matrix(self):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        zeroed = dataclasses.replace(batch, advantages=np.zeros_like(batch.advantages))
        G = estimate_gradient_set(self.policy, params, zeroed, False)
        np.testing.assert_array_equal(G, np.zeros_like(G))

    def test_uniform_advantages_identical_rows(self):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        ones = dataclasses.replace(batch, advantages=np.ones_like(batch.advantages))
        G = estimate_gradient_set(self.policy, params, ones, False)
        np.testing.assert_allclose(G[0], G[1], atol=1e-12)

    def test_single_step_hand_advantage(self):
        # Direct expansion of the estimator: rows are the hand-set
        # advantages times the step's score vector.
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic, episodes=1)
        single = dataclasses.replace(batch, advantages=np.array([[2.0, -1.0]]))
        G = estimate_gradient_set(self.policy, params, single, False)
        g = log_prob_grad(self.policy, params, batch.states[0], batch.actions[0])
        np.testing.assert_allclose(G[0], 2.0 * g, atol=1e-12)
        np.testing.assert_allclose(G[1], -1.0 * g, atol=1e-12)

    def test_linear_in_per_objective_advantages(self):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        G = estimate_gradient_set(self.policy, params, batch, False)
        scaled_adv = batch.advantages.copy()
        scaled_adv[:, 0] *= 3.5
        G_scaled = estimate_gradient_set(
            self.policy, params, dataclasses.replace(batch, advantages=scaled_adv), False
        )
        np.testing.assert_allclose(G_scaled[0], 3.5 * G[0], atol=1e-10)
        np.testing.assert_allclose(G_scaled[1], G[1], atol=1e-12)


def count_mean_net_passes(policy, monkeypatch):
    calls = []
    forward = policy.net.forward

    def counted(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(policy.net, "forward", counted)
    return calls


class TestScoringPasses:
    def setup_method(self):
        self.env = make_env("mo_quadratic")
        self.policy = GaussianPolicy(1, 2, hidden=8)
        self.critic = VectorCritic(1, 2, hidden=8)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_ppo_update_runs_mean_network_once_per_epoch(self, monkeypatch, epochs):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        calls = count_mean_net_passes(self.policy, monkeypatch)
        ppo_update(self.policy, params, self.critic, critic_params, batch, [0.5, 0.5],
                   PolicyConfig(epochs=epochs))
        assert len(calls) == epochs

    def test_gradient_set_runs_mean_network_once(self, monkeypatch):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        calls = count_mean_net_passes(self.policy, monkeypatch)
        estimate_gradient_set(self.policy, params, batch, False)
        assert len(calls) == 1


class TestGAE:
    def test_lambda_zero_is_td_residual(self):
        critic = VectorCritic(2, 2, hidden=4)
        cp = critic.init_params(np.random.default_rng(7), weight_scale=0.5)
        states = np.random.default_rng(8).uniform(-1, 1, size=(4, 2))  # s_0..s_3
        rewards = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        V = critic.values(cp, states)
        adv = gae(rewards[None], V[None, :3], V[None, 3], 0.9, 0.0)[0]
        expected = rewards + 0.9 * V[1:] - V[:3]
        np.testing.assert_allclose(adv, expected, atol=1e-12)

    def test_zero_critic_lambda_one_is_return_to_go(self):
        rewards = np.array([[[1.0, 0.5], [2.0, 0.25], [4.0, 0.125]]])
        adv = gae(rewards, np.zeros_like(rewards), np.zeros((1, 2)), 0.5, 1.0)[0]
        # discounted return-to-go per objective, hand-evaluated
        np.testing.assert_allclose(adv[:, 0], [1 + 1 + 1, 2 + 2, 4])
        np.testing.assert_allclose(adv[:, 1], [0.5 + 0.125 + 0.03125, 0.25 + 0.0625, 0.125])

    def test_constant_reward_horizon_three(self):
        rewards = np.tile([1.0, 0.0], (1, 3, 1))
        adv = gae(rewards, np.zeros_like(rewards), np.zeros((1, 2)), 1.0, 1.0)[0]
        np.testing.assert_allclose(adv[:, 0], [3.0, 2.0, 1.0])
        np.testing.assert_allclose(adv[:, 1], [0.0, 0.0, 0.0])

    def test_episodes_are_independent(self):
        rng = np.random.default_rng(9)
        rewards, values = rng.uniform(-1, 1, size=(2, 4, 5, 3))
        last = rng.uniform(-1, 1, size=(4, 3))
        adv = gae(rewards, values, last, 0.9, 0.8)
        for b in range(4):
            np.testing.assert_array_equal(
                adv[b], gae(rewards[b:b + 1], values[b:b + 1], last[b:b + 1], 0.9, 0.8)[0]
            )


class TestPPOUpdate:
    def setup_method(self):
        self.env = make_env("mo_quadratic")
        self.policy = GaussianPolicy(1, 2, hidden=8)
        self.critic = VectorCritic(1, 2, hidden=8)

    def test_zero_advantages_leave_policy_unchanged(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        zeroed = dataclasses.replace(batch, advantages=np.zeros_like(batch.advantages))
        new_params, new_critic = ppo_update(
            self.policy, params, self.critic, critic_params, zeroed, [0.5, 0.5], PolicyConfig()
        )
        np.testing.assert_array_equal(new_params, params)
        assert not np.array_equal(new_critic, critic_params)  # regression still runs

    def test_degenerate_weight_matches_single_objective(self):
        # omega = e_1 must ignore the other objective's advantages entirely
        # (normalization off isolates the raw signal).
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        garbled = batch.advantages.copy()
        garbled[:, 1] = np.random.default_rng(8).uniform(-9, 9, size=garbled.shape[0])
        raw = PolicyConfig(normalize_advantages=False)
        p1, _ = ppo_update(
            self.policy, params, self.critic, critic_params, batch, [1.0, 0.0], raw,
        )
        p2, _ = ppo_update(
            self.policy, params, self.critic, critic_params,
            dataclasses.replace(batch, advantages=garbled), [1.0, 0.0], raw,
        )
        np.testing.assert_array_equal(p1, p2)

    def test_rows_with_only_other_objective_signal_contribute_nothing(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        adv = batch.advantages.copy()
        adv[:5, 0] = 0.0  # these rows carry only objective-2 signal
        with_noise = dataclasses.replace(batch, advantages=adv)
        silenced = adv.copy()
        silenced[:5, 1] = 0.0
        raw = PolicyConfig(normalize_advantages=False)
        p1, _ = ppo_update(self.policy, params, self.critic, critic_params,
                           with_noise, [1.0, 0.0], raw)
        p2, _ = ppo_update(self.policy, params, self.critic, critic_params,
                           dataclasses.replace(batch, advantages=silenced), [1.0, 0.0], raw)
        np.testing.assert_array_equal(p1, p2)

    def test_off_simplex_omega_rejected(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        with pytest.raises(ValueError):
            ppo_update(self.policy, params, self.critic, critic_params, batch, [0.7, 0.7],
                       PolicyConfig())
        with pytest.raises(ValueError):
            ppo_update(self.policy, params, self.critic, critic_params, batch, [1.1, -0.1],
                       PolicyConfig())

    def test_within_tolerance_omega_accepted(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        ppo_update(
            self.policy, params, self.critic, critic_params, batch,
            [0.5 + 4e-7, 0.5 + 4e-7], PolicyConfig(),
        )

    def test_scalarized_return_trend_upwards(self):
        # Ten rounds of collect-and-update on fresh batches must not end
        # below the starting scalarized return (trend, not per step).
        env = self.env
        policy = GaussianPolicy(1, 2, hidden=32)
        critic = VectorCritic(1, 2, hidden=32)
        rng = np.random.default_rng(9)
        params = policy.init_params(rng, 0.1, -0.5)
        critic_params = critic.init_params(rng, 0.1)
        omega = np.array([0.5, 0.5])

        def scalarized(p):
            _, _, rewards, _, _ = run_episode(env, policy, p, [0])
            return float(omega @ mo_return(rewards[0], 1.0))

        start = scalarized(params)
        for _ in range(10):
            batch = collect_batch(env, policy, params, critic, critic_params, 32, 1.0, 0.95, rng)
            params, critic_params = ppo_update(
                policy, params, critic, critic_params, batch, omega, PolicyConfig(lr=5e-3)
            )
        assert scalarized(params) >= start

    def test_sgd_optimizer_runs_and_unknown_rejected(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        ppo_update(self.policy, params, self.critic, critic_params, batch,
                   [0.5, 0.5], PolicyConfig(optimizer="sgd"))
        # The config section is the one place an optimizer name is checked.
        with pytest.raises(ConfigError, match="policy.optimizer"):
            PolicyConfig(optimizer="rmsprop")


class TestRollouts:
    def test_batch_under_snapshot_is_reproducible(self):
        env = make_env("mo_point")
        policy = GaussianPolicy(4, 2, hidden=8)
        critic = VectorCritic(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(10), 0.1, -0.5)
        cp = critic.init_params(np.random.default_rng(10), 0.1)
        b1 = collect_batch(env, policy, params, critic, cp, 3, 0.99, 0.95,
                           np.random.default_rng(55))
        b2 = collect_batch(env, policy, params, critic, cp, 3, 0.99, 0.95,
                           np.random.default_rng(55))
        np.testing.assert_array_equal(b1.states, b2.states)
        np.testing.assert_array_equal(b1.actions, b2.actions)
        np.testing.assert_array_equal(b1.advantages, b2.advantages)

    def test_trajectories_respect_horizon_and_chain(self):
        env = make_env("mo_point")
        policy = GaussianPolicy(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(11), 0.1, 1.0)
        noise = np.random.default_rng(1).standard_normal((3, env.spec.horizon, 2))
        states, raw, rewards, final, terminal = run_episode(env, policy, params, [4, 5, 6], noise)
        T = env.spec.horizon
        assert states.shape == (3, T, 4) and raw.shape == (3, T, 2) and rewards.shape == (3, T, 2)
        assert not terminal.any()
        # Each step starts where the previous one ended.
        next_states, _, _ = env.step(states, raw)
        np.testing.assert_array_equal(next_states[:, :-1], states[:, 1:])
        np.testing.assert_array_equal(next_states[:, -1], final)
        # Raw actions may exceed the bounds; the applied ones never do, so the
        # energy reward never drops below its value at a box corner.
        assert np.any(np.abs(raw) > env.spec.action_high)
        corner_energy = -np.sum(env.spec.action_high**2) + env.r_alive + env.shift
        assert np.all(rewards[..., 1] >= corner_energy - 1e-12)

    @pytest.mark.parametrize("name", ["mo_point", "mo_quadratic3"])
    def test_lockstep_matches_single_episode_stepping(self, name):
        env = make_env(name)
        spec = env.spec
        policy = GaussianPolicy(spec.state_dim, spec.action_dim, hidden=8)
        params = policy.init_params(np.random.default_rng(12), 0.5, -0.5)
        seeds = [3, 1, 4, 1, 5]
        noise = np.random.default_rng(2).standard_normal((5, spec.horizon, spec.action_dim))
        std = np.exp(policy.log_std(params))
        for eps in (noise, None):
            states, actions, rewards, final, terminal = run_episode(
                env, policy, params, seeds, eps)
            for b, seed in enumerate(seeds):
                state = env.reset(seed)
                for t in range(spec.horizon):
                    action = policy.mean(params, state)[0]
                    if eps is not None:
                        action = action + std * eps[b, t]
                    np.testing.assert_allclose(states[b, t], state, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(actions[b, t], action, rtol=0, atol=1e-12)
                    state, reward, done = env.step(state, action)
                    np.testing.assert_allclose(rewards[b, t], reward, rtol=0, atol=1e-12)
                np.testing.assert_allclose(final[b], state, rtol=0, atol=1e-12)
                assert terminal[b] == done

    def test_collect_batch_draws_seed_then_noise_per_episode(self):
        # Reference: the documented order written as a plain loop, one
        # standard-normal action draw per step, each episode stepped alone.
        env = make_env("mo_point", horizon=5)
        T = env.spec.horizon
        policy = GaussianPolicy(4, 2, hidden=8)
        critic = VectorCritic(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(13), 0.1, -0.5)
        cp = critic.init_params(np.random.default_rng(14), 0.1)
        rng = np.random.default_rng(15)
        batch = collect_batch(env, policy, params, critic, cp, 3, 0.9, 0.8, rng)
        ref_rng = np.random.default_rng(15)
        std = np.exp(policy.log_std(params))
        states, actions, advantages = [], [], []
        for _ in range(3):
            state = env.reset(int(ref_rng.integers(0, 2**31 - 1)))
            ep_states, ep_rewards = [], []
            for _ in range(T):
                action = policy.mean(params, state)[0] + std * ref_rng.standard_normal(2)
                ep_states.append(state)
                actions.append(action)
                state, reward, _ = env.step(state, action)
                ep_rewards.append(reward)
            values = critic.values(cp, np.array(ep_states))
            tail = critic.values(cp, state)  # truncated: bootstrap from the critic
            advantages.append(gae(np.array(ep_rewards)[None], values[None], tail, 0.9, 0.8)[0])
            states.extend(ep_states)
        np.testing.assert_allclose(batch.states, states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.actions, actions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.advantages, np.concatenate(advantages),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.returns - batch.advantages,
                                   critic.values(cp, batch.states), rtol=0, atol=1e-12)
        assert rng.integers(0, 2**31 - 1) == ref_rng.integers(0, 2**31 - 1)

    def test_episode_ending_before_horizon_rejected(self):
        class EndsAtOnce(MoPoint):
            def step(self, state, action):
                next_state, reward, _ = super().step(state, action)
                return next_state, reward, np.ones(next_state.shape[:-1], bool)

        env = EndsAtOnce(horizon=3)
        policy = GaussianPolicy(4, 2, hidden=0)
        params = policy.init_params(np.random.default_rng(16), 0.1, -0.5)
        with pytest.raises(ValueError, match="before the horizon"):
            run_episode(env, policy, params, [0, 1])
