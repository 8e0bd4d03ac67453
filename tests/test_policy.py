"""Tests for the Gaussian policy, gradients, GAE, and the PPO update."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moascent.config import ConfigError, PolicyConfig
from moascent import evolution
from moascent import policy as policy_module
from moascent.evolution import NETWORK_DTYPE
from moascent.harness import build_trainer, resolve_config
from moascent.momdp import MoPoint, MoQuadratic, make_env, mo_return
from moascent.policy import (
    _GAE_LAMBDA,
    GaussianPolicy,
    Network,
    RolloutBatch,
    _row_sum,
    collect_batch,
    estimate_gradient_set,
    gae,
    hidden_workspace,
    normalize_per_objective,
    ppo_update,
    run_episode,
)

from .oracles import (
    _net_backprop,
    _net_forward,
    _policy_score,
    env_step,
    gaussian_act,
    gradient_set,
    normalize_mean_std,
    ppo_update_allocating,
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


class CountingGenerator:
    """A numpy generator that records the name of each draw made from it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return draw(*args, **kwargs)

        return counted


class TestAct:
    """Rollout actions: the policy's mean, plus its std times the noise."""

    def test_zero_params_standard_normal(self):
        env = make_env("mo_point", horizon=5)
        policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=0)
        params = np.zeros(policy.num_params)  # zero net, log_std 0 -> N(0, I)
        noise = np.random.default_rng(0).standard_normal((6, 5, env.spec.action_dim))
        actions = run_episode(env, policy, params, np.arange(6), noise)[1]
        np.testing.assert_array_equal(actions, noise)

    def test_deterministic_mode_returns_mean(self):
        env = make_env("mo_point", horizon=5)
        policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=16)
        params = policy.init_params(np.random.default_rng(1), 0.7, -0.5)
        states, actions = run_episode(env, policy, params, np.arange(3))[:2]
        for e in range(3):
            np.testing.assert_array_equal(actions[e], gaussian_act(policy, params, states[e]))

    def test_same_rng_seed_same_action(self):
        env = make_env("mo_point", horizon=5)
        policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=32)
        params = policy.init_params(np.random.default_rng(2), 0.1, -0.5)
        a1, a2 = (run_episode(env, policy, params, [7],
                              np.random.default_rng(77).standard_normal((1, 5, 2)))[1]
                  for _ in range(2))
        np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("name", ["mo_point", "mo_quadratic"])
    def test_non_finite_action_rejects_the_rollout(self, name):
        # Lane 1 of a (3, d) stack has a NaN weight, so its mean action is
        # NaN: the rollout raises, with noise (training) and without (the
        # path of Trainer.evaluate).
        env = make_env(name)
        spec = env.spec
        policy = GaussianPolicy(spec.state_dim, spec.action_dim, hidden=8)
        rng = np.random.default_rng(6)
        stack = np.stack([policy.init_params(rng, 0.1, -0.5) for _ in range(3)])
        stack[1, 0] = np.nan
        noise = rng.standard_normal((3, 4, spec.horizon, spec.action_dim))
        for eps in (noise, None):
            with pytest.raises(ValueError, match="non-finite action rejected"):
                run_episode(env, policy, stack, np.arange(4), eps)

    def test_non_finite_action_error_names_the_first_bad_step(self):
        env = make_env("mo_point", horizon=6)
        policy = GaussianPolicy(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(7), 0.1, -0.5)
        noise = np.random.default_rng(8).standard_normal((3, 6, 2))
        noise[2, 4, 0] = np.inf
        noise[1, 3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite action rejected at step 3"):
            run_episode(env, policy, params, [0, 1, 2], noise)


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
        mean = gaussian_act(policy, params, state)[0]
        grad = log_prob_grad(policy, params, state, mean)
        assert np.max(np.abs(grad[: policy.net.num_params])) == 0.0

    def test_log_std_gradient_at_mean_is_minus_one(self):
        # Gaussian score w.r.t. log sigma is z^2 - 1, which is -1 at the mean;
        # central differences agree.
        policy = GaussianPolicy(3, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(5), 0.1, -0.5)
        state = np.array([0.2, 0.4, -1.0])
        mean = gaussian_act(policy, params, state)[0]
        grad = log_prob_grad(policy, params, state, mean)
        np.testing.assert_allclose(grad[policy.net.num_params :], [-1.0, -1.0], atol=1e-12)
        numeric = finite_difference_log_prob(policy, params, state, mean)
        np.testing.assert_allclose(numeric[policy.net.num_params :], [-1.0, -1.0], atol=1e-6)

    def test_clamped_log_std_has_zero_gradient(self):
        policy = GaussianPolicy(2, 1, hidden=0)
        params = policy.init_params(np.random.default_rng(6), 0.1, 5.0)
        assert params[-1] > policy.log_std_max
        grad = log_prob_grad(policy, params, np.ones(2), np.zeros(1))
        assert grad[policy.net.num_params :] == pytest.approx(0.0)


def make_batch(env, policy, critic, seed=0, episodes=12):
    rng = np.random.default_rng(seed)
    params = policy.init_params(rng, 0.1, -0.5)
    critic_params = critic.init_params(rng, 0.1)
    batch = collect_batch(env, policy, params, critic, critic_params, episodes, rng)
    return params, critic_params, batch


class TestGradientSet:
    def setup_method(self):
        self.env = make_env("mo_quadratic")
        self.policy = GaussianPolicy(1, 2, hidden=8)
        self.critic = Network(1, 2, hidden=8)

    def test_zero_advantages_zero_matrix(self):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        zeroed = dataclasses.replace(batch, advantages=np.zeros_like(batch.advantages))
        G = estimate_gradient_set(self.policy, zeroed, False)
        np.testing.assert_array_equal(G, np.zeros_like(G))

    def test_uniform_advantages_identical_rows(self):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        ones = dataclasses.replace(batch, advantages=np.ones_like(batch.advantages))
        G = estimate_gradient_set(self.policy, ones, False)
        np.testing.assert_allclose(G[0], G[1], atol=1e-12)

    def test_single_step_hand_advantage(self):
        # Direct expansion of the estimator: rows are the hand-set
        # advantages times the step's score vector.
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic, episodes=1)
        single = dataclasses.replace(batch, advantages=np.array([[2.0, -1.0]]))
        G = estimate_gradient_set(self.policy, single, False)
        g = log_prob_grad(self.policy, params, batch.states[0], batch.actions[0])
        np.testing.assert_allclose(G[0], 2.0 * g, atol=1e-12)
        np.testing.assert_allclose(G[1], -1.0 * g, atol=1e-12)

    def test_linear_in_per_objective_advantages(self):
        params, _, batch = make_batch(self.env, self.policy, self.critic)
        G = estimate_gradient_set(self.policy, batch, False)
        scaled_adv = batch.advantages.copy()
        scaled_adv[:, 0] *= 3.5
        G_scaled = estimate_gradient_set(
            self.policy, dataclasses.replace(batch, advantages=scaled_adv), False
        )
        np.testing.assert_allclose(G_scaled[0], 3.5 * G[0], atol=1e-10)
        np.testing.assert_allclose(G_scaled[1], G[1], atol=1e-12)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("env_name", ["mo_quadratic", "mo_point"])
def test_gradient_set_stack_matches_lane_less_calls(env_name, normalize):
    # 3 lanes, so a lane's workspace taken as workspace[lane] instead of
    # workspace[:, lane] has the wrong leading axis and the batch rejects it.
    env = make_env(env_name)
    spec = env.spec
    policy = GaussianPolicy(spec.state_dim, spec.action_dim, hidden=8)
    critic = Network(spec.state_dim, spec.num_objectives, hidden=8)
    rng = np.random.default_rng(5)
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(3)])
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(3)])
    rngs = [np.random.default_rng(lane) for lane in range(3)]
    batch = collect_batch(env, policy, params, critic, critic_params, 6, rngs)
    G = estimate_gradient_set(policy, batch, normalize)
    assert G.shape == (3, spec.num_objectives, policy.num_params)
    for lane in range(3):
        lane_batch = RolloutBatch(**{f.name: getattr(batch, f.name)[lane]
                                     for f in dataclasses.fields(batch)
                                     if f.name != "workspace"},
                                  workspace=batch.workspace[:, lane])
        alone = estimate_gradient_set(policy, lane_batch, normalize)
        assert G[lane].tobytes() == alone.tobytes(), lane


@pytest.mark.parametrize("hidden", [0, 8])
@pytest.mark.parametrize("rows", [1, 7, 64])
@pytest.mark.parametrize("lanes", [(), (3,)], ids=["lane-less", "stack"])
@pytest.mark.parametrize("action_dim", range(1, 10))
def test_score_and_gradient_set_match_the_oracle_bytes(action_dim, lanes, rows, hidden):
    # The head's log-probabilities, its weighted gradient and the gradient set
    # built from it reproduce the rows-major oracle byte for byte, with one
    # log-std held at its lower clamp. Past 7 actions np.sum adds the action
    # axis pairwise, not in order.
    rng = np.random.default_rng(100 * action_dim + rows)
    policy = GaussianPolicy(3, action_dim, hidden)
    count = int(np.prod(lanes))
    params = np.stack([policy.init_params(rng, 0.5, -0.5) for _ in range(count)])
    params[:, policy.net.num_params :] += rng.uniform(-1.0, 1.0, (count, action_dim))
    params[:, policy.net.num_params] = policy.log_std_min
    params = params.reshape(lanes + (-1,))
    states = rng.standard_normal(lanes + (rows, 3))
    actions = 2.0 * rng.standard_normal(lanes + (rows, action_dim))
    advantages = rng.standard_normal(lanes + (rows, 2))
    coeffs = advantages[..., 0] / rows
    log_probs, grad = policy.score(params, states, actions)
    want_log_probs, want_grad = _policy_score(policy, params, states, actions)
    assert log_probs.tobytes() == want_log_probs.tobytes()
    assert grad(coeffs).tobytes() == want_grad(coeffs).tobytes()
    batch = RolloutBatch(states=states, actions=actions, advantages=advantages,
                         returns=advantages, params=params, critic_params=np.zeros(lanes + (1,)),
                         workspace=hidden_workspace(hidden, lanes + (rows,)))
    for normalize in (True, False):
        got = estimate_gradient_set(policy, batch, normalize)
        assert got.tobytes() == gradient_set(policy, batch, normalize).tobytes(), normalize


def count_calls(owner, name, monkeypatch):
    """Record one entry per call of ``owner.<name>``."""
    calls = []
    method = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return method(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_mean_net_passes(policy, monkeypatch):
    return count_calls(policy.net, "forward", monkeypatch)


class TestScoringPasses:
    def setup_method(self):
        self.env = make_env("mo_quadratic")
        self.policy = GaussianPolicy(1, 2, hidden=8)
        self.critic = Network(1, 2, hidden=8)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_ppo_update_runs_mean_network_once_per_epoch(self, monkeypatch, epochs):
        # One policy pass and one critic pass per epoch.
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        policy_passes = count_calls(self.policy.net, "apply", monkeypatch)
        critic_passes = count_calls(self.critic, "apply", monkeypatch)
        forwards = count_mean_net_passes(self.policy, monkeypatch)
        ppo_update(self.policy, self.critic, batch, [0.5, 0.5], PolicyConfig(epochs=epochs))
        assert len(policy_passes) == epochs
        assert len(critic_passes) == epochs
        assert len(forwards) == 0

    def test_gradient_set_runs_mean_network_once(self, monkeypatch):
        _, _, batch = make_batch(self.env, self.policy, self.critic)
        calls = count_mean_net_passes(self.policy, monkeypatch)
        estimate_gradient_set(self.policy, batch, False)
        assert len(calls) == 1

    def test_collect_batch_runs_mean_network_once_per_step(self, monkeypatch):
        # One policy pass over the whole stack per rollout step, on layers
        # split once per rollout; the batch is not scored again afterwards.
        env = MoPoint(horizon=6)
        policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=8)
        critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden=8)
        rng = np.random.default_rng(0)
        params = np.stack([policy.init_params(rng, 0.1, -0.5) for _ in range(3)])
        critic_params = np.stack([critic.init_params(rng, 0.1) for _ in range(3)])
        forwards = count_mean_net_passes(policy, monkeypatch)
        steps = count_calls(policy.net, "apply", monkeypatch)
        splits = count_calls(policy.net, "split", monkeypatch)
        collect_batch(env, policy, params, critic, critic_params, 4,
                      [np.random.default_rng(lane) for lane in range(3)])
        assert len(forwards) == 0
        assert len(steps) == env.spec.horizon
        assert len(splits) == 1


class TestGAE:
    def test_lambda_zero_is_td_residual(self):
        critic = Network(2, 2, hidden=4)
        cp = critic.init_params(np.random.default_rng(7), weight_scale=0.5)
        states = np.random.default_rng(8).uniform(-1, 1, size=(4, 2))  # s_0..s_3
        rewards = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        V, _ = critic.forward(cp, states)
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
        self.critic = Network(1, 2, hidden=8)

    def test_zero_advantages_leave_policy_unchanged(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        zeroed = dataclasses.replace(batch, advantages=np.zeros_like(batch.advantages))
        new_params, new_critic = ppo_update(self.policy, self.critic, zeroed, [0.5, 0.5],
                                            PolicyConfig())
        np.testing.assert_array_equal(new_params, params)
        assert not np.array_equal(new_critic, critic_params)  # regression still runs

    def test_omega_of_the_wrong_width_named(self):
        # A valid 3-weight simplex against a 2-objective batch.
        _, _, batch = make_batch(self.env, self.policy, self.critic)
        with pytest.raises(ValueError,
                           match=r"omega has \(3,\) components, batch has 2 objectives"):
            ppo_update(self.policy, self.critic, batch, [0.2, 0.3, 0.5], PolicyConfig())

    def test_degenerate_weight_matches_single_objective(self):
        # omega = e_1 must ignore the other objective's advantages entirely
        # (normalization off isolates the raw signal).
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        garbled = batch.advantages.copy()
        garbled[:, 1] = np.random.default_rng(8).uniform(-9, 9, size=garbled.shape[0])
        raw = PolicyConfig(normalize_advantages=False)
        p1, _ = ppo_update(self.policy, self.critic, batch, [1.0, 0.0], raw)
        p2, _ = ppo_update(self.policy, self.critic,
                           dataclasses.replace(batch, advantages=garbled), [1.0, 0.0], raw)
        np.testing.assert_array_equal(p1, p2)

    def test_rows_with_only_other_objective_signal_contribute_nothing(self):
        params, critic_params, batch = make_batch(self.env, self.policy, self.critic)
        adv = batch.advantages.copy()
        adv[:5, 0] = 0.0  # these rows carry only objective-2 signal
        with_noise = dataclasses.replace(batch, advantages=adv)
        silenced = adv.copy()
        silenced[:5, 1] = 0.0
        raw = PolicyConfig(normalize_advantages=False)
        p1, _ = ppo_update(self.policy, self.critic, with_noise, [1.0, 0.0], raw)
        p2, _ = ppo_update(self.policy, self.critic,
                           dataclasses.replace(batch, advantages=silenced), [1.0, 0.0], raw)
        np.testing.assert_array_equal(p1, p2)

    def test_off_simplex_omega_rejected(self):
        _, _, batch = make_batch(self.env, self.policy, self.critic)
        with pytest.raises(ValueError):
            ppo_update(self.policy, self.critic, batch, [0.7, 0.7], PolicyConfig())
        with pytest.raises(ValueError):
            ppo_update(self.policy, self.critic, batch, [1.1, -0.1], PolicyConfig())

    def test_within_tolerance_omega_accepted(self):
        _, _, batch = make_batch(self.env, self.policy, self.critic)
        ppo_update(self.policy, self.critic, batch, [0.5 + 4e-7, 0.5 + 4e-7], PolicyConfig())

    def test_scalarized_return_trend_upwards(self):
        # Ten rounds of collect-and-update on fresh batches must not end
        # below the starting scalarized return (trend, not per step).
        env = self.env
        policy = GaussianPolicy(1, 2, hidden=32)
        critic = Network(1, 2, hidden=32)
        rng = np.random.default_rng(9)
        params = policy.init_params(rng, 0.1, -0.5)
        critic_params = critic.init_params(rng, 0.1)
        omega = np.array([0.5, 0.5])

        def scalarized(p):
            _, _, rewards, _ = run_episode(env, policy, p, [0])
            return float(omega @ mo_return(rewards[0], 1.0))

        start = scalarized(params)
        for _ in range(10):
            batch = collect_batch(env, policy, params, critic, critic_params, 32, rng)
            params, critic_params = ppo_update(policy, critic, batch, omega, PolicyConfig(lr=5e-3))
        assert scalarized(params) >= start

    def test_sgd_optimizer_runs_and_unknown_rejected(self):
        _, _, batch = make_batch(self.env, self.policy, self.critic)
        ppo_update(self.policy, self.critic, batch, [0.5, 0.5], PolicyConfig(optimizer="sgd"))
        # The config section is the one place an optimizer name is checked.
        with pytest.raises(ConfigError, match="policy.optimizer"):
            PolicyConfig(optimizer="rmsprop")


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf])


@st.composite
def row_arrays(draw):
    """An ``(..., rows, k)`` float array, lane-less or stacked, or a strided view of one.

    Magnitudes span 1e-12 to 1e12; a drawn share of the entries are signed
    zeros and infinities.
    """
    lanes = draw(st.sampled_from([(), (1,), (3,)]))
    rows = draw(st.sampled_from([1, 2, 7, 8, 9, 130, 300]))
    k = draw(st.sampled_from([1, 2, 3, 8, 33]))
    view = draw(st.sampled_from(["contiguous", "row-strided", "column-sliced",
                                 "rows-contiguous"]))
    shape = {"contiguous": (rows, k), "row-strided": (2 * rows, k),
             "column-sliced": (rows, k + 3), "rows-contiguous": (k, rows)}[view]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal(lanes + shape) * 10.0 ** rng.integers(-12, 13, lanes + shape)
    special = rng.random(base.shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    base[special] = rng.choice(_SPECIALS, special.sum())
    return {"contiguous": base, "row-strided": base[..., ::2, :],
            "column-sliced": base[..., 1 : k + 1],
            "rows-contiguous": base.swapaxes(-1, -2)}[view]


@settings(max_examples=200, deadline=None)
@given(row_arrays())
def test_row_sums_and_normalization_match_numpy_bit_for_bit(x):
    # One einsum pass adds the rows in np.sum's order; np.sum keeps the cases
    # it sums pairwise (a kept axis of 1, a contiguous rows axis).
    grad = np.full(x.shape[:-2] + (x.shape[-1] + 3,), np.nan)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        want = x.sum(axis=-2)
        got = _row_sum(x)
        _row_sum(x, grad[..., 2 : x.shape[-1] + 2])
        normalized, oracle = normalize_per_objective(x), normalize_mean_std(x)
    assert got.tobytes() == want.tobytes()
    assert grad[..., 2 : x.shape[-1] + 2].tobytes() == want.tobytes()
    assert normalized.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("lanes", [(), (3,)], ids=["lane-less", "stack"])
@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("hidden, action_dim", [(0, 2), (8, 2), (1, 2), (8, 1), (8, 3), (8, 8)],
                         ids=["0", "8", "1", "8-1d-action", "8-3d-action", "8-8d-action"])
def test_ppo_update_matches_allocating_oracle(hidden, action_dim, optimizer, normalize, lanes):
    # The buffered update reproduces the allocating one it replaced, byte for
    # byte, with one log-std component held at its lower clamp. A hidden
    # layer of 1 and a 1-D action give bias gradients that np.sum adds
    # pairwise over the batch's 20 rows; an 8-D action gives log-probabilities
    # that np.sum adds pairwise over the action axis.
    targets = [np.linspace(1.0, -0.5, action_dim), np.linspace(-0.5, 1.0, action_dim)]
    env = MoPoint(horizon=5) if action_dim == 2 else MoQuadratic(targets, gamma=0.99)
    episodes = 20 // env.spec.horizon
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden)
    rng = np.random.default_rng(21)
    count = int(np.prod(lanes))
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(count)])
    params[:, policy.net.num_params] = policy.log_std_min
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(count)])
    params, critic_params = params.reshape(lanes + (-1,)), critic_params.reshape(lanes + (-1,))
    rngs = rng if not lanes else [np.random.default_rng(lane) for lane in range(count)]
    batch = collect_batch(env, policy, params, critic, critic_params, episodes, rngs)
    omega = np.broadcast_to([0.3, 0.7], lanes + (2,))
    update = PolicyConfig(hidden=hidden, lr=0.05, epochs=3, optimizer=optimizer,
                          normalize_advantages=normalize)
    got = ppo_update(policy, critic, batch, omega, update)
    want = ppo_update_allocating(policy, critic, batch, omega, update)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    clamped = policy.net.num_params
    assert got[0][..., clamped].tobytes() == params[..., clamped].tobytes()


@pytest.mark.parametrize("lanes", [(), (3,)], ids=["lane-less", "stack"])
@pytest.mark.parametrize("hidden", [0, 1, 8])
@pytest.mark.parametrize("action_dim", [1, 2, 3, 8])
def test_float32_passes_match_the_oracle_bytes(action_dim, hidden, lanes):
    # With float32 params every pass, backprop and head computes in float32
    # and gives the bytes of the oracles run at float32; the gradient set
    # comes back as float64. A hidden layer of 1, a 1-D and an 8-D action
    # take the np.sum branches of the row sums.
    rng = np.random.default_rng(10 * action_dim + hidden)
    policy = GaussianPolicy(3, action_dim, hidden)
    net, k, count = policy.net, policy.net.num_params, int(np.prod(lanes))
    params = np.stack([policy.init_params(rng, 0.5, -0.5) for _ in range(count)])
    params[:, k:] += rng.uniform(-1.0, 1.0, (count, action_dim))
    params[:, k] = policy.log_std_min
    params = params.reshape(lanes + (-1,)).astype(np.float32)
    rows = 64
    states = rng.standard_normal(lanes + (rows, 3)).astype(np.float32)
    actions = 2.0 * rng.standard_normal(lanes + (rows, action_dim)).astype(np.float32)
    d_out = rng.standard_normal(lanes + (rows, action_dim)).astype(np.float32)
    advantages = rng.standard_normal(lanes + (rows, 2))

    mu, cache = net.forward(params[..., :k], states)
    want_mu, layers, hid = _net_forward(net, params[..., :k], states)
    assert mu.dtype == np.float32 and mu.tobytes() == want_mu.tobytes()
    assert hid is None or cache[2].tobytes() == hid.tobytes()
    grad = net.backprop(cache, d_out)
    assert grad.dtype == np.float32
    assert grad.tobytes() == _net_backprop(net, layers, states, hid, d_out).tobytes()

    log_probs, score_grad = policy.score(params, states, actions)
    want_log_probs, want_grad = _policy_score(policy, params, states, actions)
    coeffs = advantages[..., 0] / rows
    assert log_probs.dtype == np.float32 and log_probs.tobytes() == want_log_probs.tobytes()
    got = score_grad(coeffs)
    assert got.dtype == np.float32 and got.tobytes() == want_grad(coeffs).tobytes()

    batch = RolloutBatch(states=states, actions=actions, advantages=advantages,
                         returns=advantages, params=params,
                         critic_params=np.zeros(lanes + (1,), np.float32),
                         workspace=hidden_workspace(hidden, lanes + (rows,), np.float32))
    for normalize in (True, False):
        G = estimate_gradient_set(policy, batch, normalize)
        assert G.dtype == np.float64
        assert G.tobytes() == gradient_set(policy, batch, normalize).tobytes(), normalize


@pytest.mark.parametrize("rows", [1, 32, 150])
@pytest.mark.parametrize("lanes", [(), (8,), (2, 3)], ids=["lane-less", "stack", "grid"])
@pytest.mark.parametrize("hidden", [0, 1, 32])
@pytest.mark.parametrize("in_dim", [1, 3])
@pytest.mark.parametrize("states_dtype, params_dtype",
                         [(np.float32, np.float32), (np.float64, np.float64),
                          (np.float64, np.float32)], ids=["float32", "float64", "rollout"])
def test_length_one_products_match_the_matmul_oracle(states_dtype, params_dtype, in_dim, hidden,
                                                     lanes, rows):
    # A one-input first layer or linear map, and a hidden-1 output layer,
    # contract over one value; each pass gives the plain-@ oracle's bytes,
    # its hidden layer included. Zero states (quad's are all zero) and
    # biases with exact -0.0 entries keep the sign of each zero product:
    # a matmul adds it to +0.0, so 0.0 * w and -0.0 * w come out +0.0.
    rng = np.random.default_rng(100 * in_dim + hidden + rows)
    net = Network(in_dim, 2, hidden)
    params = (0.5 * rng.standard_normal(lanes + (net.num_params,))).astype(params_dtype)
    for _, bias in net.split(params):
        bias[..., 0::2] = -0.0
        bias[..., 1::4] = 0.0
    states = rng.standard_normal(lanes + (rows, in_dim)).astype(states_dtype)
    states[..., 0::3, :] = 0.0
    states[..., 1::3, :] = -0.0

    out, (_, _, hid) = net.forward(params, states)
    want_out, _, want_hid = _net_forward(net, params, states)
    assert out.dtype == want_out.dtype == params_dtype
    assert out.tobytes() == want_out.tobytes()
    assert hid.shape == lanes + (rows, hidden)
    assert want_hid is None or hid.tobytes() == want_hid.tobytes()


@pytest.mark.parametrize("lanes", [(), (3,)], ids=["lane-less", "stack"])
@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("hidden, action_dim", [(0, 2), (8, 2), (1, 2), (8, 1), (8, 8)],
                         ids=["0", "8", "1", "8-1d-action", "8-8d-action"])
def test_float32_ppo_update_matches_allocating_oracle(hidden, action_dim, optimizer, normalize,
                                                      lanes):
    # The float32 update, its optimizer state included, reproduces the
    # allocating oracle run on the same float32 batch, byte for byte.
    targets = [np.linspace(1.0, -0.5, action_dim), np.linspace(-0.5, 1.0, action_dim)]
    env = MoPoint(horizon=5) if action_dim == 2 else MoQuadratic(targets, gamma=0.99)
    episodes = 20 // env.spec.horizon
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden)
    rng = np.random.default_rng(22)
    count = int(np.prod(lanes))
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(count)])
    params[:, policy.net.num_params] = policy.log_std_min
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(count)])
    params = params.reshape(lanes + (-1,)).astype(np.float32)
    critic_params = critic_params.reshape(lanes + (-1,)).astype(np.float32)
    rngs = rng if not lanes else [np.random.default_rng(lane) for lane in range(count)]
    batch = collect_batch(env, policy, params, critic, critic_params, episodes, rngs)
    omega = np.broadcast_to([0.3, 0.7], lanes + (2,))
    update = PolicyConfig(hidden=hidden, lr=0.05, epochs=3, optimizer=optimizer,
                          normalize_advantages=normalize)
    got = ppo_update(policy, critic, batch, omega, update)
    want = ppo_update_allocating(policy, critic, batch, omega, update)
    assert got[0].dtype == got[1].dtype == np.float32
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[0].tobytes() != params.tobytes()


def test_trainer_passes_stay_in_the_network_dtype(monkeypatch):
    # One collect into the trainer's workspace at the point workload's
    # shapes, then the batch's gradient set and update. Every network-side
    # array stays float32 and every learning signal the solver, GAE and the
    # archive read stays float64. A silent upcast would keep every output
    # valid and only cost the speed, so nothing else would catch it.
    cfg = resolve_config({"experiment": "dtype", "env": {"name": "mo_point"},
                          "evolution": {"M": 2, "p": 4, "m_w": 5, "m_iters": 5}})
    trainer = build_trainer(cfg, 0)
    policy, critic, workspace = trainer.policy, trainer.critic, trainer.workspace
    rng = np.random.default_rng(0)
    params = np.stack([policy.init_params(rng, 0.1, -0.5) for _ in range(4)],
                      dtype=NETWORK_DTYPE)
    critic_params = np.stack([critic.init_params(rng, 0.1) for _ in range(4)],
                             dtype=NETWORK_DTYPE)
    assert NETWORK_DTYPE == np.float32 and workspace.dtype == np.float32
    gae_inputs = []

    def recording_gae(rewards, values, last_values, gamma, lam):
        gae_inputs.append((rewards.dtype, values.dtype, last_values.dtype))
        return gae(rewards, values, last_values, gamma, lam)

    monkeypatch.setattr(policy_module, "gae", recording_gae)
    batch = collect_batch(trainer.env, policy, params, critic, critic_params,
                          cfg.policy.batch_episodes, [np.random.default_rng(k) for k in range(4)],
                          workspace)
    G = estimate_gradient_set(policy, batch, cfg.policy.normalize_advantages)
    new_params, new_critic = ppo_update(policy, critic, batch, np.full((4, 2), 0.5), cfg.policy)
    for name, array in (("params", new_params), ("critic_params", new_critic),
                        ("states", batch.states), ("actions", batch.actions),
                        ("batch.workspace", batch.workspace),
                        ("batch.params", batch.params), ("workspace", workspace)):
        assert array.dtype == np.float32, name
    assert np.shares_memory(batch.workspace, workspace)
    assert gae_inputs == [(np.dtype(np.float64),) * 3]
    for name, array in (("advantages", batch.advantages), ("returns", batch.returns),
                        ("G", G), ("objectives", trainer.evaluate(new_params))):
        assert array.dtype == np.float64, name
    assert G.shape == (4, 2, policy.num_params)

    # The trainer casts every lane's start, so each of its updates runs on float32.
    updated = []

    def recording(policy, critic, batch, *args):
        updated.append((batch.params.dtype, batch.critic_params.dtype))
        return ppo_update(policy, critic, batch, *args)

    monkeypatch.setattr(evolution, "ppo_update", recording)
    state = trainer.run_training()
    assert updated and set(updated) == {(np.dtype(np.float32),) * 2}
    assert {(e.params.dtype, e.critic_params.dtype) for e in state.archive} == {
        (np.dtype(np.float32),) * 2}


@pytest.mark.parametrize("hidden", [0, 8])
@pytest.mark.parametrize("lanes", [(), (3,)], ids=["lane-less", "stack"])
def test_bootstrap_values_are_the_critic_pass_over_cast_final_states(monkeypatch, lanes, hidden):
    # mo_point's horizon is a time limit, so GAE bootstraps from the critic
    # at the rollout's float64 final states. collect_batch casts them to the
    # critic params' dtype before that pass; a float64 first layer into
    # float32 weights gives other bytes, so every run would train otherwise.
    env = make_env("mo_point")
    assert env.spec.truncated
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden)
    rng = np.random.default_rng(3)
    count = int(np.prod(lanes))
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(count)],
                      dtype=NETWORK_DTYPE).reshape(lanes + (-1,))
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(count)],
                             dtype=NETWORK_DTYPE).reshape(lanes + (-1,))
    rollouts, bootstraps = [], []

    def recording_run_episode(*args):
        rollouts.append(run_episode(*args))
        return rollouts[-1]

    def recording_gae(rewards, values, last_values, gamma, lam):
        bootstraps.append(last_values)
        return gae(rewards, values, last_values, gamma, lam)

    monkeypatch.setattr(policy_module, "run_episode", recording_run_episode)
    monkeypatch.setattr(policy_module, "gae", recording_gae)
    rngs = rng if not lanes else [np.random.default_rng(lane) for lane in range(count)]
    collect_batch(env, policy, params, critic, critic_params, 4, rngs)
    (*_, final_states), = rollouts
    (last_values,) = bootstraps
    assert final_states.dtype == np.float64
    cast, _ = critic.forward(critic_params, final_states.astype(NETWORK_DTYPE))
    uncast, _ = critic.forward(critic_params, final_states)
    assert last_values.dtype == np.float64 and last_values.shape == lanes + (4, 2)
    assert last_values.tobytes() == cast.astype(np.float64).tobytes()
    assert last_values.tobytes() != uncast.astype(np.float64).tobytes()


@pytest.mark.parametrize("hidden", [0, 8])
def test_network_init_params_is_the_one_initial_draw(hidden):
    # A policy's initial params are its mean network's draw, then one
    # log-std per action; a critic's are the network's draw, weight_scale
    # times standard normals. Same generator seed, same bytes.
    policy = GaussianPolicy(4, 3, hidden)
    got = policy.init_params(np.random.default_rng(11), 0.3, -0.7)
    want = np.concatenate([policy.net.init_params(np.random.default_rng(11), 0.3),
                           np.full(3, -0.7)])
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    critic = Network(4, 2, hidden)
    draw = 0.3 * np.random.default_rng(12).standard_normal(critic.num_params)
    assert critic.init_params(np.random.default_rng(12), 0.3).tobytes() == draw.tobytes()


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("hidden", [0, 8])
def test_ppo_update_leaves_its_inputs_and_batch_untouched(hidden, optimizer):
    # The update steps its own copies of the batch's snapshot in place, so
    # a second call on the same inputs returns the same bytes. Only the
    # batch's hidden-layer buffers, ``workspace``, are the update's to write.
    env = MoPoint(horizon=5)
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden)
    rng = np.random.default_rng(3)
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(2)])
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(2)])
    batch = collect_batch(env, policy, params, critic, critic_params, 4,
                          [np.random.default_rng(lane) for lane in range(2)])
    inputs = {"params": params, "critic_params": critic_params,
              **{f"batch.{f.name}": getattr(batch, f.name) for f in dataclasses.fields(batch)
                 if f.name != "workspace"}}
    before = {name: a.tobytes() for name, a in inputs.items()}
    assert batch.workspace.shape == (3, 2, 4 * env.spec.horizon, hidden)
    update = PolicyConfig(hidden=hidden, lr=0.05, epochs=3, optimizer=optimizer)
    omega = [[0.3, 0.7], [0.6, 0.4]]
    first = ppo_update(policy, critic, batch, omega, update)
    second = ppo_update(policy, critic, batch, omega, update)
    for name, a in inputs.items():
        assert a.tobytes() == before[name], name
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()
    assert first[0].tobytes() != params.tobytes()
    assert first[1].tobytes() != critic_params.tobytes()


@pytest.mark.parametrize("lanes", [(), (2,)], ids=["lane-less", "stack"])
def test_batch_keeps_its_snapshot_when_the_callers_params_change(lanes):
    # The batch carries copies of the snapshot it was collected under, so
    # writing into the caller's params and critic params afterwards leaves
    # the gradient set and the update as they were, bit for bit.
    env = MoPoint(horizon=5)
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=8)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden=8)
    rng = np.random.default_rng(4)
    count = int(np.prod(lanes))
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(count)]).reshape(
        lanes + (-1,))
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(count)]).reshape(
        lanes + (-1,))
    rngs = rng if not lanes else [np.random.default_rng(lane) for lane in range(count)]
    batch = collect_batch(env, policy, params, critic, critic_params, 3, rngs)
    omega = np.broadcast_to([0.4, 0.6], lanes + (2,))
    update = PolicyConfig(hidden=8, lr=0.05, epochs=3)

    def results():
        G = estimate_gradient_set(policy, batch, True)
        new_params, new_critic = ppo_update(policy, critic, batch, omega, update)
        return G.tobytes(), new_params.tobytes(), new_critic.tobytes()

    want = results()
    params += 0.5
    critic_params *= -1.0
    assert results() == want


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
def test_workspace_passes_match_allocating_calls(normalize):
    # A batch collected into the first 3 lanes of a 5-lane workspace gives
    # the bytes of one whose collect made its own buffers, and so do its
    # gradient set and update, which write into the batch's buffers. The
    # second collect writes into the same workspace as the first, and each
    # batch's update runs straight after its own collect, as the trainer
    # runs them.
    env = MoPoint(horizon=5)
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=8)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden=8)
    rng = np.random.default_rng(8)
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(3)])
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(3)])
    episodes = 4
    workspace = hidden_workspace(8, (5, episodes * env.spec.horizon))[:, :3]
    update = PolicyConfig(hidden=8, lr=0.05, epochs=3, normalize_advantages=normalize)
    omega = [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]]
    for draw in range(2):
        def rngs():
            return [np.random.default_rng([draw, lane]) for lane in range(3)]

        want = collect_batch(env, policy, params, critic, critic_params, episodes, rngs())
        got = collect_batch(env, policy, params, critic, critic_params, episodes, rngs(),
                            workspace)
        assert np.shares_memory(got.workspace, workspace)
        assert not np.shares_memory(want.workspace, workspace)
        assert got.workspace[0].tobytes() == want.workspace[0].tobytes()
        for field in dataclasses.fields(want):
            if field.name != "workspace":
                assert getattr(got, field.name).tobytes() == getattr(want, field.name).tobytes()
        G = estimate_gradient_set(policy, got, normalize)
        assert G.tobytes() == estimate_gradient_set(policy, want, normalize).tobytes()
        new = ppo_update(policy, critic, got, omega, update)
        old = ppo_update(policy, critic, want, omega, update)
        assert new[0].tobytes() == old[0].tobytes()
        assert new[1].tobytes() == old[1].tobytes()
        params, critic_params = new


def test_rollout_batch_rejects_each_field_that_disagrees_with_states():
    env = MoPoint(horizon=3)
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=4)
    critic = Network(env.spec.state_dim, env.spec.num_objectives, hidden=4)
    rng = np.random.default_rng(6)
    params = np.stack([policy.init_params(rng, 0.3, -0.5) for _ in range(2)])
    critic_params = np.stack([critic.init_params(rng, 0.3) for _ in range(2)])
    batch = collect_batch(env, policy, params, critic, critic_params, 2,
                          [np.random.default_rng(lane) for lane in range(2)])
    with pytest.raises(ValueError, match="empty rollout batch"):
        dataclasses.replace(batch, states=batch.states[:, :0])
    bad = {name: getattr(batch, name)[:, 1:]
           for name in ("actions", "advantages", "returns")}
    bad["workspace"] = batch.workspace[..., 1:, :]  # one row short in every lane
    bad["params"] = batch.params[:1]  # one lane where states has two
    bad["critic_params"] = batch.critic_params[0]  # lane-less against a stack
    for name, value in bad.items():
        with pytest.raises(ValueError, match=f"batch field {name} disagrees"):
            dataclasses.replace(batch, **{name: value})


class TestRollouts:
    @pytest.mark.parametrize("seeds", [[], np.empty((2, 0), dtype=int)], ids=["flat", "lanes"])
    def test_run_episode_rejects_empty_seeds(self, seeds):
        env = make_env("mo_point")
        policy = GaussianPolicy(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(11), 0.1, -0.5)
        with pytest.raises(ValueError, match="need at least one episode"):
            run_episode(env, policy, params, seeds)

    def test_batch_under_snapshot_is_reproducible(self):
        env = make_env("mo_point")
        policy = GaussianPolicy(4, 2, hidden=8)
        critic = Network(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(10), 0.1, -0.5)
        cp = critic.init_params(np.random.default_rng(10), 0.1)
        b1 = collect_batch(env, policy, params, critic, cp, 3, np.random.default_rng(55))
        b2 = collect_batch(env, policy, params, critic, cp, 3, np.random.default_rng(55))
        np.testing.assert_array_equal(b1.states, b2.states)
        np.testing.assert_array_equal(b1.actions, b2.actions)
        np.testing.assert_array_equal(b1.advantages, b2.advantages)

    def test_trajectories_respect_horizon_and_chain(self):
        env = make_env("mo_point")
        policy = GaussianPolicy(4, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(11), 0.1, 1.0)
        noise = np.random.default_rng(1).standard_normal((3, env.spec.horizon, 2))
        states, raw, rewards, final = run_episode(env, policy, params, [4, 5, 6], noise)
        T = env.spec.horizon
        assert states.shape == (3, T, 4) and raw.shape == (3, T, 2) and rewards.shape == (3, T, 2)
        # Each step starts where the previous one ended.
        next_states, _ = env_step(env, states, raw)
        np.testing.assert_array_equal(next_states[:, :-1], states[:, 1:])
        np.testing.assert_array_equal(next_states[:, -1], final)
        # Raw actions may exceed the bounds; the applied ones never do, so the
        # energy reward never drops below its value at a box corner.
        assert np.any(np.abs(raw) > env.spec.action_high)
        corner_energy = -np.sum(env.spec.action_high**2) + env.r_alive + env.shift
        assert np.all(rewards[..., 1] >= corner_energy - 1e-12)

    @pytest.mark.parametrize("name", ["mo_point", "mo_quadratic3"])
    def test_lockstep_matches_per_lane_step_loop(self, name):
        # Reference: each lane alone, its episodes stepped together by
        # the policy's mean and noise and env_step. A lane of the rollout
        # computes exactly that, its rewards byte for byte.
        env = make_env(name)
        spec = env.spec
        policy = GaussianPolicy(spec.state_dim, spec.action_dim, hidden=8)
        rng = np.random.default_rng(12)
        stack = np.stack([policy.init_params(rng, 0.5, -0.5) for _ in range(3)])
        lane_seeds = np.array([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [5, 8, 9, 7, 9]])
        cases = [(stack[0], lane_seeds[0]), (stack, lane_seeds[0]), (stack, lane_seeds)]
        for params, seeds in cases:
            lanes = params.shape[:-1]
            noise = rng.standard_normal(lanes + (5, spec.horizon, spec.action_dim))
            for eps in (noise, None):
                got = run_episode(env, policy, params, seeds, eps)
                for lane in np.ndindex(lanes):
                    lane_eps = None if eps is None else eps[lane]
                    state = env.reset(seeds if seeds.ndim == 1 else seeds[lane])
                    states, actions, rewards = [], [], []
                    for t in range(spec.horizon):
                        action = gaussian_act(policy, params[lane], state,
                                              None if lane_eps is None else lane_eps[:, t])
                        states.append(state)
                        actions.append(action)
                        state, reward = env_step(env, state, action)
                        rewards.append(reward)
                    want = (np.stack(states, 1), np.stack(actions, 1), np.stack(rewards, 1),
                            state)
                    for got_field, want_field in zip(got, want, strict=True):
                        np.testing.assert_array_equal(got_field[lane], want_field)
                    assert got[2][lane].tobytes() == want[2].tobytes()
                # The rollout's one rewards call over the whole trajectory
                # gives C-order rewards, and the same bytes from contiguous
                # copies of its inputs.
                states, actions, rewards, final = got
                assert rewards.flags.c_contiguous
                next_states = np.concatenate([states[..., 1:, :], final[..., None, :]], axis=-2)
                trajectory = (states, env.clamp(actions), next_states)
                assert env.rewards(*map(np.ascontiguousarray, trajectory)).tobytes() == \
                    rewards.tobytes()

    @staticmethod
    def check_against_plain_loop(env, tail_from_critic):
        # Reference: the documented order written as a plain loop. The
        # generator gives every reset seed, then one (episodes, T, a) noise
        # block; each episode is stepped alone from its own reset, and GAE
        # discounts with the env's gamma. After the last step the tail is
        # the critic's value of the final state or zero, as the caller says.
        spec = env.spec
        T, a = spec.horizon, spec.action_dim
        policy = GaussianPolicy(spec.state_dim, a, hidden=8)
        critic = Network(spec.state_dim, spec.num_objectives, hidden=8)
        params = policy.init_params(np.random.default_rng(13), 0.1, -0.5)
        cp = critic.init_params(np.random.default_rng(14), 0.1)
        rng = np.random.default_rng(15)
        batch = collect_batch(env, policy, params, critic, cp, 3, rng)
        ref_rng = np.random.default_rng(15)
        seeds = ref_rng.integers(0, 2**31 - 1, size=3)
        noise = ref_rng.standard_normal((3, T, a))
        std = np.exp(policy.log_std(params))
        states, actions, advantages = [], [], []
        for e in range(3):
            state = env.reset(int(seeds[e]))
            ep_states, ep_rewards = [], []
            for t in range(T):
                action = gaussian_act(policy, params, state)[0] + std * noise[e, t]
                ep_states.append(state)
                actions.append(action)
                state, reward = env_step(env, state, action)
                ep_rewards.append(reward)
            values, _ = critic.forward(cp, np.array(ep_states))
            tail = critic.forward(cp, state[None])[0] if tail_from_critic \
                else np.zeros((1, spec.num_objectives))
            advantages.append(gae(np.array(ep_rewards)[None], values[None], tail, spec.gamma,
                                  _GAE_LAMBDA)[0])
            states.extend(ep_states)
        np.testing.assert_allclose(batch.states, states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.actions, actions, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.advantages, np.concatenate(advantages),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batch.returns - batch.advantages,
                                   critic.forward(cp, batch.states)[0], rtol=0, atol=1e-12)
        assert rng.integers(0, 2**31 - 1) == ref_rng.integers(0, 2**31 - 1)

    def test_collect_batch_draws_all_seeds_then_one_noise_block(self):
        # mo_point's horizon is a time limit: bootstrap from the critic.
        self.check_against_plain_loop(make_env("mo_point", horizon=5, gamma=0.9), True)

    def test_collect_batch_gives_a_true_end_a_zero_tail(self):
        # mo_quadratic's one step is a true end: nothing follows the last state.
        self.check_against_plain_loop(make_env("mo_quadratic", gamma=0.9), False)

    def test_one_reset_per_rollout_and_two_draws_per_lane(self, monkeypatch):
        env = make_env("mo_point", horizon=4)
        policy = GaussianPolicy(4, 2, hidden=8)
        critic = Network(4, 2, hidden=8)
        rng = np.random.default_rng(17)
        params = np.stack([policy.init_params(rng, 0.1, -0.5) for _ in range(3)])
        cp = np.stack([critic.init_params(rng, 0.1) for _ in range(3)])
        resets = []
        reset = env.reset

        def counting_reset(seeds):
            resets.append(np.shape(seeds))
            return reset(seeds)

        monkeypatch.setattr(env, "reset", counting_reset)
        run_episode(env, policy, params, [0, 1, 2, 3])
        run_episode(env, policy, params[0], np.arange(5))
        assert resets == [(4,), (5,)]

        lanes = [CountingGenerator(lane) for lane in range(3)]
        collect_batch(env, policy, params, critic, cp, 6, lanes)
        assert resets[2:] == [(3, 6)]
        assert [lane.calls for lane in lanes] == [["integers", "standard_normal"]] * 3
        lone = CountingGenerator(3)
        collect_batch(env, policy, params[0], critic, cp[0], 6, lone)
        assert lone.calls == ["integers", "standard_normal"]
