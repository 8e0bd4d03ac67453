"""Stochastic policies, per-objective gradients, and the scalarized PPO update.

The policy is a diagonal Gaussian whose mean comes from a linear map or a
one-hidden-layer tanh network; all parameters live in a single flat vector
so per-objective policy gradients stack into an (m, d) matrix. Gradients
are computed analytically (closed-form backprop), which keeps them exactly
finite-difference-checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .momdp import MOMDPEnv
from .pareto import validate_weights

__all__ = [
    "GaussianPolicy",
    "RolloutBatch",
    "VectorCritic",
    "collect_batch",
    "estimate_gradient_set",
    "gae",
    "normalize_per_objective",
    "ppo_update",
    "run_episode",
]

_LOG_2PI = math.log(2.0 * math.pi)


class _MeanNet:
    """Flat-vector linear or one-hidden-layer tanh network with backprop."""

    def __init__(self, in_dim: int, out_dim: int, hidden: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        if hidden > 0:
            self.num_params = hidden * in_dim + hidden + out_dim * hidden + out_dim
        else:
            self.num_params = out_dim * in_dim + out_dim

    def split(self, params: np.ndarray):
        if self.hidden > 0:
            h, s, a = self.hidden, self.in_dim, self.out_dim
            i = 0
            w1 = params[i : i + h * s].reshape(h, s); i += h * s
            b1 = params[i : i + h]; i += h
            w2 = params[i : i + a * h].reshape(a, h); i += a * h
            b2 = params[i : i + a]; i += a
            return w1, b1, w2, b2
        a, s = self.out_dim, self.in_dim
        return params[: a * s].reshape(a, s), params[a * s : a * s + a]

    def forward(self, params: np.ndarray, states: np.ndarray):
        """Return (outputs, cache-for-backprop) for a batch of states."""
        if self.hidden > 0:
            w1, b1, w2, b2 = self.split(params)
            hid = np.tanh(states @ w1.T + b1)
            return hid @ w2.T + b2, hid
        w, b = self.split(params)
        return states @ w.T + b, None

    def backprop(self, params: np.ndarray, states: np.ndarray, cache, d_out: np.ndarray):
        """Flat gradient of ``sum(d_out * outputs)`` w.r.t. the parameters."""
        grad = np.empty(self.num_params)
        if self.hidden > 0:
            _, _, w2, _ = self.split(params)
            hid = cache
            d_hid = (d_out @ w2) * (1.0 - hid * hid)
            h, s, a = self.hidden, self.in_dim, self.out_dim
            i = 0
            grad[i : i + h * s] = (d_hid.T @ states).ravel(); i += h * s
            grad[i : i + h] = d_hid.sum(axis=0); i += h
            grad[i : i + a * h] = (d_out.T @ hid).ravel(); i += a * h
            grad[i : i + a] = d_out.sum(axis=0)
            return grad
        a, s = self.out_dim, self.in_dim
        grad[: a * s] = (d_out.T @ states).ravel()
        grad[a * s :] = d_out.sum(axis=0)
        return grad


class GaussianPolicy:
    """Diagonal Gaussian over actions; mean from a small network.

    The flat parameter vector is [mean-network weights..., log_std], with
    one log standard deviation per action dimension, clamped into
    ``[log_std_min, log_std_max]`` when used.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden: int = 32,
        log_std_min: float = -5.0,
        log_std_max: float = 2.0,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.hidden = hidden
        self.log_std_min = log_std_min
        self.log_std_max = log_std_max
        self.net = _MeanNet(state_dim, action_dim, hidden)
        self.num_params = self.net.num_params + action_dim

    def init_params(self, rng: np.random.Generator, weight_scale: float = 0.1,
                    log_std_init: float = -0.5) -> np.ndarray:
        params = np.empty(self.num_params)
        params[: self.net.num_params] = weight_scale * rng.standard_normal(self.net.num_params)
        params[self.net.num_params :] = log_std_init
        return params

    def _net_params(self, params: np.ndarray) -> np.ndarray:
        return params[: self.net.num_params]

    def log_std(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params[self.net.num_params :], self.log_std_min, self.log_std_max)

    def mean(self, params: np.ndarray, states: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward(self._net_params(params), np.atleast_2d(states))
        return out

    def act(self, params: np.ndarray, states: np.ndarray,
            noise: np.ndarray | None = None) -> np.ndarray:
        """Actions for a batch of states: the mean, shifted by ``std * noise`` if given.

        ``noise`` holds one row of standard-normal draws per state; without
        it the policy acts deterministically.
        """
        mu = self.mean(params, states)
        if noise is None:
            return mu
        return mu + np.exp(self.log_std(params)) * noise

    def score(self, params: np.ndarray, states: np.ndarray, actions: np.ndarray):
        """Log-probabilities of ``actions`` and their weighted score, from one forward pass.

        Returns ``(log_probs, grad)``: the (n,) values of ``log pi(actions[t] |
        states[t])`` and a function ``grad(coeffs)`` giving the flat gradient
        of ``sum_t coeffs[t] * log pi(actions[t] | states[t])``.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        net_params = self._net_params(params)
        mu, cache = self.net.forward(net_params, states)
        raw = params[self.net.num_params :]
        log_std = np.clip(raw, self.log_std_min, self.log_std_max)
        residual = actions - mu
        zscores = residual / np.exp(log_std)
        log_probs = -0.5 * np.sum(zscores * zscores, axis=1) - log_std.sum() \
            - 0.5 * self.action_dim * _LOG_2PI
        inv_var = np.exp(-2.0 * log_std)
        # d logp / d log_std_j = z_j^2 - 1; zero where the clamp is active.
        zsq_minus_one = residual * residual * inv_var - 1.0
        active = (raw > self.log_std_min) & (raw < self.log_std_max)

        def grad(coeffs) -> np.ndarray:
            coeffs = np.asarray(coeffs, dtype=float)
            out = np.empty(self.num_params)
            d_mu = coeffs[:, None] * residual * inv_var
            out[: self.net.num_params] = self.net.backprop(net_params, states, cache, d_mu)
            out[self.net.num_params :] = np.where(active, coeffs @ zsq_minus_one, 0.0)
            return out

        return log_probs, grad


class VectorCritic:
    """State-value network with one output head per objective."""

    def __init__(self, state_dim: int, num_objectives: int, hidden: int = 32):
        self.state_dim = state_dim
        self.num_objectives = num_objectives
        self.hidden = hidden
        self.net = _MeanNet(state_dim, num_objectives, hidden)
        self.num_params = self.net.num_params

    def init_params(self, rng: np.random.Generator, weight_scale: float = 0.1) -> np.ndarray:
        return weight_scale * rng.standard_normal(self.num_params)

    def values(self, params: np.ndarray, states) -> np.ndarray:
        out, _ = self.net.forward(params, np.atleast_2d(np.asarray(states, dtype=float)))
        return out

    def mse_grad(self, params: np.ndarray, states: np.ndarray,
                 targets: np.ndarray) -> tuple[np.ndarray, float]:
        """Gradient and value of ``0.5 * mean((V(s) - target)^2)``."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        values, cache = self.net.forward(params, states)
        err = (values - targets) / values.size
        grad = self.net.backprop(params, states, cache, err)
        loss = 0.5 * float(np.sum((values - targets) ** 2)) / values.size
        return grad, loss


@dataclass
class RolloutBatch:
    """Per-step learning signals of a batch, episodes concatenated in order.

    ``actions`` are the raw sampled actions (before environment clamping);
    log-probabilities refer to them under the collecting policy snapshot.
    Advantages and return targets carry one component per objective.
    """

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        n = self.states.shape[0]
        if n == 0:
            raise ValueError("empty rollout batch")
        for name in ("actions", "log_probs", "advantages", "returns"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"batch field {name} disagrees in length")


def gae(rewards: np.ndarray, values: np.ndarray, last_values: np.ndarray,
        gamma: float, lam: float) -> np.ndarray:
    """Per-objective generalized advantage estimates, shape (B, T, m).

    ``rewards`` and ``values`` (the critic at each step's state) are
    (B, T, m); ``last_values`` (B, m) is the bootstrap after the last step:
    the critic at the final state of a horizon-truncated episode, zero for
    a terminal one. Each objective is treated independently.
    """
    next_values = np.concatenate([values[:, 1:], last_values[:, None]], axis=1)
    deltas = rewards + gamma * next_values - values
    advantages = np.empty_like(deltas)
    carry = np.zeros_like(last_values)
    for t in range(rewards.shape[1] - 1, -1, -1):
        carry = deltas[:, t] + gamma * lam * carry
        advantages[:, t] = carry
    return advantages


def run_episode(env: MOMDPEnv, policy: GaussianPolicy, params: np.ndarray,
                seeds, noise: np.ndarray | None = None):
    """Roll one episode per reset seed, all B of them in lockstep over the horizon.

    ``noise`` (B, T, action_dim) holds the standard-normal draws of a
    stochastic rollout; without it the policy acts with its mean. Returns
    ``(states, actions, rewards, final_states, terminal)``: the (B, T, ·)
    states, raw sampled actions (the environment clamps them) and rewards,
    then the (B, state_dim) states after the last step and their (B,)
    terminal flags. An episode that ends before the horizon is an error.
    """
    spec = env.spec
    T = spec.horizon
    if len(seeds) == 0:
        raise ValueError("need at least one episode")
    state = np.stack([env.reset(seed) for seed in seeds])
    B = state.shape[0]
    states = np.empty((B, T, spec.state_dim))
    actions = np.empty((B, T, spec.action_dim))
    rewards = np.empty((B, T, spec.num_objectives))
    for t in range(T):
        states[:, t] = state
        actions[:, t] = policy.act(params, state, None if noise is None else noise[:, t])
        state, rewards[:, t], terminal = env.step(state, actions[:, t])
        if t < T - 1 and np.any(terminal):
            raise ValueError(f"an episode ended after {t + 1} steps, before the horizon {T}")
    return states, actions, rewards, state, terminal


def collect_batch(env: MOMDPEnv, policy: GaussianPolicy, params: np.ndarray,
                  critic: VectorCritic, critic_params: np.ndarray,
                  episodes: int, gamma: float, lam: float,
                  rng: np.random.Generator) -> RolloutBatch:
    """Collect ``episodes`` episodes under one policy snapshot.

    ``rng`` is consumed episode by episode: the reset seed, then the
    episode's (T, action_dim) block of action noise.
    """
    T, a = env.spec.horizon, env.spec.action_dim
    seeds, noise = [], []
    for _ in range(episodes):
        seeds.append(int(rng.integers(0, 2**31 - 1)))
        noise.append(rng.standard_normal((T, a)))
    states, actions, rewards, final_states, terminal = run_episode(
        env, policy, params, seeds, np.array(noise)
    )
    B = len(seeds)
    states = states.reshape(B * T, -1)
    actions = actions.reshape(B * T, -1)
    values = critic.values(critic_params, states)
    last_values = np.zeros((B, critic.num_objectives))
    if not terminal.all():
        last_values[~terminal] = critic.values(critic_params, final_states[~terminal])
    advantages = gae(rewards, values.reshape(B, T, -1), last_values, gamma, lam)
    advantages = advantages.reshape(B * T, -1)
    return RolloutBatch(
        states=states,
        actions=actions,
        log_probs=policy.score(params, states, actions)[0],
        advantages=advantages,
        returns=advantages + values,
    )


def normalize_per_objective(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance per objective; constant columns stay centered."""
    mean = advantages.mean(axis=0)
    std = advantages.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    return (advantages - mean) / std


def estimate_gradient_set(policy: GaussianPolicy, params: np.ndarray,
                          batch: RolloutBatch,
                          normalize_advantages: bool = False) -> np.ndarray:
    """Per-objective policy-gradient estimates, one (d,) row per objective.

    Row i is the batch average of ``advantage_i * grad log pi``, i.e. the
    gradient of objective i's surrogate at the collecting snapshot (where
    all likelihood ratios equal one).
    """
    adv = batch.advantages
    if normalize_advantages:
        adv = normalize_per_objective(adv)
    n, m = adv.shape
    _, grad = policy.score(params, batch.states, batch.actions)
    G = np.stack([grad(adv[:, i] / n) for i in range(m)])
    if not np.all(np.isfinite(G)):
        raise ValueError("gradient estimate has non-finite entries")
    return G


class _Adam:
    def __init__(self, dim: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One descent step along ``grad``."""
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _SGD:
    """Plain gradient steps; preserves the magnitude of the update signal.

    Unlike Adam this lets policies whose common ascent direction has nearly
    vanished take nearly-zero steps, which matters when comparing targeted
    fine-tuning against undirected drift.
    """

    def __init__(self, dim: int, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad


_OPTIMIZERS = {"adam": _Adam, "sgd": _SGD}


def ppo_update(policy: GaussianPolicy, params: np.ndarray,
               critic: VectorCritic, critic_params: np.ndarray,
               batch: RolloutBatch, omega, clip_eps: float = 0.2,
               epochs: int = 4, lr: float = 3e-3,
               normalize_advantages: bool = True,
               optimizer: str = "adam") -> tuple[np.ndarray, np.ndarray]:
    """Clipped-surrogate ascent on the ``omega``-scalarized advantages.

    Advantages are (optionally) normalized per objective, then collapsed
    with the simplex weights ``omega``; by linearity this ascends the same
    direction as the omega-weighted combination of per-objective
    surrogates. The critic regresses its per-objective return targets with
    the same optimizer settings. Returns the updated (params, critic_params)
    snapshots; inputs are not mutated.
    """
    omega = validate_weights(omega, tol=1e-6)
    if omega.size != batch.advantages.shape[1]:
        raise ValueError(
            f"omega has {omega.size} components, batch has {batch.advantages.shape[1]} objectives"
        )
    adv = batch.advantages
    if normalize_advantages:
        adv = normalize_per_objective(adv)
    scalar_adv = adv @ omega
    n = scalar_adv.shape[0]

    try:
        make_opt = _OPTIMIZERS[optimizer]
    except KeyError:
        raise ValueError(f"unknown optimizer {optimizer!r}, expected one of {sorted(_OPTIMIZERS)}") from None
    params = params.copy()
    critic_params = critic_params.copy()
    policy_opt = make_opt(params.size, lr)
    # The critic is plain regression; Adam keeps it robust under either choice.
    critic_opt = _Adam(critic_params.size, lr if optimizer == "adam" else min(lr, 5e-3))
    for _ in range(epochs):
        log_probs, grad = policy.score(params, batch.states, batch.actions)
        ratio = np.exp(log_probs - batch.log_probs)
        # Gradient flows only where the unclipped branch is the active min.
        active = np.where(scalar_adv >= 0.0, ratio <= 1.0 + clip_eps, ratio >= 1.0 - clip_eps)
        coeffs = np.where(active, ratio * scalar_adv, 0.0) / n
        params = policy_opt.step(params, -grad(coeffs))
        value_grad, _ = critic.mse_grad(critic_params, batch.states, batch.returns)
        critic_params = critic_opt.step(critic_params, value_grad)
    return params, critic_params
