"""Stochastic policies, per-objective gradients, and the scalarized PPO update.

The policy is a diagonal Gaussian whose mean comes from a linear map or a
one-hidden-layer tanh network; all parameters live in a single flat vector
so per-objective policy gradients stack into an (m, d) matrix. Gradients
are computed analytically (closed-form backprop), which keeps them exactly
finite-difference-checkable.

Every primitive also takes a stack of lanes: ``(L, d)`` parameters with
``(L, N, ·)`` inputs, one independent policy per lane, and a plain ``(d,)``
vector is the lane-less case. Stacked products go through ``np.matmul`` on
``swapaxes`` views, which repeats the 2-D BLAS call of each lane, so a lane
of a stack computes bit for bit what it computes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PolicyConfig
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
# Rows of one network pass. The bound keeps the (rows, hidden) temporaries
# of a pass small: with every lane of a stack in one pass, the benchmark's
# point workload peaks 6.6% higher in resident memory and trains about 30%
# slower.
_STACK_ROWS = 512


def _lane_chunks(params: np.ndarray, rows: int) -> list:
    """Index expressions splitting the lanes of ``params`` into passes.

    Each pass holds whole lanes of ``rows`` rows each, at most
    ``_STACK_ROWS`` rows unless one lane alone has more. Lane-less ``(d,)``
    params are one pass.
    """
    if params.ndim == 1:
        return [...]
    step = max(1, _STACK_ROWS // rows)
    return [slice(i, i + step) for i in range(0, params.shape[0], step)]


class _MeanNet:
    """Flat-vector linear or one-hidden-layer tanh network with backprop.

    ``params`` is ``(..., num_params)`` and ``states`` is ``(..., N, in_dim)``
    with the same leading lane axes. Both passes run in chunks of whole
    lanes (``_lane_chunks``), so callers hand over a whole stack.
    """

    def __init__(self, in_dim: int, out_dim: int, hidden: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        if hidden > 0:
            self.num_params = hidden * in_dim + hidden + out_dim * hidden + out_dim
        else:
            self.num_params = out_dim * in_dim + out_dim

    def split(self, params: np.ndarray):
        """Weight matrices ``(..., rows, cols)`` and biases ``(..., 1, rows)``."""
        lead = params.shape[:-1]
        sizes = [(self.hidden, self.in_dim), (self.out_dim, self.hidden)] if self.hidden > 0 \
            else [(self.out_dim, self.in_dim)]
        parts, i = [], 0
        for rows, cols in sizes:
            parts.append(params[..., i : i + rows * cols].reshape(lead + (rows, cols)))
            i += rows * cols
            parts.append(params[..., None, i : i + rows])
            i += rows
        return parts

    def forward(self, params: np.ndarray, states: np.ndarray):
        """Return (outputs, cache-for-backprop) for a batch of states."""
        out = np.empty(states.shape[:-1] + (self.out_dim,))
        hid = np.empty(states.shape[:-1] + (self.hidden,)) if self.hidden > 0 else None
        for c in _lane_chunks(params, states.shape[-2]):
            if self.hidden > 0:
                w1, b1, w2, b2 = self.split(params[c])
                np.tanh(states[c] @ w1.swapaxes(-1, -2) + b1, out=hid[c])
                np.add(hid[c] @ w2.swapaxes(-1, -2), b2, out=out[c])
            else:
                w, b = self.split(params[c])
                np.add(states[c] @ w.swapaxes(-1, -2), b, out=out[c])
        return out, hid

    def backprop(self, params: np.ndarray, states: np.ndarray, cache, d_out: np.ndarray):
        """Flat gradient of ``sum(d_out * outputs)`` w.r.t. the parameters, per lane."""
        grad = np.empty(params.shape[:-1] + (self.num_params,))
        for c in _lane_chunks(params, states.shape[-2]):
            lane_grad = grad[c]
            if self.hidden > 0:
                _, _, w2, _ = self.split(params[c])
                hid = cache[c]
                d_hid = (d_out[c] @ w2) * (1.0 - hid * hid)
                layers = [(d_hid, states[c]), (d_out[c], hid)]
            else:
                layers = [(d_out[c], states[c])]
            i = 0
            for d_layer, inputs in layers:
                rows, cols = d_layer.shape[-1], inputs.shape[-1]
                lane_grad[..., i : i + rows * cols] = (d_layer.swapaxes(-1, -2) @ inputs).reshape(
                    lane_grad.shape[:-1] + (rows * cols,))
                i += rows * cols
                lane_grad[..., i : i + rows] = d_layer.sum(axis=-2)
                i += rows
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
        hidden: int,
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

    def init_params(self, rng: np.random.Generator, weight_scale: float,
                    log_std_init: float) -> np.ndarray:
        params = np.empty(self.num_params)
        params[: self.net.num_params] = weight_scale * rng.standard_normal(self.net.num_params)
        params[self.net.num_params :] = log_std_init
        return params

    def _net_params(self, params: np.ndarray) -> np.ndarray:
        return params[..., : self.net.num_params]

    def log_std(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params[..., self.net.num_params :], self.log_std_min, self.log_std_max)

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
        return mu + np.exp(self.log_std(params))[..., None, :] * noise

    def score(self, params: np.ndarray, states: np.ndarray, actions: np.ndarray):
        """Log-probabilities of ``actions`` and their weighted score, from one forward pass.

        Returns ``(log_probs, grad)``: the (..., n) values of ``log pi(actions[t] |
        states[t])`` and a function ``grad(coeffs)`` giving the flat gradient
        of ``sum_t coeffs[t] * log pi(actions[t] | states[t])``, per lane.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        net_params = self._net_params(params)
        mu, cache = self.net.forward(net_params, states)
        raw = params[..., self.net.num_params :]
        log_std = np.clip(raw, self.log_std_min, self.log_std_max)
        residual = actions - mu
        zscores = residual / np.exp(log_std)[..., None, :]
        log_probs = -0.5 * np.sum(zscores * zscores, axis=-1) \
            - log_std.sum(axis=-1)[..., None] - 0.5 * self.action_dim * _LOG_2PI
        inv_var = np.exp(-2.0 * log_std)[..., None, :]
        # d logp / d log_std_j = z_j^2 - 1; zero where the clamp is active.
        zsq_minus_one = residual * residual * inv_var - 1.0
        active = (raw > self.log_std_min) & (raw < self.log_std_max)

        def grad(coeffs) -> np.ndarray:
            coeffs = np.asarray(coeffs, dtype=float)
            out = np.empty(params.shape)
            d_mu = coeffs[..., None] * residual * inv_var
            out[..., : self.net.num_params] = self.net.backprop(net_params, states, cache, d_mu)
            d_log_std = (coeffs[..., None, :] @ zsq_minus_one)[..., 0, :]
            out[..., self.net.num_params :] = np.where(active, d_log_std, 0.0)
            return out

        return log_probs, grad


class VectorCritic:
    """State-value network with one output head per objective."""

    def __init__(self, state_dim: int, num_objectives: int, hidden: int):
        self.state_dim = state_dim
        self.num_objectives = num_objectives
        self.hidden = hidden
        self.net = _MeanNet(state_dim, num_objectives, hidden)
        self.num_params = self.net.num_params

    def init_params(self, rng: np.random.Generator, weight_scale: float) -> np.ndarray:
        return weight_scale * rng.standard_normal(self.num_params)

    def values(self, params: np.ndarray, states) -> np.ndarray:
        out, _ = self.net.forward(params, np.atleast_2d(np.asarray(states, dtype=float)))
        return out

    def mse_grad(self, params: np.ndarray, states: np.ndarray,
                 targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and value of ``0.5 * mean((V(s) - target)^2)``, per lane."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        values, cache = self.net.forward(params, states)
        count = values.shape[-2] * values.shape[-1]
        err = (values - targets) / count
        grad = self.net.backprop(params, states, cache, err)
        loss = 0.5 * np.sum((values - targets) ** 2, axis=(-2, -1)) / count
        return grad, loss


@dataclass
class RolloutBatch:
    """Per-step learning signals of a batch, episodes concatenated in order.

    Every field is ``(..., n, ·)``: the leading lane axes of the collecting
    params, then one row per step. ``actions`` are the raw sampled actions
    (before environment clamping). Advantages and return targets carry one
    component per objective. The batch holds no log-probabilities: whoever
    needs them scores ``actions`` under the collecting snapshot.
    """

    states: np.ndarray
    actions: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __post_init__(self):
        rows = self.states.shape[:-1]
        if rows[-1] == 0:
            raise ValueError("empty rollout batch")
        for name in ("actions", "advantages", "returns"):
            if getattr(self, name).shape[:-1] != rows:
                raise ValueError(f"batch field {name} disagrees in length")

    def lane(self, index: int) -> RolloutBatch:
        """The lane-less batch of one lane of a stacked batch."""
        return RolloutBatch(self.states[index], self.actions[index],
                            self.advantages[index], self.returns[index])


def gae(rewards: np.ndarray, values: np.ndarray, last_values: np.ndarray,
        gamma: float, lam: float) -> np.ndarray:
    """Per-objective generalized advantage estimates, shape (..., B, T, m).

    ``rewards`` and ``values`` (the critic at each step's state) are
    (..., B, T, m); ``last_values`` (..., B, m) is the bootstrap after the
    last step: the critic at the final state of a horizon-truncated episode,
    zero for a terminal one. Each objective is treated independently.
    """
    next_values = np.concatenate([values[..., 1:, :], last_values[..., None, :]], axis=-2)
    deltas = rewards + gamma * next_values - values
    advantages = np.empty_like(deltas)
    carry = np.zeros_like(last_values)
    for t in range(rewards.shape[-2] - 1, -1, -1):
        carry = deltas[..., t, :] + gamma * lam * carry
        advantages[..., t, :] = carry
    return advantages


def run_episode(env: MOMDPEnv, policy: GaussianPolicy, params: np.ndarray,
                seeds, noise: np.ndarray | None = None):
    """Roll one episode per reset seed, all of them in lockstep over the horizon.

    ``params`` is ``(d,)`` or an ``(L, d)`` stack of lanes; ``seeds`` is
    ``(B,)``, shared by every lane, or ``(L, B)``. ``noise`` (..., B, T,
    action_dim) holds the standard-normal draws of a stochastic rollout;
    without it the policy acts with its mean. Returns ``(states, actions,
    rewards, final_states, terminal)``: the (..., B, T, ·) states, raw
    sampled actions (the environment clamps them) and rewards, then the
    (..., B, state_dim) states after the last step and their (..., B)
    terminal flags. An episode that ends before the horizon is an error.
    """
    spec = env.spec
    T = spec.horizon
    seeds = np.asarray(seeds)
    if seeds.size == 0:
        raise ValueError("need at least one episode")
    B = seeds.shape[-1]
    starts = np.array([env.reset(int(seed)) for seed in seeds.ravel()])
    shape = params.shape[:-1] + (B,)
    state = np.broadcast_to(starts.reshape(seeds.shape + (-1,)), shape + (spec.state_dim,)).copy()
    states = np.empty(shape + (T, spec.state_dim))
    actions = np.empty(shape + (T, spec.action_dim))
    rewards = np.empty(shape + (T, spec.num_objectives))
    for t in range(T):
        states[..., t, :] = state
        actions[..., t, :] = policy.act(params, state, None if noise is None else noise[..., t, :])
        state, rewards[..., t, :], terminal = env.step(state, actions[..., t, :])
        if t < T - 1 and np.any(terminal):
            raise ValueError(f"an episode ended after {t + 1} steps, before the horizon {T}")
    return states, actions, rewards, state, terminal


def collect_batch(env: MOMDPEnv, policy: GaussianPolicy, params: np.ndarray,
                  critic: VectorCritic, critic_params: np.ndarray,
                  episodes: int, gamma: float, lam: float, rng) -> RolloutBatch:
    """Collect ``episodes`` episodes per lane, each lane under its own snapshot.

    ``rng`` is one generator for ``(d,)`` params, or one per lane for an
    ``(L, d)`` stack. Each generator is consumed episode by episode: the
    reset seed, then the episode's (T, action_dim) block of action noise.
    """
    T, a, m = env.spec.horizon, env.spec.action_dim, critic.num_objectives
    lead = params.shape[:-1]
    seeds, noise = [], []
    for lane_rng in ([rng] if params.ndim == 1 else rng):
        for _ in range(episodes):
            seeds.append(int(lane_rng.integers(0, 2**31 - 1)))
            noise.append(lane_rng.standard_normal((T, a)))
    states, actions, rewards, final_states, terminal = run_episode(
        env, policy, params, np.reshape(seeds, lead + (episodes,)),
        np.reshape(noise, lead + (episodes, T, a)),
    )
    n = episodes * T
    states = states.reshape(lead + (n, -1))
    actions = actions.reshape(lead + (n, -1))
    values = critic.values(critic_params, states)
    last_values = np.zeros(lead + (episodes, m))
    if not terminal.all():
        last_values = np.where(terminal[..., None], 0.0, critic.values(critic_params, final_states))
    advantages = gae(rewards, values.reshape(lead + (episodes, T, m)), last_values, gamma, lam)
    advantages = advantages.reshape(lead + (n, m))
    return RolloutBatch(
        states=states,
        actions=actions,
        advantages=advantages,
        returns=advantages + values,
    )


def normalize_per_objective(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance per objective and lane; constant columns stay centered."""
    mean = advantages.mean(axis=-2, keepdims=True)
    std = advantages.std(axis=-2, keepdims=True)
    std = np.where(std < 1e-8, 1.0, std)
    return (advantages - mean) / std


def estimate_gradient_set(policy: GaussianPolicy, params: np.ndarray,
                          batch: RolloutBatch,
                          normalize_advantages: bool) -> np.ndarray:
    """Per-objective policy-gradient estimates of one lane, one (d,) row per objective.

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
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
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

    def __init__(self, shape, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return params - self.lr * grad


_OPTIMIZERS = {"adam": _Adam, "sgd": _SGD}
_CLIP_EPS = 0.2  # PPO's clip range on the likelihood ratio


def ppo_update(policy: GaussianPolicy, params: np.ndarray,
               critic: VectorCritic, critic_params: np.ndarray,
               batch: RolloutBatch, omega,
               update: PolicyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clipped-surrogate ascent on the ``omega``-scalarized advantages.

    ``params`` and ``critic_params`` are one lane or an ``(L, ·)`` stack with
    a matching ``batch``; ``omega`` holds one weight vector per lane. The
    batch must have been collected under ``params``: the likelihood ratios
    are taken against the log-probabilities of the first epoch, where every
    ratio is exactly one.
    ``update`` is the ``policy`` config section; its ``epochs``, ``lr``,
    ``normalize_advantages`` and ``optimizer`` set the update.
    Advantages are (optionally) normalized per objective, then collapsed
    with the simplex weights ``omega``; by linearity this ascends the same
    direction as the omega-weighted combination of per-objective
    surrogates. The critic regresses its per-objective return targets with
    the same optimizer settings. Returns the updated (params, critic_params)
    snapshots; inputs are not mutated.
    """
    m = batch.advantages.shape[-1]
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1:] != (m,):
        raise ValueError(f"omega has {omega.shape[-1:]} components, batch has {m} objectives")
    omega = np.reshape([validate_weights(w) for w in omega.reshape(-1, m)], omega.shape)
    adv = batch.advantages
    if update.normalize_advantages:
        adv = normalize_per_objective(adv)
    scalar_adv = (adv @ omega[..., None])[..., 0]
    n = scalar_adv.shape[-1]

    lr = update.lr
    policy_opt = _OPTIMIZERS[update.optimizer](params.shape, lr)
    # The critic is plain regression; Adam keeps it robust under either choice.
    critic_opt = _Adam(critic_params.shape, lr if update.optimizer == "adam" else min(lr, 5e-3))
    for epoch in range(update.epochs):
        log_probs, grad = policy.score(params, batch.states, batch.actions)
        if epoch == 0:
            old_log_probs = log_probs
        ratio = np.exp(log_probs - old_log_probs)
        # Gradient flows only where the unclipped branch is the active min.
        active = np.where(scalar_adv >= 0.0, ratio <= 1.0 + _CLIP_EPS, ratio >= 1.0 - _CLIP_EPS)
        coeffs = np.where(active, ratio * scalar_adv, 0.0) / n
        params = policy_opt.step(params, -grad(coeffs))
        value_grad, _ = critic.mse_grad(critic_params, batch.states, batch.returns)
        critic_params = critic_opt.step(critic_params, value_grad)
    return params, critic_params
