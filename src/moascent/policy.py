"""Stochastic policies, per-objective gradients, and the scalarized PPO update.

The policy is a diagonal Gaussian whose mean comes from a ``Network``, a
linear map or a one-hidden-layer tanh network; the critic is a ``Network``
with one output per objective. All parameters live in a single flat vector
so per-objective policy gradients stack into an (m, d) matrix. Gradients
are computed analytically (closed-form backprop), which keeps them exactly
finite-difference-checkable.

Every primitive also takes a stack of lanes: ``(L, d)`` parameters with
``(L, N, ·)`` inputs, one independent policy per lane, and a plain ``(d,)``
vector is the lane-less case; a stack's gradient set is ``(L, m, d)``.
Stacked products go through ``np.matmul`` on ``swapaxes`` views, which
repeats the 2-D BLAS call of each lane, so a lane of a stack computes bit
for bit what it computes alone. Where a function keeps numpy's bytes by
another route, its docstring says how.

The network side follows the dtype of its params: passes, backprops, the
Gaussian head, the optimizers' state and the hidden-layer buffers are
arrays of that dtype, and float64 params give the bytes they always gave.
The trainer holds float32 params (``evolution.NETWORK_DTYPE``). The
learning signals stay float64: a rollout's states, clamped actions and
rewards, the advantages and return targets, and the gradient set.
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
    "Network",
    "RolloutBatch",
    "collect_batch",
    "estimate_gradient_set",
    "gae",
    "hidden_workspace",
    "normalize_per_objective",
    "ppo_update",
    "run_episode",
]

_LOG_2PI = math.log(2.0 * math.pi)
# GAE's lambda; the discount is the environment's.
_GAE_LAMBDA = 0.95


def _row_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(x, axis=-2)`` of an ``(..., rows, k)`` array, bit for bit, into ``out``.

    ``out`` is a new array if None. Backprop's bias gradients, the mean and
    std of ``normalize_per_objective`` and the log-probabilities' sum over
    actions go through it. One einsum pass adds the rows one after another,
    as ``np.sum`` does, but without numpy's inner loop of k per row. numpy
    sums pairwise where the kept axis has length 1 (a hidden layer of 1, a
    1-D action) or the rows axis has the smaller stride, so those stay on
    ``np.sum``.
    """
    if x.shape[-1] > 1 and abs(x.strides[-1]) < abs(x.strides[-2]):
        return np.einsum("...nk->...k", x, out=out)
    return np.sum(x, axis=-2, out=out)


def _product(inputs: np.ndarray, wt: np.ndarray, out: np.ndarray) -> None:
    """``inputs @ wt`` of ``(..., n, i)`` by ``(..., i, h)`` arrays, bit for bit, into ``out``.

    numpy's stacked matmul is slow over a length-1 ``i`` (the first layer
    of a one-input network, a one-input linear map, the output layer of a
    hidden-1 network): about 16 against 7 µs at the ``quad2`` update's
    float32 ``(8, 32, 1) @ (8, 1, 32)`` on one core of a Xeon host. So that
    product goes through einsum, which adds the one product to a zeroed
    output, as matmul does: it gives matmul's bytes, a zero product's +0.0
    too, and allocates nothing at float32. A broadcast multiply would write
    -0.0 where matmul writes +0.0, and allocate numpy's iteration buffers
    on every call. Over a longer axis einsum adds in another order than
    BLAS, so those products stay on matmul. The einsum's ``casting`` lets a
    rollout's float64 states write a float32 ``out``, as matmul's default
    does.
    """
    if inputs.shape[-1] == 1:
        np.einsum("...ni,...ih->...nh", inputs, wt, out=out, casting="same_kind")
    else:
        np.matmul(inputs, wt, out=out)


class Network:
    """Flat-vector linear or one-hidden-layer tanh network with backprop.

    The policy's mean network is one, and so is the critic, with one output
    per objective. ``params`` is ``(..., num_params)`` and ``states`` is
    ``(..., N, in_dim)`` with the same leading lane axes; a pass covers the
    whole stack at once. ``split`` views the layers of a parameter vector
    and ``apply`` runs one pass of them into caller-owned outputs;
    ``forward`` does both into a new output and a given or new hidden
    buffer. ``backprop`` takes a pass's
    cache ``(layers, states, hid)``, so a caller that splits once (a
    rollout, ``ppo_update``) runs every pass and gradient on the same layers
    and buffers. Its hidden-layer buffers are ``(..., N, hidden)`` arrays,
    zero-width for a linear map, which never touches them.
    """

    def __init__(self, in_dim: int, out_dim: int, hidden: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        if hidden > 0:
            self.num_params = hidden * in_dim + hidden + out_dim * hidden + out_dim
        else:
            self.num_params = out_dim * in_dim + out_dim

    def init_params(self, rng: np.random.Generator, weight_scale: float) -> np.ndarray:
        """Float64 weights and biases, each a standard normal draw times ``weight_scale``."""
        return weight_scale * rng.standard_normal(self.num_params)

    def split(self, params: np.ndarray) -> list:
        """The layers of ``params``: per layer, the transposed weights
        ``(..., cols, rows)`` and the biases ``(..., 1, rows)``, as views."""
        lead = params.shape[:-1]
        sizes = [(self.hidden, self.in_dim), (self.out_dim, self.hidden)] if self.hidden > 0 \
            else [(self.out_dim, self.in_dim)]
        layers, i = [], 0
        for rows, cols in sizes:
            weights = params[..., i : i + rows * cols].reshape(lead + (rows, cols))
            i += rows * cols
            layers.append((weights.swapaxes(-1, -2), params[..., None, i : i + rows]))
            i += rows
        return layers

    def apply(self, layers: list, inputs: np.ndarray, out: np.ndarray,
              hid: np.ndarray) -> None:
        """One pass of split ``layers`` over ``inputs``, written to ``out``.

        The hidden layer's tanh activations are computed in ``hid``
        (``inputs.shape[:-1] + (hidden,)``), which a linear map leaves untouched.
        """
        if self.hidden > 0:
            w1t, b1 = layers[0]
            _product(inputs, w1t, hid)
            hid += b1
            inputs = np.tanh(hid, out=hid)
        wt, b = layers[-1]
        _product(inputs, wt, out)
        out += b

    def forward(self, params: np.ndarray, states: np.ndarray, hid: np.ndarray | None = None):
        """Return (outputs, cache-for-backprop) for a batch of states.

        The outputs are a new array of the params' dtype; the hidden layer
        goes into ``hid``, or into a new array of that dtype if None. The
        states are not cast: the first layer multiplies them as they are.
        """
        out = np.empty(states.shape[:-1] + (self.out_dim,), params.dtype)
        if hid is None:
            hid = np.empty(states.shape[:-1] + (self.hidden,), params.dtype)
        layers = self.split(params)
        self.apply(layers, states, out, hid)
        return out, (layers, states, hid)

    def backprop(self, cache, d_out: np.ndarray, out: np.ndarray | None = None,
                 work=None) -> np.ndarray:
        """Flat gradient of ``sum(d_out * outputs)`` w.r.t. the parameters, per lane.

        The gradient is written to ``out`` (a new array of the layers' dtype
        if None) and returned. ``work`` is the ``(d_hid, scratch)`` pair of
        hidden-layer buffers (new arrays if None).
        """
        layers, states, hid = cache
        grad = np.empty(d_out.shape[:-2] + (self.num_params,), layers[-1][0].dtype) \
            if out is None else out
        if self.hidden > 0:
            d_hid, scratch = (np.empty_like(hid), np.empty_like(hid)) if work is None else work
            np.matmul(d_out, layers[1][0].swapaxes(-1, -2), out=d_hid)
            np.multiply(hid, hid, out=scratch)
            np.subtract(1.0, scratch, out=scratch)
            d_hid *= scratch
            grads = [(d_hid, states), (d_out, hid)]
        else:
            grads = [(d_out, states)]
        i = 0
        for d_layer, inputs in grads:
            rows, cols = d_layer.shape[-1], inputs.shape[-1]
            grad[..., i : i + rows * cols] = (d_layer.swapaxes(-1, -2) @ inputs).reshape(
                grad.shape[:-1] + (rows * cols,))
            i += rows * cols
            _row_sum(d_layer, grad[..., i : i + rows])
            i += rows
        return grad


class GaussianPolicy:
    """Diagonal Gaussian over actions; mean from a small network.

    The flat parameter vector is [mean-network weights..., log_std], with
    one log standard deviation per action dimension, clamped into
    ``[log_std_min, log_std_max]`` when used.
    """

    log_std_min = -5.0
    log_std_max = 2.0

    def __init__(self, state_dim: int, action_dim: int, hidden: int):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.hidden = hidden
        self.net = Network(state_dim, action_dim, hidden)
        self.num_params = self.net.num_params + action_dim

    def init_params(self, rng: np.random.Generator, weight_scale: float,
                    log_std_init: float) -> np.ndarray:
        """The mean network's ``init_params``, then ``log_std_init`` for every action."""
        params = np.empty(self.num_params)
        params[: self.net.num_params] = self.net.init_params(rng, weight_scale)
        params[self.net.num_params :] = log_std_init
        return params

    def _net_params(self, params: np.ndarray) -> np.ndarray:
        return params[..., : self.net.num_params]

    def log_std(self, params: np.ndarray) -> np.ndarray:
        return np.clip(params[..., self.net.num_params :], self.log_std_min, self.log_std_max)

    def score(self, params: np.ndarray, states: np.ndarray, actions: np.ndarray,
              mean_pass=None):
        """Log-probabilities of ``actions`` and their weighted score, from one forward pass.

        Returns ``(log_probs, grad)``: the (..., n) values of ``log pi(actions[t] |
        states[t])`` and a function ``grad(coeffs, out=None, work=None)``
        giving the flat gradient of ``sum_t coeffs[t] * log pi(actions[t] |
        states[t])``, per lane, written to ``out`` (a new array if None);
        ``work`` is the mean network's backprop pair ``(d_hid, scratch)``
        (new arrays if None).
        ``mean_pass`` is the mean network's pass ``(mu, cache)`` over the
        states under ``params``, as ``forward`` returns it, or None to make
        it here from states and actions cast to the params' dtype; with a
        pass, ``actions`` is taken as the array it is. ``grad`` casts
        ``coeffs`` to the params' dtype.
        ``grad`` reads the pass, so its buffers stay untouched until it has
        been called.

        The per-row arithmetic runs on an action-major ``(..., a, n)`` copy
        of the residual ``actions - mu``, so the per-action factors broadcast
        along the contiguous rows axis and numpy runs no inner loop over a
        few actions per row. ``log_probs`` sums the squared z-scores over the
        actions with ``_row_sum`` on that layout, or with ``np.sum`` on a
        rows-major copy from 8 actions, where numpy adds the axis pairwise;
        both give ``np.sum(axis=-1)``'s bytes. ``grad`` hands backprop and
        the log-std product rows-major ``(..., n, a)`` copies, since the
        order a matmul or a row sum adds in follows its operands' layout.
        """
        if mean_pass is None:
            states = np.atleast_2d(np.asarray(states, dtype=params.dtype))
            actions = np.atleast_2d(np.asarray(actions, dtype=params.dtype))
            mean_pass = self.net.forward(self._net_params(params), states)
        mu, cache = mean_pass
        k = self.net.num_params
        raw = params[..., k:]
        log_std = self.log_std(params)
        # Action-major (..., a, n): per-action factors broadcast as (..., a, 1).
        residual = (actions - mu).swapaxes(-1, -2).copy()
        zscores = residual / np.exp(log_std)[..., None]
        zsq = zscores * zscores
        # np.sum adds a contiguous axis in order up to 7 values, pairwise from 8.
        sq_sum = _row_sum(zsq) if self.action_dim < 8 \
            else np.sum(zsq.swapaxes(-1, -2).copy(), axis=-1)
        log_probs = -0.5 * sq_sum - log_std.sum(axis=-1)[..., None] \
            - 0.5 * self.action_dim * _LOG_2PI
        inv_var = np.exp(-2.0 * log_std)[..., None]
        # d logp / d log_std_j = z_j^2 - 1; zero where the clamp is active.
        # Rows-major (..., n, a): the product in grad sums it in that layout's order.
        zsq_minus_one = (residual * residual * inv_var - 1.0).swapaxes(-1, -2).copy()
        active = (raw > self.log_std_min) & (raw < self.log_std_max)

        def grad(coeffs, out: np.ndarray | None = None, work=None) -> np.ndarray:
            coeffs = np.asarray(coeffs, dtype=params.dtype)
            out = np.empty_like(params) if out is None else out
            d_mu = coeffs[..., None, :] * residual * inv_var
            self.net.backprop(cache, d_mu.swapaxes(-1, -2).copy(), out[..., :k], work)
            d_log_std = (coeffs[..., None, :] @ zsq_minus_one)[..., 0, :]
            out[..., k:] = np.where(active, d_log_std, 0.0)
            return out

        return log_probs, grad


@dataclass
class RolloutBatch:
    """A batch's per-step learning signals and the snapshot they were collected under.

    ``params`` and ``critic_params`` are ``(..., ·)`` copies of the snapshot,
    one row per lane; every other field is ``(..., n, ·)``, one row per step
    of the episodes in order. ``actions`` are the raw sampled actions
    (before environment clamping); advantages and return targets have one
    column per objective. ``workspace`` is the batch's ``(3, ..., n,
    hidden)`` array of hidden-layer buffers (see ``hidden_workspace``),
    scratch that the gradient set and the update write their passes into;
    it may be a view of the workspace ``collect_batch`` was given. The
    states, actions and buffers are in the params' dtype, the advantages
    and return targets float64. There are no log-probabilities: whoever
    needs them scores ``actions`` under ``params``.
    """

    states: np.ndarray
    actions: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    params: np.ndarray
    critic_params: np.ndarray
    workspace: np.ndarray

    def __post_init__(self):
        rows = self.states.shape[:-1]
        if rows[-1] == 0:
            raise ValueError("empty rollout batch")
        for name, lead in (("actions", rows), ("advantages", rows), ("returns", rows),
                           ("workspace", (3,) + rows),
                           ("params", rows[:-1]), ("critic_params", rows[:-1])):
            if getattr(self, name).shape[:-1] != lead:
                raise ValueError(f"batch field {name} disagrees with states in shape")


def gae(rewards: np.ndarray, values: np.ndarray, last_values: np.ndarray,
        gamma: float, lam: float) -> np.ndarray:
    """Per-objective generalized advantage estimates, shape (..., B, T, m).

    ``rewards`` and ``values`` (the critic at each step's state) are
    (..., B, T, m); ``last_values`` (..., B, m) is the bootstrap after the
    last step: the critic at the final state of a truncated episode, zero
    for one that truly ends. Each objective is treated independently.
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
    ``(B,)``, shared by every lane, or ``(L, B)``, and goes to one
    ``env.reset`` call. ``noise`` (..., B, T, action_dim) holds the
    standard-normal draws of a stochastic rollout; without it the policy
    acts with its mean. Every episode runs the spec's horizon. Returns
    ``(states, actions, rewards, final_states)``: the (..., B, T, ·)
    states, raw sampled actions (the environment clamps them) and rewards,
    then the (..., B, state_dim) states after the last step. The raw
    actions and the std-scaled noise are in the params' dtype; the states,
    the clamped actions and the rewards are float64.

    Once per rollout the lanes' weights are split into transposed layer
    views, the hidden-layer buffer is allocated, and the whole noise block
    is scaled by the clamped std. The step buffers are time-major,
    ``(T, ..., B, ·)``: the states, with one more row for the states after
    the last step, the raw and the clamped actions, and the std-scaled
    noise. A step is the mean network's pass, plus its row of noise,
    ``env.clamp`` and ``env.transition``. The pass's first layer multiplies
    the float64 states by the weights straight into the hidden layer of the
    params' dtype (casting each step's states first measured no faster).
    After the last step the whole raw-action buffer is checked once: a
    non-finite action raises ``ValueError`` naming the first step that
    holds one. Then one ``env.rewards`` call takes the whole trajectory,
    through lane-major views, so the rewards come out contiguous in
    (..., B, T, m) order; the states and actions are returned as lane-major
    views of their buffers.
    """
    spec = env.spec
    T = spec.horizon
    seeds = np.asarray(seeds)
    if seeds.size == 0:
        raise ValueError("need at least one episode")
    shape = params.shape[:-1] + (seeds.shape[-1],)
    # (..., B, T, ·) <-> (T, ..., B, ·)
    lead = len(shape)
    to_time_major = (lead, *range(lead), lead + 1)
    to_lane_major = (*range(1, lead + 1), 0, lead + 1)
    states = np.empty((T + 1,) + shape + (spec.state_dim,))
    states[0] = env.reset(seeds)
    actions = np.empty((T,) + shape + (spec.action_dim,), params.dtype)
    clamped = np.empty(actions.shape)
    net = policy.net
    layers = net.split(policy._net_params(params))
    hid = np.empty(shape + (net.hidden,), params.dtype)
    if noise is not None:
        noise = np.multiply(np.exp(policy.log_std(params))[..., None, :],
                            noise.transpose(to_time_major), out=np.empty_like(actions))
    for t in range(T):
        action = actions[t]
        net.apply(layers, states[t], action, hid)
        if noise is not None:
            action += noise[t]
        clamped[t] = env.clamp(action)
        states[t + 1] = env.transition(states[t], clamped[t])
    if not np.isfinite(actions).all():
        step = np.argmin(np.isfinite(actions).reshape(T, -1).all(axis=1))
        raise ValueError(f"non-finite action rejected at step {step} of {T}")
    states = states.transpose(to_lane_major)
    before, after = states[..., :-1, :], states[..., 1:, :]
    rewards = env.rewards(before, clamped.transpose(to_lane_major), after)
    return before, actions.transpose(to_lane_major), rewards, states[..., -1, :]


def hidden_workspace(hidden: int, rows: tuple, dtype=np.float64) -> np.ndarray:
    """Untouched hidden-layer buffers for one batch of ``rows`` at a time.

    A ``(3,) + rows + (hidden,)`` array of ``dtype``, the networks' params'
    dtype, zero-width for a linear network: the hidden layer ``apply``
    fills, then backprop's ``work`` pair ``(d_hid, scratch)``.
    ``collect_batch`` writes its critic pass into ``[0]``, and
    ``estimate_gradient_set`` and ``ppo_update`` write their passes and
    backprops into all three. The slice ``[:, :L]`` serves a stack of the
    first L lanes.

    ``collect_batch`` is the one place a batch's buffers come from: the
    workspace it is given, or one it makes. The gradient set and the update
    allocate no hidden-layer array of their own. A caller that keeps one
    workspace, as the trainer keeps one per run and gives each generation's
    collects its first L lanes, makes the buffers once instead of faulting
    in fresh pages every update.
    """
    return np.empty((3,) + rows + (hidden,), dtype)


def collect_batch(env: MOMDPEnv, policy: GaussianPolicy, params: np.ndarray,
                  critic: Network, critic_params: np.ndarray,
                  episodes: int, rng, workspace: np.ndarray | None = None) -> RolloutBatch:
    """Collect ``episodes`` episodes per lane, each lane under its own snapshot.

    ``rng`` is one generator for ``(d,)`` params, or one per lane for an
    ``(L, d)`` stack. Each generator makes two draws: first the
    ``(episodes,)`` reset seeds (``integers(0, 2**31 - 1)``), then the
    ``(episodes, T, action_dim)`` block of standard-normal action noise.
    Advantages discount with ``env.spec.gamma`` and GAE's constant lambda.
    They bootstrap from the critic at the final states when the spec is
    ``truncated``, and from zero otherwise; the final states are cast to the
    critic params' dtype for that pass. The batch keeps its states, cast to
    the params' dtype, copies of ``params`` and ``critic_params``, and its
    hidden-layer buffers: ``workspace`` (see ``hidden_workspace``), or one
    made here for the batch if None. The critic's pass over the states
    writes its hidden layer into ``workspace[0]``; GAE runs on its values
    cast to float64.
    """
    T, a, m = env.spec.horizon, env.spec.action_dim, critic.out_dim
    lead = params.shape[:-1]
    seeds, noise = zip(*[(lane_rng.integers(0, 2**31 - 1, size=episodes),
                          lane_rng.standard_normal((episodes, T, a)))
                         for lane_rng in ([rng] if params.ndim == 1 else rng)])
    states, actions, rewards, final_states = run_episode(
        env, policy, params, np.reshape(seeds, lead + (episodes,)),
        np.reshape(noise, lead + (episodes, T, a)),
    )
    n = episodes * T
    states = states.astype(params.dtype, order="C").reshape(lead + (n, -1))
    actions = actions.reshape(lead + (n, -1))
    if workspace is None:
        workspace = hidden_workspace(critic.hidden, lead + (n,), params.dtype)
    values, _ = critic.forward(critic_params, states, workspace[0])
    last_values = critic.forward(critic_params, final_states.astype(critic_params.dtype))[0] \
        if env.spec.truncated else np.zeros(lead + (episodes, m))
    # GAE and the return targets are float64 whatever the networks' dtype.
    values64 = values.astype(np.float64, copy=False)
    advantages = gae(rewards, values64.reshape(lead + (episodes, T, m)),
                     last_values.astype(np.float64, copy=False), env.spec.gamma, _GAE_LAMBDA)
    advantages = advantages.reshape(lead + (n, m))
    return RolloutBatch(
        states=states,
        actions=actions,
        advantages=advantages,
        returns=advantages + values64,
        params=params.copy(),
        critic_params=critic_params.copy(),
        workspace=workspace,
    )


def normalize_per_objective(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance per objective and lane; constant columns stay centered.

    The mean and std are ``np.mean``'s and ``np.std``'s over the rows, in
    their order: sum, ``/ n``, subtract, square, sum, ``/ n``, ``sqrt``.
    """
    n = advantages.shape[-2]
    centered = advantages - (_row_sum(advantages) / n)[..., None, :]
    std = np.sqrt(_row_sum(centered * centered) / n)[..., None, :]
    centered /= np.where(std < 1e-8, 1.0, std)
    return centered


def estimate_gradient_set(policy: GaussianPolicy, batch: RolloutBatch,
                          normalize_advantages: bool) -> np.ndarray:
    """Per-objective policy-gradient estimates, one (d,) row per objective and lane.

    Returns ``(m, d)`` for a batch of ``(d,)`` params or ``(L, m, d)`` for an
    ``(L, d)`` stack. Row i is the batch average of ``advantage_i * grad log
    pi``, i.e. the gradient of objective i's surrogate at the batch's
    ``params`` (where all likelihood ratios equal one), computed in the
    params' dtype and returned as float64. The mean network's pass and
    backprops write into the batch's ``workspace``.
    """
    adv = batch.advantages
    if normalize_advantages:
        adv = normalize_per_objective(adv)
    n, m = adv.shape[-2:]
    hid, *work = batch.workspace
    mean_pass = policy.net.forward(policy._net_params(batch.params), batch.states, hid)
    _, grad = policy.score(batch.params, batch.states, batch.actions, mean_pass)
    G = np.stack([grad(adv[..., i] / n, None, work) for i in range(m)], axis=-2,
                 dtype=np.float64)
    if not np.all(np.isfinite(G)):
        raise ValueError("gradient estimate has non-finite entries")
    return G


class _Adam:
    """Adam on ``params``-shaped state of the params' dtype."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty_like(params), np.empty_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One descent step along ``grad``, applied to ``params`` in place.

        The operations and their order are those of ``params - lr * m_hat /
        (sqrt(v_hat) + eps)``, with every intermediate in ``scratch``.
        """
        self.t += 1
        a, b = self.scratch
        self.m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=a)
        self.m += a
        self.v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=a)
        a *= grad
        self.v += a
        np.divide(self.m, 1.0 - self.beta1**self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


class _SGD:
    """Plain gradient steps; preserves the magnitude of the update signal.

    Unlike Adam this lets policies whose common ascent direction has nearly
    vanished take nearly-zero steps, which matters when comparing targeted
    fine-tuning against undirected drift.
    """

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.scratch = np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """``params -= lr * grad``, in place."""
        np.multiply(self.lr, grad, out=self.scratch)
        params -= self.scratch


_OPTIMIZERS = {"adam": _Adam, "sgd": _SGD}
_CLIP_EPS = 0.2  # PPO's clip range on the likelihood ratio


def ppo_update(policy: GaussianPolicy, critic: Network, batch: RolloutBatch, omega,
               update: PolicyConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clipped-surrogate ascent on the ``omega``-scalarized advantages.

    The update starts from the snapshot the batch was collected under, its
    ``params`` and ``critic_params`` (one lane or an ``(L, ·)`` stack);
    ``omega`` holds one weight vector per lane. The likelihood ratios are
    taken against the log-probabilities of the first epoch, where every
    ratio is exactly one. ``update`` is the ``policy`` config section; its
    ``epochs``, ``lr``, ``normalize_advantages`` and ``optimizer`` set the
    update. Advantages are (optionally) normalized per objective, then
    collapsed with the simplex weights ``omega``; by linearity this ascends
    the same direction as the omega-weighted combination of per-objective
    surrogates. The critic regresses its per-objective return targets with
    the same optimizer settings, on ``0.5 * mean((V(s) - target)^2)`` over
    the rows and objectives. The scalarized advantages and the return
    targets are cast to the params' dtype once, and the optimizers' state is
    of that dtype. Each epoch is one pass, one backprop and one in-place
    optimizer step per network, and both networks' passes and backprops
    write into the batch's ``workspace``. Returns the updated (params,
    critic_params) snapshots; the batch's snapshot and learning signals are
    not mutated.
    """
    m = batch.advantages.shape[-1]
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1:] != (m,):
        raise ValueError(f"omega has {omega.shape[-1:]} components, batch has {m} objectives")
    omega = validate_weights(omega)
    adv = batch.advantages
    if update.normalize_advantages:
        adv = normalize_per_objective(adv)
    dtype = batch.params.dtype
    scalar_adv = (adv @ omega[..., None])[..., 0].astype(dtype, copy=False)
    returns = batch.returns.astype(dtype, copy=False)
    n = scalar_adv.shape[-1]
    positive = scalar_adv >= 0.0

    # The update is prepared once: its own copies of both networks' params,
    # stepped in place, their layers split once as views into the copies,
    # and one output and gradient array each. The policy's and the critic's
    # passes share the batch's hidden-layer buffers: one ``hidden`` sizes
    # both, and the critic's pass starts after the policy's backprop has
    # read them.
    states, actions, rows = batch.states, batch.actions, batch.states.shape[:-1]
    params, critic_params = batch.params.copy(), batch.critic_params.copy()
    layers = policy.net.split(policy._net_params(params))
    critic_layers = critic.split(critic_params)
    hid, *work = batch.workspace
    mu, values = np.empty(rows + (policy.action_dim,), dtype), np.empty(rows + (m,), dtype)
    grad_out, critic_grad = np.empty_like(params), np.empty_like(critic_params)
    lr = update.lr
    policy_opt = _OPTIMIZERS[update.optimizer](params, lr)
    # The critic is plain regression; Adam keeps it robust under either choice.
    critic_opt = _Adam(critic_params, lr if update.optimizer == "adam" else min(lr, 5e-3))
    for epoch in range(update.epochs):
        policy.net.apply(layers, states, mu, hid)
        log_probs, grad = policy.score(params, states, actions, (mu, (layers, states, hid)))
        if epoch == 0:
            # Every ratio is exactly one, so every row takes the unclipped branch.
            old_log_probs, coeffs = log_probs, scalar_adv / n
        else:
            ratio = np.exp(log_probs - old_log_probs)
            # Gradient flows only where the unclipped branch is the active min.
            active = np.where(positive, ratio <= 1.0 + _CLIP_EPS, ratio >= 1.0 - _CLIP_EPS)
            coeffs = np.where(active, ratio * scalar_adv, 0.0) / n
        policy_opt.step(params, np.negative(grad(coeffs, grad_out, work), out=grad_out))
        critic.apply(critic_layers, states, values, hid)
        critic_opt.step(critic_params, critic.backprop(
            (critic_layers, states, hid), (values - returns) / (n * m), critic_grad, work))
    return params, critic_params
