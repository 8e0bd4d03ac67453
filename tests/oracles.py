"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the simplex
projection is solved by bisection on the KKT threshold, the minimum-norm
problem by grid search over the simplex, hypervolumes by Monte Carlo (and
the 3-D one, bit for bit, by the per-level loop that sorted every level
again), sparsity's distinct rows by ``np.unique``, an environment step
by ``env_step``, the reference composition of the pieces a rollout
composes itself (``clamp``, ``transition`` and ``rewards``), the
quadratic-environment frontier by closed form / dense sampling,
``mo_point``'s start states by SplitMix64 on Python ints masked to 64 bits,
archive non-domination by a pairwise audit, the stacked minimum-norm solve
by the one-lane solver it replaced, the stacked generation step by the
per-lane training loop it replaced (on lanes the trainer plans), the
buffered PPO update by the allocating one it replaced (with the
``np.mean``/``np.std`` advantage normalization and ``np.sum`` bias
gradients), the policy's scores and gradient set by the rows-major
Gaussian head that update scores with, a rollout's actions by the
policy's mean from that update's network pass plus its std times the
noise, and the archive's one-test and batch inserts by the three-test
insert it replaced.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from moascent import evolution
from moascent.archive import NonDominatedSet, PolicyEntry
from moascent.evolution import Trainer, ascent_weights
from moascent.pareto import validate_weights
from moascent.policy import (
    collect_batch,
    estimate_gradient_set,
    ppo_update,
)


def project_simplex_bisect(v: np.ndarray) -> np.ndarray:
    """Projection onto the simplex via bisection on the shift threshold.

    The projection has the form max(v - tau, 0) with tau chosen so the
    result sums to one; the sum is monotone in tau, so bisection nails it.
    """
    v = np.asarray(v, dtype=float)
    lo = v.max() - 1.0  # sum(max(v - lo, 0)) >= 1
    hi = v.max()        # sum == 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, None).sum() >= 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, None)


def _quad_form(alphas: np.ndarray, K: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", alphas, K, alphas)


def min_norm_grid_m2(G: np.ndarray) -> float:
    """Exhaustive grid at 1e-3 over alpha_1, refined locally to 1e-6."""
    K = G @ G.T
    a = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    f = a * a * K[0, 0] + 2 * a * (1 - a) * K[0, 1] + (1 - a) * (1 - a) * K[1, 1]
    best = a[np.argmin(f)]
    lo, hi = max(0.0, best - 2e-3), min(1.0, best + 2e-3)
    a2 = np.arange(lo, hi + 1e-12, 1e-6)
    f2 = a2 * a2 * K[0, 0] + 2 * a2 * (1 - a2) * K[0, 1] + (1 - a2) * (1 - a2) * K[1, 1]
    return float(f2.min())


_M3_BASE_STEP = 5e-3
_m3_base_grid: np.ndarray | None = None


def _m3_grid() -> np.ndarray:
    global _m3_base_grid
    if _m3_base_grid is None:
        step = _M3_BASE_STEP
        cols = []
        for x in np.arange(0.0, 1.0 + step / 2, step):
            ys = np.arange(0.0, 1.0 - x + step / 2, step)
            cols.append(np.stack([np.full_like(ys, x), ys, 1.0 - x - ys], axis=1))
        _m3_base_grid = np.concatenate(cols)
    return _m3_base_grid


def min_norm_grid_m3(G: np.ndarray) -> float:
    """Simplex grid search refined to 1e-6 resolution.

    The base grid is coarser than 1e-3 for runtime; the objective is a
    convex quadratic, so refining around the coarse minimum cannot miss
    the global one.
    """
    K = G @ G.T
    base = _m3_grid()
    best = base[np.argmin(_quad_form(base, K))]
    step = _M3_BASE_STEP
    while step > 1e-6:
        new_step = step / 10.0
        offsets = np.arange(-step, step + new_step / 2, new_step)
        xs = best[0] + offsets
        ys = best[1] + offsets
        XX, YY = np.meshgrid(xs, ys)
        A = np.stack([XX.ravel(), YY.ravel(), 1.0 - XX.ravel() - YY.ravel()], axis=1)
        A = A[(A >= -1e-12).all(axis=1)]
        best = A[np.argmin(_quad_form(A, K))]
        step = new_step
    return float(best @ K @ best)


def min_norm_grid(G: np.ndarray) -> float:
    if G.shape[0] == 2:
        return min_norm_grid_m2(G)
    if G.shape[0] == 3:
        return min_norm_grid_m3(G)
    raise ValueError("grid oracle supports 2 or 3 objectives")


def min_norm_one_lane(G: np.ndarray):
    """The one-lane face-by-face solver the stacked one replaced.

    Returns ``(alpha, direction, squared_norm, stationary)`` for one (m, d)
    gradient matrix: every edge by the clamped closed form, every larger
    face by its bordered KKT system (skipped when singular or not all
    positive), and the first candidate of least ``w @ K @ w`` kept.
    """
    G = np.asarray(G, dtype=float)
    m = G.shape[0]
    K = G @ G.T
    K = 0.5 * (K + K.T)
    candidates = []
    for i, j in combinations(range(m), 2):
        a = two_objective_alpha_one_lane(G[i], G[j])
        w = np.zeros(m)
        w[i], w[j] = a, 1.0 - a
        candidates.append(w)
    for size in range(3, m + 1):
        for face in combinations(range(m), size):
            face = list(face)
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = K[np.ix_(face, face)]
            kkt[size, size] = 0.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                solution = np.linalg.solve(kkt, rhs)[:size]
            except np.linalg.LinAlgError:
                continue
            if np.all(solution > 0.0):
                w = np.zeros(m)
                w[face] = solution / solution.sum()
                candidates.append(w)
    alpha = min(candidates, key=lambda w: float(w @ K @ w))
    direction = G.T @ alpha
    squared_norm = float(direction @ direction)
    return alpha, direction, squared_norm, squared_norm <= 1e-8 * (1.0 + float(K.diagonal().max()))


def two_objective_alpha_one_lane(g1: np.ndarray, g2: np.ndarray) -> float:
    """The one-lane closed form: ``((g2 - g1) . g2) / ||g1 - g2||^2`` clamped to [0, 1]."""
    diff = g1 - g2
    denom = float(diff @ diff)
    if denom < 1e-24:
        return 0.5
    a = float((g2 - g1) @ g2) / denom
    return min(max(a, 0.0), 1.0)


def dominates(a, b) -> bool:
    """True iff ``a >= b`` componentwise and ``a != b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def mutually_non_dominated(entries) -> bool:
    """Pairwise audit: no entry's objectives dominate another's."""
    objectives = [e.objectives for e in entries]
    for i, a in enumerate(objectives):
        for b in objectives[i + 1 :]:
            if dominates(a, b) or dominates(b, a):
                return False
    return True


def dominated_mask_bruteforce(draws: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Reference dominance test: sample covered by some point, all coords."""
    return np.any(np.all(draws[:, None, :] <= P[None, :, :], axis=2), axis=1)


class _Staircase2D:
    """O(log n) dominance queries against a fixed 2-D point set."""

    def __init__(self, P: np.ndarray):
        order = np.argsort(P[:, 0])
        self.xs = P[order, 0]
        ys = P[order, 1]
        # suffix max: best second coordinate among points with x >= query
        self.suffix_y = np.maximum.accumulate(ys[::-1])[::-1]

    def dominated(self, draws: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.xs, draws[:, 0], side="left")
        inside = idx < self.xs.size
        ymax = np.full(draws.shape[0], -np.inf)
        ymax[inside] = self.suffix_y[np.minimum(idx[inside], self.xs.size - 1)]
        return draws[:, 1] <= ymax


def dominated_mask(draws: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Vectorized dominance test (is each sample covered by some point?)."""
    m = P.shape[1]
    if m == 2:
        return _Staircase2D(P).dominated(draws)
    if m == 3:
        levels = np.unique(P[:, 2])  # ascending
        stairs = [_Staircase2D(P[P[:, 2] >= level][:, :2]) for level in levels]
        # a sample needs a point whose third coordinate reaches it
        k = np.searchsorted(levels, draws[:, 2], side="left")
        out = np.zeros(draws.shape[0], dtype=bool)
        for level_idx in range(levels.size):
            members = k == level_idx
            if np.any(members):
                out[members] = stairs[level_idx].dominated(draws[members, :2])
        return out
    return dominated_mask_bruteforce(draws, P)


def mc_hypervolume(points: np.ndarray, z: np.ndarray, samples: int,
                   rng: np.random.Generator, chunk: int = 200_000) -> tuple[float, float]:
    """Monte-Carlo hypervolume estimate and its standard error."""
    P = np.asarray(points, dtype=float)
    z = np.asarray(z, dtype=float)
    upper = P.max(axis=0)
    box = float(np.prod(upper - z))
    hits = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        draws = rng.uniform(z, upper, size=(n, z.size))
        hits += int(dominated_mask(draws, P).sum())
        done += n
    p_hat = hits / samples
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / samples)) * box
    return p_hat * box, se


def hv2_sweep(points, z) -> float:
    """2-D hypervolume by the archive's sweep as it was before it shared one sort with 3-D."""
    points = np.asarray(points, dtype=float)
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    x = points[order, 0]
    y = points[order, 1]
    prev_best = np.maximum.accumulate(np.concatenate(([z[1]], y[:-1])))
    slabs = np.clip(y - prev_best, 0.0, None)
    return float(slabs @ (x - z[0]))


def hv3_per_level(points, z) -> float:
    """3-D hypervolume by the per-level loop the archive ran before it sorted once.

    The levels come from ``np.unique``, and each level's active points are
    sorted again by the 2-D sweep. The points must dominate ``z``.
    """
    points = np.asarray(points, dtype=float)
    z = np.asarray(z, dtype=float)
    levels = np.unique(points[:, 2])[::-1]
    volume = 0.0
    for k, level in enumerate(levels):
        lower = levels[k + 1] if k + 1 < len(levels) else z[2]
        thickness = level - lower
        if thickness == 0.0:
            continue
        active = points[points[:, 2] >= level][:, :2]
        volume += hv2_sweep(active, z[:2]) * thickness
    return float(volume)


def sparsity_unique(points) -> float | None:
    """Sparsity with distinct rows from ``np.unique(P, axis=0)``, as the archive computed it
    before it found them by one sort; None with fewer than two distinct rows."""
    P = np.asarray(list(points), dtype=float)
    if P.size == 0:
        return None
    P = np.unique(P, axis=0)
    n = P.shape[0]
    if n <= 1:
        return None
    total = 0.0
    for i in range(P.shape[1]):
        gaps = np.diff(np.sort(P[:, i]))
        total += float(gaps @ gaps)
    return total / (n - 1)


# --- one environment step -----------------------------------------------

def env_step(env, state, action):
    """Advance ``(..., state_dim)`` states under ``(..., action_dim)`` actions.

    The reference composition of the environment's pieces: reject actions
    of the wrong width or with a non-finite entry, then clamp them and apply
    ``transition`` and ``rewards``. Returns the next states and the
    ``(..., num_objectives)`` rewards.
    """
    state = np.asarray(state, dtype=float)
    action = np.asarray(action, dtype=float)
    if action.shape[-1:] != (env.spec.action_dim,):
        raise ValueError(
            f"action must have shape (..., {env.spec.action_dim}), got {action.shape}")
    if not np.isfinite(action).all():
        raise ValueError(f"non-finite action rejected: {action!r}")
    action = env.clamp(action)
    next_state = env.transition(state, action)
    return next_state, env.rewards(state, action, next_state)


# --- quadratic environment frontier ------------------------------------

def quad_front_points(targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Objective vectors of the optimal actions for the given weights.

    For simplex weights w the action sum_i w_i c_i maximizes the weighted
    reward of the quadratic environment; its image traces the frontier.
    """
    targets = np.asarray(targets, dtype=float)
    actions = weights @ targets
    diffs = actions[:, None, :] - targets[None, :, :]
    return -np.einsum("tij,tij->ti", diffs, diffs)


def quad2_front_hv_closed(s: float, z1: float, z2: float) -> float:
    """Closed-form hypervolume of the full two-target frontier.

    ``s`` is the squared distance between the two targets. The frontier is
    (-s(1-w)^2, -s w^2) for w in [0, 1]; integrating the dominated region
    against a reference (z1, z2) with z1, z2 <= -s collapses to
    ``z1 * z2 - s^2 / 6``.
    """
    if z1 > -s or z2 > -s:
        raise ValueError("closed form needs the reference below the frontier ends")
    return z1 * z2 - s * s / 6.0


def simplex_weight_grid(m: int, divisions: int) -> np.ndarray:
    """All lattice weights i/divisions on the (m-1)-simplex."""
    if m == 2:
        w = np.linspace(0.0, 1.0, divisions + 1)
        return np.stack([w, 1.0 - w], axis=1)
    if m == 3:
        rows = []
        for i in range(divisions + 1):
            for j in range(divisions + 1 - i):
                rows.append((i, j, divisions - i - j))
        return np.asarray(rows, dtype=float) / divisions
    raise ValueError("weight grids support 2 or 3 objectives")


# --- mo_point start states ----------------------------------------------

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, n: int) -> list[int]:
    """The first ``n`` outputs of SplitMix64 seeded with ``seed``, on Python ints."""
    state, out = seed & _MASK64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def point_start_position(seed: int, init_noise: float) -> list[float]:
    """``mo_point``'s start position for ``seed``: the top 53 bits of each of
    the first two SplitMix64 outputs as ``u`` in [0, 1), then
    ``-init_noise + 2 * init_noise * u``, in Python floats."""
    return [-init_noise + 2 * init_noise * ((z >> 11) * 2.0**-53)
            for z in splitmix64(seed, 2)]


# --- per-lane training path ---------------------------------------------

class PerLaneTrainer(Trainer):
    """The trainer with every lane trained alone and every snapshot evaluated alone.

    Only the generation step is replaced, by the loop the stacked one
    replaced: each lane runs its collect-and-update iterations on lane-less
    ``(d,)`` params, cast to the networks' dtype from its start, each
    snapshot is evaluated by its own ``evaluate`` call and offered to the
    archive as soon as it exists. The planning of the lanes is the trainer's
    own. The stacked trainer must reproduce it byte for byte.
    """

    def _train_lane(self, params, critic_params, iters, snapshot_every, rng, fixed_weights):
        upd = self.cfg.policy
        weights = fixed_weights
        fallbacks = 0
        snapshots = [] if iters else [(params, critic_params)]
        for it in range(iters):
            batch = collect_batch(self.env, self.policy, params, self.critic, critic_params,
                                  upd.batch_episodes, rng)
            if weights is None:
                grads = estimate_gradient_set(self.policy, batch, upd.normalize_advantages)
                weights, fell_back = ascent_weights(grads)
                fallbacks += int(fell_back)
            params, critic_params = ppo_update(self.policy, self.critic, batch, weights, upd)
            if (it + 1) % snapshot_every == 0 or it == iters - 1:
                snapshots.append((params, critic_params))
        return snapshots, fallbacks

    def _generation_step(self, state, generation, lanes, iters, snapshot_every):
        ref_to_slot = {e.params_ref: i for i, e in enumerate(state.population)}
        total_fallbacks = 0
        for lane, (source, origin, fixed_weights) in enumerate(lanes):
            rng = self._lane_rng(generation, lane)
            if origin is None:
                params = self.policy.init_params(rng, evolution._INIT_SCALE,
                                                 evolution._LOG_STD_INIT)
                critic_params = self.critic.init_params(rng, evolution._INIT_SCALE)
            else:
                params, critic_params = origin.params, origin.critic_params
            # The lane trains in the networks' dtype, cast from its start as the trainer's is.
            snapshots, fallbacks = self._train_lane(
                params.astype(evolution.NETWORK_DTYPE),
                critic_params.astype(evolution.NETWORK_DTYPE),
                iters, snapshot_every, rng, fixed_weights)
            total_fallbacks += fallbacks
            for snap_params, snap_critic in snapshots:
                entry = PolicyEntry(f"ckpt_{state.next_ref:06d}", self.evaluate(snap_params),
                                    generation, source, snap_params, snap_critic)
                state.next_ref += 1
                final_accepted = state.archive.insert(entry)
            if source == "pareto_ascent":
                state.population[ref_to_slot[origin.params_ref]] = entry
            elif source == "warmup" or final_accepted:
                state.population.append(entry)
        return total_fallbacks


# --- allocating PPO update ----------------------------------------------
# Each oracle computes in its params' dtype, as the functions it checks do.

def _net_forward(net, params, states):
    """Outputs, layers and hidden activations of ``net``, each product a new array.

    Each product is rounded to the params' dtype before its bias is added,
    as a pass of float64 states through float32 params rounds it.
    """
    layers = net.split(params)
    inputs, hid = states, None
    if net.hidden > 0:
        w1t, b1 = layers[0]
        hid = inputs = np.tanh((states @ w1t).astype(params.dtype, copy=False) + b1)
    wt, b = layers[-1]
    return (inputs @ wt).astype(params.dtype, copy=False) + b, layers, hid


def gaussian_act(policy, params, states, noise=None):
    """``policy``'s actions at ``states``: its mean, shifted by ``std * noise`` if given."""
    k = policy.net.num_params
    mu = _net_forward(policy.net, params[..., :k], np.atleast_2d(states))[0]
    if noise is None:
        return mu
    log_std = np.clip(params[..., k:], policy.log_std_min, policy.log_std_max)
    return mu + np.exp(log_std)[..., None, :] * noise


def _net_backprop(net, layers, states, hid, d_out):
    grad = np.empty(d_out.shape[:-2] + (net.num_params,), d_out.dtype)
    if net.hidden > 0:
        d_hid = (d_out @ layers[1][0].swapaxes(-1, -2)) * (1.0 - hid * hid)
        grads = [(d_hid, states), (d_out, hid)]
    else:
        grads = [(d_out, states)]
    i = 0
    for d_layer, inputs in grads:
        rows, cols = d_layer.shape[-1], inputs.shape[-1]
        grad[..., i : i + rows * cols] = (d_layer.swapaxes(-1, -2) @ inputs).reshape(
            grad.shape[:-1] + (rows * cols,))
        i += rows * cols
        grad[..., i : i + rows] = d_layer.sum(axis=-2)
        i += rows
    return grad


def normalize_mean_std(advantages):
    """``normalize_per_objective`` through ``np.mean`` and ``np.std``."""
    mean = advantages.mean(axis=-2, keepdims=True)
    std = advantages.std(axis=-2, keepdims=True)
    std = np.where(std < 1e-8, 1.0, std)
    return (advantages - mean) / std


def _policy_score(policy, params, states, actions):
    """``(log_probs, grad)`` as ``GaussianPolicy.score`` returns them."""
    k = policy.net.num_params
    mu, layers, hid = _net_forward(policy.net, params[..., :k], states)
    raw = params[..., k:]
    log_std = np.clip(raw, policy.log_std_min, policy.log_std_max)
    residual = actions - mu
    zscores = residual / np.exp(log_std)[..., None, :]
    log_probs = -0.5 * np.sum(zscores * zscores, axis=-1) \
        - log_std.sum(axis=-1)[..., None] - 0.5 * policy.action_dim * math.log(2.0 * math.pi)
    inv_var = np.exp(-2.0 * log_std)[..., None, :]
    zsq_minus_one = residual * residual * inv_var - 1.0
    active = (raw > policy.log_std_min) & (raw < policy.log_std_max)

    def grad(coeffs):
        coeffs = np.asarray(coeffs, dtype=params.dtype)
        out = np.empty_like(params)
        d_mu = coeffs[..., None] * residual * inv_var
        out[..., :k] = _net_backprop(policy.net, layers, states, hid, d_mu)
        d_log_std = (coeffs[..., None, :] @ zsq_minus_one)[..., 0, :]
        out[..., k:] = np.where(active, d_log_std, 0.0)
        return out

    return log_probs, grad


def gradient_set(policy, batch, normalize_advantages):
    """``estimate_gradient_set`` through ``_policy_score`` and ``normalize_mean_std``, as float64."""
    adv = normalize_mean_std(batch.advantages) if normalize_advantages else batch.advantages
    n, m = adv.shape[-2:]
    _, grad = _policy_score(policy, batch.params, batch.states, batch.actions)
    return np.stack([grad(adv[..., i] / n) for i in range(m)], axis=-2).astype(np.float64)


def _critic_grad(critic, params, states, targets):
    values, layers, hid = _net_forward(critic, params, states)
    count = values.shape[-2] * values.shape[-1]
    return _net_backprop(critic, layers, states, hid, (values - targets) / count)


class _AllocatingAdam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.lr, self.m, self.v, self.t = lr, np.zeros_like(params), np.zeros_like(params), 0

    def step(self, params, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _AllocatingSGD:
    def __init__(self, params, lr):
        self.lr = lr

    def step(self, params, grad):
        return params - self.lr * grad


_CLIP_EPS = 0.2


def ppo_update_allocating(policy, critic, batch, omega, update):
    """``ppo_update`` as it was before its passes wrote into buffers.

    Every network pass allocates its hidden-layer arrays afresh and the
    optimizers rebuild their moment arrays each step; the result must
    match the buffered update byte for byte. The scalarized advantages and
    the return targets are cast to the params' dtype.
    """
    params, critic_params = batch.params, batch.critic_params
    omega = validate_weights(np.asarray(omega, dtype=float))
    adv = batch.advantages
    if update.normalize_advantages:
        adv = normalize_mean_std(adv)
    scalar_adv = (adv @ omega[..., None])[..., 0].astype(params.dtype)
    returns = batch.returns.astype(params.dtype)
    n = scalar_adv.shape[-1]
    lr = update.lr
    opt = {"adam": _AllocatingAdam, "sgd": _AllocatingSGD}[update.optimizer]
    policy_opt = opt(params, lr)
    critic_opt = _AllocatingAdam(critic_params, lr if update.optimizer == "adam" else min(lr, 5e-3))
    for epoch in range(update.epochs):
        log_probs, grad = _policy_score(policy, params, batch.states, batch.actions)
        if epoch == 0:
            old_log_probs = log_probs
        ratio = np.exp(log_probs - old_log_probs)
        active = np.where(scalar_adv >= 0.0, ratio <= 1.0 + _CLIP_EPS, ratio >= 1.0 - _CLIP_EPS)
        coeffs = np.where(active, ratio * scalar_adv, 0.0) / n
        params = policy_opt.step(params, -grad(coeffs))
        value_grad = _critic_grad(critic, critic_params, batch.states, returns)
        critic_params = critic_opt.step(critic_params, value_grad)
    return params, critic_params


# --- three-test archive insert ------------------------------------------

class ThreeTestNonDominatedSet(NonDominatedSet):
    """The archive with the insert its one-test rejection replaced.

    It rejects an exact duplicate, then a candidate some member dominates,
    and evicts the members the candidate dominates, each test a separate
    comparison pass.
    """

    def insert(self, entry):
        c = entry.objectives
        if not self.entries:
            self.entries.append(entry)
            self._objectives = c[None].copy()
            return True
        P = self._objectives
        if np.any(np.all(P == c, axis=1)):
            return False
        if np.any(np.all(P >= c, axis=1) & np.any(P > c, axis=1)):
            return False
        dominated = np.all(c >= P, axis=1) & np.any(c > P, axis=1)
        self.entries = [e for e, dead in zip(self.entries, dominated) if not dead]
        self._objectives = np.concatenate([P[~dominated], c[None]])
        self.entries.append(entry)
        return True
