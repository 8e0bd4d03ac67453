"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the simplex
projection is solved by bisection on the KKT threshold, the minimum-norm
problem by grid search over the simplex, hypervolumes by Monte Carlo, and
the quadratic-environment frontier by closed form / dense sampling,
archive non-domination by a pairwise audit, and the stacked generation step
by the per-lane training loop it replaced.
"""

from __future__ import annotations

import numpy as np

from moascent import evolution
from moascent.archive import PolicyEntry
from moascent.evolution import (
    Trainer,
    ascent_weights,
    evenly_spread_weights,
    paft_select,
    pgr_select,
)
from moascent.policy import collect_batch, estimate_gradient_set, ppo_update


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


# --- per-lane training path ---------------------------------------------

class PerLaneTrainer(Trainer):
    """The trainer with every lane trained alone and every snapshot evaluated alone.

    This is the loop the stacked generation step replaced: each lane runs
    its collect-and-update iterations on lane-less ``(d,)`` params, each
    snapshot is evaluated by its own ``evaluate`` call and offered to the
    archive as soon as it exists. The stacked trainer must reproduce it
    byte for byte.
    """

    def _snapshot_entry(self, state, params, critic_params, generation, source):
        ref = f"ckpt_{state.next_ref:06d}"
        state.next_ref += 1
        return PolicyEntry(ref, self.evaluate(params), generation, source,
                           params, critic_params)

    def _train_lane(self, params, critic_params, iters, rng, fixed_weights):
        upd = self.update
        weights = fixed_weights
        fallbacks = 0
        snapshots = []
        for it in range(iters):
            batch = collect_batch(
                self.env, self.policy, params, self.critic, critic_params,
                upd.batch_episodes, self.env.spec.gamma, evolution._GAE_LAMBDA, rng,
            )
            if weights is None:
                grads = estimate_gradient_set(self.policy, params, batch,
                                              upd.normalize_advantages)
                weights, fell_back = ascent_weights(grads)
                fallbacks += int(fell_back)
            params, critic_params = ppo_update(
                self.policy, params, self.critic, critic_params, batch, weights, upd
            )
            if (it + 1) % self.evolution.snapshot_every == 0 or it == iters - 1:
                snapshots.append((params, critic_params))
        return params, critic_params, snapshots, fallbacks

    def warmup(self, state):
        cfg = self.evolution
        upd = self.update
        weight_grid = evenly_spread_weights(self.env.spec.num_objectives, cfg.p)
        for lane in range(cfg.p):
            rng = self._lane_rng(0, lane)
            params = self.policy.init_params(rng, upd.init_scale, upd.log_std_init)
            critic_params = self.critic.init_params(rng, upd.init_scale)
            if cfg.m_w > 0:
                params, critic_params, _, _ = self._train_lane(
                    params, critic_params, cfg.m_w, rng, fixed_weights=weight_grid[lane],
                )
            entry = self._snapshot_entry(state, params, critic_params, 0, "warmup")
            state.population.append(entry)
            state.archive.insert(entry)

    def run_generation(self, state, gen_index):
        cfg = self.evolution
        p = cfg.p
        generation = gen_index + 1
        paft_active = self.paft_enabled and gen_index >= cfg.M_ft
        p_a, p_b = (p // 2, p // 2) if paft_active else (p, 0)
        sel_rng = self._lane_rng(generation, evolution._SELECTION_STREAM)
        selected = pgr_select(
            state.population, p_a, p_a, evolution._PGR_TOP_K,
            cfg.reference_point, sel_rng,
            log=state.selection_log, generation=generation,
        )
        ref_to_slot = {e.params_ref: i for i, e in enumerate(state.population)}
        jobs = []
        if p_b > 0 and len(state.archive) >= 2:
            jobs = paft_select(state.archive, cfg)
            for job in jobs:
                state.selection_log.append({
                    "kind": "paft", "generation": generation, "job": job.kind,
                    "policy": job.policy.params_ref,
                    "weights": [float(w) for w in job.weights],
                })
        lanes = [("pareto_ascent", entry, None) for entry in selected]
        lanes.extend((evolution._JOB_SOURCE[j.kind], j.policy, j.weights) for j in jobs)
        for lane_index, (source, origin, fixed_weights) in enumerate(lanes):
            rng = self._lane_rng(generation, lane_index)
            _, _, snapshots, fallbacks = self._train_lane(
                origin.params, origin.critic_params, cfg.m_iters, rng, fixed_weights
            )
            state.stationary_fallbacks += fallbacks
            for snap_params, snap_critic in snapshots:
                entry = self._snapshot_entry(state, snap_params, snap_critic, generation, source)
                final_accepted = state.archive.insert(entry)
            if source == "pareto_ascent":
                state.population[ref_to_slot[origin.params_ref]] = entry
            elif final_accepted:
                state.population.append(entry)
        return state
