"""Generational multi-policy training loop.

A population of policies is improved generation by generation: a
partitioned greedy randomized (PGR) rule picks which population members to
update, each picked policy ascends its minimum-norm common ascent
direction, and from a configurable generation onward half the budget goes
to Pareto-adaptive fine-tuning (PA-FT): pairs of archive policies flanking
the widest frontier gaps are pushed into the gap, and the per-objective
best policies are pushed outward. Candidate snapshots feed a non-dominated
archive whose hypervolume and sparsity are recorded every generation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .archive import NonDominatedSet, PolicyEntry, hypervolume, sparsity
from .config import EvolutionConfig, PolicyConfig
from .momdp import MOMDPEnv, mo_return
from .pareto import min_norm_direction
from .policy import (
    GaussianPolicy,
    VectorCritic,
    collect_batch,
    estimate_gradient_set,
    ppo_update,
    run_episode,
)

__all__ = [
    "FinetuneJob",
    "Trainer",
    "TrainingState",
    "evenly_spread_weights",
    "gap_pair_weights",
    "paft_select",
    "pgr_select",
]

# Lane-index namespace for the per-generation selection RNG stream.
_SELECTION_STREAM = 1_000_000
# Namespace for the fixed evaluation episode seeds of a run.
_EVAL_STREAM = 2_000_000
# Candidates per PGR region, and the GAE lambda (the discount is the env's).
_PGR_TOP_K = 2
_GAE_LAMBDA = 0.95


@dataclass(frozen=True)
class FinetuneJob:
    """A fine-tuning assignment: start policy, fixed weights, provenance."""

    policy: PolicyEntry
    weights: np.ndarray
    kind: str  # "gap_pair" | "objective_extreme"


@dataclass
class TrainingState:
    """Mutable state threaded through the generations.

    ``next_ref`` numbers the snapshots taken so far; the entries of the
    population and the archive hold the only copies of their parameters.
    """

    population: list[PolicyEntry]
    archive: NonDominatedSet
    metrics: list[dict] = field(default_factory=list)
    selection_log: list[dict] = field(default_factory=list)
    stationary_fallbacks: int = 0
    next_ref: int = 0


def evenly_spread_weights(num_objectives: int, count: int) -> np.ndarray:
    """``count`` weight vectors evenly spread over the probability simplex.

    Two objectives use the uniform grid on [0, 1] (first row puts all
    weight on the last objective, matching ascending grid order). More
    objectives use the smallest simplex-lattice design with at least
    ``count`` points; when the lattice is larger, the corners are kept and
    the remainder is filled by deterministic greedy max-min-distance
    selection.
    """
    m, p = num_objectives, count
    if p < m:
        raise ValueError(f"need at least {m} policies to cover all objectives, got {p}")
    if m == 2:
        first = np.linspace(0.0, 1.0, p)
        return np.stack([first, 1.0 - first], axis=1)
    degree = m - 1
    while _lattice_size(degree, m) < p:
        degree += 1
    lattice = np.array(_simplex_lattice(degree, m), dtype=float) / degree
    if lattice.shape[0] == p:
        return lattice
    chosen = [i for i, row in enumerate(lattice) if np.isclose(row.max(), 1.0)]
    remaining = [i for i in range(lattice.shape[0]) if i not in chosen]
    while len(chosen) < p:
        dists = [
            min(float(np.linalg.norm(lattice[i] - lattice[j])) for j in chosen)
            for i in remaining
        ]
        pick = remaining.pop(int(np.argmax(dists)))
        chosen.append(pick)
    return lattice[sorted(chosen)]


def _lattice_size(degree: int, m: int) -> int:
    size = 1
    for i in range(1, m):
        size = size * (degree + i) // i
    return size


def _simplex_lattice(degree: int, m: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(degree,)]
    points = []
    for head in range(degree, -1, -1):
        for tail in _simplex_lattice(degree - head, m - 1):
            points.append((head, *tail))
    return points


def spread_directions(n: int) -> np.ndarray:
    """``n`` deterministic unit directions spread over the positive octant.

    Spiral construction: the third coordinate is area-uniform, the azimuth
    advances by the golden ratio within the quarter turn.
    """
    k = np.arange(n) + 0.5
    z = 1.0 - k / n
    r = np.sqrt(1.0 - z * z)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    phi = (np.pi / 2.0) * ((k * golden) % 1.0)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _region_assignments(diffs: np.ndarray, n_regions: int) -> np.ndarray:
    m = diffs.shape[1]
    if m == 2:
        angles = np.arctan2(diffs[:, 1], diffs[:, 0])
        width = (np.pi / 2.0) / n_regions
        # Boundary angles fall into the higher-angle region via floor;
        # the top boundary (90 degrees) stays in the last region.
        return np.minimum((angles / width).astype(int), n_regions - 1)
    if m == 3:
        centroids = spread_directions(n_regions)
        units = diffs / np.linalg.norm(diffs, axis=1, keepdims=True)
        return np.argmax(units @ centroids.T, axis=1)
    raise ValueError(f"region partitioning supports 2 or 3 objectives, got {m}")


def pgr_select(
    population: list[PolicyEntry],
    n_select: int,
    n_regions: int,
    top_k: int,
    reference_point,
    rng: np.random.Generator,
    log: list[dict] | None = None,
    generation: int | None = None,
) -> list[PolicyEntry]:
    """Partitioned greedy randomized selection of policies to update.

    Entries are bucketed into angular regions about the reference point;
    each non-empty region contributes one uniformly random pick from its
    ``top_k`` by distance from the reference point. Missing slots (empty
    regions) are refilled uniformly from the not-yet-selected remainder
    until ``n_select`` policies are chosen or the population runs out.
    """
    if not population:
        raise ValueError("cannot select from an empty population")
    Z = np.asarray(reference_point, dtype=float)
    J = np.stack([e.objectives for e in population])
    diffs = J - Z
    bad = ~(np.all(diffs >= 0.0, axis=1) & np.any(diffs > 0.0, axis=1))
    if np.any(bad):
        raise ValueError(
            f"population entry {J[np.argmax(bad)]} does not dominate "
            f"the reference point {Z}"
        )
    regions = _region_assignments(diffs, n_regions)
    dists = np.linalg.norm(diffs, axis=1)

    selected: list[int] = []
    for region in range(n_regions):
        if len(selected) >= n_select:
            break
        members = np.nonzero(regions == region)[0]
        if members.size == 0:
            continue
        ranked = members[np.argsort(-dists[members], kind="stable")]
        top = ranked[:top_k]
        pick = int(top[rng.integers(top.size)])
        selected.append(pick)
        if log is not None:
            log.append(
                {
                    "kind": "pgr",
                    "generation": generation,
                    "region": region,
                    "members": [population[i].params_ref for i in members],
                    "top_k": [population[i].params_ref for i in top],
                    "chosen": population[pick].params_ref,
                    "distance": float(dists[pick]),
                }
            )
    pool = [i for i in range(len(population)) if i not in selected]
    while len(selected) < n_select and pool:
        pick = pool.pop(int(rng.integers(len(pool))))
        selected.append(pick)
        if log is not None:
            log.append(
                {
                    "kind": "pgr_fill",
                    "generation": generation,
                    "chosen": population[pick].params_ref,
                    "distance": float(dists[pick]),
                }
            )
    return [population[i] for i in selected]


def gap_pair_weights(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Simplex weights steering a pair of policies into the gap between them.

    With ``u`` the unit vector from A to B in objective space, A gets the
    (renormalized) positive part of ``u`` and B the positive part of ``-u``,
    so each policy moves toward the gap from its own side. Degenerate
    all-zero parts (impossible for mutually non-dominated pairs) fall back
    to uniform weights.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = b - a
    norm = np.linalg.norm(u)
    if norm == 0.0:
        uniform = np.full(a.size, 1.0 / a.size)
        return uniform, uniform
    u = u / norm

    def positive_part(v: np.ndarray) -> np.ndarray:
        pos = np.clip(v, 0.0, None)
        total = pos.sum()
        if total <= 0.0:
            return np.full(v.size, 1.0 / v.size)
        return pos / total

    return positive_part(u), positive_part(-u)


def _gap_edges(P: np.ndarray) -> list[tuple[int, int, float]]:
    """Pairs of points flanking empty frontier regions, widest first.

    A pair qualifies when the open ball on its diameter contains no other
    frontier point, i.e. the region between the two points is genuinely
    empty. For two objectives this reduces to consecutive points of the
    frontier staircase; every mutually-nearest pair qualifies in any
    dimension.
    """
    n, m = P.shape
    edges: list[tuple[int, int, float]] = []
    if m == 2:
        order = np.argsort(P[:, 0], kind="stable")
        for a, b in zip(order, order[1:]):
            edges.append((int(a), int(b), float(np.linalg.norm(P[a] - P[b]))))
    else:
        for i, j in combinations(range(n), 2):
            mid = 0.5 * (P[i] + P[j])
            radius_sq = 0.25 * float((P[i] - P[j]) @ (P[i] - P[j]))
            others = np.delete(np.arange(n), [i, j])
            if others.size:
                d_sq = np.einsum("ij,ij->i", P[others] - mid, P[others] - mid)
                if np.any(d_sq < radius_sq - 1e-12):
                    continue
            edges.append((i, j, float(np.sqrt(4.0 * radius_sq))))
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges


def paft_select(ndset: NonDominatedSet, config: EvolutionConfig) -> list[FinetuneJob]:
    """Plan the fine-tuning jobs for one generation.

    Emits two jobs per selected gap pair (weights pointing into the gap
    from either side, widest gaps first) followed by one job per objective
    for the current per-objective best entry (weights on that objective
    alone); the list is truncated to the fine-tuning lane budget.
    """
    entries = list(ndset)
    if len(entries) < 2:
        raise ValueError("fine-tuning selection needs at least two frontier entries")
    P = np.stack([e.objectives for e in entries])
    m = P.shape[1]
    p_b = config.p // 2
    n_pairs = config.paft_pairs
    if n_pairs is None:
        n_pairs = max(0, (p_b - m) // 2)

    jobs: list[FinetuneJob] = []
    if n_pairs > 0:
        for i, j, _ in _gap_edges(P)[:n_pairs]:
            w_i, w_j = gap_pair_weights(P[i], P[j])
            jobs.append(FinetuneJob(entries[i], w_i, "gap_pair"))
            jobs.append(FinetuneJob(entries[j], w_j, "gap_pair"))
    for objective in range(m):
        best = int(np.argmax(P[:, objective]))
        weights = np.zeros(m)
        weights[objective] = 1.0
        jobs.append(FinetuneJob(entries[best], weights, "objective_extreme"))
    return jobs[:p_b]


_JOB_SOURCE = {"gap_pair": "paft_pair", "objective_extreme": "paft_extreme"}


def ascent_weights(grads) -> tuple[np.ndarray, bool]:
    """Scalarization weights from the minimum-norm solution.

    Returns ``(weights, fallback)``: the minimizing convex weights, or
    uniform weights with ``fallback=True`` when the policy is already
    stationary (no preference should be injected in that case, and the
    lane stays productive).
    """
    result = min_norm_direction(grads)
    if result.stationary:
        m = np.asarray(grads).shape[0]
        return np.full(m, 1.0 / m), True
    return result.alpha, False


class Trainer:
    """Runs warmup and the generational loop on one environment.

    ``evolution`` and ``update`` are the ``evolution`` and ``policy`` config
    sections, used as they are (``evolution.reference_point`` must be set).
    ``eval_episodes`` and ``paft_enabled`` are the ``eval.episodes`` and
    ``paft.enabled`` values. Training and scoring share ``env.spec.gamma``.
    """

    def __init__(
        self,
        env: MOMDPEnv,
        policy: GaussianPolicy,
        critic: VectorCritic,
        evolution: EvolutionConfig,
        update: PolicyConfig,
        seed: int,
        eval_episodes: int,
        paft_enabled: bool,
    ):
        if policy.state_dim != env.spec.state_dim or policy.action_dim != env.spec.action_dim:
            raise ValueError("policy dimensions do not match the environment")
        if critic.num_objectives != env.spec.num_objectives:
            raise ValueError("critic output count does not match the objectives")
        self.env = env
        self.policy = policy
        self.critic = critic
        self.evolution = evolution
        self.update = update
        self.seed = seed
        self.paft_enabled = paft_enabled
        eval_ss = np.random.SeedSequence([seed, _EVAL_STREAM])
        self.eval_seeds = [int(s) for s in eval_ss.generate_state(eval_episodes)]
        self.state: TrainingState | None = None

    def _lane_rng(self, generation: int, lane: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, generation, lane]))

    def evaluate(self, params: np.ndarray) -> np.ndarray:
        """Mean objective vectors of deterministic policies on the fixed eval episodes.

        ``params`` is one ``(d,)`` snapshot or an ``(S, d)`` stack, rolled out
        together; returns ``(m,)`` or ``(S, m)``.
        """
        _, _, rewards, _, _ = run_episode(self.env, self.policy, params, self.eval_seeds)
        return mo_return(rewards, self.env.spec.gamma).mean(axis=-2)

    def _snapshot_entries(self, state: TrainingState, params: np.ndarray,
                          critic_params: np.ndarray, generation: int,
                          sources) -> list[list[PolicyEntry]]:
        """Evaluate ``(L, K, ·)`` snapshot stacks in one rollout and wrap them in entries.

        Entries are numbered ``ckpt_%06d`` in lane order, then snapshot order,
        and returned as one list of K entries per lane.
        """
        L, K = params.shape[:2]
        objectives = self.evaluate(params.reshape(L * K, -1)).reshape(L, K, -1)
        entries = []
        for lane, source in enumerate(sources):
            entries.append([])
            for k in range(K):
                ref = f"ckpt_{state.next_ref:06d}"
                state.next_ref += 1
                entries[-1].append(PolicyEntry(ref, objectives[lane, k], generation, source,
                                               params[lane, k], critic_params[lane, k]))
        return entries

    def _train_lanes(self, params, critic_params, iters, rngs, fixed_weights):
        """Run ``iters`` collect-and-update iterations on a stack of L lanes.

        ``params`` and ``critic_params`` are ``(L, ·)`` stacks, ``rngs`` holds
        one generator per lane and ``fixed_weights`` one weight vector or
        None per lane. A lane with None takes its weights from the
        minimum-norm ascent solution at the first iteration's batch; a
        stationary solve falls back to uniform weights for the generation.
        Returns the final (params, critic_params), the ``(L, K, ·)`` stacks of
        the K snapshots taken, and the number of stationary fallbacks.
        """
        upd = self.update
        weights = list(fixed_weights)
        fallbacks = 0
        snapshots = []
        for it in range(iters):
            batch = collect_batch(
                self.env, self.policy, params, self.critic, critic_params,
                upd.batch_episodes, self.env.spec.gamma, _GAE_LAMBDA, rngs,
            )
            for lane, lane_weights in enumerate(weights):
                if lane_weights is None:
                    grads = estimate_gradient_set(self.policy, params[lane], batch.lane(lane),
                                                  upd.normalize_advantages)
                    weights[lane], fell_back = ascent_weights(grads)
                    fallbacks += int(fell_back)
            params, critic_params = ppo_update(
                self.policy, params, self.critic, critic_params, batch, np.stack(weights), upd
            )
            if (it + 1) % self.evolution.snapshot_every == 0 or it == iters - 1:
                snapshots.append((params, critic_params))
        snap_params = np.stack([p for p, _ in snapshots], axis=1)
        snap_critic = np.stack([c for _, c in snapshots], axis=1)
        return params, critic_params, (snap_params, snap_critic), fallbacks

    def warmup(self, state: TrainingState) -> None:
        """Train the initial population: one evenly spread weight per policy."""
        cfg = self.evolution
        upd = self.update
        m = self.env.spec.num_objectives
        weight_grid = evenly_spread_weights(m, cfg.p)
        rngs = [self._lane_rng(0, lane) for lane in range(cfg.p)]
        inits = [
            (self.policy.init_params(rng, upd.init_scale, upd.log_std_init),
             self.critic.init_params(rng, upd.init_scale))
            for rng in rngs
        ]
        params = np.stack([p for p, _ in inits])
        critic_params = np.stack([c for _, c in inits])
        if cfg.m_w > 0:
            params, critic_params, _, _ = self._train_lanes(
                params, critic_params, cfg.m_w, rngs, fixed_weights=list(weight_grid),
            )
        entries = self._snapshot_entries(state, params[:, None], critic_params[:, None], 0,
                                         ["warmup"] * cfg.p)
        for (entry,) in entries:
            state.population.append(entry)
            state.archive.insert(entry)

    def run_generation(self, state: TrainingState, gen_index: int) -> TrainingState:
        """Run one generation (0-based index); mutates and returns ``state``.

        Every lane's origin, weights and RNG are fixed before training, so
        all lanes train as one stack and all their snapshots are evaluated
        in one rollout; entries are then offered to the archive in lane order.
        """
        cfg = self.evolution
        p = cfg.p
        generation = gen_index + 1
        paft_active = self.paft_enabled and gen_index >= cfg.M_ft
        p_a, p_b = (p // 2, p // 2) if paft_active else (p, 0)

        sel_rng = self._lane_rng(generation, _SELECTION_STREAM)
        # One angular region per ascent lane.
        selected = pgr_select(
            state.population, p_a, p_a, _PGR_TOP_K,
            cfg.reference_point, sel_rng,
            log=state.selection_log, generation=generation,
        )
        ref_to_slot = {e.params_ref: i for i, e in enumerate(state.population)}

        jobs: list[FinetuneJob] = []
        if p_b > 0 and len(state.archive) >= 2:
            jobs = paft_select(state.archive, cfg)
            for job in jobs:
                state.selection_log.append(
                    {
                        "kind": "paft",
                        "generation": generation,
                        "job": job.kind,
                        "policy": job.policy.params_ref,
                        "weights": [float(w) for w in job.weights],
                    }
                )

        lanes: list[tuple[str, PolicyEntry, np.ndarray | None]] = [
            ("pareto_ascent", entry, None) for entry in selected
        ]
        lanes.extend((_JOB_SOURCE[j.kind], j.policy, j.weights) for j in jobs)
        sources, origins, fixed_weights = zip(*lanes)
        _, _, (snap_params, snap_critic), fallbacks = self._train_lanes(
            np.stack([o.params for o in origins]),
            np.stack([o.critic_params for o in origins]),
            cfg.m_iters,
            [self._lane_rng(generation, lane) for lane in range(len(lanes))],
            fixed_weights,
        )
        state.stationary_fallbacks += fallbacks
        entries = self._snapshot_entries(state, snap_params, snap_critic, generation, sources)
        for source, origin, lane_entries in zip(sources, origins, entries):
            for entry in lane_entries:
                final_accepted = state.archive.insert(entry)
            if source == "pareto_ascent":
                state.population[ref_to_slot[origin.params_ref]] = entry
            elif final_accepted:
                # Fine-tuned policies join the population only when their
                # final snapshot survived the archive update.
                state.population.append(entry)
        return state

    def _record_metrics(self, state: TrainingState, generation: int,
                        fallbacks: int, seconds: float) -> None:
        points = state.archive.objectives_matrix()
        state.metrics.append(
            {
                "generation": generation,
                "hv": hypervolume(points, self.evolution.reference_point),
                "sp": sparsity(points),
                "archive_size": len(state.archive),
                "stationary_fallbacks": fallbacks,
                "seconds": seconds,
            }
        )

    def run_training(self) -> tuple[NonDominatedSet, list[dict]]:
        """Warmup plus all generations; returns the archive and metric rows.

        Fully deterministic given the configured seed. The trainer keeps
        the final :class:`TrainingState` on ``self.state`` for exporting
        checkpoints and the selection log.
        """
        state = TrainingState(population=[], archive=NonDominatedSet())
        self.state = state
        start = time.perf_counter()
        self.warmup(state)
        self._record_metrics(state, 0, 0, time.perf_counter() - start)
        for gen_index in range(self.evolution.M):
            start = time.perf_counter()
            before = state.stationary_fallbacks
            self.run_generation(state, gen_index)
            self._record_metrics(
                state,
                gen_index + 1,
                state.stationary_fallbacks - before,
                time.perf_counter() - start,
            )
        return state.archive, state.metrics
