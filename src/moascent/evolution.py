"""Generational multi-policy training loop.

A population of policies is improved generation by generation: a
partitioned greedy randomized (PGR) rule picks which population members to
update, each picked policy ascends its minimum-norm common ascent
direction, and in the generations after a configurable one half the budget
goes to Pareto-adaptive fine-tuning (PA-FT): pairs of archive policies
flanking the widest frontier gaps are pushed into the gap, and the
per-objective best policies are pushed outward. Candidate snapshots feed a
non-dominated archive whose hypervolume and sparsity are recorded every
generation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .archive import NonDominatedSet, PolicyEntry, hypervolume, sparsity
from .config import Config, EvolutionConfig
from .momdp import make_env, mo_return
from .pareto import min_norm_direction
from .policy import (
    GaussianPolicy,
    Network,
    collect_batch,
    estimate_gradient_set,
    hidden_workspace,
    ppo_update,
    run_episode,
)

__all__ = [
    "Lane",
    "NETWORK_DTYPE",
    "Trainer",
    "TrainingState",
    "eval_seeds",
    "evenly_spread_weights",
    "gap_pair_weights",
    "paft_select",
    "pgr_select",
]

# Lane-index namespace for the per-generation selection RNG stream.
_SELECTION_STREAM = 1_000_000
# Namespace for the fixed evaluation episode seeds of a run.
_EVAL_STREAM = 2_000_000
# Candidates per PGR region.
_PGR_TOP_K = 2
# Initial weight scale of the policy and critic, and the policy's initial log-std.
_INIT_SCALE = 0.1
_LOG_STD_INIT = -0.5
# The dtype of the trainer's policies, critics, optimizer state, workspace,
# archive snapshots and checkpoint store. GAE, the gradient set the min-norm
# solve takes and the objectives stay float64.
NETWORK_DTYPE = np.float32


def eval_seeds(seed: int, episodes: int) -> list[int]:
    """The reset seeds of a run's ``episodes`` fixed evaluation episodes.

    A shorter list is a prefix of a longer one, so the first ``n`` seeds
    are the same whatever the count drawn.
    """
    return [int(s) for s in np.random.SeedSequence([seed, _EVAL_STREAM]).generate_state(episodes)]


# One update of a generation: its entry source, the entry it starts from
# (None for a fresh warm-up policy) and its fixed scalarization weights
# (None for the min-norm ascent weights).
Lane = tuple[str, PolicyEntry | None, np.ndarray | None]


@dataclass
class TrainingState:
    """The whole state of a run between generations; ``run_training`` returns it.

    ``next_ref`` numbers the snapshots taken so far; the entries of the
    population and the archive hold the only copies of their parameters.
    """

    population: list[PolicyEntry]
    archive: NonDominatedSet
    metrics: list[dict] = field(default_factory=list)
    selection_log: list[dict] = field(default_factory=list)
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
    while math.comb(degree + m - 1, m - 1) < p:
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
            d_sq = np.einsum("ij,ij->i", P - mid, P - mid)
            d_sq[[i, j]] = np.inf
            if np.any(d_sq < radius_sq - 1e-12):
                continue
            edges.append((i, j, float(np.sqrt(4.0 * radius_sq))))
    edges.sort(key=lambda e: (-e[2], e[0], e[1]))
    return edges


def paft_select(ndset: NonDominatedSet, config: EvolutionConfig) -> list[Lane]:
    """Plan the fine-tuning lanes of one generation.

    Emits two ``paft_pair`` lanes per selected gap pair (weights pointing
    into the gap from either side, widest gaps first) followed by one
    ``paft_extreme`` lane per objective from the current per-objective best
    entry (weights on that objective alone); the list is truncated to the
    fine-tuning lane budget.
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

    lanes: list[Lane] = []
    if n_pairs > 0:
        for i, j, _ in _gap_edges(P)[:n_pairs]:
            w_i, w_j = gap_pair_weights(P[i], P[j])
            lanes += [("paft_pair", entries[i], w_i), ("paft_pair", entries[j], w_j)]
    for objective in range(m):
        best = int(np.argmax(P[:, objective]))
        lanes.append(("paft_extreme", entries[best], np.eye(m)[objective]))
    return lanes[:p_b]


# The ``job`` label of a fine-tuning lane's ``selection.jsonl`` record, by source.
_JOB = {"paft_pair": "gap_pair", "paft_extreme": "objective_extreme"}


def ascent_weights(grads) -> tuple[np.ndarray, np.ndarray]:
    """Scalarization weights from the minimum-norm solution, per lane of ``(..., m, d)`` grads.

    Returns ``(weights, fallback)``: the ``(..., m)`` minimizing convex
    weights, and the ``(...)`` flags of the lanes that are already
    stationary, whose weights are uniform instead (no preference should be
    injected there, and the lane stays productive).
    """
    result = min_norm_direction(grads)
    m = result.alpha.shape[-1]
    return np.where(result.stationary[..., None], 1.0 / m, result.alpha), result.stationary


class Trainer:
    """Runs the warm-up (generation 0) and the generations of one seed of a config.

    ``warmup`` and ``run_generation`` plan a generation's lanes, and
    ``_generation_step`` trains, evaluates and commits them.
    The environment, the policy and the critic, a ``Network`` with one
    output per objective, are built from ``cfg``, which has checked itself
    against that environment, so their dimensions agree; the trainer keeps
    ``cfg`` and reads its settings from it. Training and scoring share
    ``env.spec.gamma``.

    The networks run in ``NETWORK_DTYPE``: each generation casts its
    lanes' start stack to it, and ``evaluate`` casts the params it rolls
    out. The trainer's ``workspace`` is one ``hidden_workspace`` of that
    dtype for the run, sized for ``p`` lanes of one batch each.
    """

    def __init__(self, cfg: Config, seed: int):
        env = make_env(cfg.env.name, **cfg.env.params)
        spec, hidden = env.spec, cfg.policy.hidden
        self.env = env
        self.policy = GaussianPolicy(spec.state_dim, spec.action_dim, hidden)
        self.critic = Network(spec.state_dim, spec.num_objectives, hidden)
        self.cfg = cfg
        self.seed = seed
        self.eval_seeds = eval_seeds(seed, cfg.eval.episodes)
        self.workspace = hidden_workspace(
            hidden, (cfg.evolution.p, cfg.policy.batch_episodes * spec.horizon), NETWORK_DTYPE)

    def _lane_rng(self, generation: int, lane: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, generation, lane]))

    def episode_returns(self, params: np.ndarray, seeds) -> np.ndarray:
        """Discounted ``(..., E, m)`` returns of deterministic policies, one row per seed.

        ``params``, one ``(d,)`` snapshot or an ``(S, d)`` stack rolled out
        together, is cast to ``NETWORK_DTYPE`` first, as training casts it.
        """
        params = np.asarray(params, dtype=NETWORK_DTYPE)
        _, _, rewards, _ = run_episode(self.env, self.policy, params, seeds)
        return mo_return(rewards, self.env.spec.gamma)

    def evaluate(self, params: np.ndarray) -> np.ndarray:
        """Mean objective vectors of deterministic policies on the fixed eval episodes.

        ``params`` is one ``(d,)`` snapshot or an ``(S, d)`` stack, rolled out
        together; returns float64 ``(m,)`` or ``(S, m)``.
        """
        return self.episode_returns(params, self.eval_seeds).mean(axis=-2)

    def _train_lanes(self, params, critic_params, iters, snapshot_every, rngs, fixed_weights):
        """Run ``iters`` collect-and-update iterations on a stack of L lanes.

        ``params`` and ``critic_params`` are ``(L, ·)`` stacks, ``rngs`` holds
        one generator per lane and ``fixed_weights`` one weight vector or
        None per lane. Lanes with None take their weights from one
        minimum-norm solve at the first iteration's batch; a stationary lane
        falls back to uniform weights for the generation. Returns the
        ``(L, K, ·)`` stacks of the K snapshots, taken every ``snapshot_every``
        iterations and after the last (the start when ``iters`` is 0), and
        the number of stationary fallbacks. Each batch is collected into the
        first L lanes of the trainer's workspace.
        """
        upd = self.cfg.policy
        m = self.env.spec.num_objectives
        workspace = self.workspace[:, :len(params)]
        ascent = [lane for lane, w in enumerate(fixed_weights) if w is None]
        weights = np.array([np.zeros(m) if w is None else w for w in fixed_weights])
        fallbacks = 0
        snapshots = [] if iters else [(params, critic_params)]
        for it in range(iters):
            batch = collect_batch(self.env, self.policy, params, self.critic, critic_params,
                                  upd.batch_episodes, rngs, workspace)
            if it == 0 and ascent:
                grads = estimate_gradient_set(self.policy, batch, upd.normalize_advantages)
                weights[ascent], fell_back = ascent_weights(grads[ascent])
                fallbacks = int(fell_back.sum())
            params, critic_params = ppo_update(self.policy, self.critic, batch, weights, upd)
            if (it + 1) % snapshot_every == 0 or it == iters - 1:
                snapshots.append((params, critic_params))
        snap_params = np.stack([p for p, _ in snapshots], axis=1)
        snap_critic = np.stack([c for _, c in snapshots], axis=1)
        return snap_params, snap_critic, fallbacks

    def _generation_step(self, state: TrainingState, generation: int, lanes: list[Lane],
                         iters: int, snapshot_every: int) -> int:
        """Train, evaluate and commit a generation's lanes; returns the stationary fallbacks.

        Lane k trains on its own generator, ``_lane_rng(generation, k)``,
        from its origin's params, or, with no origin, from a fresh policy and
        critic drawn from that generator first; the start stack is cast to
        ``NETWORK_DTYPE``. The snapshots ``ckpt_%06d``,
        numbered in lane, then snapshot order, go to the archive in one
        ``insert_many`` call, and only the ones it takes become entries. A
        lane's final snapshot then replaces its origin (ascent) or is
        appended to the population (warm-up; fine-tuning only if the archive
        took it), built as an entry if the archive did not take it.
        """
        rngs = [self._lane_rng(generation, lane) for lane in range(len(lanes))]
        starts = [
            (self.policy.init_params(rng, _INIT_SCALE, _LOG_STD_INIT),
             self.critic.init_params(rng, _INIT_SCALE)) if origin is None
            else (origin.params, origin.critic_params)
            for (_, origin, _), rng in zip(lanes, rngs)
        ]
        snap_params, snap_critic, fallbacks = self._train_lanes(
            np.stack([p for p, _ in starts], dtype=NETWORK_DTYPE),
            np.stack([c for _, c in starts], dtype=NETWORK_DTYPE),
            iters, snapshot_every, rngs, [w for _, _, w in lanes])
        L, K = snap_params.shape[:2]
        objectives = self.evaluate(snap_params.reshape(L * K, -1))
        first = state.next_ref
        built: dict[int, PolicyEntry] = {}

        def build(row: int) -> PolicyEntry:
            lane, k = divmod(row, K)
            built[row] = PolicyEntry(f"ckpt_{first + row:06d}", objectives[row], generation,
                                     lanes[lane][0], snap_params[lane, k], snap_critic[lane, k])
            return built[row]

        accepted = state.archive.insert_many(objectives, build)
        state.next_ref += L * K
        slot = {e.params_ref: i for i, e in enumerate(state.population)}
        for lane, (source, origin, _) in enumerate(lanes):
            final = lane * K + K - 1
            if source == "pareto_ascent":
                state.population[slot[origin.params_ref]] = built.get(final) or build(final)
            elif source == "warmup" or accepted[final]:
                state.population.append(built.get(final) or build(final))
        return fallbacks

    def warmup(self, state: TrainingState) -> int:
        """Run generation 0; returns its stationary fallbacks (always 0).

        One lane per evenly spread weight, with no origin: each trains a
        fresh policy ``m_w`` iterations under its weight and offers only its
        final params.
        """
        cfg = self.cfg.evolution
        weight_grid = evenly_spread_weights(self.env.spec.num_objectives, cfg.p)
        return self._generation_step(state, 0, [("warmup", None, w) for w in weight_grid],
                                     cfg.m_w, snapshot_every=cfg.m_w)

    def run_generation(self, state: TrainingState, generation: int) -> int:
        """Plan and run generation ``generation`` (from 1); returns its stationary fallbacks.

        PGR picks the population members that ascend their min-norm
        direction; generations after ``M_ft`` give half their lanes to the
        fine-tuning lanes of ``paft_select`` instead, each logged as one
        ``paft`` record.
        """
        cfg = self.cfg.evolution
        paft_active = self.cfg.paft.enabled and generation > cfg.M_ft
        p_a = cfg.p // 2 if paft_active else cfg.p
        # One angular region per ascent lane.
        selected = pgr_select(
            state.population, p_a, p_a, _PGR_TOP_K,
            cfg.reference_point, self._lane_rng(generation, _SELECTION_STREAM),
            log=state.selection_log, generation=generation,
        )
        lanes: list[Lane] = [("pareto_ascent", entry, None) for entry in selected]
        if paft_active and len(state.archive) >= 2:
            for source, origin, weights in paft_select(state.archive, cfg):
                state.selection_log.append({
                    "kind": "paft",
                    "generation": generation,
                    "job": _JOB[source],
                    "policy": origin.params_ref,
                    "weights": [float(w) for w in weights],
                })
                lanes.append((source, origin, weights))
        return self._generation_step(state, generation, lanes, cfg.m_iters, cfg.snapshot_every)

    def run_training(self) -> TrainingState:
        """Warmup (generation 0) plus all generations; returns the final state.

        Each generation appends one metrics row. Fully deterministic given
        the configured seed.
        """
        state = TrainingState(population=[], archive=NonDominatedSet())
        for generation in range(self.cfg.evolution.M + 1):
            start = time.perf_counter()
            fallbacks = (self.warmup(state) if generation == 0
                         else self.run_generation(state, generation))
            seconds = time.perf_counter() - start
            points = state.archive.objectives_matrix()
            state.metrics.append({
                "generation": generation,
                "hv": hypervolume(points, self.cfg.evolution.reference_point),
                "sp": sparsity(points),
                "archive_size": len(state.archive),
                "stationary_fallbacks": fallbacks,
                "seconds": seconds,
            })
        return state
