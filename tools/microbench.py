"""Per-call timings of moascent's hot functions at the benchmark's shapes.

Times one call of each function below, many times over, in this process:

- ``run_episode`` per step, on the ``point`` workload's ``(p, episodes)``
  stack with action noise (``point_step``, the training rollout), and on
  the noiseless ``(p * K, eval.episodes)`` stack of a generation's K
  snapshots per lane on its evaluation seeds (``point_eval_step``, the
  rollout of ``Trainer.evaluate``);
- ``reset`` of the ``point`` workload's environment: on the ``(p, episodes)``
  reset seeds of a training rollout (``reset.point``) and on the run's
  ``(eval.episodes,)`` evaluation seeds (``reset.point_eval``);
- ``train_lanes`` at the ``quad2`` and ``point`` workloads' shapes: one
  ``Trainer._train_lanes`` call, the training of one generation: the
  workload's p ascent lanes, ``m_iters`` collect-and-update iterations
  with one gradient set, on a trainer built once, whose lane generators
  advance from call to call. Unlike the single-call update rows it sees
  allocation across calls as a run does: counted with ``ru_minflt`` on a
  shared 2-core host, ``train_lanes.point`` took about 1,800-2,000 minor
  faults a call when each call allocated its own hidden-layer buffers,
  and none with the trainer's workspace.
  ``backprop.point`` and ``score.point`` take no fault a call in either
  tree, and ``ppo_update.point`` 224 in both, so faults do not explain how
  far memory placement moves those rows (see ``--against`` below);
- ``collect_batch`` at the ``quad2`` and ``point`` workloads' shapes
  (rollout, critic pass and GAE; the batch keeps copies of the snapshot),
  on generators that advance from call to call;
- ``ppo_update`` on a batch collected at the ``quad2`` and ``point``
  workloads' shapes, with their update settings;
- ``estimate_gradient_set`` on the ``point`` workload's ``(p, ·)`` stack and
  batch, with its advantage normalisation;
- the ``ppo_update`` and ``estimate_gradient_set`` rows run on one batch,
  collected once, and write their passes into that batch's hidden-layer
  buffers, so a call allocates no hidden-layer array. Against a tree whose
  batch carried no buffers, where each call made its own, they read faster
  with no change to what a run does: on a shared 2-core Xeon host, 15
  rounds read ``estimate_gradient_set.point`` at 0.65 and
  ``ppo_update.point`` at 0.91 of that tree. The ``train_lanes`` rows time
  the trainer, which collects into a workspace of its own in both trees;
- ``apply.quad2``: one ``Network.apply`` of the policy's mean network
  over the ``quad2`` workload's update batch (its p lanes, one input per
  row), into caller-owned buffers, as each epoch of ``ppo_update`` runs it;
- ``score.point``: ``GaussianPolicy.score`` of that batch's actions plus one
  call of its ``grad``, from one pass of the stack over the batch's states,
  in caller-owned buffers, as each epoch of ``ppo_update`` makes them;
- ``normalize_per_objective`` on that batch's ``(p, n, m)`` advantages;
- ``backprop.point``: the policy mean network's backprop at that batch's
  shape, from one pass of the stack over its states, into a caller-owned
  gradient and buffers;
- ``min_norm_direction`` on random ``(m, d)`` gradients, at m=3 and m=4,
  and on ``(8, 2, d)`` and ``(4, 3, d)`` stacks of them, with d the size of
  the ``point`` policy;
- ``hypervolume`` of random 2-D and 3-D fronts of 1000 points, and of a
  3-D front of 3000 (a 30-generation ``quad3`` archive's size);
- ``sparsity`` of a random 2-D front of 200 points (the ``quad2``
  workload's archive size);
- ``_gap_edges`` (PA-FT's gap search) on random 3-objective fronts of 100
  and 250 points, and of 500 with ``--full`` (several seconds a call).
- ``NonDominatedSet.insert`` per offer, replaying the ``quad2`` workload's
  488 offers against a 2-D front of its archive's size: 200 random points
  on the positive unit circle, then 488 offers near it (random directions,
  radii ``1 + 0.003 * N(0, 1)``), about half of them accepted;
- ``NonDominatedSet.insert_many`` per offer: ``2d_quad2`` commits those 488
  offers to that front as one batch of 8 and three of 160, as the
  ``quad2`` workload's generations do; ``3d_n1000`` offers one batch of 160
  rows, drawn the same way, to a 3-D front of 1000 points (a ``quad3``
  archive's size). Each front's archive is built once, outside the timing;
  a call replays its offers on a ``copy.copy`` of it, which is safe since
  an insert replaces the archive's ``entries`` and ``_objectives`` rather
  than writing into them;
- ``save_checkpoint`` writing the checkpoint store of a 1000-entry archive
  at the ``quad2`` workload's network sizes, its snapshots in the tree's
  network dtype as a run's are, into a temporary directory; each call first
  removes the store the previous call wrote, and that removal is timed with
  it;
- ``config.resolve_config.point``: ``load_config`` and ``resolve_config`` of
  the ``point`` workload's config file with its overrides;
- ``config.replace_seeds.point``: ``dataclasses.replace(cfg, seeds=[0])`` of
  that resolved config, which re-checks it against its environment, as
  ``run_seed`` does once per seed.

The shapes come from ``perfbench/run.py``'s workloads, and each row's
settings (``p``, ``m_iters``, ``snapshot_every``, ``batch_episodes``,
``normalize_advantages`` and the ``policy`` section ``ppo_update`` takes)
from the resolved config its trainer is built from, which every tree has,
so ``--against`` times every row across trees whose trainers hold their
settings differently. Run from anywhere:

    python3 tools/microbench.py            # about 20 s
    python3 tools/microbench.py --quick    # fewer repeats, a few seconds
    python3 tools/microbench.py --full

Each repeat times enough calls to last 0.2 s (0.01 s with ``--quick``) and
divides; a row reports the median over its 9 repeats (3 with ``--quick``).
One line per row is printed, then one JSON object as the last line:
``python``, ``numpy``, ``repeats`` and ``rows``, seconds per call (per step
for ``run_episode``, per offer for the archive rows) by row name. The
script uses the ``src/`` of the tree it sits in, so a copy of it measures
another checkout. Set ``OPENBLAS_NUM_THREADS=1`` (as the benchmark does)
for numbers comparable with ``perfbench``.

The network rows (rollouts, collects, updates, the gradient set,
``score`` and ``backprop``) run their params, buffers and gradients in the
dtype the tree's trainer runs its networks in, ``NETWORK_DTYPE`` (float64
in a tree without one), so they time what a run runs.

``--against <tree>`` compares this tree (the change) with another checkout
(the parent), each tree in processes of its own:

    python3 tools/microbench.py --against ../parent

Every process is a fresh interpreter running this script on one tree's
``src/``, at this tree's shapes; it times each row once, after one untimed
call, and prints one JSON line. A first process per tree finds how many
calls each row makes: as many as the faster tree needs to last 0.05 s
(0.2 s without ``--quick``). Then 15 rounds (9 with ``--quick``) each run
one process per tree, the change first in even rounds and the parent first
in odd ones, as the benchmark's paired runs alternate. So neither tree
shares the other's allocator state, and where each tree's arrays land in
memory is drawn afresh every round rather than fixed for the whole
comparison. An in-process A/B could not see allocation: with both trees in
one process, glibc's raised mmap and trim thresholds hid the parent's page
faults (0-4 a full-length ``point`` run instead of 73,000-74,800), and a
tree's memory placement moved some rows by 10-20% for the whole run. A row
prints the medians of both, and the median and quartiles of the per-round
change/parent ratios. A row whose quartiles span 1.0 is marked
unresolved: it cannot tell the trees apart. The converse does not hold, so
one run is no evidence of a change: on a shared 2-core host one
``--quick --against .`` run read medians of 0.92-1.17 across its 27 rows,
none of them resolved, but a ``--quick`` run against a parent whose
archive code was the same read ``archive.insert_many.3d_n1000`` at 1.202
[1.058, 1.299]. A row whose first call raises
``AttributeError`` or ``TypeError`` in one tree (a function or method that
tree lacks, or takes other arguments) is listed as skipped, with the
error; the update rows build their batch at their first call, so they
skip with the tree's ``collect_batch``. The JSON line's ``rows`` then hold
``change``, ``parent``, ``ratio``, ``ratio_q1`` and ``ratio_q3`` per row,
and ``skipped`` the rows left out.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import importlib
import importlib.util
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from parity import _benchmark_workloads

HERE = Path(__file__).resolve().parent.parent
MODULES = ("archive", "config", "evolution", "harness", "pareto", "policy")
# The shortest side of an --against round: at 0.01 s a round of the update
# rows held one call, too few to tell the trees apart.
MIN_ROUND_S = 0.05


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The ``moascent`` package in ``src`` imported as ``name``: its modules by short name."""
    init = src / "moascent" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def _resolve(mo, config: str, overrides: list):
    return mo.config.resolve_config(mo.config.load_config(HERE / config), overrides)


def _trainer(mo, workload: str):
    """The workload's trainer at seed 0 and the resolved config it is built from."""
    cfg = _resolve(mo, *_benchmark_workloads()[workload])
    return mo.harness.build_trainer(cfg, seed=0), cfg


def _dtype(mo):
    """The dtype the tree's trainer runs its networks in (float64 before it had one)."""
    return getattr(mo.evolution, "NETWORK_DTYPE", np.float64)


def _lanes(mo, trainer, p: int):
    """Initial ``(p, ·)`` policy and critic stacks in the trainer's dtype, one generator per lane."""
    ev = mo.evolution
    rng = np.random.default_rng(0)
    params = np.stack([trainer.policy.init_params(rng, ev._INIT_SCALE, ev._LOG_STD_INIT)
                       for _ in range(p)]).astype(_dtype(mo))
    critic = np.stack([trainer.critic.init_params(rng, ev._INIT_SCALE)
                       for _ in range(p)]).astype(_dtype(mo))
    return params, critic, [np.random.default_rng(lane) for lane in range(p)]


def _front(n: int, m: int, seed: int) -> np.ndarray:
    """``n`` random points on the positive unit sphere: mutually non-dominated."""
    P = np.abs(np.random.default_rng(seed).standard_normal((n, m)))
    return P / np.linalg.norm(P, axis=1, keepdims=True)


def _near_front(n: int, m: int, seed: int) -> np.ndarray:
    """``n`` offers near the unit-sphere front: random directions, radii ``1 + 0.003 N(0, 1)``."""
    radii = 1.0 + 0.003 * np.random.default_rng(seed + 1).standard_normal((n, 1))
    return _front(n, m, seed) * radii


def _replay_offers(front, offers: list) -> None:
    archive = copy.copy(front)
    for entry in offers:
        archive.insert(entry)


def _replay_batches(front, offers: list, rows: np.ndarray, bounds) -> None:
    archive = copy.copy(front)
    for a, b in zip(bounds, bounds[1:]):
        archive.insert_many(rows[a:b], lambda j, a=a: offers[a + j])


def _hidden(net, rows: tuple, dtype, count: int) -> list:
    """``count`` ``rows + (hidden,)`` buffers of ``dtype``, zero-width for a linear network.

    Made here rather than by ``hidden_workspace``, which a tree from before
    it lacks, so ``--against`` such a tree still runs the rows that use them.
    """
    return [np.empty(rows + (net.hidden,), dtype) for _ in range(count)]


def _backprop_args(policy, params: np.ndarray, states: np.ndarray) -> tuple:
    """``(cache, d_mu, grad, work)`` of the mean network's backprop from one
    pass of ``params`` over ``states``, into a caller-owned gradient and
    buffers, all in the params' dtype."""
    net = policy.net
    mu, cache = net.forward(policy._net_params(params), states)
    d_mu = np.random.default_rng(0).standard_normal(mu.shape).astype(mu.dtype)
    work = tuple(_hidden(net, mu.shape[:-1], params.dtype, 2))
    return cache, d_mu, np.empty(params.shape[:-1] + (net.num_params,), params.dtype), work


def _apply_args(policy, batch) -> tuple:
    """``(layers, states, out, hid)`` of the mean network's pass over
    ``batch``'s states, as ``ppo_update`` runs it: the stack's split layers
    and caller-owned outputs, in the params' dtype."""
    net, rows, dtype = policy.net, batch.states.shape[:-1], batch.params.dtype
    hid, = _hidden(net, rows, dtype, 1)
    mu = np.empty(rows + (policy.action_dim,), dtype)
    return net.split(policy._net_params(batch.params)), batch.states, mu, hid


def _score_args(policy, batch) -> tuple:
    """``(batch, mean_pass, coeffs, out, work)`` of ``ppo_update``'s first
    epoch on ``batch``: the stack's pass over its states and the gradient's
    weights, with a caller-owned gradient and backprop buffers, all in the
    params' dtype."""
    net, rows = policy.net, batch.states.shape[:-1]
    layers, states, mu, hid = _apply_args(policy, batch)
    net.apply(layers, states, mu, hid)
    work = _hidden(net, rows, batch.params.dtype, 2)
    coeffs = batch.advantages[..., 0] / rows[-1]
    return batch, (mu, (layers, states, hid)), coeffs, np.empty_like(batch.params), work


def _score(policy, batch, mean_pass, coeffs, out, work) -> np.ndarray:
    _, grad = policy.score(batch.params, batch.states, batch.actions, mean_pass)
    return grad(coeffs, out, work)


def _rewrite_store(save_checkpoint, store: Path, entries: list) -> None:
    shutil.rmtree(store, ignore_errors=True)
    save_checkpoint(store, entries)


def cases(mo, full: bool, scratch: Path) -> list:
    """(row name, per-call divisor, zero-argument call) for each row of the
    tree ``mo`` (see ``load_tree``); files go under ``scratch``."""
    ev, pol = mo.evolution, mo.policy
    NonDominatedSet, PolicyEntry = mo.archive.NonDominatedSet, mo.archive.PolicyEntry
    out = []
    point, point_cfg = _trainer(mo, "point")
    params, _, rngs = _lanes(mo, point, point_cfg.evolution.p)
    spec, episodes = point.env.spec, point_cfg.policy.batch_episodes
    seeds = np.stack([rng.integers(0, 2**31 - 1, size=episodes) for rng in rngs])
    noise = np.stack([rng.standard_normal((episodes, spec.horizon, spec.action_dim))
                      for rng in rngs])
    out.append(("run_episode.point_step", spec.horizon,
                lambda: pol.run_episode(point.env, point.policy, params, seeds, noise)))
    # A generation snapshots each lane every snapshot_every iterations and after the last.
    snapshots = -(-point_cfg.evolution.m_iters // point_cfg.evolution.snapshot_every)
    rng = np.random.default_rng(1)
    stack = np.stack([point.policy.init_params(rng, ev._INIT_SCALE, ev._LOG_STD_INIT)
                      for _ in range(len(params) * snapshots)]).astype(_dtype(mo))
    out.append(("run_episode.point_eval_step", spec.horizon,
                lambda: pol.run_episode(point.env, point.policy, stack, point.eval_seeds)))
    out.append(("reset.point", 1, lambda: point.env.reset(seeds)))
    eval_seeds = np.asarray(point.eval_seeds)
    out.append(("reset.point_eval", 1, lambda: point.env.reset(eval_seeds)))
    for workload in ("quad2", "point"):
        t, cfg = _trainer(mo, workload)
        evo, upd = cfg.evolution, cfg.policy
        # One generation's training of p ascent lanes, whose lane generators
        # advance from call to call.
        out.append((f"train_lanes.{workload}", 1,
                    lambda t=t, e=evo, a=_lanes(mo, t, evo.p):
                    t._train_lanes(a[0], a[1], e.m_iters, e.snapshot_every,
                                   a[2], [None] * len(a[2]))))
        params, critic, rngs = _lanes(mo, t, evo.p)
        # The batch the update rows time, collected under the same snapshot at
        # its rows' first call, so a tree whose collect_batch takes other
        # arguments skips them (see ``_missing_api``) instead of stopping here.
        batch = functools.cache(lambda t=t, u=upd, p=params, c=critic, r=_lanes(mo, t, evo.p)[2]:
                                pol.collect_batch(t.env, t.policy, p, t.critic, c,
                                                  u.batch_episodes, r))
        out.append((f"collect_batch.{workload}", 1,
                    lambda t=t, u=upd, p=params, c=critic, r=rngs:
                    pol.collect_batch(t.env, t.policy, p, t.critic, c, u.batch_episodes, r)))
        omega = np.full((len(rngs), t.env.spec.num_objectives), 1.0 / t.env.spec.num_objectives)
        out.append((f"ppo_update.{workload}", 1,
                    lambda t=t, u=upd, b=batch, w=omega:
                    pol.ppo_update(t.policy, t.critic, b(), w, u)))
        if workload == "quad2":
            apply_args = functools.cache(lambda t=t, b=batch: _apply_args(t.policy, b()))
            out.append(("apply.quad2", 1,
                        lambda net=t.policy.net, a=apply_args: net.apply(*a())))
        if workload == "point":
            out.append(("estimate_gradient_set.point", 1,
                        lambda t=t, u=upd, b=batch:
                        pol.estimate_gradient_set(t.policy, b(), u.normalize_advantages)))
            out.append(("normalize_per_objective.point", 1,
                        lambda b=batch: pol.normalize_per_objective(b().advantages)))
            net = t.policy.net
            backprop_args = functools.cache(lambda t=t, p=params, b=batch:
                                            _backprop_args(t.policy, p, b().states))
            out.append(("backprop.point", 1,
                        lambda net=net, a=backprop_args: net.backprop(*a())))
            score_args = functools.cache(lambda t=t, b=batch: _score_args(t.policy, b()))
            out.append(("score.point", 1,
                        lambda t=t, a=score_args: _score(t.policy, *a())))
    d = point.policy.num_params
    for shape in ((3, d), (4, d), (8, 2, d), (4, 3, d)):
        G = np.random.default_rng(shape[-2]).standard_normal(shape)
        name = f"m{shape[0]}" if len(shape) == 2 else f"{shape[0]}x{shape[1]}"
        out.append((f"min_norm_direction.{name}", 1,
                    lambda G=G: mo.pareto.min_norm_direction(G)))
    for m, n in ((2, 1000), (3, 1000), (3, 3000)):
        P = _front(n, m, seed=m)
        out.append((f"hypervolume.{m}d_n{n}", 1,
                    lambda P=P, z=np.zeros(m): mo.archive.hypervolume(P, z)))
    P = _front(200, 2, seed=2)
    out.append(("sparsity.2d_n200", 1, lambda P=P: mo.archive.sparsity(P)))
    for n in (100, 250) + ((500,) if full else ()):
        P = _front(n, 3, seed=n)
        out.append((f"gap_edges.3d_n{n}", 1, lambda P=P: ev._gap_edges(P)))
    snapshot = np.zeros(1)
    for name, (n, m, k), bounds in (("2d_quad2", (200, 2, 488), (0, 8, 168, 328, 488)),
                                    ("3d_n1000", (1000, 3, 160), (0, 160))):
        front = NonDominatedSet([
            PolicyEntry(f"ckpt_{i:06d}", row, 0, "warmup", snapshot, snapshot)
            for i, row in enumerate(_front(n, m, seed=m))])
        rows = _near_front(k, m, seed=m + 1)
        offers = [PolicyEntry(f"ckpt_{n + i:06d}", row, 1, "pareto_ascent", snapshot, snapshot)
                  for i, row in enumerate(rows)]
        if m == 2:
            out.append(("archive.insert.2d_n200", k,
                        lambda f=front, o=offers: _replay_offers(f, o)))
        out.append((f"archive.insert_many.{name}", k,
                    lambda f=front, o=offers, r=rows, b=bounds: _replay_batches(f, o, r, b)))
    point_config = _benchmark_workloads()["point"]
    out.append(("config.resolve_config.point", 1, lambda: _resolve(mo, *point_config)))
    cfg = _resolve(mo, *point_config)
    out.append(("config.replace_seeds.point", 1, lambda: dataclasses.replace(cfg, seeds=[0])))
    quad2, _ = _trainer(mo, "quad2")
    rng = np.random.default_rng(0)
    entries = [PolicyEntry(f"ckpt_{k:06d}", [float(k), -float(k)], 0, "warmup",
                           rng.standard_normal(quad2.policy.num_params).astype(_dtype(mo)),
                           rng.standard_normal(quad2.critic.num_params).astype(_dtype(mo)))
               for k in range(1000)]
    out.append(("save_checkpoint.quad2_n1000", 1,
                lambda: _rewrite_store(mo.harness.save_checkpoint, scratch / "checkpoints",
                                       entries)))
    return out


def time_call(call, repeats: int, min_repeat_s: float) -> float:
    """Median over ``repeats`` of the seconds per call of ``call``."""
    number = _calls_per_repeat(call, min_repeat_s)
    return statistics.median(_repeat(call, number) for _ in range(repeats))


def _calls_per_repeat(call, min_repeat_s: float) -> int:
    start = perf_counter()
    call()
    return max(1, int(min_repeat_s / max(perf_counter() - start, 1e-9)))


def _repeat(call, number: int) -> float:
    start = perf_counter()
    for _ in range(number):
        call()
    return (perf_counter() - start) / number


def _missing_api(call):
    """None if ``call`` runs, else the AttributeError or TypeError it raised, as text."""
    try:
        call()
    except (AttributeError, TypeError) as error:
        return str(error)
    return None


def time_rows(rows: list, calls: dict | None, min_repeat_s: float) -> dict:
    """One repeat of each row, after one untimed call: ``{"rows", "calls", "skipped"}``.

    ``calls`` gives each row's number of calls; a row missing from it makes
    as many as last ``min_repeat_s``. A row whose untimed call raises
    ``AttributeError`` or ``TypeError`` is skipped, with the error.
    """
    out = {"rows": {}, "calls": {}, "skipped": {}}
    for name, divisor, call in rows:
        error = _missing_api(call)
        if error:
            out["skipped"][name] = error
            continue
        number = (calls or {}).get(name) or _calls_per_repeat(call, min_repeat_s)
        out["calls"][name] = number
        out["rows"][name] = _repeat(call, number) / divisor
    return out


def _tree_process(tree: Path, args, calls: dict | None) -> dict:
    """``time_rows`` of ``tree``'s rows, run in a fresh interpreter of its own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree)]
    argv += ["--quick"] * args.quick + ["--full"] * args.full
    if calls is not None:
        argv += ["--calls", json.dumps(calls)]
    done = subprocess.run(argv, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def compare(args, rounds: int) -> tuple[dict, dict]:
    """Per-row change/parent ratios over alternating rounds of one process per tree.

    A first process per tree finds each row's number of calls, the larger
    of the two; then each round times every row once in a fresh process of
    each tree, the change first in even rounds and the parent first in odd
    ones. Returns (rows, skipped).
    """
    trees = {"change": HERE, "parent": args.against.resolve()}
    first = {side: _tree_process(tree, args, None) for side, tree in trees.items()}
    skipped = {}
    for side, report in first.items():
        for name, error in report["skipped"].items():
            skipped[name] = "; ".join(filter(None, [skipped.get(name), f"{side}: {error}"]))
    calls = {name: max(first["change"]["calls"][name], first["parent"]["calls"][name])
             for name in first["change"]["calls"] if name not in skipped}
    times = {side: {name: [] for name in calls} for side in trees}
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 else ("change", "parent")):
            report = _tree_process(trees[side], args, calls)
            for name in calls:
                times[side][name].append(report["rows"][name])
    rows = {}
    for name in calls:
        ours, theirs = times["change"][name], times["parent"][name]
        q1, ratio, q3 = statistics.quantiles([a / b for a, b in zip(ours, theirs)], n=4)
        rows[name] = {"change": statistics.median(ours), "parent": statistics.median(theirs),
                      "ratio": ratio, "ratio_q1": q1, "ratio_q3": q3}
        print(f"{name:30s} {rows[name]['change'] * 1e6:12.1f} us  parent "
              f"{rows[name]['parent'] * 1e6:12.1f} us  ratio {ratio:.3f} "
              f"[{q1:.3f}, {q3:.3f}]{'' if q1 > 1.0 or q3 < 1.0 else '  unresolved'}",
              flush=True)
    for name, error in skipped.items():
        print(f"{name:30s} skipped ({error})", flush=True)
    return rows, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="3 repeats of at least 0.01 s each (9 rounds of 0.05 s a side "
                             "with --against), for a smoke check")
    parser.add_argument("--full", action="store_true", help="add _gap_edges at n=500")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="compare with the checkout TREE, one process per tree and round")
    # One process of --against: time the rows of TREE's src/ once, print one JSON line.
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--calls", type=json.loads, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    repeats, min_repeat_s = (3, 0.01) if args.quick else (9, 0.2)
    with tempfile.TemporaryDirectory(prefix="microbench-") as scratch:
        scratch = Path(scratch)
        report = {"python": platform.python_version(), "numpy": np.__version__}
        if args.tree:
            change = cases(load_tree(args.tree.resolve() / "src", "moascent"), args.full, scratch)
            print(json.dumps(time_rows(change, args.calls, max(min_repeat_s, MIN_ROUND_S))))
            return 0
        if args.against:
            rounds = 9 if args.quick else 15
            rows, skipped = compare(args, rounds)
            report.update(against=str(args.against), rounds=rounds, rows=rows, skipped=skipped)
        else:
            rows = {}
            change = cases(load_tree(HERE / "src", "moascent"), args.full, scratch)
            for name, divisor, call in change:
                rows[name] = time_call(call, repeats, min_repeat_s) / divisor
                print(f"{name:30s} {rows[name] * 1e6:12.1f} us", flush=True)
            report.update(repeats=repeats, rows=rows)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
