"""Per-call timings of moascent's hot functions at the benchmark's shapes.

Times one call of each function below, many times over, in this process:

- ``run_episode`` per step, on the ``point`` workload's ``(p, episodes)``
  stack with action noise (the training rollout);
- ``collect_batch`` at the ``quad2`` and ``point`` workloads' shapes
  (rollout, critic pass and GAE; the batch keeps the critic pass), on
  generators that advance from call to call;
- ``ppo_update`` on a batch collected at the ``quad2`` and ``point``
  workloads' shapes, with their update settings;
- ``estimate_gradient_set`` on the ``point`` workload's ``(p, ·)`` stack and
  batch, with its advantage normalisation;
- ``normalize_per_objective`` on that batch's ``(p, n, m)`` advantages;
- ``backprop.point``: the policy mean network's backprop at that batch's
  shape, from one pass of the stack over its states, into a caller-owned
  gradient and buffers;
- ``min_norm_direction`` on random ``(m, d)`` gradients, at m=3 and m=4,
  and on ``(8, 2, d)`` and ``(4, 3, d)`` stacks of them, with d the size of
  the ``point`` policy;
- ``hypervolume`` of random 2-D and 3-D fronts of 1000 points;
- ``_gap_edges`` (PA-FT's gap search) on random 3-objective fronts of 100
  and 250 points, and of 500 with ``--full`` (several seconds a call).
- ``NonDominatedSet.insert`` per offer, replaying the ``quad2`` workload's
  488 offers against a 2-D front of its archive's size: 200 random points
  on the positive unit circle, then 488 offers near it (random directions,
  radii ``1 + 0.003 * N(0, 1)``), about half of them accepted;
- ``save_checkpoint`` writing the checkpoint store of a 1000-entry archive
  at the ``quad2`` workload's network sizes into a temporary directory;
  each call first removes the store the previous call wrote, and that
  removal is timed with it.

The shapes come from ``perfbench/run.py``'s workloads. Run from anywhere:

    python3 tools/microbench.py            # about 20 s
    python3 tools/microbench.py --quick    # fewer repeats, a few seconds
    python3 tools/microbench.py --full

Each repeat times enough calls to last 0.2 s (0.01 s with ``--quick``) and
divides; a row reports the median over its 9 repeats (3 with ``--quick``).
One line per row is printed, then one JSON object as the last line:
``python``, ``numpy``, ``repeats`` and ``rows``, seconds per call (per step
for ``run_episode``) by row name. The script uses the ``src/`` of the tree
it sits in, so a copy of it measures another checkout. Set ``OPENBLAS_NUM_THREADS=1`` (as the benchmark does)
for numbers comparable with ``perfbench``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))

import numpy as np  # noqa: E402

from moascent.archive import NonDominatedSet, PolicyEntry, hypervolume  # noqa: E402
from moascent.config import load_config, resolve_config  # noqa: E402
from moascent.evolution import (  # noqa: E402
    _GAE_LAMBDA,
    _INIT_SCALE,
    _LOG_STD_INIT,
    _gap_edges,
)
from moascent.harness import build_trainer, save_checkpoint  # noqa: E402
from moascent.pareto import min_norm_direction  # noqa: E402
from moascent.policy import (  # noqa: E402
    collect_batch,
    estimate_gradient_set,
    normalize_per_objective,
    ppo_update,
    run_episode,
)
from parity import _benchmark_workloads  # noqa: E402


def _trainer(workload: str):
    config, overrides = _benchmark_workloads()[workload]
    return build_trainer(resolve_config(load_config(HERE / config), overrides), seed=0)


def _lanes(trainer):
    """Initial ``(p, ·)`` policy and critic stacks and one generator per lane."""
    rng = np.random.default_rng(0)
    p = trainer.evolution.p
    params = np.stack([trainer.policy.init_params(rng, _INIT_SCALE, _LOG_STD_INIT)
                       for _ in range(p)])
    critic = np.stack([trainer.critic.init_params(rng, _INIT_SCALE) for _ in range(p)])
    return params, critic, [np.random.default_rng(lane) for lane in range(p)]


def _front(n: int, m: int, seed: int) -> np.ndarray:
    """``n`` random points on the positive unit sphere: mutually non-dominated."""
    P = np.abs(np.random.default_rng(seed).standard_normal((n, m)))
    return P / np.linalg.norm(P, axis=1, keepdims=True)


def _replay_offers(front: list, offers: list) -> None:
    archive = NonDominatedSet(list(front))
    for entry in offers:
        archive.insert(entry)


def _rewrite_store(store: Path, entries: list) -> None:
    shutil.rmtree(store, ignore_errors=True)
    save_checkpoint(store, entries)


def cases(full: bool, scratch: Path) -> list:
    """(row name, per-call divisor, zero-argument call) for each row; files go under ``scratch``."""
    out = []
    point = _trainer("point")
    params, _, rngs = _lanes(point)
    spec, episodes = point.env.spec, point.update.batch_episodes
    seeds = np.stack([rng.integers(0, 2**31 - 1, size=episodes) for rng in rngs])
    noise = np.stack([rng.standard_normal((episodes, spec.horizon, spec.action_dim))
                      for rng in rngs])
    out.append(("run_episode.point_step", spec.horizon,
                lambda: run_episode(point.env, point.policy, params, seeds, noise)))
    for workload in ("quad2", "point"):
        t = _trainer(workload)
        params, critic, rngs = _lanes(t)
        batch = collect_batch(t.env, t.policy, params, t.critic, critic, t.update.batch_episodes,
                              t.env.spec.gamma, _GAE_LAMBDA, rngs)
        out.append((f"collect_batch.{workload}", 1,
                    lambda t=t, p=params, c=critic, r=rngs:
                    collect_batch(t.env, t.policy, p, t.critic, c, t.update.batch_episodes,
                                  t.env.spec.gamma, _GAE_LAMBDA, r)))
        omega = np.full((len(rngs), t.env.spec.num_objectives), 1.0 / t.env.spec.num_objectives)
        out.append((f"ppo_update.{workload}", 1,
                    lambda t=t, p=params, c=critic, b=batch, w=omega:
                    ppo_update(t.policy, p, t.critic, c, b, w, t.update)))
        if workload == "point":
            out.append(("estimate_gradient_set.point", 1,
                        lambda t=t, p=params, b=batch:
                        estimate_gradient_set(t.policy, p, b, t.update.normalize_advantages)))
            out.append(("normalize_per_objective.point", 1,
                        lambda b=batch: normalize_per_objective(b.advantages)))
            net = t.policy.net
            mu, cache = net.forward(t.policy._net_params(params), batch.states)
            d_mu = np.random.default_rng(0).standard_normal(mu.shape)
            _, work = net.buffers(mu.shape[:-1])
            grad = np.empty(params.shape[:-1] + (net.num_params,))
            out.append(("backprop.point", 1,
                        lambda net=net, c=cache, d=d_mu, g=grad, w=work: net.backprop(c, d, g, w)))
    d = point.policy.num_params
    for shape in ((3, d), (4, d), (8, 2, d), (4, 3, d)):
        G = np.random.default_rng(shape[-2]).standard_normal(shape)
        name = f"m{shape[0]}" if len(shape) == 2 else f"{shape[0]}x{shape[1]}"
        out.append((f"min_norm_direction.{name}", 1, lambda G=G: min_norm_direction(G)))
    for m in (2, 3):
        P = _front(1000, m, seed=m)
        out.append((f"hypervolume.{m}d_n1000", 1, lambda P=P, z=np.zeros(m): hypervolume(P, z)))
    for n in (100, 250) + ((500,) if full else ()):
        P = _front(n, 3, seed=n)
        out.append((f"gap_edges.3d_n{n}", 1, lambda P=P: _gap_edges(P)))
    snapshot = np.zeros(1)
    front = [PolicyEntry(f"ckpt_{k:06d}", row, 0, "warmup", snapshot, snapshot)
             for k, row in enumerate(_front(200, 2, seed=2))]
    radii = 1.0 + 0.003 * np.random.default_rng(4).standard_normal((488, 1))
    offers = [PolicyEntry(f"ckpt_{200 + k:06d}", row, 1, "pareto_ascent", snapshot, snapshot)
              for k, row in enumerate(_front(488, 2, seed=3) * radii)]
    out.append(("archive.insert.2d_n200", len(offers),
                lambda: _replay_offers(front, offers)))
    quad2 = _trainer("quad2")
    rng = np.random.default_rng(0)
    entries = [PolicyEntry(f"ckpt_{k:06d}", [float(k), -float(k)], 0, "warmup",
                           rng.standard_normal(quad2.policy.num_params),
                           rng.standard_normal(quad2.critic.num_params))
               for k in range(1000)]
    out.append(("save_checkpoint.quad2_n1000", 1,
                lambda: _rewrite_store(scratch / "checkpoints", entries)))
    return out


def time_call(call, repeats: int, min_repeat_s: float) -> float:
    """Median over ``repeats`` of the seconds per call of ``call``."""
    start = perf_counter()
    call()
    number = max(1, int(min_repeat_s / max(perf_counter() - start, 1e-9)))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            call()
        times.append((perf_counter() - start) / number)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="3 repeats of at least 0.01 s each, for a smoke check")
    parser.add_argument("--full", action="store_true", help="add _gap_edges at n=500")
    args = parser.parse_args(argv)
    repeats, min_repeat_s = (3, 0.01) if args.quick else (9, 0.2)
    rows = {}
    with tempfile.TemporaryDirectory(prefix="microbench-") as scratch:
        for name, divisor, call in cases(args.full, Path(scratch)):
            rows[name] = time_call(call, repeats, min_repeat_s) / divisor
            print(f"{name:28s} {rows[name] * 1e6:12.1f} us", flush=True)
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "repeats": repeats, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
