"""The stacked generation step against the per-lane loop it replaced."""

import tracemalloc

import numpy as np
import pytest

from moascent.config import PolicyConfig
from moascent.harness import build_trainer, resolve_config
from moascent.policy import collect_batch, ppo_update

from .oracles import PerLaneTrainer

CASES = {
    "quadratic": {
        "env": {"name": "mo_quadratic"},
        "policy": {"batch_episodes": 8, "epochs": 2, "hidden": 8},
        "evolution": {"M": 3, "M_ft": 1, "m_iters": 3, "m_w": 2, "p": 6},
    },
    "quadratic3-gap-pairs": {
        "env": {"name": "mo_quadratic3"},
        "policy": {"batch_episodes": 8, "epochs": 2, "hidden": 8},
        "evolution": {"M": 2, "m_iters": 3, "m_w": 2, "p": 8, "paft_pairs": 1},
    },
    "point": {
        "env": {"name": "mo_point"},
        "policy": {"batch_episodes": 4, "epochs": 2, "hidden": 8},
        "evolution": {"M": 2, "m_iters": 2, "m_w": 2, "p": 4, "snapshot_every": 1},
        "eval": {"episodes": 4},
    },
    "ablation-sgd-raw-advantages": {
        "env": {"name": "mo_quadratic"},
        "policy": {"batch_episodes": 8, "epochs": 2, "hidden": 8,
                   "optimizer": "sgd", "lr": 0.05, "normalize_advantages": False},
        "evolution": {"M": 3, "M_ft": 1, "m_iters": 3, "m_w": 2, "p": 8, "paft_pairs": 2},
    },
    # Long lanes: 150 rows a lane and 100 eval episodes a snapshot, each
    # stack in one pass.
    "uneven-row-chunks": {
        "env": {"name": "mo_quadratic"},
        "policy": {"batch_episodes": 150, "epochs": 2, "hidden": 8},
        "evolution": {"M": 2, "M_ft": 1, "m_iters": 2, "m_w": 1, "p": 8,
                      "snapshot_every": 1},
        "eval": {"episodes": 100},
    },
    # The warm-up offers its untrained start params; a generation's third
    # iteration is snapshotted as the last one, off the every-2 schedule.
    "untrained-warmup-off-schedule-snapshot": {
        "env": {"name": "mo_quadratic"},
        "policy": {"batch_episodes": 8, "epochs": 2, "hidden": 8},
        "evolution": {"M": 2, "M_ft": 1, "m_iters": 3, "m_w": 0, "p": 6,
                      "snapshot_every": 2},
    },
}


def trainers(case, seed=0):
    cfg = resolve_config({"experiment": "lockstep", **case})
    return build_trainer(cfg, seed), PerLaneTrainer(cfg, seed)


def outputs(trainer):
    state = trainer.run_training()
    return {
        "archive": [(e.params_ref, e.generation, e.source, e.objectives.tobytes(),
                     e.params.tobytes(), e.critic_params.tobytes()) for e in state.archive],
        "population": [(e.params_ref, e.params.tobytes()) for e in state.population],
        "selection": state.selection_log,
        "metrics": [{k: v for k, v in row.items() if k != "seconds"} for row in state.metrics],
        "next_ref": state.next_ref,
    }


def stacked_training(*args, **kwargs):
    raise AssertionError("the per-lane oracle trained lanes as a stack")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_step_reproduces_per_lane_loop(monkeypatch, name):
    stacked, per_lane = trainers(CASES[name])
    got = outputs(stacked)
    # The oracle must run its own per-lane path, not the stacked one it checks.
    monkeypatch.setattr(per_lane, "_train_lanes", stacked_training)
    want = outputs(per_lane)
    for key in want:
        assert got[key] == want[key], key
    if name == "quadratic3-gap-pairs":
        assert any(r.get("job") == "gap_pair" for r in got["selection"])


# Stacks for one PPO update: 4 point lanes of 8 episodes (512 rows a lane),
# and 3 quadratic lanes of 150 one-step episodes (150 rows a lane).
UPDATE_STACKS = {
    "long-lanes": ({"env": {"name": "mo_point"}, "policy": {"batch_episodes": 8}}, 4, 512),
    "uneven-row-chunks": (CASES["uneven-row-chunks"], 3, 150),
}


@pytest.mark.parametrize("name", sorted(UPDATE_STACKS))
def test_stacked_passes_are_row_bounded(name):
    # A PPO update over a whole stack writes its network passes into one set
    # of (L, n, hidden) buffers, so its peak traced memory stays within a few
    # such arrays: bounded by the stack's rows, not by per-operation
    # temporaries. Fresh temporaries over the whole stack peaked at 5.6 of them.
    case, lanes, lane_rows = UPDATE_STACKS[name]
    hidden = 32
    cfg = resolve_config({"experiment": "lockstep", **case,
                          "policy": {**case["policy"], "hidden": hidden}})
    trainer = build_trainer(cfg, 0)
    env, policy, critic = trainer.env, trainer.policy, trainer.critic
    rng = np.random.default_rng(0)
    params = np.stack([policy.init_params(rng, 0.1, -0.5) for _ in range(lanes)])
    critic_params = np.stack([critic.init_params(rng, 0.1) for _ in range(lanes)])
    batch = collect_batch(env, policy, params, critic, critic_params, cfg.policy.batch_episodes,
                          [np.random.default_rng(k) for k in range(lanes)])
    rows = batch.states.shape[-2]
    assert rows == lane_rows
    omega = np.full((lanes, env.spec.num_objectives), 1.0 / env.spec.num_objectives)
    tracemalloc.start()
    try:
        ppo_update(policy, critic, batch, omega, PolicyConfig(hidden=hidden))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * lanes * rows * hidden * 8
