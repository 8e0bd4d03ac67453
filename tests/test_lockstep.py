"""The stacked generation step against the per-lane loop it replaced."""

import tracemalloc

import numpy as np
import pytest

from moascent import evolution
from moascent import policy as policy_module
from moascent.config import PolicyConfig
from moascent.harness import build_trainer, resolve_config
from moascent.policy import Network, collect_batch, hidden_workspace, ppo_update

from .oracles import PerLaneTrainer

CASES = {
    # Generations after M_ft train 5 of the p=6 lanes (3 ascent lanes, 2
    # objective extremes), so their passes write into a leading slice of the
    # trainer's workspace.
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
    # A linear network: the trainer's workspace and every batch's are zero-width.
    "linear": {
        "env": {"name": "mo_point"},
        "policy": {"batch_episodes": 4, "epochs": 2, "hidden": 0},
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


def test_a_run_makes_its_hidden_layer_buffers_once(monkeypatch):
    # The trainer allocates its hidden-layer workspace when it is built. Every
    # pass and backprop over a training batch of the run writes into it, and
    # no call makes a ``hidden_workspace`` or a batch-sized hidden layer of
    # its own.
    trainer, _ = trainers(CASES["point"])
    workspace = trainer.workspace
    rows = workspace.shape[-2]
    made, elsewhere = [], []
    make, apply, backprop = policy_module.hidden_workspace, Network.apply, Network.backprop

    def counted_workspace(*args):
        made.append(args)
        return make(*args)

    def checked_apply(self, layers, inputs, out, hid):
        if inputs.shape[-2] == rows and not np.shares_memory(hid, workspace):
            elsewhere.append("apply")
        apply(self, layers, inputs, out, hid)

    def checked_backprop(self, cache, d_out, out=None, work=None):
        if work is None or not all(np.shares_memory(w, workspace) for w in work):
            elsewhere.append("backprop")
        return backprop(self, cache, d_out, out, work)

    monkeypatch.setattr(policy_module, "hidden_workspace", counted_workspace)
    monkeypatch.setattr(Network, "apply", checked_apply)
    monkeypatch.setattr(Network, "backprop", checked_backprop)
    state = trainer.run_training()
    assert workspace.shape == (3, trainer.cfg.evolution.p, rows, trainer.policy.hidden)
    assert len(state.archive) > 0
    assert made == []
    assert elsewhere == []


def test_a_linear_run_carries_zero_width_buffers(monkeypatch):
    # A linear network's workspace is a zero-width array, not None, and
    # every batch of the run is collected into a view of it.
    trainer, _ = trainers(CASES["linear"])
    workspace = trainer.workspace
    bases = []

    def recording_collect(*args):
        batch = collect_batch(*args)
        bases.append((batch.workspace.base is workspace, batch.workspace.shape[-1]))
        return batch

    monkeypatch.setattr(evolution, "collect_batch", recording_collect)
    state = trainer.run_training()
    assert workspace.shape == (3, trainer.cfg.evolution.p, workspace.shape[-2], 0)
    assert workspace.dtype == evolution.NETWORK_DTYPE
    assert len(state.archive) > 0
    assert bases and set(bases) == {(True, 0)}


# Stacks for one PPO update: 4 point lanes of 8 episodes (512 rows a lane),
# and 3 quadratic lanes of 150 one-step episodes (150 rows a lane).
UPDATE_STACKS = {
    "long-lanes": ({"env": {"name": "mo_point"}, "policy": {"batch_episodes": 8}}, 4, 512),
    "uneven-row-chunks": (CASES["uneven-row-chunks"], 3, 150),
}


@pytest.mark.parametrize("name", sorted(UPDATE_STACKS))
def test_stacked_passes_are_row_bounded(name):
    # A PPO update over a whole stack writes its network passes into the
    # batch's (L, n, hidden) buffers, so its peak traced memory stays bounded
    # by the stack's rows, not by per-operation temporaries. Fresh
    # temporaries over the whole stack peaked at 5.6 such arrays. The update
    # allocates no hidden-sized array, whether the batch was collected into
    # a caller's workspace or into buffers of its own: what it does allocate
    # is action- and objective-sized, plus numpy's 64 KB iteration buffer,
    # 1.10 and 1.33 buffers at hidden 32, and below one at hidden 64.
    case, lanes, lane_rows = UPDATE_STACKS[name]
    for hidden, with_workspace, bound in ((32, False, 1.5), (64, True, 1.0)):
        cfg = resolve_config({"experiment": "lockstep", **case,
                              "policy": {**case["policy"], "hidden": hidden}})
        trainer = build_trainer(cfg, 0)
        env, policy, critic = trainer.env, trainer.policy, trainer.critic
        rng = np.random.default_rng(0)
        params = np.stack([policy.init_params(rng, 0.1, -0.5) for _ in range(lanes)])
        critic_params = np.stack([critic.init_params(rng, 0.1) for _ in range(lanes)])
        rows = cfg.policy.batch_episodes * env.spec.horizon
        assert rows == lane_rows
        workspace = hidden_workspace(hidden, (lanes, rows)) if with_workspace else None
        batch = collect_batch(env, policy, params, critic, critic_params,
                              cfg.policy.batch_episodes,
                              [np.random.default_rng(k) for k in range(lanes)], workspace)
        omega = np.full((lanes, env.spec.num_objectives), 1.0 / env.spec.num_objectives)
        tracemalloc.start()
        try:
            ppo_update(policy, critic, batch, omega, PolicyConfig(hidden=hidden))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * lanes * rows * hidden * 8, (hidden, with_workspace)
