"""The stacked generation step against the per-lane loop it replaced."""

import numpy as np
import pytest

from moascent import policy as policy_module
from moascent.harness import build_trainer, resolve_config

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
    # 150 rows a lane: passes of 3, 3 and 2 lanes; 100 eval episodes a
    # snapshot: evaluation passes of 5, 5, 5 and 1 snapshots.
    "uneven-row-chunks": {
        "env": {"name": "mo_quadratic"},
        "policy": {"batch_episodes": 150, "epochs": 2, "hidden": 8},
        "evolution": {"M": 2, "M_ft": 1, "m_iters": 2, "m_w": 1, "p": 8,
                      "snapshot_every": 1},
        "eval": {"episodes": 100},
    },
}


def trainers(case, seed=0):
    cfg = resolve_config({"experiment": "lockstep", **case})
    stacked = build_trainer(cfg, seed)
    per_lane = PerLaneTrainer(stacked.env, stacked.policy, stacked.critic, cfg.evolution,
                              cfg.policy, seed, cfg.eval.episodes, cfg.paft.enabled)
    return stacked, per_lane


def outputs(trainer):
    archive, metrics = trainer.run_training()
    state = trainer.state
    return {
        "archive": [(e.params_ref, e.generation, e.source, e.objectives.tobytes(),
                     e.params.tobytes(), e.critic_params.tobytes()) for e in archive],
        "population": [(e.params_ref, e.params.tobytes()) for e in state.population],
        "selection": state.selection_log,
        "metrics": [{k: v for k, v in row.items() if k != "seconds"} for row in metrics],
        "next_ref": state.next_ref,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_stacked_step_reproduces_per_lane_loop(name):
    stacked, per_lane = trainers(CASES[name])
    got, want = outputs(stacked), outputs(per_lane)
    for key in want:
        assert got[key] == want[key], key
    if name == "quadratic3-gap-pairs":
        assert any(r.get("job") == "gap_pair" for r in got["selection"])


# 9 point episodes of 64 steps: 576 rows a lane, more than one pass may hold.
LONG_LANES = {
    "env": {"name": "mo_point"},
    "policy": {"batch_episodes": 9, "epochs": 1, "hidden": 8},
    "evolution": {"M": 1, "m_iters": 1, "m_w": 1, "p": 4},
    "eval": {"episodes": 4},
}


@pytest.mark.parametrize("case", [CASES["uneven-row-chunks"], LONG_LANES],
                         ids=["uneven-row-chunks", "long-lanes"])
def test_stacked_passes_are_row_bounded(monkeypatch, case):
    # Every network pass holds at most _STACK_ROWS rows unless one lane alone
    # has more, and some pass does stack several lanes.
    passes = []
    lane_chunks = policy_module._lane_chunks

    def recording(params, lane_rows):
        chunks = lane_chunks(params, lane_rows)
        passes.extend((params[c][..., 0].size * lane_rows, lane_rows) for c in chunks)
        return chunks

    monkeypatch.setattr(policy_module, "_lane_chunks", recording)
    trainers(case)[0].run_training()
    assert all(rows <= max(policy_module._STACK_ROWS, lane_rows) for rows, lane_rows in passes)
    assert any(rows > lane_rows for rows, lane_rows in passes)
    if case is LONG_LANES:
        assert max(rows for rows, _ in passes) == 576
    else:
        # Training passes of 3 lanes and evaluation passes of 5 snapshots.
        assert {3 * 150, 5 * 100} <= {rows for rows, _ in passes}
