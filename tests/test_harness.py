"""Configuration, CLI, run-directory, and report tests."""

import csv
import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from moascent import harness as harness_module
from moascent import policy as policy_module
from moascent.archive import (NonDominatedSet, PolicyEntry, frontier_document, frontier_entries,
                              hypervolume, parse_frontier, sparsity)
from moascent.config import apply_overrides, load_config
from moascent.evolution import NETWORK_DTYPE, Trainer
from moascent.harness import (
    METRICS_HEADER,
    ConfigError,
    _read_stack,
    load_checkpoint,
    main,
    read_metrics_csv,
    resolve_config,
    save_checkpoint,
)
from moascent.momdp import ENVIRONMENTS, make_env, mo_return, yaml_text_note
from moascent.policy import GaussianPolicy, run_episode

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TINY = {
    "experiment": "tiny",
    "env": {"name": "mo_quadratic"},
    "policy": {"batch_episodes": 4, "epochs": 2, "hidden": 8},
    "evolution": {"M": 2, "M_ft": 1, "m_iters": 2, "m_w": 1, "p": 4},
    "eval": {"episodes": 2},
    "seeds": [0],
}


def named(label, *values):
    """A parametrize case with the explicit id ``<label>-<last value>``.

    An explicit label keeps a case's id when another case is removed.
    """
    return pytest.param(*values, id=f"{label}-{values[-1]}")


def write_config(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def resolved_text(cfg) -> str:
    """The ``config.yaml`` that ``run_seed`` writes for ``cfg``: its resolution, dumped."""
    return yaml.safe_dump(asdict(resolve_config(cfg)), sort_keys=True)


def stored_run(tmp_path, rows):
    """A run directory whose frontier entry k is the policy ``rows[k]``, stored as ``run_seed`` does.

    ``config.yaml`` is ``TINY`` resolved, and each entry's critic is zeros.
    The entries hold the rows in the networks' dtype, whatever dtype they come in.
    """
    cfg = resolve_config(TINY)
    critic = np.zeros(Trainer(cfg, 0).critic.num_params)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.yaml").write_text(yaml.safe_dump(asdict(cfg), sort_keys=True))
    archive = NonDominatedSet()
    for k, params in enumerate(rows):  # ascending objectives keep the rows in order
        archive.insert(PolicyEntry(f"ckpt_{k:06d}", [float(k), -float(k)], 0, "warmup",
                                   params, critic))
    save_checkpoint(run_dir / "checkpoints", frontier_entries(archive))
    doc = frontier_document(archive, "tiny", cfg.evolution.reference_point)
    (run_dir / "frontier.json").write_text(json.dumps(doc))
    return run_dir


def eval_run(run_dir, *args):
    return main(["eval", "--run", str(run_dir), *args])


def printed_means(capsys) -> list[list[float]]:
    """The objectives of each ``mean objectives:`` line ``eval`` printed since the last read."""
    return [[float(v) for v in line.split(":")[1].split()]
            for line in capsys.readouterr().out.splitlines()]


def train(tmp_path, cfg=None, extra_args=()):
    cfg = dict(cfg or TINY)
    cfg["output_dir"] = str(tmp_path / "runs")
    path = write_config(tmp_path, cfg)
    before = set((tmp_path / "runs").glob("*")) if (tmp_path / "runs").exists() else set()
    assert main(["train", "--config", str(path), *extra_args]) == 0
    after = set((tmp_path / "runs").glob("*"))
    new = sorted(after - before)
    assert new
    return new


class TestConfigValidation:
    def test_missing_environment_name(self):
        raw = {k: v for k, v in TINY.items() if k != "env"}
        with pytest.raises(ConfigError, match="env.name"):
            resolve_config(raw)

    def test_unknown_field_rejected(self):
        raw = dict(TINY, typo_field=1)
        with pytest.raises(ConfigError, match="typo_field"):
            resolve_config(raw)

    def test_odd_population_rejected(self):
        raw = dict(TINY, evolution=dict(TINY["evolution"], p=5))
        with pytest.raises(ConfigError, match="evolution.p"):
            resolve_config(raw)

    def test_empty_seeds_rejected(self):
        raw = dict(TINY, seeds=[])
        with pytest.raises(ConfigError, match="seeds"):
            resolve_config(raw)

    def test_default_reference_point_per_env(self):
        cfg = resolve_config(TINY)
        assert cfg.evolution.reference_point == [-9.0, -9.0]

    def test_paft_start_defaults_to_third(self):
        raw = dict(TINY, evolution={"M": 9, "m_iters": 2, "m_w": 1, "p": 4})
        assert resolve_config(raw).evolution.M_ft == 3

    def test_override_applied_and_visible(self):
        cfg = resolve_config(TINY, overrides=["evolution.M=2"])
        assert cfg.evolution.M == 2
        cfg = resolve_config(TINY, overrides=["policy.lr=0.01", "paft.enabled=false"])
        assert cfg.policy.lr == 0.01
        assert cfg.paft.enabled is False

    def test_bad_override_shape(self):
        for text, message in [
            ("no-equals-sign", "must look like section.key=value"),
            # An empty segment used to be reported as a field with no name.
            (".M=3", "has an empty key in its path"),
            ("evolution..M=3", "has an empty key in its path"),
            ("evolution.=3", "has an empty key in its path"),
            ("=3", "has an empty key in its path"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(f"override {text!r} {message}")):
                apply_overrides({}, [text])

    @pytest.mark.parametrize("overrides, field", [
        # Fields that left the schema are unknown, even at their former defaults.
        named("overrides0", ["policy.init_scale=0.1"], "policy.init_scale"),
        named("overrides1", ["policy.log_std_init=-0.5"], "policy.log_std_init"),
        named("overrides2", ["evolution.reference_point=[-9,true]"],
              "evolution.reference_point"),
        # The wider action box lets returns fall below the default point.
        named("overrides3", ["env.params.action_bound=4"], "evolution.reference_point"),
        # A non-integer horizon used to pass resolve and crash in the first rollout.
        named("overrides4", ["env.name=mo_point", "env.params.horizon=1.5"], "horizon"),
        named("overrides5", ["env.name=mo_point", "env.params.horizon=true"], "horizon"),
        # Booleans and non-finite numbers used to pass as env params.
        named("overrides6", ["env.name=mo_point", "env.params.gamma=true",
                             "evolution.reference_point=[-1000,0]"], "gamma"),
        named("overrides7", ["env.name=mo_point", "env.params.init_noise=true",
                             "evolution.reference_point=[-1000,0]"], "init_noise"),
        named("overrides8", ["env.params.action_bound=.nan"], "action_bound"),
        named("overrides9", ["env.params.targets=[[1,0],[0,.inf]]"], "targets"),
        # Out-of-range env params used to train and exit 0.
        named("overrides10", ["env.name=mo_point", "env.params.dt=-0.1"], "dt"),
        named("overrides11", ["env.name=mo_point", "env.params.dt=0"], "dt"),
        named("overrides12", ["env.name=mo_point", "env.params.init_noise=-1"], "init_noise"),
        named("overrides13", ["env.name=mo_point", "env.params.action_bound=-1"], "action_bound"),
        named("overrides14", ["env.name=mo_point", "env.params.damping=1.5"], "damping"),
        named("overrides15", ["env.params.action_bound=-1"], "action_bound"),
        named("overrides16", ["evolution.reference_point=[-9,-9,-9]"],
              "evolution.reference_point"),
        named("overrides17", ["env.params.foo=1"],
              "env: environment 'mo_quadratic': MoQuadratic.__init__() "
              "got an unexpected keyword argument 'foo'"),
        named("overrides18", ["env.name=mo_quadratic3", "evolution.p=2"], "evolution.p"),
        named("overrides19", ["env.params.targets=[[1,0],[0,1],[-1,0],[0,-1]]"],
              "at most 3 objectives"),
        named("overrides20", ["evolution..M=3"],
              "override 'evolution..M=3' has an empty key in its path"),
        # Without its check this ended in a TypeError traceback.
        named("overrides21", ["experiment.x=1"],
              "override path experiment.x crosses a non-section value"),
        named("overrides22", ["policy.lr=["], "override 'policy.lr=[' has an unparsable value"),
        named("overrides23", ["env.name=mo_point", "env.params.horizon=0"],
              "horizon must be >= 1, got 0"),
        named("overrides24", ["env.params.targets=[[1, 0]]"],
              "need at least two targets, got shape (1, 2)"),
    ])
    def test_bad_value_exits_2_before_training(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "runs")))
        argv = ["train", "--config", str(path)]
        for text in overrides:
            argv += ["--override", text]
        assert main(argv) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("text, overrides, message", [
        # YAML 1.1 reads exponent form with no decimal point as a string.
        ("  lr: 1e-3\n", [], "policy.lr: invalid value '1e-3', expected a positive number "
         "(YAML read it as text: write it as 1.0e-3)"),
        ("", ["policy.lr=1e-3"], "policy.lr: invalid value '1e-3', expected a positive number "
         "(YAML read it as text: write it as 1.0e-3)"),
        ("", ["env.name=mo_point", "env.params.dt=1e-3"], "env: dt must be a finite number, "
         "got '1e-3' (YAML read it as text: write it as 1.0e-3)"),
    ], ids=["lr-in-file", "lr-override", "dt-override"])
    def test_exponent_form_read_as_text_named(self, tmp_path, capsys, text, overrides, message):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "runs")))
        path.write_text(path.read_text().replace("policy:\n", "policy:\n" + text))
        argv = ["train", "--config", str(path)]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("text", ["1e-3", "1.0e3", "-.5e3", "5E-4", "+2e10", "1_0e1"])
    def test_text_note_spells_the_number_yaml_reads(self, text):
        spelled = yaml_text_note(text).split("write it as ")[1].rstrip(")")
        assert yaml.safe_load(text) == text and yaml.safe_load(spelled) == float(text)

    def test_text_note_only_for_text_float_reads(self):
        assert yaml_text_note("nan") == " (YAML read it as text)"
        assert yaml_text_note("abc") == yaml_text_note(1e-3) == yaml_text_note(True) == ""

    @pytest.mark.parametrize("env_name", sorted(ENVIRONMENTS))
    def test_default_reference_point_below_env_bound(self, env_name):
        cfg = resolve_config(dict(TINY, env={"name": env_name}))
        low = make_env(env_name).return_lower_bound()
        assert np.all(np.asarray(cfg.evolution.reference_point) < low)

    def test_explicit_reference_point_above_env_bound_rejected(self):
        raw = dict(TINY, evolution=dict(TINY["evolution"], reference_point=[-8.0, -9.0]))
        with pytest.raises(ConfigError, match=r"evolution.reference_point.*-8\.5"):
            resolve_config(raw)

    def test_bad_optimizer_rejected(self):
        raw = dict(TINY, policy=dict(TINY["policy"], optimizer="momentum"))
        with pytest.raises(ConfigError, match="policy.optimizer"):
            resolve_config(raw)


class TestShippedConfigs:
    # Each config in configs/, and the second arm of the ablation, which the
    # ablation config's header and the README run with these overrides.
    ARMS = [(path.name, []) for path in sorted(CONFIGS.glob("*.yaml"))] + [
        ("quad2_ablation.yaml", ["paft.enabled=false", "experiment=quad2-ablated"]),
    ]

    @pytest.mark.parametrize("name, overrides", ARMS,
                             ids=["-".join([name, *extra]) for name, extra in ARMS])
    def test_config_resolves(self, name, overrides):
        cfg = resolve_config(load_config(CONFIGS / name), overrides)
        assert cfg.experiment and cfg.seeds

    # Fields an older config.yaml may still hold: the discount, lambda, clip
    # range, critic width and PGR region settings are no longer configured.
    @pytest.mark.parametrize("override", [
        "policy.gamma=0.99", "policy.lam=0.95", "policy.clip_eps=0.2",
        "policy.critic_hidden=32", "evolution.pgr_regions=null", "evolution.pgr_top_k=2",
    ])
    def test_deleted_field_exits_2_naming_it(self, tmp_path, capsys, override):
        argv = ["train", "--config", str(CONFIGS / "quad2.yaml"), "--seed", "0",
                "--override", f"output_dir={tmp_path / 'runs'}", "--override", override]
        assert main(argv) == 2
        field = override.split("=")[0]
        assert f"{field}: unknown configuration field" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_training_discounts_with_the_environment(self, tmp_path, monkeypatch):
        # The discount of every training batch's GAE is the env's, the one
        # every snapshot is scored with, also when an env param changes it.
        discounts = []
        gae = policy_module.gae

        def recording(rewards, values, last_values, gamma, lam):
            discounts.append(gamma)
            return gae(rewards, values, last_values, gamma, lam)

        monkeypatch.setattr(policy_module, "gae", recording)
        argv = ["train", "--config", str(CONFIGS / "point.yaml"), "--seed", "0"]
        for text in ("env.params.gamma=0.9", "evolution.M=1", "evolution.m_w=1",
                     "evolution.m_iters=1", "evolution.p=2", "policy.batch_episodes=1",
                     "eval.episodes=1", f"output_dir={tmp_path / 'runs'}"):
            argv += ["--override", text]
        assert main(argv) == 0
        assert discounts and all(gamma == 0.9 for gamma in discounts)


def train_keeping_state(tmp_path, monkeypatch):
    """Train one seed through the CLI; returns its run directory, trainer and final state."""
    kept = []
    run_training = Trainer.run_training

    def keeping(trainer):
        kept.append((trainer, run_training(trainer)))
        return kept[-1][1]

    monkeypatch.setattr(Trainer, "run_training", keeping)
    (run_dir,) = train(tmp_path)
    ((trainer, state),) = kept
    return run_dir, trainer, state


class TestCheckpointIO:
    """The checkpoint store: row k of policy.npy holds frontier.json's entries[k]."""

    def test_round_trip(self, tmp_path, monkeypatch):
        # The file stacks the archive entries' own NETWORK_DTYPE arrays, and
        # the store reader takes it as written.
        run_dir, _, state = train_keeping_state(tmp_path, monkeypatch)
        doc, _ = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        policy = np.load(run_dir / "checkpoints" / "policy.npy", allow_pickle=False)
        archive = {e.params_ref: e for e in state.archive}
        assert policy.shape[0] == len(doc["entries"]) == len(archive) > 1
        assert policy.dtype == NETWORK_DTYPE
        read = _read_stack(run_dir / "checkpoints" / "policy.npy", *policy.shape)
        assert read.dtype == NETWORK_DTYPE and read.tobytes() == policy.tobytes()
        for k, item in enumerate(doc["entries"]):
            entry = archive[item["params_ref"]]
            assert item["objectives"] == entry.objectives.tolist()
            assert policy[k].tobytes() == entry.params.tobytes()

    def test_stack_evaluates_to_the_frontier(self, tmp_path, monkeypatch):
        run_dir, trainer, _ = train_keeping_state(tmp_path, monkeypatch)
        _, objectives = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        policy = np.load(run_dir / "checkpoints" / "policy.npy", allow_pickle=False)
        assert trainer.evaluate(policy).tobytes() == objectives.tobytes()

    @pytest.mark.parametrize("evolution_m", [0, 3])
    def test_store_is_one_file_whatever_the_archive_size(self, tmp_path, evolution_m):
        cfg = dict(TINY, evolution=dict(TINY["evolution"], M=evolution_m, M_ft=None))
        (run_dir,) = train(tmp_path, cfg)
        doc, _ = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        assert [p.name for p in (run_dir / "checkpoints").iterdir()] == ["policy.npy"]
        stack = np.load(run_dir / "checkpoints" / "policy.npy", allow_pickle=False)
        assert stack.shape[0] == len(doc["entries"])

    def test_float64_snapshots_save_a_store_eval_reads(self, tmp_path, capsys):
        # An entry holds what it is given in NETWORK_DTYPE, so a store saved
        # from float64 arrays is one the reader takes, and eval rolls the
        # policy out as the trainer evaluates it.
        trainer = Trainer(resolve_config(TINY), 0)
        params = trainer.policy.init_params(np.random.default_rng(1), 0.1, -0.5)
        assert params.dtype == np.float64
        run_dir = stored_run(tmp_path, [params])
        assert eval_run(run_dir, "--entry", "0") == 0
        assert printed_means(capsys) == [trainer.evaluate(params).tolist()]

    def test_corrupt_length_rejected(self, tmp_path):
        policy = GaussianPolicy(1, 2, hidden=8)
        run_dir = stored_run(tmp_path, [np.zeros(policy.num_params)] * 2)
        np.save(run_dir / "checkpoints" / "policy.npy",
                np.zeros((2, policy.num_params + 1), NETWORK_DTYPE))
        with pytest.raises(ValueError, match="parameters"):
            load_checkpoint(run_dir, 0)


def _save_zip(path, stack):
    with path.open("wb") as fh:
        np.savez(fh, stack)


def _edit_config(edit):
    """A damage that applies ``edit`` to a run's ``config.yaml`` mapping; returns the file."""
    def damage(run_dir):
        path = run_dir / "config.yaml"
        cfg = yaml.safe_load(path.read_text())
        edit(cfg)
        path.write_text(yaml.safe_dump(cfg))
        return path
    return damage


def _edit_config_text(old, new):
    """A damage that replaces ``old`` by ``new`` in a run's ``config.yaml``; returns the file."""
    def damage(run_dir):
        path = run_dir / "config.yaml"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        return path
    return damage


# Edits of one field of a resolved config.yaml that resolve_config would fill
# in or reject, or that no run writes, and the message that names the field.
# A run's config.yaml must be its own resolution, so none of them is read as
# a default.
UNRESOLVED = [
    pytest.param(lambda cfg: cfg.pop("seeds"), "field 'seeds' is missing", id="seeds-deleted"),
    # Two seeds resolve to themselves: eval used to roll out the first seed's
    # evaluation episodes, and report to label the run with it, both exit 0.
    pytest.param(lambda cfg: cfg.update(seeds=[0, 1]),
                 "field 'seeds' must hold the run's one seed, got [0, 1]", id="two-seeds"),
    pytest.param(lambda cfg: cfg["evolution"].update(M_ft=None),
                 "field 'evolution.M_ft' is None, which resolves to 1", id="M_ft-null"),
    pytest.param(lambda cfg: cfg["policy"].update(init_scale=0.1),
                 "policy.init_scale: unknown configuration field", id="unknown-key"),
    pytest.param(lambda cfg: cfg["evolution"].update(p=3), "evolution.p: invalid value 3",
                 id="odd-p"),
]


def _edit_policy_stack(edit):
    """A damage that applies ``edit(path, stack)`` to a run's ``policy.npy``; returns the file."""
    def damage(run_dir):
        path = run_dir / "checkpoints" / "policy.npy"
        edit(path, np.load(path))
        return path
    return damage


class _StoredRunCase:
    """A stored three-entry run to damage, and the check that ``eval`` names the damage."""

    WIDTH = GaussianPolicy(1, 2, hidden=8).num_params

    def run(self, tmp_path):
        rng = np.random.default_rng(0)
        return stored_run(tmp_path, [rng.standard_normal(self.WIDTH) for _ in range(3)])

    def assert_named(self, capsys, *parts):
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert all(part in err for part in parts), err

    def assert_eval_names(self, tmp_path, capsys, damage, message):
        run_dir = self.run(tmp_path)
        path = damage(run_dir)
        assert eval_run(run_dir, "--entry", "0") == 1
        self.assert_named(capsys, str(path), message)


class TestCheckpointHeader(_StoredRunCase):
    """The fields of the former JSON checkpoint header, damaged where a run keeps them now.

    ``state_dim`` and ``action_dim`` are the dimensions of ``config.yaml``'s ``env``,
    ``hidden`` is its ``policy.hidden`` and ``values`` is the ``checkpoints/policy.npy``
    stack. Each case keeps the id it had under the header (the ``values`` ids still quote
    the header's message); the log-std bounds are no longer stored, so their cases are gone.
    """

    def test_missing_policy_named(self, tmp_path, capsys):
        self.assert_eval_names(tmp_path, capsys, _edit_config(lambda cfg: cfg.pop("policy")),
                               "field 'policy' is missing")

    def test_non_mapping_checkpoint_named(self, tmp_path, capsys):
        def damage(run_dir):
            (run_dir / "config.yaml").write_text("[1]\n")
            return run_dir / "config.yaml"

        self.assert_eval_names(tmp_path, capsys, damage, "must hold a mapping, got list")

    def test_non_mapping_policy_named(self, tmp_path, capsys):
        self.assert_eval_names(tmp_path, capsys, _edit_config(lambda cfg: cfg.update(policy=3)),
                               "policy: expected a mapping")

    @pytest.mark.parametrize("damage, message", [
        pytest.param(_edit_config(lambda cfg: cfg.pop("env")),
                     "env.name: missing value", id="state_dim"),
        pytest.param(_edit_config(lambda cfg: cfg["env"].pop("name")),
                     "env.name: missing value", id="action_dim"),
        pytest.param(_edit_config(lambda cfg: cfg["policy"].pop("hidden")),
                     "field 'policy.hidden' is missing", id="hidden"),
        pytest.param(_edit_policy_stack(lambda path, stack: path.unlink()),
                     "No such file", id="values"),
    ])
    def test_missing_policy_key_named(self, tmp_path, capsys, damage, message):
        self.assert_eval_names(tmp_path, capsys, damage, message)

    HIDDEN = "'policy.hidden' must be an integer >= 0"
    VALUES = "'policy.values' must be a list of finite numbers"

    @pytest.mark.parametrize("damage, message", [
        pytest.param(_edit_config(lambda cfg: cfg["policy"].update(hidden=-1)),
                     "policy.hidden: invalid value -1", id=f"hidden--1-{HIDDEN}, got -1"),
        pytest.param(_edit_config(lambda cfg: cfg["policy"].update(hidden=False)),
                     "policy.hidden: invalid value False", id=f"hidden-False-{HIDDEN}, got False"),
        pytest.param(_edit_policy_stack(lambda path, stack: path.write_text("values: [0.5]\n")),
                     "is not a readable .npy array", id=f"values-value10-{VALUES}"),
        pytest.param(_edit_policy_stack(lambda path, stack: np.save(path, stack.astype(object))),
                     "is not a readable .npy array", id=f"values-value11-{VALUES}"),
        pytest.param(_edit_policy_stack(lambda path, stack: np.save(path, stack > 0)),
                     "must hold float32, got bool", id=f"values-value12-{VALUES}"),
    ])
    def test_bad_policy_value_named(self, tmp_path, capsys, damage, message):
        self.assert_eval_names(tmp_path, capsys, damage, message)


class TestDamagedStore(_StoredRunCase):
    """``eval`` exits 1 naming the damaged file or field, never with a traceback."""

    # (id, damage(path, the stored (3, WIDTH) stack), message)
    DAMAGE = [
        ("empty", lambda path, stack: path.write_bytes(b""), "is not a readable .npy array"),
        ("zip-archive", _save_zip, "is not a .npy array"),
        # The id names the dtype the store must hold.
        ("float32", lambda path, stack: np.save(path, stack.astype(np.float16)),
         "must hold float32, got float16"),
        ("one-dimensional", lambda path, stack: np.save(path, stack[0]),
         "must be a 2-D stack, got shape"),
        ("width", lambda path, stack: np.save(path, stack[:, :-1]),
         f"rows hold {_StoredRunCase.WIDTH - 1} parameters, "
         f"the run's network has {_StoredRunCase.WIDTH}"),
        ("rows", lambda path, stack: np.save(path, stack[:2]),
         "has 2 rows, frontier.json has 3 entries"),
    ]

    @pytest.mark.parametrize("damage, message", [
        pytest.param(_edit_policy_stack(case[1]), case[2], id=case[0]) for case in DAMAGE])
    def test_damaged_policy_stack_named(self, tmp_path, capsys, damage, message):
        self.assert_eval_names(tmp_path, capsys, damage, message)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_named(self, tmp_path, capsys, value):
        run_dir = self.run(tmp_path)
        path = run_dir / "checkpoints" / "policy.npy"
        stack = np.load(path)
        stack[2, 5] = value
        np.save(path, stack)
        assert eval_run(run_dir, "--entry", "0") == 1
        self.assert_named(capsys, str(path), "row 2 holds a non-finite value")

    # The case keeps the id it had when the store was two files.
    @pytest.mark.parametrize("name", ["policy.npy"])
    def test_float64_store_of_earlier_versions_named(self, tmp_path, capsys, name):
        # Earlier versions widened each float32 snapshot to float64 on save.
        # Such a store holds the same values, and eval refuses it by name, as
        # it refuses a version-1 frontier.
        run_dir = self.run(tmp_path)
        path = run_dir / "checkpoints" / name
        assert eval_run(run_dir, "--entry", "0") == 0
        capsys.readouterr()
        np.save(path, np.load(path).astype(np.float64))
        assert eval_run(run_dir, "--entry", "0") == 1
        self.assert_named(capsys, str(path), "must hold float32, got float64")

    @pytest.mark.parametrize("entry", ["3", "-1"])
    def test_entry_out_of_range_named(self, tmp_path, capsys, entry):
        run_dir = self.run(tmp_path)
        assert eval_run(run_dir, "--entry", entry) == 1
        self.assert_named(capsys, f"--entry {entry} is out of range",
                          str(run_dir / "frontier.json"), "has 3 entries")

    def test_schema_version_1_frontier_named(self, tmp_path, capsys):
        run_dir = self.run(tmp_path)
        doc = json.loads((run_dir / "frontier.json").read_text())
        doc["schema_version"] = 1
        for item in doc["entries"]:
            item["checkpoint"] = f"checkpoints/{item.pop('params_ref')}.json"
        (run_dir / "frontier.json").write_text(json.dumps(doc))
        assert eval_run(run_dir, "--entry", "0") == 1
        self.assert_named(capsys, "unsupported frontier schema_version: 1")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda item: item.pop("params_ref"),
                     "frontier entry 1 missing field 'params_ref'", id="no-params_ref"),
        pytest.param(lambda item: item.update(params_ref=7),
                     "frontier entry 1 field 'params_ref' must be a string, got 7",
                     id="params_ref-not-a-string"),
    ])
    def test_damaged_frontier_entry_named(self, tmp_path, capsys, edit, message):
        # Both commands that read the frontier name its file and the entry.
        run_dir = self.run(tmp_path)
        path = run_dir / "frontier.json"
        doc = json.loads(path.read_text())
        edit(doc["entries"][1])
        path.write_text(json.dumps(doc))
        assert eval_run(run_dir, "--entry", "0") == 1
        self.assert_named(capsys, f"{path}: {message}")
        with (run_dir / "metrics.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([METRICS_HEADER, [0, "1.0", "0.5", 3, 0, "0.1"]])
        assert main(["report", str(run_dir), "--out", str(tmp_path / "rep")]) == 1
        self.assert_named(capsys, f"{path}: {message}")

    def test_frontier_that_is_not_json_named(self, tmp_path, capsys):
        run_dir = self.run(tmp_path)
        (run_dir / "frontier.json").write_text("entries: []\n")
        assert eval_run(run_dir, "--entry", "0") == 1
        self.assert_named(capsys, str(run_dir / "frontier.json"), "is not valid JSON")

    @pytest.mark.parametrize("damage, message", [
        pytest.param(_edit_config(lambda cfg: cfg["env"].update(name="")),
                     "env.name: invalid value ''", id="empty"),
        pytest.param(_edit_config_text("name: mo_quadratic", "name: [mo_quadratic"),
                     "name: [mo_quadratic", id="not-yaml"),
        pytest.param(_edit_config(lambda cfg: cfg.update(env=3)), "env: expected a mapping",
                     id="env-not-mapping"),
        pytest.param(_edit_config(lambda cfg: cfg["env"].update(name="mo_nowhere")),
                     "env: unknown environment 'mo_nowhere'", id="unknown-env"),
        pytest.param(_edit_config(lambda cfg: cfg["env"].update(params={"foo": 1})),
                     "env: environment 'mo_quadratic': MoQuadratic.__init__() got an "
                     "unexpected keyword argument 'foo'", id="bad-env-param"),
    ])
    def test_damaged_run_config_named(self, tmp_path, capsys, damage, message):
        self.assert_eval_names(tmp_path, capsys, damage, message)

    @pytest.mark.parametrize("edit, message", UNRESOLVED)
    def test_config_that_is_not_its_own_resolution_named(self, tmp_path, capsys, edit, message):
        self.assert_eval_names(tmp_path, capsys, _edit_config(edit), message)

    def test_hidden_width_that_does_not_match_the_store_named(self, tmp_path, capsys):
        # The shapes come from config.yaml alone, so a changed width shows as a bad store.
        run_dir = self.run(tmp_path)
        cfg = yaml.safe_load((run_dir / "config.yaml").read_text())
        cfg["policy"]["hidden"] = 4
        (run_dir / "config.yaml").write_text(yaml.safe_dump(cfg))
        assert eval_run(run_dir, "--entry", "0") == 1
        width = GaussianPolicy(1, 2, hidden=4).num_params
        self.assert_named(capsys, "policy.npy",
                          f"rows hold {self.WIDTH} parameters, the run's network has {width}")


class TestTrainCommand:
    def test_run_directory_contents(self, tmp_path):
        (run_dir,) = train(tmp_path)
        for name in ("config.yaml", "metrics.csv", "frontier.json", "selection.jsonl"):
            assert (run_dir / name).exists()
        with (run_dir / "metrics.csv").open() as fh:
            assert next(csv.reader(fh)) == METRICS_HEADER
        doc, objectives = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        assert doc["experiment_id"] == "tiny"
        assert len(objectives) >= 1
        # every frontier entry's policy loads from the checkpoint store
        for k in range(len(doc["entries"])):
            trainer, params = load_checkpoint(run_dir, k)
            assert params.size == trainer.policy.num_params
            assert (trainer.policy.state_dim, trainer.policy.action_dim) == (
                trainer.env.spec.state_dim, trainer.env.spec.action_dim)

    def test_unwritable_output_dir_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(self):
            pytest.fail("training started although the run directory cannot be created")

        monkeypatch.setattr(Trainer, "run_training", no_training)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        path = write_config(tmp_path, dict(TINY, output_dir=str(blocker / "runs")))
        assert main(["train", "--config", str(path)]) == 1
        assert f"cannot create run directory {blocker / 'runs'}" in capsys.readouterr().err

    def test_metrics_rows_cover_warmup_and_generations(self, tmp_path):
        (run_dir,) = train(tmp_path)
        rows = read_metrics_csv(run_dir / "metrics.csv")
        assert [r["generation"] for r in rows] == [0, 1, 2]

    def test_seed_flag_restricts(self, tmp_path):
        cfg = dict(TINY, seeds=[0, 1])
        runs = train(tmp_path, cfg, extra_args=("--seed", "1"))
        assert len(runs) == 1
        resolved = yaml.safe_load((runs[0] / "config.yaml").read_text())
        assert resolved["seeds"] == [1]

    @pytest.mark.parametrize("seeds, args", [
        pytest.param([0, 0], (), id="config"),
        pytest.param([0], ("--seed", "3", "--seed", "3"), id="flag"),
    ])
    def test_duplicate_seeds_exit_2_before_training(self, tmp_path, capsys, seeds, args):
        # A repeated seed used to train twice into two identical run
        # directories, which report then counted as two runs.
        path = write_config(tmp_path, dict(TINY, seeds=seeds, output_dir=str(tmp_path / "runs")))
        assert main(["train", "--config", str(path), *args]) == 2
        assert "seeds: invalid value" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_override_lands_in_resolved_copy(self, tmp_path):
        (run_dir,) = train(tmp_path, extra_args=("--override", "evolution.M=1"))
        resolved = yaml.safe_load((run_dir / "config.yaml").read_text())
        assert resolved["evolution"]["M"] == 1
        rows = read_metrics_csv(run_dir / "metrics.csv")
        assert rows[-1]["generation"] == 1

    def test_missing_config_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "absent.yaml"
        assert main(["train", "--config", str(path)]) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err

    def test_metrics_header_that_differs_named(self, tmp_path):
        path = tmp_path / "metrics.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([METRICS_HEADER[::-1], ["0"] * len(METRICS_HEADER)])
        with pytest.raises(ValueError, match=re.escape(f"unexpected metrics header in {path}")):
            read_metrics_csv(path)

    def test_invalid_config_exit_code_and_message(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "x"})
        assert main(["train", "--config", str(path)]) == 2
        assert "env.name" in capsys.readouterr().err

    def test_empty_config_file_exits_2_naming_the_first_missing_field(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        assert main(["train", "--config", str(path)]) == 2
        assert "env.name: missing value" in capsys.readouterr().err

    def test_env_params_key_that_is_not_a_string_exits_2_before_training(self, tmp_path,
                                                                          capsys):
        # A YAML file can give a non-string key, which an override cannot;
        # it used to end the run with a TypeError traceback and exit 1.
        cfg = dict(TINY, env={"name": "mo_quadratic", "params": {1: 2}},
                   output_dir=str(tmp_path / "runs"))
        path = write_config(tmp_path, cfg)
        assert "1: 2" in path.read_text()
        assert main(["train", "--config", str(path)]) == 2
        assert "env.params: invalid value {1: 2}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_determinism_across_invocations(self, tmp_path):
        (run_a,) = train(tmp_path)
        (run_b,) = train(tmp_path)
        assert (run_a / "frontier.json").read_bytes() == (run_b / "frontier.json").read_bytes()
        assert (run_a / "selection.jsonl").read_bytes() == (run_b / "selection.jsonl").read_bytes()

        def rows_without_seconds(path):
            with path.open() as fh:
                return [line.rsplit(",", 1)[0] for line in fh]

        assert rows_without_seconds(run_a / "metrics.csv") == rows_without_seconds(
            run_b / "metrics.csv"
        )

    def test_resolved_copy_reproduces_run(self, tmp_path):
        (run_a,) = train(tmp_path)
        resolved = yaml.safe_load((run_a / "config.yaml").read_text())
        (run_b,) = train(tmp_path, resolved)
        assert (run_a / "frontier.json").read_bytes() == (run_b / "frontier.json").read_bytes()

    def test_round_trip_rescore_matches_logged_metrics(self, tmp_path):
        (run_dir,) = train(tmp_path)
        doc, objectives = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        final = read_metrics_csv(run_dir / "metrics.csv")[-1]
        assert hypervolume(objectives, doc["reference_point"]) == final["hv"]
        sp = sparsity(objectives)
        assert (sp is None and final["sp"] is None) or sp == final["sp"]

    def test_three_objective_metrics_read_back(self, tmp_path):
        (run_dir,) = train(tmp_path, dict(TINY, env={"name": "mo_quadratic3"}))
        doc, objectives = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        final = read_metrics_csv(run_dir / "metrics.csv")[-1]
        assert final["hv"] == hypervolume(objectives, doc["reference_point"])

    def test_training_imports_no_masked_arrays(self, tmp_path):
        # numpy.ma costs a process about 1.2 MB and 12-16 ms, and no run uses a
        # masked array; np.unique imports it for its masked-array check. Other
        # tests import numpy.ma in this process, so a fresh interpreter trains
        # a 2-objective and a 3-objective run.
        script = textwrap.dedent("""
            import sys
            import moascent.harness as harness
            if "numpy.ma" in sys.modules:
                print("loaded at import")
                sys.exit()
            for path in sys.argv[1:]:
                assert harness.main(["train", "--config", path]) == 0
            print("loaded" if "numpy.ma" in sys.modules else "not loaded")
        """)
        configs = [write_config(tmp_path, dict(TINY, env={"name": name},
                                               output_dir=str(tmp_path / "runs")), f"{name}.yaml")
                   for name in ("mo_quadratic", "mo_quadratic3")]
        src = str(Path(harness_module.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, *map(str, configs)], env=env,
                              capture_output=True, text=True, check=True)
        verdict = done.stdout.splitlines()[-1]
        if verdict == "loaded at import":
            pytest.skip("importing moascent.harness loads numpy.ma (numpy 1.x does)")
        assert verdict == "not loaded"
        assert len(list((tmp_path / "runs").iterdir())) == 2


class TestEvalCommand:
    def test_replays_the_runs_evaluation_seeds(self, tmp_path, capsys):
        # mo_point's start state depends on the reset seed, so only the run's
        # own evaluation seeds reproduce the objectives training recorded.
        cfg = dict(TINY, env={"name": "mo_point", "params": {"horizon": 6}},
                   eval={"episodes": 3}, seeds=[5])
        (run_dir,) = train(tmp_path, cfg)
        capsys.readouterr()
        doc = json.loads((run_dir / "frontier.json").read_text())
        assert len(doc["entries"]) > 1
        for k, item in enumerate(doc["entries"]):
            assert eval_run(run_dir, "--entry", str(k), "--episodes", "3") == 0
            assert printed_means(capsys) == [item["objectives"]], k

    @pytest.mark.parametrize("env", [
        pytest.param({"name": "mo_point", "params": {"horizon": 6}}, id="mo_point"),
        pytest.param({"name": "mo_quadratic3"}, id="mo_quadratic3"),
    ])
    def test_episodes_default_to_the_runs_eval_episodes(self, tmp_path, capsys, env):
        # Without --episodes, eval rolls out the run's own eval.episodes (3
        # here, not the schema's default 8), so the plain command prints
        # each entry's objectives exactly, whatever the objective count.
        cfg = dict(TINY, env=env, eval={"episodes": 3}, seeds=[5])
        (run_dir,) = train(tmp_path, cfg)
        capsys.readouterr()
        doc = json.loads((run_dir / "frontier.json").read_text())
        for k, item in enumerate(doc["entries"]):
            assert eval_run(run_dir, "--entry", str(k)) == 0
            assert printed_means(capsys) == [item["objectives"]], k

    def test_replays_the_runs_own_env_params(self, tmp_path, capsys):
        # eval used to roll out on an env built from --env/--param flags, so
        # the plain command on this run printed the default targets' returns
        # and exited 0. The env now comes from the run's config.yaml alone.
        cfg = dict(TINY, env={"name": "mo_quadratic", "params": {"targets": [[2, 0], [0, 2]]}},
                   evolution=dict(TINY["evolution"], reference_point=[-30, -30]))
        (run_dir,) = train(tmp_path, cfg)
        capsys.readouterr()
        doc = json.loads((run_dir / "frontier.json").read_text())
        for k, item in enumerate(doc["entries"]):
            assert eval_run(run_dir, "--entry", str(k)) == 0
            assert printed_means(capsys) == [item["objectives"]], k

    @pytest.mark.parametrize("episodes", ["0", "-1", "x"])
    def test_episodes_below_one_is_a_usage_error(self, tmp_path, capsys, episodes):
        # -1 used to end in numpy's "negative dimensions are not allowed"; a
        # non-integer gets the same message, not argparse's own.
        run_dir = stored_run(tmp_path, [np.zeros(GaussianPolicy(1, 2, hidden=8).num_params)])
        with pytest.raises(SystemExit) as exc:
            eval_run(run_dir, "--entry", "0", "--episodes", episodes)
        assert exc.value.code == 2
        assert f"--episodes: must be an integer >= 1, got '{episodes}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["eval", "--run", "r", "--entry", "0", "--env", "mo_quadratic"], id="env"),
        pytest.param(["eval", "--run", "r", "--entry", "0", "--param", "horizon=6"], id="param"),
        pytest.param(["frontier-export", "r"], id="frontier-export"),
    ])
    def test_removed_flags_are_unknown(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_zero_parameter_policy_objectives(self, tmp_path, capsys):
        # Mean action is the origin, so each objective pays the negative
        # squared norm of its target.
        env = make_env("mo_quadratic")
        policy = GaussianPolicy(1, 2, hidden=8)
        run_dir = stored_run(tmp_path, [np.ones(policy.num_params), np.zeros(policy.num_params)])
        out = tmp_path / "episodes.csv"
        assert eval_run(run_dir, "--entry", "1", "--episodes", "3", "--out", str(out)) == 0
        want = -np.sum(env.targets**2, axis=1)
        np.testing.assert_allclose(printed_means(capsys)[0], want, atol=1e-12)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["episode", "objective_0", "objective_1"]
        assert rows[1][1:] == rows[2][1:] == rows[3][1:]  # deterministic env + policy

    def test_single_episode_equals_mo_return(self, tmp_path, capsys):
        env = make_env("mo_quadratic")
        policy = GaussianPolicy(1, 2, hidden=8)
        # The stored row and the rollout both hold the params in the networks' dtype.
        params = policy.init_params(np.random.default_rng(3), 0.1, -0.5).astype(NETWORK_DTYPE)
        run_dir = stored_run(tmp_path, [params])
        assert eval_run(run_dir, "--entry", "0", "--episodes", "1") == 0
        _, _, rewards, _ = run_episode(env, policy, params, [0])
        np.testing.assert_allclose(printed_means(capsys)[0], mo_return(rewards[0], env.spec.gamma),
                                   atol=1e-12)

    def test_run_of_an_earlier_version_with_its_critic_store_replays(self, tmp_path, capsys,
                                                                      monkeypatch):
        # Earlier versions also wrote checkpoints/critic.npy, row k the critic
        # of entries[k]; eval reads policy.npy alone and ignores the file.
        run_dir, _, state = train_keeping_state(tmp_path, monkeypatch)
        np.save(run_dir / "checkpoints" / "critic.npy",
                np.stack([e.critic_params for e in frontier_entries(state.archive)]))
        capsys.readouterr()
        doc = json.loads((run_dir / "frontier.json").read_text())
        for k, item in enumerate(doc["entries"]):
            assert eval_run(run_dir, "--entry", str(k)) == 0
            assert printed_means(capsys) == [item["objectives"]], k

    def test_trained_run_replays_its_frontier(self, tmp_path, capsys):
        # Every entry of a trained run loads from the store and rolls out.
        (run_dir,) = train(tmp_path)
        doc, _ = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
        for k in range(len(doc["entries"])):
            assert eval_run(run_dir, "--entry", str(k), "--episodes", "2") == 0
        assert capsys.readouterr().out.count("mean objectives:") == len(doc["entries"])


def _three_objectives(doc):
    doc["m"] = 3
    doc["reference_point"].append(-9.0)
    for item in doc["entries"]:
        item["objectives"].append(0.0)


class TestFrontierAgainstConfig:
    """``eval`` and ``report`` read ``frontier.json`` against the run's resolved config."""

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("edit, message", [
        # A third objective on a 2-objective run used to pass: eval printed two
        # objectives and report wrote three objective columns, both exit 0.
        pytest.param(_three_objectives, "field 'm' is 3, the run's config has 2 objectives",
                     id="m"),
        pytest.param(lambda doc: doc.update(reference_point=[-20.0, -20.0]),
                     "field 'reference_point' is [-20.0, -20.0], the run's config has "
                     "[-9.0, -9.0]", id="reference_point"),
    ])
    def test_edited_frontier_named(self, tmp_path, capsys, edit, message, command):
        (run_dir,) = train(tmp_path)
        path = run_dir / "frontier.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        parse_frontier(doc)  # still a well-formed document
        capsys.readouterr()
        argv = ["eval", "--run", str(run_dir), "--entry", "0"] if command == "eval" \
            else ["report", str(run_dir), "--out", str(tmp_path / "rep")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err, err
        assert not (tmp_path / "rep").exists()


class TestReportCommand:
    def fake_run(self, tmp_path, name, tag, seed, final_hv, final_sp, m=2,
                 reference_point=None):
        """A run of ``TINY`` on the ``m``-objective quadratic env, at its default
        reference point unless one is given."""
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg = dict(TINY, experiment=tag, seeds=[seed],
                   env={"name": "mo_quadratic" if m == 2 else "mo_quadratic3"})
        if reference_point is not None:
            cfg["evolution"] = dict(TINY["evolution"], reference_point=reference_point)
        reference_point = resolve_config(cfg).evolution.reference_point
        (run_dir / "config.yaml").write_text(resolved_text(cfg))
        with (run_dir / "metrics.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            writer.writerow([0, repr(final_hv / 2), repr(final_sp), 1, 0, repr(0.1)])
            writer.writerow([1, repr(final_hv), repr(final_sp), 2, 0, repr(0.1)])
        doc = {
            "schema_version": 2,
            "experiment_id": tag,
            "m": m,
            "reference_point": reference_point,
            "entries": [
                {
                    "objectives": [1.0] * m,
                    "generation": 1,
                    "source": "warmup",
                    "params_ref": "ckpt_000000",
                }
            ],
        }
        (run_dir / "frontier.json").write_text(json.dumps(doc))
        return run_dir

    def test_single_run_zero_std(self, tmp_path, capsys):
        run = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        out = tmp_path / "rep"
        assert main(["report", str(run), "--out", str(out)]) == 0
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "quad"
        assert float(rows[0]["hv_std"]) == 0.0

    def test_two_runs_population_std(self, tmp_path):
        runs = [
            self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5),
            self.fake_run(tmp_path, "r1", "quad", 1, 6.0, 0.7),
        ]
        out = tmp_path / "rep"
        assert main(["report", *map(str, runs), "--out", str(out)]) == 0
        with (out / "summary.csv").open() as fh:
            row = next(csv.DictReader(fh))
        assert float(row["hv_mean"]) == 5.0
        assert float(row["hv_std"]) == 1.0  # population std

    def test_rows_labeled_by_method_tag(self, tmp_path):
        runs = [
            self.fake_run(tmp_path, "r0", "quad-paft", 0, 4.0, 0.5),
            self.fake_run(tmp_path, "r1", "quad-ablated", 0, 6.0, 0.7),
        ]
        out = tmp_path / "rep"
        assert main(["report", *map(str, runs), "--out", str(out)]) == 0
        with (out / "summary.csv").open() as fh:
            methods = [row["method"] for row in csv.DictReader(fh)]
        assert methods == ["quad-ablated", "quad-paft"]

    def test_inconsistent_objective_count_rejected(self, tmp_path, capsys):
        runs = [
            self.fake_run(tmp_path, "r0", "a", 0, 4.0, 0.5, m=2),
            self.fake_run(tmp_path, "r1", "b", 0, 6.0, 0.7, m=3),
        ]
        assert main(["report", *map(str, runs)]) == 1
        assert "inconsistent" in capsys.readouterr().err

    def test_mixed_reference_points_within_a_method_rejected(self, tmp_path, capsys):
        # HV against different reference points is not comparable, so runs of
        # one method must share theirs.
        runs = [
            self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5),
            self.fake_run(tmp_path, "r1", "quad", 1, 6.0, 0.7, reference_point=[-30.0, -30.0]),
        ]
        out = tmp_path / "rep"
        assert main(["report", *map(str, runs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'quad'" in err and "[-9.0, -9.0]" in err and "[-30.0, -30.0]" in err
        assert not out.exists()

    def test_reference_points_may_differ_between_methods(self, tmp_path):
        runs = [
            self.fake_run(tmp_path, "r0", "quad2", 0, 4.0, 0.5),
            self.fake_run(tmp_path, "r1", "quad3", 0, 6.0, 0.7, reference_point=[-30.0, -30.0]),
        ]
        assert main(["report", *map(str, runs), "--out", str(tmp_path / "rep")]) == 0

    def test_incomplete_run_directory_skipped(self, tmp_path, capsys):
        # A seed whose training raised leaves a directory holding only config.yaml.
        complete = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        incomplete = tmp_path / "r1"
        incomplete.mkdir()
        (incomplete / "config.yaml").write_text(yaml.safe_dump(dict(TINY, seeds=[1])))
        out = tmp_path / "rep"
        assert main(["report", str(complete), str(incomplete), "--out", str(out)]) == 0
        assert str(incomplete) in capsys.readouterr().err
        with (out / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["runs"]) for r in rows] == [("quad", "1")]

    def test_run_given_twice_counts_once(self, tmp_path, capsys):
        # Overlapping globs used to count a run once per match, biasing every
        # mean and std.
        first = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        second = self.fake_run(tmp_path, "r1", "quad", 1, 6.0, 0.7)
        again = second / ".." / "r0"
        out = tmp_path / "rep"
        assert main(["report", str(first), str(second), str(again), str(second),
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == (f"skipping duplicate run directory {again}\n"
                       f"skipping duplicate run directory {second}\n")
        with (out / "summary.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert (row["runs"], float(row["hv_mean"]), float(row["hv_std"])) == ("2", 5.0, 1.0)

    def test_no_complete_run_is_an_error(self, tmp_path, capsys):
        incomplete = tmp_path / "r1"
        incomplete.mkdir()
        (incomplete / "config.yaml").write_text(yaml.safe_dump(TINY))
        assert main(["report", str(incomplete), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert str(incomplete) in err and "no complete run" in err

    def assert_report_names(self, tmp_path, capsys, damage, message):
        run = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        path = damage(run)
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and message in err, err

    @pytest.mark.parametrize("damage, message", [
        pytest.param(_edit_config(lambda cfg: cfg.update(experiment="")),
                     "experiment: invalid value ''", id="empty"),
        pytest.param(_edit_config_text("experiment: quad", "experiment: [quad"),
                     "experiment: [quad", id="not-yaml"),
        pytest.param(_edit_config(lambda cfg: cfg.pop("seeds")), "field 'seeds' is missing",
                     id="no-seeds"),
        pytest.param(_edit_config(lambda cfg: cfg.update(seeds=[])), "seeds: invalid value []",
                     id="empty-seeds"),
    ])
    def test_damaged_run_config_named(self, tmp_path, capsys, damage, message):
        # Each of these used to end report in a traceback.
        self.assert_report_names(tmp_path, capsys, damage, message)

    @pytest.mark.parametrize("edit, message", UNRESOLVED)
    def test_config_that_is_not_its_own_resolution_named(self, tmp_path, capsys, edit, message):
        self.assert_report_names(tmp_path, capsys, _edit_config(edit), message)

    @pytest.mark.parametrize("rows, message", [
        # A short row used to end in a TypeError traceback, a file without
        # rows in an IndexError one, and a bad value named no file.
        pytest.param([["0", "1.0"]], "line 2 field 'sp' is missing", id="short-row"),
        pytest.param([], "holds no rows", id="no-rows"),
        pytest.param([["0", "abc", "0.5", "1", "0", "0.1"]],
                     "line 2 field 'hv' cannot be read: 'abc'", id="bad-value"),
        pytest.param([["0", "1.0", "0.5", "1", "0", "0.1"],
                      ["1", "1.5", "0.5", "1", "0", "0.1", "7"]],
                     "line 3 has more values than the header's 6", id="long-row"),
        # Curves are labelled by row position, so a skipped generation used to
        # report generation 5's numbers as generation 1's.
        pytest.param([["0", "1.0", "0.5", "1", "0", "0.1"],
                      ["5", "1.5", "0.5", "1", "0", "0.1"]],
                     "line 3 field 'generation' is 5, expected 1", id="generation-gap"),
        # Each of these used to pass into summary.csv.
        pytest.param([["0", "nan", "0.5", "1", "0", "0.1"]],
                     "line 2 field 'hv' must be a finite number >= 0, got 'nan'", id="hv-nan"),
        pytest.param([["0", "1.0", "-0.5", "1", "0", "0.1"]],
                     "line 2 field 'sp' must be a finite number >= 0, got '-0.5'",
                     id="sp-negative"),
        pytest.param([["0", "1.0", "0.5", "-4", "0", "0.1"]],
                     "line 2 field 'archive_size' must be a finite number >= 0, got '-4'",
                     id="archive-size-negative"),
        pytest.param([["0", "1.0", "0.5", "1", "-1", "0.1"]],
                     "line 2 field 'stationary_fallbacks' must be a finite number >= 0, got '-1'",
                     id="fallbacks-negative"),
        pytest.param([["0", "1.0", "0.5", "1", "0", "0.1"], ["1", "1.5", "0.5", "1", "0", "inf"]],
                     "line 3 field 'seconds' must be a finite number >= 0, got 'inf'",
                     id="seconds-inf"),
    ])
    def test_damaged_metrics_named(self, tmp_path, capsys, rows, message):
        def damage(run_dir):
            path = run_dir / "metrics.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows([METRICS_HEADER, *rows])
            return path

        self.assert_report_names(tmp_path, capsys, damage, message)

    @pytest.mark.parametrize("change, message", [
        named("change0", {"entries": [3]}, "frontier entry must be a mapping"),
        named("change1", {"entries": 3}, "frontier field 'entries' must be a list"),
        named("change2", {"reference_point": 3},
              "frontier field 'reference_point' must be a list"),
        named("change3", {"entries": [{"objectives": 3, "generation": 0, "source": "warmup",
                                       "params_ref": "c"}]},
              "frontier entry field 'objectives' must be a list"),
        named("change4", {"m": [2]}, "frontier field 'm' must be an integer >= 2, got [2]"),
        named("change5", {"m": True}, "frontier field 'm' must be an integer >= 2, got True"),
        named("change6", {"m": 1, "reference_point": [0.0]},
              "frontier field 'm' must be an integer >= 2, got 1"),
        named("change7", {"reference_point": ["a", 0.0]},
              "frontier field 'reference_point' must be a list of m=2 finite numbers"),
        named("change8", {"reference_point": [True, 0.0]},
              "frontier field 'reference_point' must be a list of m=2 finite numbers"),
        named("change9", {"entries": [{"objectives": [1.0, float("nan")], "generation": 0,
                                       "source": "warmup", "params_ref": "c"}]},
              "frontier entry field 'objectives' must be a list of m=2 finite numbers"),
        named("change10", {"entries": [{"objectives": [1.0, False], "generation": 0,
                                        "source": "warmup", "params_ref": "c"}]},
              "frontier entry field 'objectives' must be a list of m=2 finite numbers"),
        # Any generation and source used to pass into frontiers.csv.
        named("change11", {"entries": [{"objectives": [1.0, 1.0], "generation": "yesterday",
                                        "source": "warmup", "params_ref": "c"}]},
              "frontier entry field 'generation' must be an integer >= 0, got 'yesterday'"),
        named("change12", {"entries": [{"objectives": [1.0, 1.0], "generation": True,
                                        "source": "warmup", "params_ref": "c"}]},
              "frontier entry field 'generation' must be an integer >= 0, got True"),
        named("change13", {"entries": [{"objectives": [1.0, 1.0], "generation": -1,
                                        "source": "warmup", "params_ref": "c"}]},
              "frontier entry field 'generation' must be an integer >= 0, got -1"),
        named("change14", {"entries": [{"objectives": [1.0, 1.0], "generation": 0,
                                        "source": ["?"], "params_ref": "c"}]},
              "frontier entry field 'source' must be one of"),
    ])
    def test_malformed_document_named(self, tmp_path, capsys, change, message):
        # Each entry case damages the document's one entry, which the error numbers 0.
        doc = {"schema_version": 2, "experiment_id": "x", "m": 2,
               "reference_point": [0.0, 0.0], "entries": [], **change}
        run = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        (run / "frontier.json").write_text(json.dumps(doc))
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 1
        message = message.replace("frontier entry ", "frontier entry 0 ")
        assert f"error: {run / 'frontier.json'}: {message}" in capsys.readouterr().err

    def test_non_mapping_document_named(self, tmp_path, capsys):
        run = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        (run / "frontier.json").write_text("[1]")
        assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 1
        assert f"error: {run / 'frontier.json'}: frontier document must be a mapping" \
            in capsys.readouterr().err

    def test_curve_and_frontier_files(self, tmp_path):
        run = self.fake_run(tmp_path, "r0", "quad", 0, 4.0, 0.5)
        out = tmp_path / "rep"
        assert main(["report", str(run), "--out", str(out)]) == 0
        with (out / "curves.csv").open() as fh:
            curve_rows = list(csv.DictReader(fh))
        assert [r["generation"] for r in curve_rows] == ["0", "1"]
        with (out / "frontiers.csv").open() as fh:
            frontier_rows = list(csv.DictReader(fh))
        assert frontier_rows[0]["objective_0"] == "1.0"

    # (name, tag, seed, [(hv, sp or None) per generation], [(objectives, generation, source)])
    PINNED_RUNS = [
        ("b0", "beta", 0, [(5.0, 0.5), (6.5, None)],
         [([2.5, -1.25], 1, "paft_pair"), ([0.1, 3.3], 0, "warmup")]),
        ("a0", "alpha", 0, [(1.5, 0.3), (2.25, 0.2), (3.1, 0.15)],
         [([1.0, 2.0], 2, "pareto_ascent")]),
        ("a1", "alpha", 1, [(1.4, 0.31), (2.0, 0.22), (2.9, 0.1)],
         [([1.1, 1.9], 1, "paft_extreme")]),
        ("a2", "alpha", 2, [(1.6, 0.29), (2.4, 0.18), (3.3, 0.12), (3.7, 0.11)],
         [([0.7, 2.7], 3, "pareto_ascent"), ([1.3, 0.2], 3, "paft_pair")]),
        ("b1", "beta", 1, [(5.5, None), (7.25, None)],
         [([2.0, 0.0], 1, "warmup")]),
    ]

    def test_outputs_pinned_byte_for_byte(self, tmp_path, capsys):
        # Curves stop at a method's shortest run, the summary takes each run's
        # own last row, and sparsity is averaged over the rows that define it.
        run_dirs = []
        for name, tag, seed, rows, entries in self.PINNED_RUNS:
            run_dir = tmp_path / name
            run_dir.mkdir()
            (run_dir / "config.yaml").write_text(resolved_text(dict(TINY, experiment=tag,
                                                                    seeds=[seed])))
            with (run_dir / "metrics.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(METRICS_HEADER)
                for g, (hv, sp) in enumerate(rows):
                    writer.writerow([g, repr(hv), "undefined" if sp is None else repr(sp),
                                     g + 1, 0, repr(0.1)])
            doc = {"schema_version": 2, "experiment_id": tag, "m": 2,
                   "reference_point": [-9.0, -9.0],
                   "entries": [{"objectives": objectives, "generation": generation,
                                "source": source, "params_ref": "c"}
                               for objectives, generation, source in entries]}
            (run_dir / "frontier.json").write_text(json.dumps(doc))
            run_dirs.append(str(run_dir))
        out = tmp_path / "rep"
        assert main(["report", *run_dirs, "--out", str(out)]) == 0

        def crlf(*lines):
            return "".join(line + "\r\n" for line in lines).encode()

        assert capsys.readouterr().out == (
            "method                    runs       hv mean      hv std       sp mean      sp std\n"
            "alpha                        3       3.23333    0.339935          0.12   0.0216025\n"
            "beta                         2         6.875       0.375     undefined   undefined\n"
            f"report written to {out}\n"
        )
        assert (out / "summary.csv").read_bytes() == crlf(
            "method,runs,hv_mean,hv_std,sp_mean,sp_std",
            "alpha,3,3.233333333333333,0.3399346342395191,0.12,0.021602468994692862",
            "beta,2,6.875,0.375,undefined,undefined",
        )
        assert (out / "curves.csv").read_bytes() == crlf(
            "method,generation,hv_mean,hv_std,sp_mean,sp_std",
            "alpha,0,1.5,0.08164965809277268,0.3,0.008164965809277268",
            "alpha,1,2.216666666666667,0.16499158227686106,0.20000000000000004,"
            "0.016329931618554526",
            "alpha,2,3.1,0.16329931618554516,0.12333333333333334,0.02054804667656325",
            "beta,0,5.25,0.25,0.5,0.0",
            "beta,1,6.875,0.375,undefined,undefined",
        )
        assert (out / "frontiers.csv").read_bytes() == crlf(
            "method,seed,generation,source,objective_0,objective_1",
            "beta,0,1,paft_pair,2.5,-1.25",
            "beta,0,0,warmup,0.1,3.3",
            "alpha,0,2,pareto_ascent,1.0,2.0",
            "alpha,1,1,paft_extreme,1.1,1.9",
            "alpha,2,3,pareto_ascent,0.7,2.7",
            "alpha,2,3,paft_pair,1.3,0.2",
            "beta,1,1,warmup,2.0,0.0",
        )
