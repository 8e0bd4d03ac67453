"""Configuration, CLI, run-directory, and report tests."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from moascent import evolution
from moascent.archive import hypervolume, parse_frontier, sparsity
from moascent.config import apply_overrides, load_config
from moascent.evolution import Trainer
from moascent.harness import (
    METRICS_HEADER,
    ConfigError,
    load_checkpoint,
    main,
    read_metrics_csv,
    resolve_config,
    save_checkpoint,
)
from moascent.momdp import make_env, mo_return
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


def write_config(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


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
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no-equals-sign"])

    @pytest.mark.parametrize("overrides, field", [
        (["policy.init_scale=null"], "policy.init_scale"),
        (["policy.log_std_init=abc"], "policy.log_std_init"),
        (["evolution.reference_point=[-9,true]"], "evolution.reference_point"),
        # The wider action box lets returns fall below the default point.
        (["env.params.action_bound=4", "policy.init_scale=5"], "evolution.reference_point"),
        # A non-integer horizon used to pass resolve and crash in the first rollout.
        (["env.name=mo_point", "env.params.horizon=1.5"], "horizon"),
        (["env.name=mo_point", "env.params.horizon=true"], "horizon"),
        # Booleans and non-finite numbers used to pass as env params.
        (["env.name=mo_point", "env.params.gamma=true",
          "evolution.reference_point=[-1000,0]"], "gamma"),
        (["env.name=mo_point", "env.params.init_noise=true",
          "evolution.reference_point=[-1000,0]"], "init_noise"),
        (["env.params.action_bound=.nan"], "action_bound"),
        (["env.params.targets=[[1,0],[0,.inf]]"], "targets"),
        # Out-of-range env params used to train and exit 0.
        (["env.name=mo_point", "env.params.dt=-0.1"], "dt"),
        (["env.name=mo_point", "env.params.dt=0"], "dt"),
        (["env.name=mo_point", "env.params.init_noise=-1"], "init_noise"),
        (["env.name=mo_point", "env.params.action_bound=-1"], "action_bound"),
        (["env.name=mo_point", "env.params.damping=1.5"], "damping"),
        (["env.params.action_bound=-1"], "action_bound"),
        (["evolution.reference_point=[-9,-9,-9]"], "evolution.reference_point"),
    ])
    def test_bad_value_exits_2_before_training(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, dict(TINY, output_dir=str(tmp_path / "runs")))
        argv = ["train", "--config", str(path)]
        for text in overrides:
            argv += ["--override", text]
        assert main(argv) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("env_name", ["mo_point", "mo_quadratic", "mo_quadratic3"])
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
        # The discount of every training batch is the env's, the one every
        # snapshot is scored with, also when an env param changes it.
        discounts = []
        collect_batch = evolution.collect_batch

        def recording(env, policy, params, critic, critic_params, episodes, gamma, lam, rng):
            discounts.append((gamma, env.spec.gamma))
            return collect_batch(env, policy, params, critic, critic_params, episodes,
                                 gamma, lam, rng)

        monkeypatch.setattr(evolution, "collect_batch", recording)
        argv = ["train", "--config", str(CONFIGS / "point.yaml"), "--seed", "0"]
        for text in ("env.params.gamma=0.9", "evolution.M=1", "evolution.m_w=1",
                     "evolution.m_iters=1", "evolution.p=2", "policy.batch_episodes=1",
                     "eval.episodes=1", f"output_dir={tmp_path / 'runs'}"):
            argv += ["--override", text]
        assert main(argv) == 0
        assert discounts and all(gamma == spec == 0.9 for gamma, spec in discounts)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        policy = GaussianPolicy(3, 2, hidden=16)
        params = policy.init_params(np.random.default_rng(0), 0.1, -0.5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, policy, params)
        loaded_policy, loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded, params)
        assert loaded_policy.hidden == 16
        assert loaded_policy.num_params == policy.num_params

    def test_corrupt_length_rejected(self, tmp_path):
        policy = GaussianPolicy(2, 1, hidden=0)
        params = policy.init_params(np.random.default_rng(0), 0.1, -0.5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, policy, params)
        doc = json.loads(path.read_text())
        doc["policy"]["values"].append(0.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="parameters"):
            load_checkpoint(path)


class TestCheckpointHeader:
    FIELDS = ("state_dim", "action_dim", "hidden", "log_std_min", "log_std_max", "values")

    def eval_doc(self, tmp_path, doc):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        return main(["eval", "--checkpoint", str(path), "--env", "mo_quadratic"])

    def test_missing_policy_named(self, tmp_path, capsys):
        assert self.eval_doc(tmp_path, {"format_version": 1}) == 1
        assert "error: checkpoint missing field 'policy'" in capsys.readouterr().err

    def test_non_mapping_checkpoint_named(self, tmp_path, capsys):
        assert self.eval_doc(tmp_path, [1]) == 1
        assert "error: checkpoint must hold a mapping" in capsys.readouterr().err

    def test_non_mapping_policy_named(self, tmp_path, capsys):
        assert self.eval_doc(tmp_path, {"format_version": 1, "policy": 3}) == 1
        assert "error: checkpoint field 'policy' must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("field", FIELDS)
    def test_missing_policy_key_named(self, tmp_path, capsys, field):
        policy = GaussianPolicy(1, 2, hidden=4)
        path = tmp_path / "full.json"
        save_checkpoint(path, policy, np.zeros(policy.num_params))
        doc = json.loads(path.read_text())
        del doc["policy"][field]
        assert self.eval_doc(tmp_path, doc) == 1
        assert f"error: checkpoint missing field 'policy.{field}'" in capsys.readouterr().err


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
        # every frontier checkpoint exists and loads
        for entry in doc["entries"]:
            policy, params = load_checkpoint(run_dir / entry["checkpoint"])
            assert params.size == policy.num_params

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

    def test_override_lands_in_resolved_copy(self, tmp_path):
        (run_dir,) = train(tmp_path, extra_args=("--override", "evolution.M=1"))
        resolved = yaml.safe_load((run_dir / "config.yaml").read_text())
        assert resolved["evolution"]["M"] == 1
        rows = read_metrics_csv(run_dir / "metrics.csv")
        assert rows[-1]["generation"] == 1

    def test_invalid_config_exit_code_and_message(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "x"})
        assert main(["train", "--config", str(path)]) == 2
        assert "env.name" in capsys.readouterr().err

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


class TestEvalCommand:
    def test_zero_parameter_policy_objectives(self, tmp_path, capsys):
        # Mean action is the origin, so each objective pays the negative
        # squared norm of its target.
        env = make_env("mo_quadratic")
        policy = GaussianPolicy(1, 2, hidden=8)
        path = tmp_path / "zero.json"
        save_checkpoint(path, policy, np.zeros(policy.num_params))
        out = tmp_path / "episodes.csv"
        assert main(["eval", "--checkpoint", str(path), "--env", "mo_quadratic",
                     "--episodes", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        want = -np.sum(env.targets**2, axis=1)
        mean = np.array([float(v) for v in printed.split(":")[1].split()])
        np.testing.assert_allclose(mean, want, atol=1e-12)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["episode", "objective_0", "objective_1"]
        assert rows[1][1:] == rows[2][1:] == rows[3][1:]  # deterministic env + policy

    def test_single_episode_equals_mo_return(self, tmp_path, capsys):
        env = make_env("mo_quadratic")
        policy = GaussianPolicy(1, 2, hidden=8)
        params = policy.init_params(np.random.default_rng(3), 0.1, -0.5)
        path = tmp_path / "p.json"
        save_checkpoint(path, policy, params)
        assert main(["eval", "--checkpoint", str(path), "--env", "mo_quadratic",
                     "--episodes", "1"]) == 0
        printed = capsys.readouterr().out
        mean = np.array([float(v) for v in printed.split(":")[1].split()])
        _, _, rewards, _, _ = run_episode(env, policy, params, [0])
        np.testing.assert_allclose(mean, mo_return(rewards[0], env.spec.gamma), atol=1e-12)

    def test_shape_mismatch_names_dimensions(self, tmp_path, capsys):
        policy = GaussianPolicy(1, 2, hidden=4)
        path = tmp_path / "p.json"
        save_checkpoint(path, policy, np.zeros(policy.num_params))
        assert main(["eval", "--checkpoint", str(path), "--env", "mo_point"]) == 1
        err = capsys.readouterr().err
        assert "state_dim=1" in err and "state_dim=4" in err


class TestReportCommand:
    def fake_run(self, tmp_path, name, tag, seed, final_hv, final_sp, m=2,
                 reference_point=None):
        run_dir = tmp_path / name
        run_dir.mkdir()
        cfg = dict(TINY, experiment=tag, seeds=[seed])
        (run_dir / "config.yaml").write_text(yaml.safe_dump(cfg))
        with (run_dir / "metrics.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            writer.writerow([0, repr(final_hv / 2), repr(final_sp), 1, 0, repr(0.1)])
            writer.writerow([1, repr(final_hv), repr(final_sp), 2, 0, repr(0.1)])
        doc = {
            "schema_version": 1,
            "experiment_id": tag,
            "m": m,
            "reference_point": reference_point or [0.0] * m,
            "entries": [
                {
                    "objectives": [1.0] * m,
                    "generation": 1,
                    "source": "warmup",
                    "checkpoint": "checkpoints/none.json",
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
        assert "'quad'" in err and "[0.0, 0.0]" in err and "[-30.0, -30.0]" in err
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

    def test_no_complete_run_is_an_error(self, tmp_path, capsys):
        incomplete = tmp_path / "r1"
        incomplete.mkdir()
        (incomplete / "config.yaml").write_text(yaml.safe_dump(TINY))
        assert main(["report", str(incomplete), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert str(incomplete) in err and "no complete run" in err

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


class TestFrontierExportCommand:
    def test_rescores_and_writes(self, tmp_path, capsys):
        (run_dir,) = train(tmp_path)
        out = tmp_path / "frontier-copy.json"
        assert main(["frontier-export", str(run_dir), "--out", str(out)]) == 0
        final = read_metrics_csv(run_dir / "metrics.csv")[-1]
        printed = capsys.readouterr().out
        assert repr(final["hv"]) in printed
        assert json.loads(out.read_text()) == json.loads((run_dir / "frontier.json").read_text())

    @pytest.mark.parametrize("change, message", [
        ({"entries": [3]}, "frontier entry must be a mapping"),
        ({"entries": 3}, "frontier field 'entries' must be a list"),
        ({"reference_point": 3}, "frontier field 'reference_point' must be a list"),
        ({"entries": [{"objectives": 3, "generation": 0, "source": "warmup",
                       "checkpoint": "c.json"}]},
         "frontier entry field 'objectives' must be a list"),
    ])
    def test_malformed_document_named(self, tmp_path, capsys, change, message):
        doc = {"schema_version": 1, "experiment_id": "x", "m": 2,
               "reference_point": [0.0, 0.0], "entries": [], **change}
        (tmp_path / "frontier.json").write_text(json.dumps(doc))
        assert main(["frontier-export", str(tmp_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_non_mapping_document_named(self, tmp_path, capsys):
        (tmp_path / "frontier.json").write_text("[1]")
        assert main(["frontier-export", str(tmp_path)]) == 1
        assert "error: frontier document must be a mapping" in capsys.readouterr().err
