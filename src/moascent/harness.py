"""Experiment harness: CLI, run directories, and reports.

A run is described by a single YAML file (see :mod:`moascent.config` and
the README schema table) and may be tweaked from the command line with dotted
``--override`` paths. Every seed produces one immutable timestamped run
directory containing the resolved config, the per-generation metrics CSV,
the frontier JSON with its checkpoints, and the selection log; reports only
read such directories.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import yaml

from .archive import frontier_document, hypervolume, parse_frontier, sparsity
from .config import Config, ConfigError, load_config, parse_override, resolve_config
from .evolution import Trainer
from .momdp import make_env, mo_return
from .policy import GaussianPolicy, VectorCritic, run_episode

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "ConfigError",
    "METRICS_HEADER",
    "build_trainer",
    "load_checkpoint",
    "load_config",
    "main",
    "resolve_config",
    "run_seed",
    "save_checkpoint",
]

METRICS_HEADER = ["generation", "hv", "sp", "archive_size", "stationary_fallbacks", "seconds"]

CHECKPOINT_FORMAT_VERSION = 1


def build_trainer(cfg: Config, seed: int) -> Trainer:
    """Instantiate the environment, networks, and trainer for one seed."""
    env = make_env(cfg.env.name, **cfg.env.params)
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, cfg.policy.hidden)
    critic = VectorCritic(env.spec.state_dim, env.spec.num_objectives, cfg.policy.hidden)
    return Trainer(env, policy, critic, cfg.evolution, cfg.policy, seed,
                   cfg.eval.episodes, cfg.paft.enabled)


def save_checkpoint(path: Path, policy: GaussianPolicy, params: np.ndarray,
                    critic: VectorCritic | None = None,
                    critic_params: np.ndarray | None = None) -> None:
    """Write a checkpoint: shape header plus the flat parameter list."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "policy": {
            "state_dim": policy.state_dim,
            "action_dim": policy.action_dim,
            "hidden": policy.hidden,
            "log_std_min": policy.log_std_min,
            "log_std_max": policy.log_std_max,
            "values": [float(v) for v in params],
        },
    }
    if critic is not None and critic_params is not None:
        doc["critic"] = {
            "state_dim": critic.state_dim,
            "num_objectives": critic.num_objectives,
            "hidden": critic.hidden,
            "values": [float(v) for v in critic_params],
        }
    path.write_text(json.dumps(doc, sort_keys=True))


def load_checkpoint(path) -> tuple[GaussianPolicy, np.ndarray]:
    """Load the policy part of a checkpoint file."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("checkpoint must hold a mapping")
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {doc.get('format_version')!r}")
    if "policy" not in doc:
        raise ValueError("checkpoint missing field 'policy'")
    head = doc["policy"]
    if not isinstance(head, dict):
        raise ValueError("checkpoint field 'policy' must be a mapping")
    for key in ("state_dim", "action_dim", "hidden", "log_std_min", "log_std_max", "values"):
        if key not in head:
            raise ValueError(f"checkpoint missing field 'policy.{key}'")
    policy = GaussianPolicy(
        head["state_dim"], head["action_dim"], head["hidden"],
        log_std_min=head["log_std_min"], log_std_max=head["log_std_max"],
    )
    params = np.asarray(head["values"], dtype=float)
    if params.size != policy.num_params:
        raise ValueError(
            f"checkpoint has {params.size} parameters, shape header implies {policy.num_params}"
        )
    return policy, params


def _format_value(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(path: Path, metrics: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for row in metrics:
            writer.writerow([_format_value(row[key]) for key in METRICS_HEADER])


def read_metrics_csv(path) -> list[dict]:
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header in {path}: {reader.fieldnames}")
        for record in reader:
            rows.append(
                {
                    "generation": int(record["generation"]),
                    "hv": float(record["hv"]),
                    "sp": None if record["sp"] == "undefined" else float(record["sp"]),
                    "archive_size": int(record["archive_size"]),
                    "stationary_fallbacks": int(record["stationary_fallbacks"]),
                    "seconds": float(record["seconds"]),
                }
            )
    return rows


def run_seed(cfg: Config, seed: int) -> Path:
    """Train one seed and write its immutable run directory.

    The directory and its ``config.yaml`` are written before training, so an
    unwritable ``output_dir`` fails before any compute is spent.
    """
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    run_dir = Path(cfg.output_dir) / f"{cfg.experiment}_seed{seed}_{stamp}"
    try:
        run_dir.mkdir(parents=True, exist_ok=False)
    except OSError as exc:
        raise RuntimeError(f"cannot create run directory {run_dir}: {exc}") from exc
    resolved = asdict(replace(cfg, seeds=[seed]))
    (run_dir / "config.yaml").write_text(yaml.safe_dump(resolved, sort_keys=True))

    trainer = build_trainer(cfg, seed)
    archive, metrics = trainer.run_training()
    state = trainer.state

    checkpoint_dir = run_dir / "checkpoints"
    checkpoint_dir.mkdir()
    checkpoint_names = {}
    for entry in archive:
        rel = f"checkpoints/{entry.params_ref}.json"
        save_checkpoint(run_dir / rel, trainer.policy, entry.params,
                        trainer.critic, entry.critic_params)
        checkpoint_names[entry.params_ref] = rel

    doc = frontier_document(
        archive, cfg.experiment, cfg.evolution.reference_point, checkpoint_names
    )
    (run_dir / "frontier.json").write_text(json.dumps(doc, sort_keys=True))
    write_metrics_csv(run_dir / "metrics.csv", metrics)
    with (run_dir / "selection.jsonl").open("w") as fh:
        for record in state.selection_log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return run_dir


def cmd_train(args) -> int:
    cfg = resolve_config(load_config(args.config), args.override)
    if args.seed is not None:
        cfg = replace(cfg, seeds=args.seed)
    for seed in cfg.seeds:
        run_dir = run_seed(cfg, seed)
        final = read_metrics_csv(run_dir / "metrics.csv")[-1]
        sp_text = "undefined" if final["sp"] is None else f"{final['sp']:.6g}"
        print(
            f"seed {seed}: hv={final['hv']:.6g} sp={sp_text} "
            f"archive={final['archive_size']} -> {run_dir}"
        )
    return 0


def cmd_eval(args) -> int:
    policy, params = load_checkpoint(args.checkpoint)
    env_params = {}
    for text in args.param or ():
        key, value = parse_override(text)
        if len(key) != 1:
            raise ConfigError(f"eval --param takes flat keys, got {'.'.join(key)}")
        env_params[key[0]] = value
    env = make_env(args.env, **env_params)
    if policy.state_dim != env.spec.state_dim or policy.action_dim != env.spec.action_dim:
        raise ValueError(
            "checkpoint/environment shape mismatch: checkpoint expects "
            f"state_dim={policy.state_dim}, action_dim={policy.action_dim}; "
            f"environment {args.env} has state_dim={env.spec.state_dim}, "
            f"action_dim={env.spec.action_dim}"
        )
    _, _, rewards, _, _ = run_episode(env, policy, params, range(args.episodes))
    rows = mo_return(rewards, env.spec.gamma)
    mean = rows.mean(axis=0)
    print("mean objectives:", " ".join(repr(float(v)) for v in mean))
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode"] + [f"objective_{i}" for i in range(mean.size)])
            for episode, row in enumerate(rows):
                writer.writerow([episode] + [repr(float(v)) for v in row])
    return 0


def _load_run(run_dir: Path) -> dict:
    cfg = yaml.safe_load((run_dir / "config.yaml").read_text())
    metrics = read_metrics_csv(run_dir / "metrics.csv")
    doc, objectives = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
    return {
        "dir": run_dir,
        "tag": cfg["experiment"],
        "seed": cfg["seeds"][0],
        "m": doc["m"],
        "metrics": metrics,
        "frontier": doc,
        "objectives": objectives,
    }


# Files a finished run directory holds; run_seed writes config.yaml first.
_RUN_FILES = ("config.yaml", "metrics.csv", "frontier.json")


def cmd_report(args) -> int:
    runs = []
    for run_dir in map(Path, args.run_dirs):
        missing = [name for name in _RUN_FILES if not (run_dir / name).is_file()]
        if missing:
            print(f"skipping incomplete run directory {run_dir}: no {', '.join(missing)}",
                  file=sys.stderr)
            continue
        runs.append(_load_run(run_dir))
    if not runs:
        raise ValueError("no complete run directory to report on")
    dims = {run["m"] for run in runs}
    if len(dims) > 1:
        raise ValueError(f"inconsistent objective counts across runs: {sorted(dims)}")

    groups: dict[str, list[dict]] = {}
    for run in runs:
        groups.setdefault(run["tag"], []).append(run)
    for tag, members in groups.items():
        points = sorted({tuple(map(float, run["frontier"]["reference_point"])) for run in members})
        if len(points) > 1:
            raise ValueError(f"runs of method {tag!r} use different reference points: "
                             + ", ".join(str(list(point)) for point in points))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    print(f"{'method':<24}{'runs':>6}{'hv mean':>14}{'hv std':>12}{'sp mean':>14}{'sp std':>12}")
    for tag in sorted(groups):
        members = groups[tag]
        hv = np.array([run["metrics"][-1]["hv"] for run in members])
        sp_values = [run["metrics"][-1]["sp"] for run in members]
        sp = np.array([v for v in sp_values if v is not None])
        hv_mean, hv_std = float(hv.mean()), float(hv.std())
        sp_mean = float(sp.mean()) if sp.size else None
        sp_std = float(sp.std()) if sp.size else None
        sp_mean_text = "undefined" if sp_mean is None else f"{sp_mean:.6g}"
        sp_std_text = "undefined" if sp_std is None else f"{sp_std:.6g}"
        print(
            f"{tag:<24}{len(members):>6}{hv_mean:>14.6g}{hv_std:>12.6g}"
            f"{sp_mean_text:>14}{sp_std_text:>12}"
        )
        summary_rows.append(
            [tag, len(members), repr(hv_mean), repr(hv_std),
             _format_value(sp_mean), _format_value(sp_std)]
        )

    with (out / "summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "runs", "hv_mean", "hv_std", "sp_mean", "sp_std"])
        writer.writerows(summary_rows)

    with (out / "curves.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "generation", "hv_mean", "hv_std", "sp_mean", "sp_std"])
        for tag in sorted(groups):
            members = groups[tag]
            horizon = min(len(run["metrics"]) for run in members)
            for g in range(horizon):
                hv = np.array([run["metrics"][g]["hv"] for run in members])
                sp = np.array(
                    [
                        run["metrics"][g]["sp"]
                        for run in members
                        if run["metrics"][g]["sp"] is not None
                    ]
                )
                writer.writerow(
                    [
                        tag,
                        g,
                        repr(float(hv.mean())),
                        repr(float(hv.std())),
                        _format_value(float(sp.mean()) if sp.size else None),
                        _format_value(float(sp.std()) if sp.size else None),
                    ]
                )

    with (out / "frontiers.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        m = runs[0]["m"]
        writer.writerow(
            ["method", "seed", "generation", "source"] + [f"objective_{i}" for i in range(m)]
        )
        for run in runs:
            for entry in run["frontier"]["entries"]:
                writer.writerow(
                    [run["tag"], run["seed"], entry["generation"], entry["source"]]
                    + [repr(float(v)) for v in entry["objectives"]]
                )
    print(f"report written to {out}")
    return 0


def cmd_frontier_export(args) -> int:
    run_dir = Path(args.run_dir)
    doc, objectives = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
    z = np.asarray(doc["reference_point"], dtype=float)
    hv = hypervolume(objectives, z) if objectives.size else 0.0
    sp = sparsity(objectives) if objectives.size else None
    print(f"entries={len(doc['entries'])} hv={hv!r} sp={_format_value(sp)}")
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moascent",
        description="Multi-objective policy training along common ascent directions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run training for each configured seed")
    train.add_argument("--config", required=True, help="YAML experiment config")
    train.add_argument("--seed", type=int, action="append",
                       help="run only this seed (repeatable)")
    train.add_argument("--override", "-o", action="append", default=[],
                       help="dotted config override, e.g. evolution.M=2")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate a checkpoint deterministically")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--env", required=True)
    evaluate.add_argument("--episodes", type=int, default=8)
    evaluate.add_argument("--param", action="append", default=[],
                          help="environment parameter, e.g. action_bound=2.0 (repeatable)")
    evaluate.add_argument("--out", help="per-episode CSV path")
    evaluate.set_defaults(func=cmd_eval)

    report = sub.add_parser("report", help="aggregate finished run directories")
    report.add_argument("run_dirs", nargs="+")
    report.add_argument("--out", default="report")
    report.set_defaults(func=cmd_report)

    export = sub.add_parser("frontier-export",
                            help="re-score and emit a run's frontier document")
    export.add_argument("run_dir")
    export.add_argument("--out", help="write the document here instead of stdout")
    export.set_defaults(func=cmd_frontier_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
