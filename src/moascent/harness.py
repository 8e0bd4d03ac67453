"""Experiment harness: CLI, run directories, and reports.

A run is described by a single YAML file (see :mod:`moascent.config` and
the README schema table) and may be tweaked from the command line with dotted
``--override`` paths. Every seed produces one immutable timestamped run
directory containing the resolved config, the per-generation metrics CSV,
the frontier JSON, the checkpoint store, and the selection log. ``train``
writes such directories; ``eval`` and ``report`` only read them, and a run
directory is all they need.

The checkpoint store is two ``.npy`` stacks in the networks' dtype,
``NETWORK_DTYPE`` (float32): ``checkpoints/policy.npy`` ``(n, P)`` and
``checkpoints/critic.npy`` ``(n, C)``, each written with one ``np.save``. Row k
holds the parameters of the frontier's ``entries[k]``, as the archive keeps
them. The store reader rejects a file of another dtype, naming it. The store
holds no shapes. ``eval`` and ``report`` read a run's ``config.yaml``
through :func:`resolve_config` and require it to be its own resolution, as
``train`` writes it, and ``frontier.json``'s ``m`` and ``reference_point``
to be the config's. A trainer is built from a resolved config and a seed
alone (:func:`build_trainer`, which is ``Trainer(cfg, seed)``): ``eval``
builds the run's as ``train`` does, and rolls the entry's policy out on the
trainer's env and evaluation seeds (the first ``--episodes`` of them when
given), which reproduce the entry's objectives.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import yaml

from .archive import PolicyEntry, frontier_document, frontier_entries, parse_frontier
from .config import Config, ConfigError, load_config, resolve_config
from .evolution import NETWORK_DTYPE, Trainer, eval_seeds

__all__ = [
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

# How read_metrics_csv parses each column of metrics.csv, in the file's order.
_METRICS_TYPES = {"generation": int, "hv": float,
                  "sp": lambda text: None if text == "undefined" else float(text),
                  "archive_size": int, "stationary_fallbacks": int, "seconds": float}
METRICS_HEADER = list(_METRICS_TYPES)


def build_trainer(cfg: Config, seed: int) -> Trainer:
    """The trainer of one seed of ``cfg``, with its environment and networks."""
    return Trainer(cfg, seed)


def save_checkpoint(checkpoint_dir: Path, entries: list[PolicyEntry]) -> None:
    """Write the checkpoint store: row k of each stack holds ``entries[k]``'s own arrays.

    Every snapshot must be in ``NETWORK_DTYPE``, as the store's reader
    requires; else ValueError naming the entry, before anything is written.
    """
    for e in entries:
        for name, snapshot in (("params", e.params), ("critic_params", e.critic_params)):
            if snapshot.dtype != NETWORK_DTYPE:
                raise ValueError(f"entry {e.params_ref} holds {name} of {snapshot.dtype}, "
                                 f"the checkpoint store holds {np.dtype(NETWORK_DTYPE)}")
    checkpoint_dir.mkdir()
    np.save(checkpoint_dir / "policy.npy", np.stack([e.params for e in entries]))
    np.save(checkpoint_dir / "critic.npy", np.stack([e.critic_params for e in entries]))


def _unresolved_fields(raw: dict, resolved: dict, prefix: str = ""):
    """Each field of ``resolved`` that ``raw`` lacks or holds another value of, described."""
    for key, value in resolved.items():
        name = prefix + key
        if key not in raw:
            yield f"field {name!r} is missing"
        elif isinstance(value, dict):
            yield from _unresolved_fields(raw[key], value, f"{name}.")
        elif raw[key] != value:
            yield f"field {name!r} is {raw[key]!r}, which resolves to {value!r}"


def _read_config(run_dir: Path) -> Config:
    """A run's ``config.yaml``, which must be its own resolution; else ValueError naming it."""
    path = run_dir / "config.yaml"
    try:
        raw = load_config(path)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None
    try:
        cfg = resolve_config(raw)
    except ConfigError as exc:
        raise ValueError(f"run config {path}: {exc}") from None
    problem = next(_unresolved_fields(raw, asdict(cfg)), None)
    if problem:
        raise ValueError(f"run config {path} is not a resolved config: {problem}")
    return cfg


def _read_frontier(run_dir: Path, cfg: Config) -> dict:
    """A run's ``frontier.json``, which must match the run's ``cfg``; else ValueError naming it.

    Its ``m`` must be the config's objective count and its
    ``reference_point`` the config's.
    """
    path = run_dir / "frontier.json"
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    doc, _ = parse_frontier(doc)
    reference_point = [float(v) for v in cfg.evolution.reference_point]
    if doc["m"] != len(reference_point):
        raise ValueError(f"{path} field 'm' is {doc['m']}, the run's config has "
                         f"{len(reference_point)} objectives")
    if [float(v) for v in doc["reference_point"]] != reference_point:
        raise ValueError(f"{path} field 'reference_point' is {doc['reference_point']}, "
                         f"the run's config has {reference_point}")
    return doc


def _read_stack(path: Path, rows: int, width: int) -> np.ndarray:
    """A store file: a finite ``NETWORK_DTYPE`` ``(rows, width)`` array.

    Else ValueError naming the file.
    """
    try:
        with path.open("rb") as fh:
            stack = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"checkpoint store {path} is not a readable .npy array: {exc}") from None
    if not isinstance(stack, np.ndarray):
        raise ValueError(f"checkpoint store {path} is not a .npy array")
    if stack.dtype != NETWORK_DTYPE:
        raise ValueError(f"checkpoint store {path} must hold {np.dtype(NETWORK_DTYPE)}, "
                         f"got {stack.dtype}")
    if stack.ndim != 2:
        raise ValueError(f"checkpoint store {path} must be a 2-D stack, got shape {stack.shape}")
    if stack.shape[1] != width:
        raise ValueError(f"checkpoint store {path} rows hold {stack.shape[1]} parameters, "
                         f"the run's network has {width}")
    if stack.shape[0] != rows:
        raise ValueError(f"checkpoint store {path} has {stack.shape[0]} rows, "
                         f"frontier.json has {rows} entries")
    if not np.isfinite(stack).all():
        row = int(np.argmin(np.isfinite(stack).all(axis=1)))
        raise ValueError(f"checkpoint store {path} row {row} holds a non-finite value")
    return stack


def load_checkpoint(run_dir, entry: int) -> tuple[Trainer, np.ndarray]:
    """A run's trainer, built as ``train`` builds it, and its frontier's ``entries[entry]``.

    Both store files, the policy's and the critic's, are read and checked; the
    entry's row is in the networks' dtype, as the archive kept it.
    """
    run_dir = Path(run_dir)
    cfg = _read_config(run_dir)
    n = len(_read_frontier(run_dir, cfg)["entries"])
    if not 0 <= entry < n:
        raise ValueError(f"--entry {entry} is out of range: {run_dir / 'frontier.json'} "
                         f"has {n} entries")
    trainer = build_trainer(cfg, cfg.seeds[0])
    stack = _read_stack(run_dir / "checkpoints" / "policy.npy", n, trainer.policy.num_params)
    _read_stack(run_dir / "checkpoints" / "critic.npy", n, trainer.critic.num_params)
    return trainer, stack[entry]


def _format_value(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _brief(value) -> str:
    """A number to 6 significant digits, or ``undefined`` for None."""
    return "undefined" if value is None else f"{value:.6g}"


def write_metrics_csv(path: Path, metrics: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for row in metrics:
            writer.writerow([_format_value(row[key]) for key in METRICS_HEADER])


def read_metrics_csv(path) -> list[dict]:
    """The rows of a ``metrics.csv``: at least one, row k of generation k.

    Every value is a finite number >= 0, or ``undefined`` for ``sp``. Else
    ValueError naming the line and field.
    """
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header in {path}: {reader.fieldnames}")
        for record in reader:
            if None in record:
                raise ValueError(f"{path} line {reader.line_num} has more values than "
                                 f"the header's {len(METRICS_HEADER)}")
            row = {}
            for key, parse in _METRICS_TYPES.items():
                text = record[key]
                if text is None:
                    raise ValueError(f"{path} line {reader.line_num} field {key!r} is missing")
                try:
                    row[key] = parse(text)
                except ValueError:
                    raise ValueError(f"{path} line {reader.line_num} field {key!r} "
                                     f"cannot be read: {text!r}") from None
                if row[key] is not None and not 0 <= row[key] < math.inf:
                    raise ValueError(f"{path} line {reader.line_num} field {key!r} "
                                     f"must be a finite number >= 0, got {text!r}")
            if row["generation"] != len(rows):
                raise ValueError(f"{path} line {reader.line_num} field 'generation' is "
                                 f"{row['generation']}, expected {len(rows)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path} holds no rows; every run writes its warm-up row")
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
    state = trainer.run_training()

    save_checkpoint(run_dir / "checkpoints", frontier_entries(state.archive))
    doc = frontier_document(state.archive, cfg.experiment, cfg.evolution.reference_point)
    (run_dir / "frontier.json").write_text(json.dumps(doc, sort_keys=True))
    write_metrics_csv(run_dir / "metrics.csv", state.metrics)
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
        print(
            f"seed {seed}: hv={final['hv']:.6g} sp={_brief(final['sp'])} "
            f"archive={final['archive_size']} -> {run_dir}"
        )
    return 0


def cmd_eval(args) -> int:
    trainer, params = load_checkpoint(args.run, args.entry)
    seeds = eval_seeds(trainer.seed, args.episodes) if args.episodes else trainer.eval_seeds
    rows = trainer.episode_returns(params, seeds)
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
    cfg = _read_config(run_dir)
    metrics = read_metrics_csv(run_dir / "metrics.csv")
    doc = _read_frontier(run_dir, cfg)
    return {"tag": cfg.experiment, "seed": cfg.seeds[0], "m": doc["m"], "metrics": metrics,
            "frontier": doc}


# Files a finished run directory holds; run_seed writes config.yaml first.
_RUN_FILES = ("config.yaml", "metrics.csv", "frontier.json")


def _stats(rows: list[dict]) -> list:
    """HV mean and std, then sparsity mean and std over the rows defining it (or None)."""
    hv = np.array([row["hv"] for row in rows])
    sp = np.array([row["sp"] for row in rows if row["sp"] is not None])
    sp_stats = [float(sp.mean()), float(sp.std())] if sp.size else [None, None]
    return [float(hv.mean()), float(hv.std()), *sp_stats]


def cmd_report(args) -> int:
    runs, seen = [], set()
    for run_dir in map(Path, args.run_dirs):
        resolved = run_dir.resolve()
        if resolved in seen:
            print(f"skipping duplicate run directory {run_dir}", file=sys.stderr)
            continue
        seen.add(resolved)
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

    summary = [["method", "runs", "hv_mean", "hv_std", "sp_mean", "sp_std"]]
    curves = [["method", "generation", "hv_mean", "hv_std", "sp_mean", "sp_std"]]
    print(f"{'method':<24}{'runs':>6}{'hv mean':>14}{'hv std':>12}{'sp mean':>14}{'sp std':>12}")
    for tag in sorted(groups):
        members = groups[tag]
        stats = _stats([run["metrics"][-1] for run in members])
        print(f"{tag:<24}{len(members):>6}"
              + "".join(f"{_brief(v):>{w}}" for v, w in zip(stats, (14, 12, 14, 12))))
        summary.append([tag, len(members), *map(_format_value, stats)])
        # Curves stop at the method's shortest run.
        for g in range(min(len(run["metrics"]) for run in members)):
            stats = _stats([run["metrics"][g] for run in members])
            curves.append([tag, g, *map(_format_value, stats)])
    frontiers = [["method", "seed", "generation", "source"]
                 + [f"objective_{i}" for i in range(runs[0]["m"])]]
    frontiers += [[run["tag"], run["seed"], entry["generation"], entry["source"]]
                  + [repr(float(v)) for v in entry["objectives"]]
                  for run in runs for entry in run["frontier"]["entries"]]

    for name, rows in (("summary", summary), ("curves", curves), ("frontiers", frontiers)):
        with (out / f"{name}.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    print(f"report written to {out}")
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


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

    # eval rebuilds the run's trainer from its config.yaml, as train builds it.
    evaluate = sub.add_parser("eval", help="evaluate a frontier entry's policy deterministically")
    evaluate.add_argument("--run", required=True, help="run directory")
    evaluate.add_argument("--entry", type=int, required=True,
                          help="index k of the policy in frontier.json's entries")
    evaluate.add_argument("--episodes", type=_positive_int,
                          help="episodes to roll out (default: the run's eval.episodes)")
    evaluate.add_argument("--out", help="per-episode CSV path")
    evaluate.set_defaults(func=cmd_eval)

    report = sub.add_parser("report", help="aggregate finished run directories")
    report.add_argument("run_dirs", nargs="+")
    report.add_argument("--out", default="report")
    report.set_defaults(func=cmd_report)
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
