"""Check that two source trees train byte-identical runs.

Trains every shipped config, and every benchmark workload of
``perfbench/run.py`` as a ``bench-<name>`` run, in this tree and in
``<other-tree>`` at each seed, and compares what the runs write:

- ``frontier.json``, ``selection.jsonl`` and the checkpoint store
  (``checkpoints/policy.npy``, and any other file ``checkpoints/`` holds)
  byte for byte;
- ``metrics.csv`` without its wall-clock ``seconds`` column;
- ``config.yaml`` without ``output_dir``.

Run from anywhere:

    python3 tools/parity.py ../other-checkout
    python3 tools/parity.py ../other-checkout --override evolution.M=3 --run quad2

Each tree trains with its own ``src/`` and ``configs/``. ``--override`` is
passed to every run. One line is printed per run; the exit code is 1 if any
run differs or fails, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent.parent

# The benchmark's runner, loaded once: its workloads and its metrics.csv reader.
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "perfbench" / "run.py")
_perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_perfbench)
_metrics_rows = _perfbench._metrics_rows


def _benchmark_workloads() -> dict:
    """``perfbench/run.py``'s ``WORKLOADS``: name -> (config, overrides)."""
    return _perfbench.WORKLOADS


# name -> (config, overrides): the shipped configs, both ablation arms, and
# the benchmark workloads.
RUNS = {
    "quad2": ("configs/quad2.yaml", []),
    "quad3": ("configs/quad3.yaml", []),
    "point": ("configs/point.yaml", []),
    "quad2-paft": ("configs/quad2_ablation.yaml", []),
    "quad2-ablated": ("configs/quad2_ablation.yaml",
                      ["paft.enabled=false", "experiment=quad2-ablated"]),
    **{f"bench-{name}": workload for name, workload in _benchmark_workloads().items()},
}


def train(tree: Path, config: str, seed: int, overrides: list[str], out: Path) -> Path:
    """Train one seed with ``tree``'s sources; returns the run directory."""
    argv = [sys.executable, "-m", "moascent", "train", "--config", str(tree / config),
            "--seed", str(seed), "--override", f"output_dir={out}"]
    for override in overrides:
        argv += ["--override", override]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    (run_dir,) = out.iterdir()
    return run_dir


def _config(path: Path) -> dict:
    doc = yaml.safe_load(path.read_text())
    doc.pop("output_dir", None)
    return doc


def differences(a: Path, b: Path) -> list[str]:
    """Names of the outputs in which run directories ``a`` and ``b`` differ."""
    diffs = [name for name in ("frontier.json", "selection.jsonl")
             if (a / name).read_bytes() != (b / name).read_bytes()]
    names_a = sorted(p.name for p in (a / "checkpoints").iterdir())
    names_b = sorted(p.name for p in (b / "checkpoints").iterdir())
    if names_a != names_b or any((a / "checkpoints" / n).read_bytes()
                                 != (b / "checkpoints" / n).read_bytes() for n in names_a):
        diffs.append("checkpoints/")
    if _metrics_rows(a / "metrics.csv") != _metrics_rows(b / "metrics.csv"):
        diffs.append("metrics.csv")
    if _config(a / "config.yaml") != _config(b / "config.yaml"):
        diffs.append("config.yaml")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="the other source tree")
    parser.add_argument("--override", "-o", action="append", default=[],
                        help="dotted config override for every run (repeatable)")
    parser.add_argument("--seed", type=int, action="append",
                        help="training seed (repeatable; default 0 and 1)")
    parser.add_argument("--run", action="append", choices=sorted(RUNS),
                        help="train only this run (repeatable; default all)")
    args = parser.parse_args(argv)
    other = args.other.resolve()
    seeds = args.seed or [0, 1]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as work:
        for name in args.run or RUNS:
            config, extra = RUNS[name]
            for seed in seeds:
                label = f"{name} seed {seed}"
                try:
                    runs = [train(tree, config, seed, extra + args.override,
                                  Path(work) / f"{tag}-{name}-{seed}")
                            for tag, tree in (("this", HERE), ("other", other))]
                except RuntimeError as exc:
                    print(f"{label}: FAILED: {exc}", flush=True)
                    failed += 1
                    continue
                diffs = differences(*runs)
                if diffs:
                    failed += 1
                    print(f"{label}: DIFFERENT: {', '.join(diffs)}", flush=True)
                else:
                    final = _metrics_rows(runs[0] / "metrics.csv")[-1]
                    print(f"{label}: identical (hv {final[1]}, archive {final[3]})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
