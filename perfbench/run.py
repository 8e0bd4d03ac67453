"""moascent training benchmark.

Each workload is one ``moascent train`` run of a shipped config, shortened
so that one run takes a few seconds, for one seed, run as a closed loop of
one: runs go one at a time in a single process. Run from the repository
root:

    python3 perfbench/run.py --workload quad2 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` makes a warm-up run and then repeats untraced runs for
``--seconds`` (at least three), all in one fresh interpreter, and reports
the end-to-end metrics as medians over the repeats, each time rescaled by
the CPU speed that ``probe.py`` measures beside it (see ``end_to_end``).
``--trace 1`` makes a warm-up, an untraced and a traced run in one fresh
interpreter and reports the per-layer metrics of the traced one.
``--workload all`` runs every workload both ways and prints both tables.
Every run is checked (see ``check_run``); a run that exits non-zero or fails
a check counts as failed. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
record, with the machine it ran on, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from itertools import count
from pathlib import Path
from time import perf_counter

# name -> (config, overrides); the training seed is --seed.
WORKLOADS = {
    # Many 1-step episodes: per-episode rollout overhead, GAE, archive insert.
    "quad2": ("configs/quad2.yaml", ["evolution.M=3"]),
    # 3-objective gap filling: the O(n^3) gap search, 3-D HV and insert.
    "quad3-gaps": ("configs/quad3.yaml", ["evolution.paft_pairs=1",
                                          "evolution.snapshot_every=4",
                                          "policy.batch_episodes=8"]),
    # 64-step episodes: per-step rollout and evaluation cost.
    "point": ("configs/point.yaml", ["evolution.M=2", "evolution.p=4",
                                     "evolution.m_w=5", "evolution.m_iters=5"]),
}

END_TO_END = [
    ("train_s", "s"), ("setup_s", "s"), ("iters_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("hv", "volume"),
]
PER_LAYER = [
    ("harness.resolve_config_s", "s"), ("harness.build_trainer_s", "s"),
    ("harness.write_s", "s"), ("harness.save_checkpoint.calls", "count"),
    ("evolution.warmup_s", "s"), ("evolution.evaluate_s", "s"),
    ("evolution.evaluate.calls", "count"), ("evolution.pgr_select_s", "s"),
    ("evolution.paft_select_s", "s"), ("evolution.paft_select.max_n", "count"),
    ("evolution.other_s", "s"),
    ("policy.collect_batch_s", "s"), ("policy.collect_batch.calls", "count"),
    ("policy.run_episode_s", "s"), ("policy.gae_s", "s"),
    ("policy.estimate_gradient_set_s", "s"), ("policy.ppo_update_s", "s"),
    ("policy.ppo_update.calls", "count"),
    ("momdp.step.calls", "count"),
    ("pareto.min_norm_direction_s", "s"), ("pareto.min_norm_direction.calls", "count"),
    ("pareto.fallback_ratio", "ratio"),
    ("archive.insert_s", "s"), ("archive.insert.calls", "count"),
    ("archive.insert.accept_ratio", "ratio"), ("archive.hypervolume_s", "s"),
    ("archive.sparsity_s", "s"), ("archive.size", "count"),
    ("trace.train_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_share", "ratio"),
]
LAYERS = ("harness", "evolution", "policy", "pareto", "archive")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up samples taken before and after the timed runs, so their median
# spans the invocation rather than one moment of it.
SETUP_SAMPLES = 4
MIN_TIMED_RUNS = 3
MAX_UNATTRIBUTED = 0.10
# Timings are rescaled to the CPU speed at which one pass of the probe
# kernel (probe.py) takes this long: about its time on the 2-core host the
# benchmark was written on, in that host's faster state.
PROBE_REF_S = 0.6e-3
# Probe samples this far outside a timing's window still count for it, so
# that a 0.2 s set-up sample has several.
PROBE_MARGIN_S = 0.1
# Wall-clock medians reported beside the rescaled end-to-end metrics.
WALL = [("train_wall_s", "s"), ("setup_wall_s", "s"), ("iters_per_wall_s", "1/s"),
        ("probe_ms", "ms")]
DEADLINE_S = 170.0  # a whole invocation ends within this
WORK = Path(".perfbench")
BENCH_DIR = Path(__file__).resolve().parent


class Child:
    """Runs ``child.py`` jobs in fresh interpreters under one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())] + ([os.environ["PYTHONPATH"]]
                                            if os.environ.get("PYTHONPATH") else []))
        for var in BLAS_VARS:
            self.env.setdefault(var, "1")

    def run(self, job: dict) -> dict:
        """Run one job; returns its result, or ``{"error": ...}``."""
        job["result"] = str(Path(job["dir"]) / "result.json")
        remaining = self.deadline - perf_counter()
        if remaining <= 1.0:
            return {"error": "no time left before the deadline"}
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
                env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {remaining:.0f} s"}
        try:
            result = json.loads(Path(job["result"]).read_text())
        except (OSError, ValueError):
            return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
        if proc.stderr.strip():
            result["stderr"] = proc.stderr.strip()[-400:]
        return result


def machine_record() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var, "1") for var in BLAS_VARS},
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _metrics_rows(path: Path) -> list[list[str]]:
    """metrics.csv as raw rows with the wall-clock ``seconds`` column dropped."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "seconds"]
    return [[row[i] for i in keep] for row in rows]


def check_run(run_dir: Path) -> tuple[list[str], dict]:
    """Output checks of one run directory; returns (failures, facts).

    The program's own readers must accept its files, the HV recomputed from
    the frontier must equal the last ``hv`` row, and the frontier entries
    must be mutually non-dominated and all dominate the reference point.
    """
    # Imported here: moascent is importable only once main() has put src/
    # on sys.path.
    import numpy as np
    import yaml
    from moascent.archive import hypervolume, parse_frontier
    from moascent.harness import read_metrics_csv

    failures, facts = [], {}
    rows = None
    try:
        rows = read_metrics_csv(run_dir / "metrics.csv")
    except (OSError, ValueError) as exc:
        failures.append(f"metrics.csv: {exc}")
    try:
        doc, P = parse_frontier(json.loads((run_dir / "frontier.json").read_text()))
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"frontier.json: {exc}")
        return failures, facts

    z = np.asarray(doc["reference_point"], dtype=float)
    if not np.all(np.all(P >= z, axis=1) & np.any(P > z, axis=1)):
        failures.append("frontier: an entry does not dominate the reference point")
    else:
        facts["hv"] = hypervolume(P, z)
        if rows is not None and rows[-1]["hv"] != facts["hv"]:
            failures.append(f"hv: frontier gives {facts['hv']!r}, "
                            f"metrics.csv ends with {rows[-1]['hv']!r}")
    weakly = np.all(P[:, None, :] >= P[None, :, :], axis=2)
    strictly = np.any(P[:, None, :] > P[None, :, :], axis=2)
    if np.any(weakly & strictly):
        failures.append("frontier: entries are not mutually non-dominated")
    facts["archive_size"] = len(P)

    cfg = yaml.safe_load((run_dir / "config.yaml").read_text())["evolution"]
    with (run_dir / "selection.jsonl").open() as fh:
        lanes = sum(json.loads(line)["kind"] in ("pgr", "pgr_fill", "paft") for line in fh)
    facts["iterations"] = cfg["p"] * cfg["m_w"] + lanes * cfg["m_iters"]
    with (run_dir / "metrics.csv").open(newline="") as fh:
        facts["stationary_fallbacks"] = sum(
            int(r["stationary_fallbacks"]) for r in csv.DictReader(fh))
    return failures, facts


def compare_runs(first: Path, other: Path) -> list[str]:
    """Same-seed reruns must repeat frontier.json and metrics.csv exactly."""
    failures = []
    if (first / "frontier.json").read_bytes() != (other / "frontier.json").read_bytes():
        failures.append("rerun: frontier.json differs")
    if _metrics_rows(first / "metrics.csv") != _metrics_rows(other / "metrics.csv"):
        failures.append("rerun: metrics.csv differs outside the seconds column")
    return failures


def layer_metrics(trace: dict, facts: dict,
                  untraced_train_s: float) -> tuple[dict, list[str], dict]:
    """Per-layer metrics of a traced run, accounting failures, self time per layer."""
    self_s, total_s, calls = trace["self_s"], trace["total_s"], trace["calls"]
    counters = trace["counters"]
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    n = lambda name: calls.get(name, 0)  # noqa: E731
    train_s = total_s["harness.run_seed"]
    solves = n("pareto.min_norm_direction")
    m = {
        "harness.resolve_config_s": s("harness.resolve_config"),
        "harness.build_trainer_s": s("harness.build_trainer"),
        "harness.write_s": train_s - total_s["evolution.run_training"],
        "harness.save_checkpoint.calls": n("harness.save_checkpoint"),
        "evolution.warmup_s": s("evolution.warmup"),
        "evolution.evaluate_s": s("evolution.evaluate"),
        "evolution.evaluate.calls": n("evolution.evaluate"),
        "evolution.pgr_select_s": s("evolution.pgr_select"),
        "evolution.paft_select_s": s("evolution.paft_select"),
        "evolution.paft_select.max_n": counters.get("evolution.paft_select.max_n", 0),
        "evolution.other_s": s("evolution.run_training"),
        "policy.collect_batch_s": s("policy.collect_batch"),
        "policy.collect_batch.calls": n("policy.collect_batch"),
        "policy.run_episode_s": s("policy.run_episode"),
        "policy.gae_s": s("policy.gae"),
        "policy.estimate_gradient_set_s": s("policy.estimate_gradient_set"),
        "policy.ppo_update_s": s("policy.ppo_update"),
        "policy.ppo_update.calls": n("policy.ppo_update"),
        "momdp.step.calls": counters.get("momdp.step.calls", 0),
        "pareto.min_norm_direction_s": s("pareto.min_norm_direction"),
        "pareto.min_norm_direction.calls": solves,
        "pareto.fallback_ratio": facts.get("stationary_fallbacks", 0) / solves if solves else 0.0,
        "archive.insert_s": s("archive.insert"),
        "archive.insert.calls": n("archive.insert"),
        "archive.insert.accept_ratio": (counters.get("archive.insert.accepted", 0)
                                        / max(1, n("archive.insert"))),
        "archive.hypervolume_s": s("archive.hypervolume"),
        "archive.sparsity_s": s("archive.sparsity"),
        "archive.size": facts.get("archive_size", 0),
        "trace.train_s": train_s,
        "trace.overhead_s": train_s - untraced_train_s,
        "trace.unattributed_share": s("evolution.run_training") / train_s,
    }
    # Self times partition the run_seed span: every layer's share plus the
    # unattributed rest of run_training must add up to the traced train_s.
    attributed = sum(v for k, v in self_s.items() if k != "harness.resolve_config")
    failures = []
    if abs(attributed - train_s) > 1e-6 * train_s + 1e-6:
        failures.append(f"accounting: self times sum to {attributed!r} s, "
                        f"traced train_s is {train_s!r} s")
    if m["trace.unattributed_share"] >= MAX_UNATTRIBUTED:
        failures.append(f"accounting: {m['trace.unattributed_share']:.1%} of traced "
                        f"train_s is unattributed")
    layers = {layer: sum(v for k, v in self_s.items()
                         if k.startswith(layer + ".") and k != "harness.resolve_config")
              for layer in LAYERS}
    return m, failures, layers


class Probe:
    """``probe.py`` running beside the measurement, on the same CPU."""

    def __init__(self, out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"),
             str(min(os.sched_getaffinity(0))), str(out)])
        self.samples: list | None = None

    def stop(self) -> list:
        """Stop the probe and return its ``[start, seconds]`` samples."""
        if self.samples is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            try:
                self.samples = json.loads(self.out.read_text())
            except (OSError, ValueError):
                self.samples = []
        return self.samples


def speed_scale(probe: list, window: list) -> float | None:
    """PROBE_REF_S over the median probe time within ``window``, or None."""
    start, end = window[0] - PROBE_MARGIN_S, window[1] + PROBE_MARGIN_S
    inside = [seconds for at, seconds in probe if start <= at <= end]
    return PROBE_REF_S / statistics.median(inside) if inside else None


def end_to_end(record: dict) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced runs, and their wall-clock medians.

    Each timing is multiplied by its speed scale before the median is taken,
    so ``train_s``, ``iters_per_s`` and ``setup_s`` are at the CPU speed
    where the probe kernel takes PROBE_REF_S. A timing with no probe sample
    in its window is left out of them.
    """
    probe = record.get("probe_s", [])
    timed = [r for r in record["runs"] if r["kind"] == "timed" and r.get("train_s")]
    metrics, wall = {}, {}
    if not timed:
        return metrics, wall
    for run in timed:
        run["speed_scale"] = speed_scale(probe, run["window"])
    scaled = [r for r in timed if r["speed_scale"] is not None]
    setups = [(o["setup_s"], speed_scale(probe, o["window"])) for o in record["setup"]]
    counted = all("iterations" in r for r in timed)
    if scaled:
        metrics["train_s"] = statistics.median(r["train_s"] * r["speed_scale"] for r in scaled)
    if any(k is not None for _, k in setups):
        metrics["setup_s"] = statistics.median(t * k for t, k in setups if k is not None)
    if scaled and counted:
        metrics["iters_per_s"] = statistics.median(
            r["iterations"] / (r["train_s"] * r["speed_scale"]) for r in scaled)
    if record.get("peak_rss_mb"):
        metrics["peak_rss_mb"] = record["peak_rss_mb"]
    if all("hv" in r for r in timed):
        metrics["hv"] = statistics.median(r["hv"] for r in timed)
    wall["train_wall_s"] = statistics.median(r["train_s"] for r in timed)
    if setups:
        wall["setup_wall_s"] = statistics.median(t for t, _ in setups)
    if counted:
        wall["iters_per_wall_s"] = statistics.median(
            r["iterations"] / r["train_s"] for r in timed)
    if probe:
        wall["probe_ms"] = 1e3 * statistics.median(seconds for _, seconds in probe)
    return metrics, wall


def measure(name: str, seed: int, seconds: float, untraced: bool, traced: bool,
            deadline: float) -> dict:
    """Run one workload; returns the full record of the measurement.

    With ``untraced``, set-up samples are taken, then one training process
    makes a warm-up run and repeats untraced runs for ``seconds`` (at least
    ``MIN_TIMED_RUNS``), then set-up samples again. With ``traced``, another
    training process makes a warm-up, an untraced reference and a traced run.
    """
    config, overrides = WORKLOADS[name]
    child = Child(deadline)
    scratch = WORK / f"scratch-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "runs": [], "setup": []}
    first_dir: list[Path] = []
    jobs = count()
    trace = None

    def new_job_dir() -> Path:
        path = scratch / f"job{next(jobs)}"
        path.mkdir()
        return path

    def sample_setup() -> None:
        for _ in range(SETUP_SAMPLES):
            out = child.run({"mode": "setup", "dir": str(new_job_dir()), "config": config,
                             "overrides": overrides, "seed": seed})
            if "setup_s" in out:
                record["setup"].append(out)

    def check(run: dict) -> None:
        """Output checks of one run, against the first run for the rerun check."""
        out_dir = Path(run.pop("output_dir"))
        if run["exit_code"] != 0:
            last = run.get("stderr", "").strip().splitlines()[-1:]
            run["failures"].append(": ".join([f"exit code {run['exit_code']}"] + last))
        found = list(out_dir.glob("*")) if out_dir.is_dir() else []
        if len(found) != 1:
            run["failures"].append(f"expected one run directory, found {len(found)}")
            return
        failures, facts = check_run(found[0])
        run["failures"] += failures
        run.update(facts)
        if first_dir:
            run["failures"] += compare_runs(first_dir[0], found[0])
        else:
            first_dir.append(found[0])

    def train(trace_it: bool) -> dict:
        job_dir = new_job_dir()
        out = child.run({
            "mode": "train", "dir": str(job_dir), "config": config,
            "overrides": overrides, "seed": seed, "trace": trace_it,
            "seconds": seconds, "min_runs": MIN_TIMED_RUNS,
            "output_dir": str(job_dir / "out"),
            "spans": str(WORK / f"spans-{name}.json"),
        })
        if "error" in out:
            record["runs"].append({"kind": "error", "failures": [out["error"]]})
            return out
        for run in out["runs"]:
            run["failures"] = []
            run["peak_rss_mb"] = out["peak_rss_mb"]
            if out.get("stderr"):
                run["stderr"] = out["stderr"]
            check(run)
            record["runs"].append(run)
        return out

    probe = None
    try:
        if untraced:
            probe = Probe(scratch / "probe.json")
            sample_setup()
            record["peak_rss_mb"] = train(trace_it=False).get("peak_rss_mb")
            sample_setup()
            record["probe_s"] = probe.stop()
        if traced:
            traced_out = train(trace_it=True)
            if "trace" in traced_out:
                trace = traced_out["trace"]
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    record["end_to_end"], record["wall"] = end_to_end(record)
    traced_runs = [r for r in record["runs"] if r["kind"] == "traced"]
    if trace is not None and traced_runs and "harness.run_seed" in trace["total_s"]:
        # The untraced reference is the traced process's own untraced run.
        reference = [r for r in record["runs"] if r["kind"] == "reference"][-1]["train_s"]
        layer, failures, layers = layer_metrics(trace, traced_runs[0], reference)
        traced_runs[0]["failures"] += failures
        record["per_layer"], record["layer_self_s"] = layer, layers
    record["attempted"] = len(record["runs"])
    record["failed"] = sum(bool(r["failures"]) for r in record["runs"])
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_record(record: dict, trace: bool) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['attempted']} runs, {record['failed']} failed")
    failures = Counter(f for run in record["runs"] for f in run["failures"])
    for failure, count in failures.items():
        print(f"  FAILED ({count} of {record['attempted']} runs): {failure}")
    table = PER_LAYER if trace else END_TO_END
    values = record.get("per_layer" if trace else "end_to_end", {})
    for metric, unit in table:
        if metric in values:
            print(f"  {metric:<34}{_fmt(values[metric]):>14} {unit}")
    if not trace:
        share = record["failed"] / record["attempted"]
        print(f"  {'failed_share':<34}{_fmt(share):>14} ratio")
        for metric, unit in WALL:
            if metric in record["wall"]:
                print(f"  {metric:<34}{_fmt(record['wall'][metric]):>14} {unit}")


def print_tables(records: list[dict]) -> None:
    names = [r["workload"] for r in records]
    header = f"{'metric':<34}{'unit':<8}" + "".join(f"{n:>14}" for n in names)
    print("\nend to end (untraced, medians)\n" + header)
    for metric, unit in END_TO_END + [("failed_share", "ratio")] + WALL:
        cells = []
        for r in records:
            value = (r["failed"] / r["attempted"] if metric == "failed_share"
                     else r["end_to_end"].get(metric, r["wall"].get(metric, "-")))
            cells.append(f"{_fmt(value):>14}")
        print(f"{metric:<34}{unit:<8}" + "".join(cells))
    print("\nper layer (traced run; times are self time)\n" + header)
    for metric, unit in PER_LAYER:
        cells = [f"{_fmt(r.get('per_layer', {}).get(metric, '-')):>14}" for r in records]
        print(f"{metric:<34}{unit:<8}" + "".join(cells))
    for layer in LAYERS:
        cells = [f"{_fmt(r.get('layer_self_s', {}).get(layer, '-')):>14}" for r in records]
        print(f"{'layer ' + layer + ' (self)':<34}{'s':<8}" + "".join(cells))


def result_line(records: list[dict], key: str, table, prefix: bool) -> str:
    metrics = {}
    for record in records:
        for metric, unit in table:
            if metric in record.get(key, {}):
                name = f"{record['workload']}.{metric}" if prefix else metric
                metrics[name] = {"value": record[key][metric], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = len(metrics) == len(table) * len(records)
    return json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="training seed of the run")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="keep repeating untraced runs for this long (at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ["src/moascent/harness.py"] + [w[0] for w in WORKLOADS.values()]
               if not Path(p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps the
    # running child, and measure() removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    # Everything runs on one CPU, beside the probe that measures its speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = perf_counter()
    machine = machine_record()
    print(f"machine: {json.dumps(machine)}")
    if machine["loadavg_start"][0] > machine["nproc"]:
        print(f"warning: load average {machine['loadavg_start'][0]:.2f} exceeds "
              f"{machine['nproc']} CPUs; timings will be inflated", file=sys.stderr)
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    if args.workload == "all":
        records = []
        for name in WORKLOADS:
            record = measure(name, args.seed, args.seconds, untraced=True, traced=True,
                             deadline=perf_counter() + DEADLINE_S * 2)
            print_record(record, trace=False)
            records.append(record)
        print_tables(records)
        out = WORK / "results" / f"all-seed{args.seed}.json"
        out.write_text(json.dumps({"machine": machine, "records": records}, indent=1))
        print(result_line(records, "end_to_end", END_TO_END, prefix=True))
        return 0

    deadline = start + DEADLINE_S
    if args.trace:
        record = measure(args.workload, args.seed, 0.0, untraced=False, traced=True,
                         deadline=deadline)
    else:
        record = measure(args.workload, args.seed, args.seconds, untraced=True,
                         traced=False, deadline=deadline)
    print_record(record, trace=bool(args.trace))
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"machine": machine, "record": record}, indent=1))
    if args.trace:
        print(result_line([record], "per_layer", PER_LAYER, prefix=False))
    else:
        print(result_line([record], "end_to_end", END_TO_END, prefix=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
