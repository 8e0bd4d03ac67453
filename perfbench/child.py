"""One benchmark measurement, made in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python3 perfbench/child.py '<job json>'``
with ``src`` on ``PYTHONPATH``. The job's ``mode`` is

- ``setup``: time ``import moascent`` + ``load_config`` + ``resolve_config``
  + ``build_trainer``;
- ``train``: run ``moascent train`` for one seed through ``harness.main``,
  again and again in this one process, timing each ``run_seed`` call
  (training until the run directory is written). The first run is a
  warm-up: it is checked like the others but not timed into the medians,
  and the process's peak RSS is read right after it. Untraced runs then
  repeat until ``seconds`` would be exceeded (at least ``min_runs``). With
  ``trace`` set there is one untraced run after the warm-up and then one
  run with every layer function recording spans.

Every timing comes with its ``window``, the ``perf_counter`` values at its
start and end, so that ``run.py`` can match it with the CPU-speed probe. The
result is written as JSON to the job's ``result`` path.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter


def setup(job: dict) -> dict:
    start = perf_counter()
    import moascent  # noqa: F401  (the import is part of what is timed)
    from moascent import harness

    cfg = harness.resolve_config(harness.load_config(job["config"]), job["overrides"])
    harness.build_trainer(cfg, job["seed"])
    end = perf_counter()
    return {"setup_s": end - start, "window": [start, end]}


def train(job: dict) -> dict:
    from moascent import harness

    run_seed = harness.run_seed
    windows = []

    def timed_run_seed(cfg, seed):
        start = perf_counter()
        try:
            return run_seed(cfg, seed)
        finally:
            windows.append([start, perf_counter()])

    harness.run_seed = timed_run_seed
    runs, walls = [], []

    def one_run(kind: str) -> None:
        out_dir = Path(job["output_dir"]) / f"run{len(runs)}"
        argv = ["train", "--config", job["config"], "--seed", str(job["seed"]),
                "--override", f"output_dir={out_dir}"]
        for override in job["overrides"]:
            argv += ["--override", override]
        windows.clear()
        start = perf_counter()
        exit_code = harness.main(argv)
        walls.append(perf_counter() - start)
        run = {"kind": kind, "exit_code": exit_code, "output_dir": str(out_dir),
               "train_s": None}
        if windows:
            run.update(train_s=windows[0][1] - windows[0][0], window=windows[0])
        runs.append(run)

    one_run("warmup")
    result = {"runs": runs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if job["trace"]:
        from tracer import Tracer

        one_run("reference")
        tracer = Tracer()
        tracer.install()
        one_run("traced")
        result["trace"] = tracer.summary()
        tracer.write(job["spans"])
        return result

    # Start another run only while it is expected to end within the budget.
    start = perf_counter()
    while (len(runs) - 1 < job["min_runs"]
           or perf_counter() - start + statistics.median(walls) <= job["seconds"]):
        one_run("timed")
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    result = setup(job) if job["mode"] == "setup" else train(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
