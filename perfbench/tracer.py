"""In-memory span tracer that patches moascent's public layer functions.

Each patched function records one span per call: name, start, end and the
index of the enclosing span. Per-step environment calls only bump a counter,
because a span per step would dominate the run it measures. Every function
is patched where its caller looks it up, so the layer split follows the
program's own call paths:

- ``Trainer`` reaches the rollout, update, solver, selection and metric
  functions through ``moascent.evolution`` globals;
- ``collect_batch`` reaches ``run_episode`` and ``gae`` through
  ``moascent.policy`` globals, so evaluation episodes (which go through
  ``evolution.run_episode``) stay inside ``evolution.evaluate``;
- ``cmd_train`` and ``run_seed`` reach the harness functions through
  ``moascent.harness`` globals.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from moascent import archive, evolution, harness, momdp, policy

# (owner, attribute, span name). A span name is "<layer>.<function>", the
# layer being the moascent module the function is defined in.
PATCHES = [
    (harness, "resolve_config", "harness.resolve_config"),
    (harness, "build_trainer", "harness.build_trainer"),
    (harness, "run_seed", "harness.run_seed"),
    (harness, "save_checkpoint", "harness.save_checkpoint"),
    (evolution.Trainer, "run_training", "evolution.run_training"),
    (evolution.Trainer, "warmup", "evolution.warmup"),
    (evolution.Trainer, "evaluate", "evolution.evaluate"),
    (evolution, "pgr_select", "evolution.pgr_select"),
    (evolution, "paft_select", "evolution.paft_select"),
    (evolution, "collect_batch", "policy.collect_batch"),
    (policy, "run_episode", "policy.run_episode"),
    (policy, "gae", "policy.gae"),
    (evolution, "estimate_gradient_set", "policy.estimate_gradient_set"),
    (evolution, "ppo_update", "policy.ppo_update"),
    (evolution, "min_norm_direction", "pareto.min_norm_direction"),
    (archive.NonDominatedSet, "insert", "archive.insert"),
    (evolution, "hypervolume", "archive.hypervolume"),
    (evolution, "sparsity", "archive.sparsity"),
]


class Tracer:
    """Records spans and counters for one traced training run."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Patch the layer functions; call once, before the run starts."""
        counters = self.counters
        insert = archive.NonDominatedSet.insert
        paft_select = evolution.paft_select

        def counted_insert(ndset, entry):
            accepted = insert(ndset, entry)
            counters["archive.insert.accepted"] += int(accepted)
            return accepted

        def sized_paft_select(ndset, config):
            counters["evolution.paft_select.max_n"] = max(
                counters["evolution.paft_select.max_n"], len(ndset))
            return paft_select(ndset, config)

        # Counting hooks go inside the spans, so their cost is charged to
        # the layer they count.
        archive.NonDominatedSet.insert = counted_insert
        evolution.paft_select = sized_paft_select
        for owner, attr, name in PATCHES:
            setattr(owner, attr, self._span(name, getattr(owner, attr)))

        for env_cls in momdp.MOMDPEnv.__subclasses__():
            if "step" in vars(env_cls):
                env_cls.step = self._counted("momdp.step.calls", env_cls.step)

    def _counted(self, key: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Self time, total time and calls per span name, plus the counters.

        A span's self time is its duration minus the durations of the spans
        it directly encloses.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            self_s[name] += (end - start) - inner
            total_s[name] += end - start
            calls[name] += 1
        return {"self_s": dict(self_s), "total_s": dict(total_s),
                "calls": dict(calls), "counters": dict(self.counters)}

    def write(self, path) -> None:
        """Write the spans as JSON: each name once, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
