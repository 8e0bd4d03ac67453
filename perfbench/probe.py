"""CPU-speed probe that runs beside a measurement on the same CPU.

Run by ``perfbench/run.py`` as ``python3 perfbench/probe.py <cpu> <out>``.
Every ``PERIOD_S`` it times one pass of a fixed kernel shaped like the
program's rollout loop (small-array numpy calls, per-step Python objects, a
reverse-time advantage loop) and records ``[start, seconds]``, ``start``
being ``time.perf_counter()`` (CLOCK_MONOTONIC, so comparable across
processes). On SIGTERM, or once its parent is gone, it writes the samples
to ``<out>`` as JSON and exits.

The kernel is part of the benchmark, not of the program, so a change to the
program does not change it: the kernel's time at a moment tells how fast the
CPU the program shares with it runs at that moment.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from collections import namedtuple
from time import perf_counter, sleep

import numpy as np

PERIOD_S = 0.05
Step = namedtuple("Step", "state action reward next_state done")
_rng = np.random.default_rng(0)
_W1 = _rng.standard_normal((4, 16)) * 0.3
_W2 = _rng.standard_normal((16, 2)) * 0.3


def kernel() -> float:
    """One 24-step rollout of a tiny tanh policy and its discounted returns."""
    state, steps = np.zeros(4), []
    for t in range(24):
        mean = np.tanh(state @ _W1) @ _W2
        action = mean + 0.3 * _rng.standard_normal(2)
        next_state = np.clip(state + 0.1 * np.concatenate([action, -action]), -1.0, 1.0)
        reward = np.array([-float(action @ action), float(next_state.sum())])
        steps.append(Step(state, action, reward, next_state, t == 23))
        state = next_state
    rewards = np.stack([s.reward for s in steps])
    returns, last = np.zeros_like(rewards), np.zeros(2)
    for t in range(len(steps) - 1, -1, -1):
        last = rewards[t] + 0.95 * last
        returns[t] = last
    return float(returns.sum())


def main() -> None:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    while not stopped and os.getppid() == parent:
        start = perf_counter()
        kernel()
        samples.append([start, perf_counter() - start])
        sleep(PERIOD_S)
    with open(out, "w") as fh:
        json.dump(samples, fh)


if __name__ == "__main__":
    main()
