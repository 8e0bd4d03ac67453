"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts both the criterion and its runtime budget.
"""

import time

import numpy as np
import yaml

from moascent.archive import NonDominatedSet, PolicyEntry, hypervolume
from moascent.harness import main
from moascent.momdp import make_env
from moascent.pareto import (
    analytic_two_objective_alpha,
    min_norm_direction,
    project_to_simplex,
)
from moascent.policy import GaussianPolicy
from moascent.config import PolicyConfig, resolve_config
from moascent.evolution import Trainer

from .oracles import (
    mc_hypervolume,
    min_norm_grid,
    mutually_non_dominated,
    project_simplex_bisect,
    quad2_front_hv_closed,
    quad_front_points,
    simplex_weight_grid,
)


def report(number, label, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {label}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)",
        flush=True,
    )
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


def test_01_min_norm_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_excess = 0.0
    worst_kkt = 0.0
    for i in range(1000):
        m = 2 if i % 2 == 0 else 3
        d = int(rng.integers(1, 11))
        G = rng.uniform(-1.0, 1.0, size=(m, d))
        res = min_norm_direction(G)
        worst_excess = max(worst_excess, res.squared_norm - min_norm_grid(G))
        sn = res.squared_norm
        for j in range(m):
            proj = float(G[j] @ res.direction)
            if res.alpha[j] > 1e-9:
                worst_kkt = max(worst_kkt, abs(proj - sn) / max(1.0, sn))
            else:
                worst_kkt = max(worst_kkt, (sn - proj) / max(1.0, sn))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-6 and worst_kkt <= 1e-6
    report(1, "min-norm solver oracle equivalence", ok,
           f"worst excess {worst_excess:.2e}, worst KKT residual {worst_kkt:.2e}",
           elapsed, 10.0)


def test_02_two_objective_analytic_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(1, 11))
        g1 = rng.uniform(-1.0, 1.0, size=d)
        if i % 5 == 3:  # clamped: collinear, same direction
            g2 = g1 * float(rng.uniform(1.1, 3.0))
        elif i % 5 == 4:  # near-degenerate: at/below the tie-break threshold
            g2 = g1 + (0.0 if i % 10 == 4 else 1e-13) * rng.standard_normal(d)
        else:
            g2 = rng.uniform(-1.0, 1.0, size=d)
        a = analytic_two_objective_alpha(g1, g2)
        res = min_norm_direction(np.stack([g1, g2]))
        worst = max(worst, abs(a - res.alpha[0]))
    elapsed = time.perf_counter() - start
    report(2, "closed-form two-objective weight consistency", worst <= 1e-6,
           f"worst |alpha diff| {worst:.2e}", elapsed, 5.0)


def test_03_simplex_projection_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        v = rng.uniform(-5.0, 5.0, size=m)
        worst = max(worst, float(np.max(np.abs(project_to_simplex(v) - project_simplex_bisect(v)))))
    elapsed = time.perf_counter() - start
    report(3, "simplex projection vs bisection oracle", worst <= 1e-8,
           f"worst deviation {worst:.2e}", elapsed, 5.0)


def test_04_log_prob_gradient_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for i in range(100):
        hidden = 0 if i % 2 == 0 else 16
        state_dim = int(rng.integers(1, 5))
        action_dim = int(rng.integers(1, 4))
        policy = GaussianPolicy(state_dim, action_dim, hidden=hidden)
        params = policy.init_params(
            rng, weight_scale=0.5, log_std_init=float(rng.uniform(-1.5, 0.5))
        )
        state = rng.standard_normal(state_dim)
        action = rng.standard_normal(action_dim)
        analytic = policy.score(params, state[None], action[None])[1](np.ones(1))
        h = 1e-5
        numeric = np.empty_like(analytic)
        for k in range(params.size):
            up = params.copy(); up[k] += h
            down = params.copy(); down[k] -= h
            numeric[k] = (
                policy.score(up, state[None], action[None])[0][0]
                - policy.score(down, state[None], action[None])[0][0]
            ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric)))))
    elapsed = time.perf_counter() - start
    report(4, "analytic log-prob gradients vs central differences", worst <= 1e-4,
           f"worst relative error {worst:.2e}", elapsed, 10.0)


def test_05_hypervolume_monte_carlo_and_compliance():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_sigma = 0.0
    for i in range(50):
        m = 2 if i % 2 == 0 else 3
        n = int(rng.integers(1, 51))
        P = rng.uniform(0.05, 1.0, size=(n, m))
        z = np.zeros(m)
        exact = hypervolume(P, z)
        estimate, se = mc_hypervolume(P, z, 1_000_000, rng)
        if se > 0:
            worst_sigma = max(worst_sigma, abs(exact - estimate) / se)
        else:
            assert abs(exact - estimate) < 1e-12
    compliant = True
    for i in range(200):
        n = int(rng.integers(1, 30))
        B = rng.uniform(0.05, 1.0, size=(n, 2))
        A = B + rng.uniform(0.01, 0.3, size=B.shape)
        compliant &= hypervolume(A, np.zeros(2)) > hypervolume(B, np.zeros(2))
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 4.0 and compliant
    report(5, "exact hypervolume vs Monte Carlo + Pareto compliance", ok,
           f"worst deviation {worst_sigma:.2f} sigma, compliance {compliant}",
           elapsed, 60.0)


def test_06_archive_invariants_bulk():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    snap = np.zeros(0)  # entries here carry no parameters
    nd2, nd3 = NonDominatedSet(), NonDominatedSet()
    for i in range(100_000):
        if i % 2 == 0:
            nd2.insert(PolicyEntry(f"a{i}", rng.uniform(0, 1, size=2), 0, "warmup", snap, snap))
        else:
            nd3.insert(PolicyEntry(f"a{i}", rng.uniform(0, 1, size=3), 0, "warmup", snap, snap))
    ok = mutually_non_dominated(nd2) and mutually_non_dominated(nd3)

    candidates = rng.uniform(0, 1, size=(100, 2))
    reference = None
    order_ok = True
    for _ in range(100):
        perm = rng.permutation(100)
        nd = NonDominatedSet()
        for row in candidates[perm]:
            nd.insert(PolicyEntry("x", row, 0, "warmup", snap, snap))
        final = sorted(map(tuple, nd.objectives_matrix()))
        if reference is None:
            reference = final
        order_ok &= final == reference
    elapsed = time.perf_counter() - start
    report(6, "archive non-domination and order-insensitivity", ok and order_ok,
           f"sizes {len(nd2)}/{len(nd3)}, order-insensitive {order_ok}",
           elapsed, 30.0)


def default_trainer(env_name, seed, **overrides):
    """The trainer of ``env_name`` at the default policy section, 8 eval
    episodes and M=10; ``overrides`` go to the policy or evolution section
    holding the field, ``paft_enabled`` to ``paft.enabled``."""
    m = make_env(env_name).spec.num_objectives
    z = {2: [-9.0, -9.0], 3: [-10.0, -10.0, -10.0]}[m]
    evolution = dict(M=10, M_ft=3, m_iters=20, m_w=10, p=8, reference_point=z)
    policy = {"hidden": 32}
    paft_enabled = overrides.pop("paft_enabled", True)
    for key, value in overrides.items():
        (policy if key in PolicyConfig.__dataclass_fields__ else evolution)[key] = value
    cfg = resolve_config({"experiment": "acceptance", "env": {"name": env_name},
                          "policy": policy, "evolution": evolution, "eval": {"episodes": 8},
                          "paft": {"enabled": paft_enabled}})
    return Trainer(cfg, seed)


def test_07_end_to_end_frontier_quality():
    start = time.perf_counter()
    env = make_env("mo_quadratic")
    s = float(np.sum((env.targets[0] - env.targets[1]) ** 2))
    analytic_hv = quad2_front_hv_closed(s, -9.0, -9.0)
    # guard: a dense frontier sample must approach the closed form from below
    sampled = hypervolume(
        quad_front_points(env.targets, simplex_weight_grid(2, 4000)), (-9.0, -9.0)
    )
    assert analytic_hv * (1 - 1e-4) <= sampled <= analytic_hv + 1e-9

    ratios = []
    for seed in range(6):
        metrics = default_trainer("mo_quadratic", seed).run_training().metrics
        ratios.append(metrics[-1]["hv"] / analytic_hv)
    elapsed = time.perf_counter() - start
    ok = float(np.median(ratios)) >= 0.95 and min(ratios) >= 0.90
    report(7, "frontier quality on the quadratic benchmark", ok,
           f"median {np.median(ratios):.4f}, min {min(ratios):.4f} of analytic HV",
           elapsed, 600.0)


def test_08_finetune_ablation_sparsity():
    # Equal-budget comparison: identical config except the fine-tuning
    # switch. Plain-gradient updates with raw advantages keep update sizes
    # proportional to the remaining ascent signal, so converged lanes park
    # instead of blanketing the frontier by drift; that makes the sparsity
    # comparison measure targeted gap-filling rather than noise volume.
    start = time.perf_counter()
    shared = dict(optimizer="sgd", lr=0.05, normalize_advantages=False, paft_pairs=2)
    sp_on, sp_off = [], []
    for seed in range(6):
        state_on = default_trainer("mo_quadratic", seed, paft_enabled=True,
                                   **shared).run_training()
        state_off = default_trainer("mo_quadratic", seed, paft_enabled=False,
                                    **shared).run_training()
        sp_on.append(state_on.metrics[-1]["sp"])
        sp_off.append(state_off.metrics[-1]["sp"])
    elapsed = time.perf_counter() - start
    median_on, median_off = float(np.median(sp_on)), float(np.median(sp_off))
    report(8, "fine-tuning ablation lowers frontier sparsity", median_on <= median_off,
           f"median sparsity {median_on:.2e} (enabled) vs {median_off:.2e} (disabled)",
           elapsed, 1200.0)


def test_09_training_determinism(tmp_path):
    start = time.perf_counter()
    cfg = {
        "experiment": "determinism",
        "env": {"name": "mo_quadratic"},
        "policy": {"batch_episodes": 8, "epochs": 2},
        "evolution": {"M": 2, "M_ft": 1, "m_iters": 2, "m_w": 2, "p": 4},
        "eval": {"episodes": 4},
        "output_dir": str(tmp_path / "runs"),
        "seeds": [0],
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["train", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    run_a, run_b = sorted((tmp_path / "runs").glob("*"))

    frontier_same = (run_a / "frontier.json").read_bytes() == (run_b / "frontier.json").read_bytes()

    # The final CSV column records wall-clock seconds, which cannot repeat
    # between invocations; every other byte must match.
    def stripped(path):
        return [line.rsplit(",", 1)[0] for line in (path / "metrics.csv").read_text().splitlines()]

    metrics_same = stripped(run_a) == stripped(run_b)
    elapsed = time.perf_counter() - start
    report(9, "byte-identical repeated training runs", frontier_same and metrics_same,
           f"frontier identical {frontier_same}, metrics identical {metrics_same}",
           elapsed, 120.0)


def test_10_three_objective_path():
    start = time.perf_counter()
    env = make_env("mo_quadratic3")
    z = (-10.0, -10.0, -10.0)
    front = quad_front_points(env.targets, simplex_weight_grid(3, 120))
    analytic_hv = hypervolume(front, z)

    ratios = []
    for seed in range(3):
        trainer = default_trainer("mo_quadratic3", seed)
        metrics = trainer.run_training().metrics
        ratios.append(metrics[-1]["hv"] / analytic_hv)
    elapsed = time.perf_counter() - start
    ok = min(ratios) >= 0.90
    report(10, "three-objective end-to-end quality", ok,
           f"ratios {[round(r, 4) for r in ratios]} of dense-front HV",
           elapsed, 900.0)
