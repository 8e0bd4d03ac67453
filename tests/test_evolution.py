"""Tests for the generational loop: warmup, selection, fine-tuning, training."""

import gc
import weakref

import numpy as np
import pytest

from moascent.archive import NonDominatedSet, PolicyEntry
from moascent import evolution
from moascent.config import EvolutionConfig, PolicyConfig
from moascent.evolution import (
    Trainer,
    ascent_weights,
    evenly_spread_weights,
    gap_pair_weights,
    paft_select,
    pgr_select,
)
from moascent.momdp import make_env
from moascent.policy import GaussianPolicy, VectorCritic

from .oracles import mutually_non_dominated


def entry(objs, ref, generation=0, source="warmup"):
    return PolicyEntry(ref, np.asarray(objs, dtype=float), generation, source,
                       np.zeros(3), np.zeros(2))


def gen_config(**kw):
    base = dict(
        M=2,
        M_ft=1,
        m_iters=2,
        m_w=1,
        p=4,
        reference_point=np.array([-9.0, -9.0]),
    )
    base.update(kw)
    return EvolutionConfig(**base)


def make_trainer(env_name="mo_quadratic", hidden=8, eval_episodes=2, upd=None, seed=0,
                 paft_enabled=True, **gen_kw):
    env = make_env(env_name)
    m = env.spec.num_objectives
    if "reference_point" not in gen_kw:
        gen_kw["reference_point"] = np.full(m, -10.0) if m == 3 else np.array([-9.0, -9.0])
    policy = GaussianPolicy(env.spec.state_dim, env.spec.action_dim, hidden=hidden)
    critic = VectorCritic(env.spec.state_dim, m, hidden=hidden)
    upd = upd or PolicyConfig(batch_episodes=4, epochs=2)
    return Trainer(env, policy, critic, gen_config(**gen_kw), upd, seed,
                   eval_episodes=eval_episodes, paft_enabled=paft_enabled)


class TestEvenlySpreadWeights:
    def test_two_objectives_eight_policies(self):
        W = evenly_spread_weights(2, 8)
        np.testing.assert_allclose(W[0], [0.0, 1.0])
        np.testing.assert_allclose(W[-1], [1.0, 0.0])
        np.testing.assert_allclose(np.diff(W[:, 0]), np.full(7, 1 / 7))
        np.testing.assert_allclose(W.sum(axis=1), np.ones(8))

    def test_three_objectives_six_policies_is_degree_two_lattice(self):
        W = evenly_spread_weights(3, 6)
        want = {
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),
        }
        assert {tuple(row) for row in W} == want

    def test_three_objectives_odd_count_keeps_corners(self):
        W = evenly_spread_weights(3, 8)
        rows = {tuple(np.round(row, 9)) for row in W}
        assert len(W) == 8
        for corner in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            assert corner in rows
        np.testing.assert_allclose(W.sum(axis=1), np.ones(8))
        assert np.all(W >= 0)

    def test_too_few_policies(self):
        with pytest.raises(ValueError):
            evenly_spread_weights(3, 2)


class TestDistanceToRef:
    """The distance from the reference point that ``pgr_select`` ranks by and logs."""

    @staticmethod
    def logged(rows, reference_point):
        population = [entry(row, f"p{i}") for i, row in enumerate(rows)]
        log = []
        pgr_select(population, len(rows), 1, 1, reference_point,
                   np.random.default_rng(0), log=log)
        return {record["chosen"]: record["distance"] for record in log}

    def test_345_triangle(self):
        # One region, top_k 1: the farther point is the region's pick, the
        # other fills the second slot; both records carry the distance.
        assert self.logged([[3.0, 4.0], [6.0, 8.0]], [0.0, 0.0]) == {
            "p1": pytest.approx(10.0), "p0": pytest.approx(5.0)}

    def test_measured_from_reference_point(self):
        assert self.logged([[5.0, 6.0]], [2.0, 2.0]) == {"p0": pytest.approx(5.0)}

    def test_unit_cube_diagonal(self):
        assert self.logged([[1.0, 1.0, 1.0]], [0.0, 0.0, 0.0]) == {
            "p0": pytest.approx(np.sqrt(3))}


class TestPgrSelect:
    def test_two_regions_pick_both_points(self):
        # (3, 1) sits at ~18.4 degrees, (1, 3) at ~71.6; with two regions and
        # top_k 1 each region's single best is forced.
        population = [entry([3.0, 1.0], "a"), entry([1.0, 3.0], "b")]
        rng = np.random.default_rng(0)
        chosen = pgr_select(population, 2, 2, 1, [0.0, 0.0], rng)
        assert {e.params_ref for e in chosen} == {"a", "b"}

    def test_boundary_point_goes_to_higher_region(self):
        population = [entry([2.0, 2.0], "diag")]
        log = []
        pgr_select(population, 1, 2, 1, [0.0, 0.0], np.random.default_rng(0), log=log)
        assert log[0]["region"] == 1

    def test_ranked_by_distance_within_region(self):
        population = [
            entry([1.0, 1.0], "near"),
            entry([4.0, 4.0], "far"),
            entry([2.0, 2.0], "mid"),
        ]
        log = []
        chosen = pgr_select(population, 1, 1, 1, [0.0, 0.0], np.random.default_rng(0), log=log)
        assert chosen[0].params_ref == "far"
        assert log[0]["top_k"] == ["far"]

    def test_uniform_within_top_k_chi_square(self):
        # With top_k covering the whole region the pick is uniform; the
        # chi-square statistic over 10^4 draws stays far below the 1e-4
        # critical value for 3 degrees of freedom (21.1).
        population = [entry([2.0 + 0.1 * i, 2.0 - 0.05 * i], f"p{i}") for i in range(4)]
        rng = np.random.default_rng(123)
        counts = {f"p{i}": 0 for i in range(4)}
        for _ in range(10_000):
            chosen = pgr_select(population, 1, 1, 10, [0.0, 0.0], rng)
            counts[chosen[0].params_ref] += 1
        expected = 10_000 / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 21.1

    def test_empty_regions_refilled_globally(self):
        # All mass in one region; the other slots fill with the remaining
        # population members.
        population = [entry([3.0, 0.1 + 0.01 * i], f"p{i}") for i in range(5)]
        chosen = pgr_select(population, 4, 4, 1, [0.0, 0.0], np.random.default_rng(1))
        assert len(chosen) == 4
        assert len({e.params_ref for e in chosen}) == 4

    def test_population_exhausted(self):
        population = [entry([1.0, 1.0], "only")]
        chosen = pgr_select(population, 3, 3, 1, [0.0, 0.0], np.random.default_rng(2))
        assert [e.params_ref for e in chosen] == ["only"]

    def test_entry_not_dominating_reference_errors(self):
        population = [entry([1.0, -1.0], "bad")]
        with pytest.raises(ValueError, match="dominate"):
            pgr_select(population, 1, 1, 1, [0.0, 0.0], np.random.default_rng(0))

    def test_region_coverage_matches_non_empty_regions(self):
        rng = np.random.default_rng(3)
        population = [entry(rng.uniform(0.5, 4.0, size=2), f"p{i}") for i in range(12)]
        log = []
        pgr_select(population, 6, 6, 2, [0.0, 0.0], rng, log=log)
        diffs = np.stack([e.objectives for e in population])
        angles = np.arctan2(diffs[:, 1], diffs[:, 0])
        width = (np.pi / 2) / 6
        non_empty = len(set(np.minimum((angles / width).astype(int), 5)))
        regions_hit = {rec["region"] for rec in log if rec["kind"] == "pgr"}
        assert len(regions_hit) == min(6, non_empty)


class TestGapPairWeights:
    def test_two_objective_gap(self):
        # Unit gap direction (0.707, -0.707): positive parts renormalize to
        # the pure single-objective weights on either side.
        w_a, w_b = gap_pair_weights([1.0, 3.0], [3.0, 1.0])
        np.testing.assert_allclose(w_a, [1.0, 0.0])
        np.testing.assert_allclose(w_b, [0.0, 1.0])

    def test_three_objective_gap_mixes(self):
        w_a, w_b = gap_pair_weights([0.0, 2.0, 1.0], [2.0, 0.0, 2.0])
        np.testing.assert_allclose(w_a, [2.0 / 3.0, 0.0, 1.0 / 3.0])
        np.testing.assert_allclose(w_b, [0.0, 1.0, 0.0])

    def test_identical_points_fall_back_to_uniform(self):
        w_a, w_b = gap_pair_weights([1.0, 1.0], [1.0, 1.0])
        np.testing.assert_allclose(w_a, [0.5, 0.5])
        np.testing.assert_allclose(w_b, [0.5, 0.5])


class TestPaftSelect:
    def build_ndset(self, rows):
        nd = NonDominatedSet()
        for i, row in enumerate(rows):
            nd.insert(entry(row, f"e{i}", generation=1, source="pareto_ascent"))
        return nd

    def test_widest_gap_pair_selected(self):
        # Consecutive gaps are sqrt(2), 2*sqrt(2), sqrt(2); the middle pair
        # flanks the widest empty region.
        nd = self.build_ndset([(0.0, 4.0), (1.0, 3.0), (3.0, 1.0), (4.0, 0.0)])
        cfg = gen_config(p=8, paft_pairs=1, reference_point=np.zeros(2))
        jobs = paft_select(nd, cfg)
        pair_jobs = [j for j in jobs if j.kind == "gap_pair"]
        assert {tuple(j.policy.objectives) for j in pair_jobs} == {(1.0, 3.0), (3.0, 1.0)}
        by_point = {tuple(j.policy.objectives): j.weights for j in pair_jobs}
        np.testing.assert_allclose(by_point[(1.0, 3.0)], [1.0, 0.0])
        np.testing.assert_allclose(by_point[(3.0, 1.0)], [0.0, 1.0])

    def test_extreme_jobs_carry_basis_weights(self):
        nd = self.build_ndset([(0.0, 4.0), (1.0, 3.0), (3.0, 1.0), (4.0, 0.0)])
        cfg = gen_config(p=8, paft_pairs=1, reference_point=np.zeros(2))
        jobs = paft_select(nd, cfg)
        extremes = {j.policy.params_ref: j.weights for j in jobs if j.kind == "objective_extreme"}
        np.testing.assert_allclose(extremes["e3"], [1.0, 0.0])  # best objective 1 at (4, 0)
        np.testing.assert_allclose(extremes["e0"], [0.0, 1.0])  # best objective 2 at (0, 4)

    def test_jobs_capped_at_half_population(self):
        nd = self.build_ndset([(float(i), 8.0 - i) for i in range(9)])
        cfg = gen_config(p=4, paft_pairs=3, reference_point=np.zeros(2))
        jobs = paft_select(nd, cfg)
        assert len(jobs) == 2  # p_b = 2

    def test_default_pair_budget(self):
        nd = self.build_ndset([(0.0, 4.0), (1.0, 3.0), (3.0, 1.0), (4.0, 0.0)])
        cfg = gen_config(p=8, reference_point=np.zeros(2))
        jobs = paft_select(nd, cfg)  # p_b=4, m=2 -> 1 pair + 2 extremes
        assert sum(j.kind == "gap_pair" for j in jobs) == 2
        assert sum(j.kind == "objective_extreme" for j in jobs) == 2

    def test_pairs_sorted_by_descending_gap(self):
        rows = [(0.0, 10.0), (1.0, 9.0), (5.0, 5.0), (9.0, 1.0), (9.5, 0.5)]
        nd = self.build_ndset(rows)
        cfg = gen_config(p=12, paft_pairs=2, reference_point=np.zeros(2))
        jobs = [j for j in paft_select(nd, cfg) if j.kind == "gap_pair"]
        gaps = [
            float(np.linalg.norm(jobs[i].policy.objectives - jobs[i + 1].policy.objectives))
            for i in (0, 2)
        ]
        assert gaps[0] >= gaps[1]
        # no unselected mutually-nearest pair has a wider gap than the narrowest selected
        P = np.stack([np.asarray(r) for r in rows])
        dists = np.linalg.norm(P[:, None] - P[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        nn = dists.argmin(axis=1)
        mutual = {(min(i, j), max(i, j)) for i, j in enumerate(nn) if nn[j] == i}
        selected = {
            (min(a, b), max(a, b))
            for a, b in [
                (rows.index(tuple(jobs[i].policy.objectives)),
                 rows.index(tuple(jobs[i + 1].policy.objectives)))
                for i in (0, 2)
            ]
        }
        min_selected_gap = min(gaps)
        for pair in mutual - selected:
            assert dists[pair] <= min_selected_gap + 1e-12

    def test_singleton_errors(self):
        nd = self.build_ndset([(1.0, 1.0)])
        with pytest.raises(ValueError):
            paft_select(nd, gen_config(reference_point=np.zeros(2)))


class TestAscentWeights:
    def test_conflicting_gradients_give_minimum_norm_weights(self):
        w, fell_back = ascent_weights(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)
        assert not fell_back

    def test_stationary_falls_back_to_uniform(self):
        g = np.array([0.4, -0.2, 0.1])
        w, fell_back = ascent_weights(np.stack([g, -g]))
        np.testing.assert_allclose(w, [0.5, 0.5])
        assert fell_back


class TestTrainingLoop:
    def test_zero_generations_archive_is_warmup_subset(self):
        trainer = make_trainer(M=0, m_w=0)
        archive, metrics = trainer.run_training()
        assert len(metrics) == 1
        assert all(e.source == "warmup" for e in archive)
        assert mutually_non_dominated(archive)
        assert 1 <= len(archive) <= 4

    def test_same_seed_bitwise_identical_metrics(self):
        run_a = make_trainer(seed=7).run_training()[1]
        run_b = make_trainer(seed=7).run_training()[1]
        for row_a, row_b in zip(run_a, run_b):
            for key in ("generation", "hv", "sp", "archive_size", "stationary_fallbacks"):
                assert row_a[key] == row_b[key]

    def test_phase_split_and_budget(self):
        trainer = make_trainer(
            M=3, M_ft=2, p=4, m_iters=2
        )
        trainer.run_training()
        log = trainer.state.selection_log
        for generation, expect_paft in ((1, False), (2, False), (3, True)):
            records = [r for r in log if r["generation"] == generation]
            pgr = [r for r in records if r["kind"] in ("pgr", "pgr_fill")]
            paft = [r for r in records if r["kind"] == "paft"]
            if expect_paft:
                assert len(pgr) == 2  # p_a = p / 2
                assert 0 < len(paft) <= 2
            else:
                assert len(pgr) == 4  # p_a = p
                assert not paft
            assert len(pgr) + len(paft) <= 4

    def test_paft_disabled_never_schedules_jobs(self):
        trainer = make_trainer(M=2, M_ft=1, paft_enabled=False)
        trainer.run_training()
        assert all(r["kind"] != "paft" for r in trainer.state.selection_log)

    def test_hypervolume_non_decreasing(self):
        _, metrics = make_trainer(M=3).run_training()
        hv = [row["hv"] for row in metrics]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_archive_entries_resolve_and_selections_ranked(self):
        trainer = make_trainer(M=2)
        archive, _ = trainer.run_training()
        state = trainer.state
        for e in archive:
            assert e.params.shape == (trainer.policy.num_params,)
            assert e.critic_params.shape == (trainer.critic.num_params,)
        for record in state.selection_log:
            if record["kind"] == "pgr":
                assert record["chosen"] in record["top_k"]

    def test_only_held_snapshots_stay_alive(self, monkeypatch):
        # A snapshot lives exactly as long as an archive or population entry
        # holds it; nothing else in the trainer keeps one alive.
        created = []

        def recording_entry(*args, **kwargs):
            made = PolicyEntry(*args, **kwargs)
            created.append(weakref.ref(made.params))
            return made

        monkeypatch.setattr(evolution, "PolicyEntry", recording_entry)
        trainer = make_trainer(M=4, M_ft=2)
        archive, _ = trainer.run_training()
        gc.collect()
        alive = {id(ref()) for ref in created if ref() is not None}
        held = {id(e.params) for e in [*archive, *trainer.state.population]}
        assert alive == held
        assert len(created) > len(held)

    def test_metrics_row_fields(self):
        _, metrics = make_trainer(M=1).run_training()
        for row in metrics:
            assert set(row) == {
                "generation", "hv", "sp", "archive_size", "stationary_fallbacks", "seconds",
            }
            assert row["hv"] >= 0.0
            assert row["stationary_fallbacks"] >= 0

    def test_three_objective_smoke(self):
        trainer = make_trainer(
            env_name="mo_quadratic3", M=2, M_ft=1,
            p=4, m_iters=2, m_w=1,
        )
        archive, metrics = trainer.run_training()
        assert archive.objectives_matrix().shape[1] == 3
        assert metrics[-1]["hv"] > 0

    def test_zero_warmup_iters_keeps_random_init(self):
        # With no warmup budget the stored population parameters are the
        # raw initializations from each lane's stream.
        trainer = make_trainer(M=0, m_w=0)
        trainer.run_training()
        state = trainer.state
        upd = trainer.update
        for lane, member in enumerate(state.population):
            rng = trainer._lane_rng(0, lane)
            expected = trainer.policy.init_params(
                rng, weight_scale=upd.init_scale, log_std_init=upd.log_std_init
            )
            np.testing.assert_array_equal(member.params, expected)

    def test_warmup_requires_enough_policies(self):
        env = make_env("mo_quadratic3")
        policy = GaussianPolicy(1, 2, hidden=4)
        critic = VectorCritic(1, 3, hidden=4)
        cfg = gen_config(p=2, reference_point=np.full(3, -10.0))
        trainer = Trainer(env, policy, critic, cfg, PolicyConfig(batch_episodes=2), 0, 8, True)
        with pytest.raises(ValueError):
            trainer.run_training()


class TestGenerationConfigValidation:
    def test_odd_population_rejected(self):
        with pytest.raises(ValueError):
            gen_config(p=5)

    def test_paft_start_range(self):
        with pytest.raises(ValueError):
            gen_config(M_ft=0)
        with pytest.raises(ValueError):
            gen_config(M=2, M_ft=3)

    def test_zero_generations_allowed(self):
        gen_config(M=0, M_ft=1)
