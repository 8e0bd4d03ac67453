"""Tests for the generational loop: warmup, selection, fine-tuning, training."""

import gc
import re
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from moascent.archive import POLICY_SOURCES, NonDominatedSet, PolicyEntry
from moascent import evolution
from moascent.config import ConfigError, EvolutionConfig, resolve_config
from moascent.evolution import (
    Trainer,
    ascent_weights,
    evenly_spread_weights,
    gap_pair_weights,
    paft_select,
    pgr_select,
)
from moascent.momdp import make_env

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


def make_config(env_name="mo_quadratic", paft_enabled=True, **gen_kw):
    """The resolved config of a small run: ``gen_config``'s evolution section,
    hidden layers of 8, 4 episodes a batch, 2 epochs an update, 2 eval episodes."""
    if "reference_point" not in gen_kw:
        m = make_env(env_name).spec.num_objectives
        gen_kw["reference_point"] = [-10.0] * 3 if m == 3 else [-9.0, -9.0]
    return resolve_config({
        "experiment": "evolution-test", "env": {"name": env_name},
        "policy": {"hidden": 8, "batch_episodes": 4, "epochs": 2},
        "evolution": asdict(gen_config(**gen_kw)), "eval": {"episodes": 2},
        "paft": {"enabled": paft_enabled},
    })


def make_trainer(seed=0, **kw):
    return Trainer(make_config(**kw), seed)


def with_evolution(cfg, **fields):
    """``cfg`` with these ``evolution`` fields replaced; ``replace`` re-checks it
    against its environment and fills a null reference point, as ``resolve_config`` does."""
    return replace(cfg, evolution=replace(cfg.evolution, **fields))


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
        pairs = [(o, w) for source, o, w in paft_select(nd, cfg) if source == "paft_pair"]
        assert {tuple(o.objectives) for o, _ in pairs} == {(1.0, 3.0), (3.0, 1.0)}
        by_point = {tuple(o.objectives): w for o, w in pairs}
        np.testing.assert_allclose(by_point[(1.0, 3.0)], [1.0, 0.0])
        np.testing.assert_allclose(by_point[(3.0, 1.0)], [0.0, 1.0])

    def test_extreme_jobs_carry_basis_weights(self):
        nd = self.build_ndset([(0.0, 4.0), (1.0, 3.0), (3.0, 1.0), (4.0, 0.0)])
        cfg = gen_config(p=8, paft_pairs=1, reference_point=np.zeros(2))
        extremes = {o.params_ref: w for source, o, w in paft_select(nd, cfg)
                    if source == "paft_extreme"}
        np.testing.assert_allclose(extremes["e3"], [1.0, 0.0])  # best objective 1 at (4, 0)
        np.testing.assert_allclose(extremes["e0"], [0.0, 1.0])  # best objective 2 at (0, 4)

    def test_jobs_capped_at_half_population(self):
        nd = self.build_ndset([(float(i), 8.0 - i) for i in range(9)])
        cfg = gen_config(p=4, paft_pairs=3, reference_point=np.zeros(2))
        assert len(paft_select(nd, cfg)) == 2  # p_b = 2

    def test_default_pair_budget(self):
        nd = self.build_ndset([(0.0, 4.0), (1.0, 3.0), (3.0, 1.0), (4.0, 0.0)])
        cfg = gen_config(p=8, reference_point=np.zeros(2))
        sources = [source for source, _, _ in paft_select(nd, cfg)]  # p_b=4, m=2
        assert sources == ["paft_pair", "paft_pair", "paft_extreme", "paft_extreme"]

    def test_pairs_sorted_by_descending_gap(self):
        rows = [(0.0, 10.0), (1.0, 9.0), (5.0, 5.0), (9.0, 1.0), (9.5, 0.5)]
        nd = self.build_ndset(rows)
        cfg = gen_config(p=12, paft_pairs=2, reference_point=np.zeros(2))
        pairs = [o for source, o, _ in paft_select(nd, cfg) if source == "paft_pair"]
        gaps = [
            float(np.linalg.norm(pairs[i].objectives - pairs[i + 1].objectives))
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
                (rows.index(tuple(pairs[i].objectives)),
                 rows.index(tuple(pairs[i + 1].objectives)))
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

    def test_stack_falls_back_lane_by_lane(self):
        g = np.array([0.4, -0.2, 0.1])
        grads = np.stack([np.stack([g, -g]), np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])])
        w, fell_back = ascent_weights(grads)
        np.testing.assert_array_equal(fell_back, [True, False])
        np.testing.assert_array_equal(w[0], [0.5, 0.5])
        np.testing.assert_allclose(w[1], [0.8, 0.2], atol=1e-12)

    def test_one_solve_and_gradient_set_per_generation(self, monkeypatch):
        # All ascent lanes of a generation share one gradient-set call and one
        # solve; warmup lanes have fixed weights and need neither.
        calls = {"solve": [], "grads": []}
        solve, grads = evolution.min_norm_direction, evolution.estimate_gradient_set

        def counted_solve(G):
            calls["solve"].append(np.shape(G))
            return solve(G)

        def counted_grads(policy, batch, normalize):
            calls["grads"].append(batch.params.shape[0])
            return grads(policy, batch, normalize)

        monkeypatch.setattr(evolution, "min_norm_direction", counted_solve)
        monkeypatch.setattr(evolution, "estimate_gradient_set", counted_grads)
        trainer = make_trainer(M=3, M_ft=1, m_iters=2, p=4)
        trainer.run_training()
        assert [shape[0] for shape in calls["solve"]] == [4, 2, 2]
        assert calls["grads"] == [4, 4, 4]


class TestTrainingLoop:
    def test_zero_generations_archive_is_warmup_subset(self):
        state = make_trainer(M=0, m_w=0).run_training()
        assert len(state.metrics) == 1
        assert all(e.source == "warmup" for e in state.archive)
        assert mutually_non_dominated(state.archive)
        assert 1 <= len(state.archive) <= 4

    def test_same_seed_bitwise_identical_metrics(self):
        run_a = make_trainer(seed=7).run_training().metrics
        run_b = make_trainer(seed=7).run_training().metrics
        for row_a, row_b in zip(run_a, run_b):
            for key in ("generation", "hv", "sp", "archive_size", "stationary_fallbacks"):
                assert row_a[key] == row_b[key]

    def test_phase_split_and_budget(self):
        trainer = make_trainer(
            M=3, M_ft=2, p=4, m_iters=2
        )
        log = trainer.run_training().selection_log
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

    def test_paft_records_name_the_lanes_that_ran(self, monkeypatch):
        # Each generation's paft records name its fine-tuning lanes, in the
        # order the generation step trained them: origin, weights and job.
        ran = {}
        step = Trainer._generation_step

        def recording_step(trainer, state, generation, lanes, *args, **kwargs):
            ran[generation] = list(lanes)
            return step(trainer, state, generation, lanes, *args, **kwargs)

        monkeypatch.setattr(Trainer, "_generation_step", recording_step)
        log = make_trainer(M=4, M_ft=2, p=8).run_training().selection_log
        assert set(evolution._JOB) == set(POLICY_SOURCES) - {"warmup", "pareto_ascent"}
        assert sorted(ran) == [0, 1, 2, 3, 4]
        assert {source for lanes in ran.values() for source, _, _ in lanes} == set(POLICY_SOURCES)
        for generation, lanes in ran.items():
            records = [(r["job"], r["policy"], r["weights"]) for r in log
                       if r["generation"] == generation and r["kind"] == "paft"]
            assert records == [(evolution._JOB[source], origin.params_ref, list(weights))
                               for source, origin, weights in lanes if source in evolution._JOB]

    def test_paft_disabled_never_schedules_jobs(self):
        state = make_trainer(M=2, M_ft=1, paft_enabled=False).run_training()
        assert all(r["kind"] != "paft" for r in state.selection_log)

    def test_hypervolume_non_decreasing(self):
        hv = [row["hv"] for row in make_trainer(M=3).run_training().metrics]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_archive_entries_resolve_and_selections_ranked(self):
        trainer = make_trainer(M=2)
        state = trainer.run_training()
        for e in state.archive:
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
        state = make_trainer(M=4, M_ft=2).run_training()
        gc.collect()
        alive = {id(ref()) for ref in created if ref() is not None}
        held = {id(e.params) for e in [*state.archive, *state.population]}
        assert alive == held
        assert len(created) > len(held)

    def test_rejected_snapshots_become_entries_only_to_join_the_population(self, monkeypatch):
        # A generation commits its snapshots in one batch; a snapshot the
        # archive rejects becomes an entry only as a lane's final snapshot
        # joining the population (warm-up and ascent lanes), and none twice.
        created, accepted, joined, offered = [], set(), set(), []
        insert_many, step = NonDominatedSet.insert_many, Trainer._generation_step

        def recording_entry(*args, **kwargs):
            created.append(PolicyEntry(*args, **kwargs))
            return created[-1]

        def recording_insert_many(nd, objectives, build):
            offered.append(len(objectives))

            def recording_build(j):
                made = build(j)
                accepted.add(made.params_ref)
                return made

            return insert_many(nd, objectives, recording_build)

        def recording_step(trainer, state, *args, **kwargs):
            fallbacks = step(trainer, state, *args, **kwargs)
            joined.update(e.params_ref for e in state.population)
            return fallbacks

        monkeypatch.setattr(evolution, "PolicyEntry", recording_entry)
        monkeypatch.setattr(NonDominatedSet, "insert_many", recording_insert_many)
        monkeypatch.setattr(Trainer, "_generation_step", recording_step)
        make_trainer(M=4, M_ft=2).run_training()
        refs = [e.params_ref for e in created]
        assert len(set(refs)) == len(refs)
        assert set(refs) == accepted | joined
        assert joined - accepted and len(refs) < sum(offered)

    def test_metrics_row_fields(self):
        for row in make_trainer(M=1).run_training().metrics:
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
        state = trainer.run_training()
        assert state.archive.objectives_matrix().shape[1] == 3
        assert state.metrics[-1]["hv"] > 0

    def test_zero_warmup_iters_keeps_random_init(self):
        # With no warmup budget the stored population parameters are the
        # raw initializations from each lane's stream, cast to the networks'
        # dtype as the trainer casts every start.
        trainer = make_trainer(M=0, m_w=0)
        state = trainer.run_training()
        for lane, member in enumerate(state.population):
            rng = trainer._lane_rng(0, lane)
            expected = trainer.policy.init_params(
                rng, weight_scale=evolution._INIT_SCALE, log_std_init=evolution._LOG_STD_INIT
            ).astype(evolution.NETWORK_DTYPE)
            np.testing.assert_array_equal(member.params, expected)

    @pytest.mark.parametrize("reference_point, message", [
        (None, None),
        ([-9, -9, -9], "evolution.reference_point: need 2 numbers, got [-9.0, -9.0, -9.0]"),
        ([0, 0], "evolution.reference_point: [0.0, 0.0] must lie strictly below the lowest "
                 "return the environment admits, [-8.5, -8.5]"),
    ], ids=["null", "three-numbers", "above-bound"])
    def test_bad_reference_point_rejected_at_construction(self, reference_point, message):
        # These used to pass construction and fail only after warmup had trained.
        # A Config checks itself, so replacing the point raises before any Trainer
        # exists, and a null becomes the environment's default, as resolve_config makes it.
        if message is None:
            cfg = with_evolution(make_config(), reference_point=reference_point)
            assert cfg.evolution.reference_point == [-9.0, -9.0]
            assert cfg == make_config(reference_point=None)
            return
        with pytest.raises(ConfigError, match=re.escape(message)):
            with_evolution(make_config(), reference_point=reference_point)

    def test_warmup_requires_enough_policies(self):
        # Warm-up spreads p weights over the m-objective simplex. A replaced p < m
        # used to construct a Trainer and fail only once run_training entered warmup.
        with pytest.raises(ConfigError,
                           match="evolution.p: population 2 cannot cover 3 objectives"):
            with_evolution(make_config("mo_quadratic3"), p=2)


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
