"""Tests for dominance, the non-dominated set, hypervolume, and sparsity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moascent.archive import (
    NonDominatedSet,
    PolicyEntry,
    frontier_document,
    hypervolume,
    parse_frontier,
    sparsity,
)

from .oracles import (
    dominated_mask,
    dominated_mask_bruteforce,
    dominates,
    mc_hypervolume,
    mutually_non_dominated,
)


def entry(objs, ref="r", generation=0, source="warmup"):
    return PolicyEntry(ref, np.asarray(objs, dtype=float), generation, source,
                       np.zeros(3), np.zeros(2))


class TestPolicyEntry:
    def test_snapshot_is_a_read_only_copy(self):
        params = np.arange(4.0)
        made = PolicyEntry("ckpt_000000", [1.0, 2.0], 0, "warmup", params, np.zeros(2))
        params[0] = 99.0  # caller mutation must not leak into the entry
        np.testing.assert_array_equal(made.params, [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            made.params[0] = 5.0
        with pytest.raises(ValueError):
            made.critic_params[0] = 5.0
        assert "params=" not in repr(made)


class TestDominates:
    def test_strict_improvement(self):
        assert dominates([2, 2], [1, 1])

    def test_incomparable(self):
        assert not dominates([2, 1], [1, 2])
        assert not dominates([1, 2], [2, 1])

    def test_equality_excluded(self):
        assert not dominates([1, 1], [1, 1])

    def test_weak_improvement_counts(self):
        assert dominates([1, 2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])


class TestInsert:
    def test_dominated_candidate_rejected(self):
        nd = NonDominatedSet()
        assert nd.insert(entry([2, 2]))
        assert not nd.insert(entry([1, 1]))
        assert [tuple(e.objectives) for e in nd] == [(2, 2)]

    def test_incomparable_candidate_accepted(self):
        nd = NonDominatedSet()
        nd.insert(entry([2, 2]))
        assert nd.insert(entry([3, 0.5]))
        assert sorted(tuple(e.objectives) for e in nd) == [(2, 2), (3, 0.5)]

    def test_candidate_evicts_dominated_members(self):
        nd = NonDominatedSet()
        nd.insert(entry([2, 2]))
        nd.insert(entry([1, 4]))
        assert nd.insert(entry([3, 3]))
        assert sorted(tuple(e.objectives) for e in nd) == [(1, 4), (3, 3)]

    def test_duplicate_keeps_earlier(self):
        nd = NonDominatedSet()
        nd.insert(entry([1, 2], ref="first"))
        assert not nd.insert(entry([1, 2], ref="second"))
        assert nd.entries[0].params_ref == "first"

    def test_order_insensitive(self):
        rng = np.random.default_rng(0)
        candidates = rng.uniform(0, 1, size=(60, 2))
        reference = NonDominatedSet()
        for row in candidates:
            reference.insert(entry(row))
        want = sorted(map(tuple, reference.objectives_matrix()))
        for _ in range(20):
            perm = rng.permutation(len(candidates))
            nd = NonDominatedSet()
            for row in candidates[perm]:
                nd.insert(entry(row))
            assert sorted(map(tuple, nd.objectives_matrix())) == want

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_always_mutually_non_dominated(self, rows):
        nd = NonDominatedSet()
        for row in rows:
            nd.insert(entry(row))
        assert mutually_non_dominated(nd)
        assert len(nd) >= 1


class TestHypervolume:
    def test_three_point_staircase(self):
        # Union of boxes 3x1, 2x2, 1x3 by inclusion-exclusion: 6.
        assert hypervolume([(1, 3), (2, 2), (3, 1)], (0, 0)) == pytest.approx(6.0)

    def test_single_box(self):
        assert hypervolume([(2.5, 4.0)], (0, 0)) == pytest.approx(10.0)
        assert hypervolume([(2.5, 4.0)], (0.5, 1.0)) == pytest.approx(6.0)

    def test_unit_cube(self):
        assert hypervolume([(1, 1, 1)], (0, 0, 0)) == pytest.approx(1.0)

    def test_dominated_points_are_free(self):
        base = hypervolume([(1, 3), (3, 1)], (0, 0))
        with_inner = hypervolume([(1, 3), (3, 1), (0.5, 0.5)], (0, 0))
        assert with_inner == pytest.approx(base)

    def test_three_dim_union(self):
        # Two boxes 2x1x1 and 1x2x1 overlapping in the unit cube: 2 + 2 - 1.
        assert hypervolume([(2, 1, 1), (1, 2, 1)], (0, 0, 0)) == pytest.approx(3.0)

    def test_point_not_dominating_reference(self):
        with pytest.raises(ValueError):
            hypervolume([(1, -1)], (0, 0))
        with pytest.raises(ValueError):
            hypervolume([(0, 0)], (0, 0))

    def test_four_objectives_unsupported(self):
        with pytest.raises(ValueError):
            hypervolume([(1, 1, 1, 1)], (0, 0, 0, 0))

    def test_fast_dominance_sampler_matches_bruteforce(self):
        # The Monte-Carlo oracle's staircase shortcut must agree with the
        # literal all-pairs dominance test before it is trusted anywhere.
        rng = np.random.default_rng(19)
        for m in (2, 3):
            for _ in range(20):
                P = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 25)), m))
                draws = rng.uniform(-0.1, 1.1, size=(500, m))
                np.testing.assert_array_equal(
                    dominated_mask(draws, P), dominated_mask_bruteforce(draws, P)
                )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(23)
        for m in (2, 3):
            for _ in range(5):
                n = int(rng.integers(2, 30))
                P = rng.uniform(0.05, 1.0, size=(n, m))
                z = np.zeros(m)
                exact = hypervolume(P, z)
                estimate, se = mc_hypervolume(P, z, 100_000, rng)
                assert abs(exact - estimate) <= 4.0 * max(se, 1e-12)

    def test_pareto_compliance(self):
        # A set whose members collectively dominate another set has a
        # strictly larger hypervolume.
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            B = rng.uniform(0.05, 1.0, size=(n, 2))
            A = B + rng.uniform(0.01, 0.2, size=B.shape)
            assert hypervolume(A, np.zeros(2)) > hypervolume(B, np.zeros(2))


class TestSparsity:
    def test_three_point_staircase(self):
        # Sorted lists [1,2,3] per objective, squared gaps sum to 4, n-1 = 2.
        assert sparsity([(1, 3), (2, 2), (3, 1)]) == pytest.approx(2.0)

    def test_two_points(self):
        assert sparsity([(0, 0), (1, 1)]) == pytest.approx(2.0)

    def test_duplicates_collapse_to_undefined(self):
        assert sparsity([(1.5, 2.5), (1.5, 2.5)]) is None

    def test_singleton_and_empty_undefined(self):
        assert sparsity([(1, 2)]) is None
        assert sparsity([]) is None

    # Dyadic coordinates keep the shifted sums exact; arbitrary floats can
    # absorb tiny gaps and spuriously merge points.
    _coord = st.integers(-160, 160).map(lambda i: i / 32.0)

    @given(
        st.lists(st.tuples(_coord, _coord), min_size=2, max_size=20),
        st.integers(-3200, 3200).map(lambda i: i / 32.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_translation_invariant(self, rows, shift):
        P = np.asarray(rows)
        base = sparsity(P)
        shifted = sparsity(P + shift)
        if base is None:
            assert shifted is None
        else:
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_filling_largest_gap_does_not_increase(self):
        P = np.array([(0.0, 4.0), (1.0, 3.0), (4.0, 0.0)])
        # Largest per-objective gap is between (1, 3) and (4, 0) on both axes.
        before = sparsity(P)
        after = sparsity(np.vstack([P, [2.5, 1.5]]))
        assert after <= before


class TestFrontierDocument:
    def build(self):
        nd = NonDominatedSet()
        nd.insert(entry([1.0, 3.0], ref="a", generation=1, source="pareto_ascent"))
        nd.insert(entry([3.0, 1.0], ref="b", generation=2, source="paft_pair"))
        return frontier_document(
            nd, "exp-1", (0.0, 0.0), {"a": "checkpoints/a.json", "b": "checkpoints/b.json"}
        )

    def test_schema_fields(self):
        doc = self.build()
        assert set(doc) == {"schema_version", "experiment_id", "m", "reference_point", "entries"}
        assert doc["m"] == 2
        for e in doc["entries"]:
            assert set(e) == {"objectives", "generation", "source", "checkpoint"}

    def test_round_trips_through_json(self):
        doc = self.build()
        parsed, objectives = parse_frontier(json.loads(json.dumps(doc)))
        assert parsed["experiment_id"] == "exp-1"
        assert sorted(map(tuple, objectives)) == [(1.0, 3.0), (3.0, 1.0)]

    def test_rejects_missing_fields(self):
        doc = self.build()
        del doc["reference_point"]
        with pytest.raises(ValueError):
            parse_frontier(doc)
