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
    ThreeTestNonDominatedSet,
    dominated_mask,
    dominated_mask_bruteforce,
    dominates,
    hv2_sweep,
    hv3_per_level,
    mc_hypervolume,
    mutually_non_dominated,
    sparsity_unique,
)


def fronts(m: int, count: int, max_n: int, seed: int):
    """``count`` random positive ``(n, m)`` point sets, many with ties:
    uniform, integer-grid, 2-decimal, unit-sphere with badly scaled axes,
    and rows drawn again from one set; the first has ``max_n`` rows."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = max_n if k == 0 else int(rng.integers(1, min(max_n, 300) + 1))
        kind = k % 5
        if kind == 0:
            P = rng.uniform(0.01, 1.0, (n, m))
        elif kind == 1:
            P = rng.integers(1, 6, (n, m)) / 5.0
        elif kind == 2:
            P = np.round(rng.uniform(0.01, 1.0, (n, m)), 2)
        elif kind == 3:
            P = np.abs(rng.standard_normal((n, m))) + 0.01
            P = P / np.linalg.norm(P, axis=1, keepdims=True) * np.logspace(-3, 3, m)
        else:
            P = rng.uniform(0.01, 1.0, (n, m))[rng.integers(0, n, n)]
        yield P


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

    def test_snapshot_keeps_its_float_dtype(self):
        # The trainer's float32 snapshots stay float32 in the archive (half
        # the bytes); a snapshot given as ints or a list is copied as float64.
        params = np.arange(4, dtype=np.float32)
        made = PolicyEntry("ckpt_000000", [1.0, 2.0], 0, "warmup", params, [1, 2])
        assert made.params.dtype == np.float32 and not np.shares_memory(made.params, params)
        assert made.critic_params.dtype == np.float64

    def test_unknown_source_rejected(self):
        # frontier_document would write it, and parse_frontier refuse it.
        with pytest.raises(ValueError, match="unknown source 'gap_fill', expected one of"):
            entry([1.0, 2.0], source="gap_fill")

    @pytest.mark.parametrize("objs, message", [
        pytest.param([1.0, np.inf], "objectives must be finite", id="inf"),
        pytest.param([np.nan, 2.0], "objectives must be finite", id="nan"),
        pytest.param([[1.0, 2.0]], r"objectives must be a 1-D vector, got shape \(1, 2\)",
                     id="2-D"),
        pytest.param([], r"objectives must be a 1-D vector, got shape \(0,\)", id="empty"),
    ])
    def test_bad_objectives_rejected(self, objs, message):
        with pytest.raises(ValueError, match=message):
            entry(objs)


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

    @pytest.mark.parametrize("order, kept", [("abc", "a"), ("bac", "a"), ("cba", "c")])
    def test_construction_offers_the_entries_in_order(self, order, kept):
        # a dominates b and c duplicates a: the constructor holds what
        # inserting the entries one at a time holds, never all three.
        given = {"a": entry([2, 2], ref="a"), "b": entry([1, 1], ref="b"),
                 "c": entry([2, 2], ref="c")}
        offers = [given[name] for name in order]
        want = NonDominatedSet()
        for offer in offers:
            want.insert(offer)
        got = NonDominatedSet(offers)
        assert [e.params_ref for e in got] == [e.params_ref for e in want] == [kept]
        assert got.objectives_matrix().tobytes() == want.objectives_matrix().tobytes()
        assert [e.params_ref for e in offers] == list(order)

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

    @pytest.mark.parametrize("m", [2, 3])
    def test_objectives_matrix_tracks_inserts_and_evictions(self, m):
        # Staircase-like draws with a drift keep both accepts and evictions
        # frequent; the kept array must match the entries after every offer.
        rng = np.random.default_rng(m)
        nd = NonDominatedSet()
        accepted = evicted = 0
        for step in range(300):
            before = len(nd)
            row = rng.uniform(0, 1, size=m) + 0.002 * step * rng.integers(0, 2, size=m)
            if nd.insert(entry(row)):
                accepted += 1
                evicted += before + 1 - len(nd)
            want = np.stack([e.objectives for e in nd])
            np.testing.assert_array_equal(nd.objectives_matrix(), want)
        assert accepted > 20 and evicted > 20

    def test_objectives_matrix_is_a_copy(self):
        nd = NonDominatedSet()
        nd.insert(entry([1.0, 2.0]))
        nd.objectives_matrix()[0, 0] = 9.0
        assert nd.insert(entry([2.0, 1.0]))
        np.testing.assert_array_equal(nd.objectives_matrix(), [[1.0, 2.0], [2.0, 1.0]])

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_always_mutually_non_dominated(self, rows):
        nd = NonDominatedSet()
        for row in rows:
            nd.insert(entry(row))
        assert mutually_non_dominated(nd)
        assert len(nd) >= 1

    @given(st.integers(2, 3).flatmap(lambda m: st.lists(
        st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-1, 1)),
                 min_size=m, max_size=m),
        min_size=1, max_size=60)))
    @settings(max_examples=200, deadline=None)
    def test_matches_three_test_oracle(self, offers):
        # Few distinct values give exact duplicates, ties on single axes and
        # offers of -0.0 against 0.0.
        got, want = NonDominatedSet(), ThreeTestNonDominatedSet()
        for k, row in enumerate(offers):
            offer = entry(row, ref=f"r{k}")
            assert got.insert(offer) == want.insert(offer), k
        assert [e.params_ref for e in got] == [e.params_ref for e in want]
        assert got._objectives.tobytes() == want._objectives.tobytes()


def offer_batch(start, rows):
    """Offer ``rows`` to an archive holding ``start`` in one ``insert_many`` call,
    and one at a time to the three-test oracle; both must end the same.

    Returns the archive, the flags and the rows the builder was called for.
    """
    want = ThreeTestNonDominatedSet()
    for k, row in enumerate(start):
        want.insert(entry(row, ref=f"m{k}"))
    got = NonDominatedSet(list(want.entries))
    offers = [entry(row, ref=f"r{k}") for k, row in enumerate(rows)]
    want_flags = [want.insert(offer) for offer in offers]
    calls = []

    def build(j):
        calls.append(j)
        return offers[j]

    flags = got.insert_many(np.asarray(rows, dtype=float), build)
    assert flags.tolist() == want_flags
    assert calls == [j for j, taken in enumerate(want_flags) if taken]
    assert [id(e) for e in got] == [id(e) for e in want]
    assert got.objectives_matrix().tobytes() == want.objectives_matrix().tobytes()
    return got, flags.tolist(), calls


_few_values = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-1, 1))


class TestInsertMany:
    @given(st.integers(2, 3).flatmap(lambda m: st.tuples(
        st.lists(st.lists(_few_values, min_size=m, max_size=m), max_size=30),
        st.lists(st.lists(_few_values, min_size=m, max_size=m), min_size=1, max_size=40))))
    @settings(max_examples=300, deadline=None)
    def test_matches_one_at_a_time_oracle(self, start_and_rows):
        # Few distinct values give exact duplicates within the batch and
        # against members, ties on single axes and -0.0 against 0.0.
        offer_batch(*start_and_rows)

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_fronts(self, m):
        rng = np.random.default_rng(m)
        for n, k in ((0, 50), (1, 1), (40, 1), (40, 60), (200, 160)):
            P = np.abs(rng.standard_normal((n, m)))
            front = P / np.linalg.norm(P, axis=1, keepdims=True)
            rows = np.abs(rng.standard_normal((k, m)))
            rows *= (1.0 + 0.01 * rng.standard_normal((k, 1))) / np.linalg.norm(
                rows, axis=1, keepdims=True)
            offer_batch(front, rows)

    def test_empty_start_takes_the_batch_front(self):
        nd, flags, calls = offer_batch([], [[1, 2], [2, 1], [0.5, 0.5]])
        assert flags == [True, True, False] and calls == [0, 1]
        assert [e.params_ref for e in nd] == ["r0", "r1"]

    def test_one_row(self):
        assert offer_batch([[1, 2]], [[2, 1]])[1] == [True]
        assert offer_batch([[1, 2]], [[0, 1]])[1] == [False]

    def test_exact_duplicates_keep_the_earliest(self):
        nd, flags, _ = offer_batch([[1, 2]], [[1, 2], [3, 0], [3, 0], [-0.0, 4], [0.0, 4]])
        assert flags == [False, True, False, True, False]
        assert [e.params_ref for e in nd] == ["m0", "r1", "r3"]

    def test_row_taken_then_evicted_in_the_same_batch(self):
        nd, flags, calls = offer_batch([[0, 3]], [[1, 1], [2, 1], [2, 2]])
        assert flags == [True, True, True] and calls == [0, 1, 2]
        assert [e.params_ref for e in nd] == ["m0", "r2"]

    def test_row_covered_within_the_batch_only_by_a_rejected_row(self):
        # r1 is below the rejected r0 and below the member r2 then evicts.
        nd, flags, calls = offer_batch([[2, 2]], [[1, 1.5], [1, 1], [3, 3]])
        assert flags == [False, False, True] and calls == [2]
        assert [e.params_ref for e in nd] == ["r2"]

    @pytest.mark.parametrize("rows, message", [
        ([[1.0, 0.0], [np.nan, 1.0]], "row 1"),
        ([[np.inf, 1.0]], "row 0"),
        ([[1.0, 1.0, 1.0]], "row 0 has 3, set has 2"),
        ([[1.0], [2.0]], "row 0 has 1, set has 2"),
        ([1.0, 2.0], r"\(k, m\) rows"),
    ])
    def test_bad_rows_raise_and_change_nothing(self, rows, message):
        nd = NonDominatedSet([entry([1, 2], ref="a"), entry([2, 1], ref="b")])
        before = nd.objectives_matrix()
        calls = []
        with pytest.raises(ValueError, match=message):
            nd.insert_many(np.asarray(rows), calls.append)
        assert calls == [] and [e.params_ref for e in nd] == ["a", "b"]
        np.testing.assert_array_equal(nd.objectives_matrix(), before)

    def test_insert_is_a_one_row_batch(self, monkeypatch):
        batches = []
        insert_many = NonDominatedSet.insert_many

        def recording(nd, objectives, build):
            batches.append(np.array(objectives))
            return insert_many(nd, objectives, build)

        monkeypatch.setattr(NonDominatedSet, "insert_many", recording)
        nd = NonDominatedSet()
        assert nd.insert(entry([1, 2])) is True
        assert nd.insert(entry([0, 1])) is False
        assert [b.tolist() for b in batches] == [[[1.0, 2.0]], [[0.0, 1.0]]]


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

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_points_raise(self, m, bad):
        # A +inf coordinate dominates the reference point and would give an
        # infinite volume.
        P = np.ones((2, m))
        P[1, 0] = bad
        with pytest.raises(ValueError, match="points have non-finite entries"):
            hypervolume(P, np.zeros(m))

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

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_the_per_level_oracle_bit_for_bit(self, m):
        # The levels and the 2-D sweep's order come from one sort each; every
        # slab's accumulate, clip and dot must still see the vectors the
        # per-level loop built, so the volume keeps its last bit.
        oracle = hv2_sweep if m == 2 else hv3_per_level
        for P in fronts(m, 60, 1500, seed=31 + m):
            for z in (np.zeros(m), np.full(m, -0.5)):
                assert hypervolume(P, z).hex() == oracle(P, z).hex()

    def test_signed_zero_levels_match_the_oracle(self):
        P = np.array([[1.0, 2.0, -0.0], [2.0, 1.0, 0.0], [0.5, 0.5, 1.0], [1.0, 2.0, 0.0]])
        z = np.full(3, -1.0)
        assert hypervolume(P, z).hex() == hv3_per_level(P, z).hex()

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

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_the_unique_oracle_bit_for_bit(self, m):
        for P in fronts(m, 100, 200, seed=37 + m):
            P = np.concatenate([P, P[: len(P) // 3]])  # duplicated rows
            got, want = sparsity(P), sparsity_unique(P)
            assert (got is None and want is None) or got.hex() == want.hex()

    @pytest.mark.parametrize("m", [2, 3])
    def test_signed_zeros_and_ties_match_the_unique_oracle(self, m):
        # Rows that differ only in 0.0 against -0.0 are one point, and tied
        # columns give zero gaps.
        rng = np.random.default_rng(41)
        for _ in range(200):
            P = rng.integers(-1, 2, (int(rng.integers(1, 12)), m)).astype(float)
            P[rng.uniform(size=P.shape) < 0.4] = -0.0
            got, want = sparsity(P), sparsity_unique(P)
            assert (got is None and want is None) or got.hex() == want.hex()
        pair = [(0.0, 1.0), (-0.0, 1.0)]
        assert sparsity(pair) is None and sparsity_unique(pair) is None

    def test_none_cases_match_the_unique_oracle(self):
        for points in ([], np.empty((0, 2)), [(1.0, 2.0, 3.0)], [(1.0, 2.0)] * 4):
            assert sparsity(points) is None
            assert sparsity_unique(points) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_raise(self, bad):
        # Refused as hypervolume refuses them: a NaN row has no distinct-row equality.
        with pytest.raises(ValueError, match="points have non-finite entries"):
            sparsity([(1.0, 2.0), (bad, 0.5), (2.0, 1.0)])

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
        return frontier_document(nd, "exp-1", (0.0, 0.0))

    def test_schema_fields(self):
        doc = self.build()
        assert set(doc) == {"schema_version", "experiment_id", "m", "reference_point", "entries"}
        assert doc["m"] == 2
        for e in doc["entries"]:
            assert set(e) == {"objectives", "generation", "source", "params_ref"}
        assert [e["params_ref"] for e in doc["entries"]] == ["a", "b"]

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
