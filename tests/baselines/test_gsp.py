"""Unit tests for the extended-sequence GSP baseline."""

import pytest

from repro import GspAlgorithm, MiningParams, NaiveAlgorithm, mine
from repro.baselines.gsp import (
    extend_sequence,
    gsp_join,
    matches_extended,
)
from repro.hierarchy import build_vocabulary


@pytest.fixture
def V(fig1_vocabulary):
    return fig1_vocabulary


class TestExtendSequence:
    def test_itemsets_contain_ancestors(self, V):
        """c a b1 D → itemsets {c}, {a}, {b1, B}, {D} (paper's encoding)."""
        seq = V.encode_sequence(["c", "a", "b1", "D"])
        extended = extend_sequence(V, seq)
        names = [sorted(V.name(i) for i in s) for s in extended]
        assert names == [["c"], ["a"], ["B", "b1"], ["D"]]

    def test_deep_item(self, V):
        (itemset,) = extend_sequence(V, V.encode_sequence(["b11"]))
        assert sorted(V.name(i) for i in itemset) == ["B", "b1", "b11"]


class TestMatchesExtended:
    def test_generalized_match(self, V):
        extended = extend_sequence(V, V.encode_sequence(["a", "b3", "c"]))
        pattern = V.encode_sequence(["a", "B"])
        assert matches_extended(extended, pattern, 0)

    def test_gap_respected(self, V):
        extended = extend_sequence(V, V.encode_sequence(["a", "c", "b1"]))
        pattern = V.encode_sequence(["a", "B"])
        assert not matches_extended(extended, pattern, 0)
        assert matches_extended(extended, pattern, 1)

    def test_unbounded_gap(self, V):
        extended = extend_sequence(
            V, V.encode_sequence(["a", "c", "c", "c", "b1"])
        )
        pattern = V.encode_sequence(["a", "B"])
        assert matches_extended(extended, pattern, None)

    def test_empty_pattern_matches(self, V):
        assert matches_extended([], (), 0)


class TestJoinCandidates:
    def test_pairs_from_singletons(self):
        got = set(gsp_join([(1,), (2,)]))
        assert got == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_prefix_suffix_overlap(self):
        frequent = [(1, 2), (2, 3)]
        assert gsp_join(frequent) == [(1, 2, 3)]

    def test_self_join_repetition(self):
        assert (1, 1, 1) in gsp_join([(1, 1)])

    def test_no_join_without_overlap(self):
        assert gsp_join([(1, 2), (3, 4)]) == []


class TestGspMining:
    def test_paper_example(self, fig1_database, fig1_hierarchy):
        """Fig. 1/Sec. 2: σ=2, γ=1, λ=3 produces exactly the 10 patterns."""
        params = MiningParams(sigma=2, gamma=1, lam=3)
        result = GspAlgorithm(params).mine(fig1_database, fig1_hierarchy)
        expected = {
            ("a", "a"): 2, ("a", "b1"): 2, ("b1", "a"): 2, ("a", "B"): 3,
            ("B", "a"): 2, ("a", "B", "c"): 2, ("B", "c"): 2, ("a", "c"): 2,
            ("b1", "D"): 2, ("B", "D"): 2,
        }
        assert result.decoded() == expected
        assert result.algorithm == "gsp"

    def test_matches_naive_various_params(self, fig1_database, fig1_hierarchy):
        for sigma, gamma, lam in [(2, 0, 3), (2, None, 4), (3, 1, 2)]:
            params = MiningParams(sigma, gamma, lam)
            gsp = GspAlgorithm(params).mine(fig1_database, fig1_hierarchy)
            naive = NaiveAlgorithm(params).mine(fig1_database, fig1_hierarchy)
            assert gsp.decoded() == naive.decoded(), (sigma, gamma, lam)

    def test_level_sizes_recorded(self, fig1_database, fig1_hierarchy):
        params = MiningParams(sigma=2, gamma=1, lam=3)
        gsp = GspAlgorithm(params)
        gsp.mine(fig1_database, fig1_hierarchy)
        assert set(gsp.level_sizes) >= {1, 2}
        candidates2, frequent2 = gsp.level_sizes[2]
        assert candidates2 >= frequent2 > 0

    def test_flat_mining(self, fig1_database):
        """Without a hierarchy GSP degenerates to plain GSP."""
        params = MiningParams(sigma=2, gamma=1, lam=3)
        gsp = GspAlgorithm(params).mine(fig1_database)
        naive = NaiveAlgorithm(params).mine(fig1_database)
        assert gsp.decoded() == naive.decoded()

    def test_empty_when_sigma_too_high(self, fig1_database, fig1_hierarchy):
        params = MiningParams(sigma=100, gamma=1, lam=3)
        result = GspAlgorithm(params).mine(fig1_database, fig1_hierarchy)
        assert len(result) == 0

    def test_reuses_prebuilt_vocabulary(self, fig1_database, fig1_hierarchy):
        vocabulary = build_vocabulary(fig1_database, fig1_hierarchy)
        params = MiningParams(sigma=2, gamma=1, lam=3)
        result = GspAlgorithm(params).mine(
            fig1_database, vocabulary=vocabulary
        )
        assert result.preprocess_job is None
        assert result.frequency("a", "B") == 3

    def test_counters_accumulate_across_levels(
        self, fig1_database, fig1_hierarchy
    ):
        from repro.mapreduce.counters import C

        params = MiningParams(sigma=2, gamma=1, lam=3)
        result = GspAlgorithm(params).mine(fig1_database, fig1_hierarchy)
        assert result.counters[C.MAP_OUTPUT_BYTES] > 0
        # one map task profile per level job at least
        assert len(result.metrics.map_task_s) > 8
