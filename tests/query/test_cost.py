"""Unit tests for the cost-based query planner (:mod:`repro.query.cost`).

The differential harness proves every ordering and strategy the planner
can choose is answer-invariant; this file pins the *decisions* — node
ordering and the skip rule, the estimator's strategy picks on skewed
statistics, the LRU plan cache (promotion on hit, eviction counter),
shared position-space slicing, and the explain/estimate public surface.
Decisions are asserted, raw cost numbers are not: only the ratios in
:mod:`repro.analysis.costmodel` are meaningful.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.analysis.costmodel import NODE_SKIP_FACTOR
from repro.errors import InvalidParameterError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.query.cost import (
    PLAN_ORDERS,
    PLAN_STRATEGIES,
    CostEstimate,
    combine_estimates,
    order_mask_nodes,
)
from repro.query.plan import PositionSpace
from repro.serve import open_store, write_store


@pytest.fixture(scope="module")
def skewed_index() -> PatternIndex:
    """A corpus with one ubiquitous item and one rare one: ``common``
    posts to 121 patterns, ``rare`` to 2 — past the ``cost`` ordering's
    skip factor, so a ``common rare`` query should intersect only the
    rare node and DP-verify."""
    hierarchy = Hierarchy()
    for name in ("common", "rare", "mid"):
        hierarchy.add_item(name)
    patterns = {}
    freq = 400
    for length in (1, 2, 3, 4, 5, 6):
        for combo in product(("common", "mid"), repeat=length):
            if "common" in combo:
                patterns[combo] = freq
                freq -= 2
    patterns[("common", "rare")] = 4
    patterns[("rare",)] = 3
    return PatternIndex(*code_patterns(patterns, hierarchy))


# ----------------------------------------------------------------------
# node ordering + skip rule
# ----------------------------------------------------------------------


class TestOrderMaskNodes:
    SIZED = [(100, (1, 2)), (3, (9,)), (40, (5,))]

    def test_cost_sorts_ascending_and_skips_oversized(self):
        included, skipped = order_mask_nodes(list(self.SIZED), "cost")
        # ceiling = NODE_SKIP_FACTOR * 3: both 40 and 100 exceed it
        assert NODE_SKIP_FACTOR * 3 < 40
        assert [entries for entries, _ in included] == [3]
        assert [entries for entries, _ in skipped] == [40, 100]

    def test_cost_keeps_balanced_nodes(self):
        sized = [(10, (1,)), (20, (2,)), (60, (3,))]
        included, skipped = order_mask_nodes(sized, "cost")
        assert NODE_SKIP_FACTOR * 10 >= 60
        assert [entries for entries, _ in included] == [10, 20, 60]
        assert skipped == []

    def test_worst_is_descending_with_no_skip(self):
        included, skipped = order_mask_nodes(list(self.SIZED), "worst")
        assert [entries for entries, _ in included] == [100, 40, 3]
        assert skipped == []

    def test_cardinality_is_the_legacy_id_set_order(self):
        included, skipped = order_mask_nodes(list(self.SIZED), "cardinality")
        # sorted by len(ids): the 100-entry two-id node goes *after*
        # the single-id ones — the blindness the cost order fixes
        assert [len(ids) for _, ids in included] == [1, 1, 2]
        assert skipped == []


# ----------------------------------------------------------------------
# the estimator's strategy decisions
# ----------------------------------------------------------------------


class TestEstimatorDecisions:
    def test_skewed_pair_prunes_and_skips_the_common_node(
        self, skewed_index
    ):
        plan = skewed_index.explain("common rare")
        estimate = plan["estimate"]
        assert plan["strategy"] == "pruned"
        by_postings = sorted(
            estimate["nodes"], key=lambda node: node["postings"]
        )
        assert by_postings[0]["skipped"] is False  # rare: the mask
        assert by_postings[-1]["skipped"] is True  # common: skipped
        # candidate prediction tracks the rare postings, not the scan
        assert estimate["candidates"] <= by_postings[0]["postings"]

    def test_chainless_query_is_a_wildcard_scan(self, skewed_index):
        estimate = skewed_index.estimate_cost("? ?")
        assert estimate.strategy == "wildcard"
        assert estimate.scan_candidates == estimate.candidates > 0

    def test_unsatisfiable_floor_costs_nothing(self, skewed_index):
        estimate = skewed_index.estimate_cost("common@999999")
        assert estimate.strategy == "unsatisfiable"
        assert estimate.candidates == 0

    def test_negation_only_chain_never_priced_pruned(self, tmp_path):
        hierarchy = Hierarchy()
        for name in ("a", "b"):
            hierarchy.add_item(name)
        coded, vocab = code_patterns(
            {("a", "b"): 3, ("b", "b"): 2, ("a",): 1}, hierarchy
        )
        path = tmp_path / "v2.store"
        write_store(path, coded, vocab)
        with open_store(path) as store:
            # no "in" node to build a mask from: pruning has nothing to
            # intersect, so the estimate never offers it
            for order in PLAN_ORDERS:
                store.set_planner(order)
                for query in ("!a ?", "!a !b", "? !b *"):
                    estimate = store.estimate_cost(query)
                    assert estimate.strategy in ("exact", "scan"), query

    def test_costs_rank_narrow_below_broad(self, skewed_index):
        narrow = skewed_index.estimate_cost("rare").cost
        broad = skewed_index.estimate_cost("? ?").cost
        assert 0 < narrow < broad


# ----------------------------------------------------------------------
# estimate surface
# ----------------------------------------------------------------------


class TestCostEstimate:
    def test_wire_projection_is_integer_only(self, skewed_index):
        wire = skewed_index.estimate_cost("common rare").to_wire()
        assert isinstance(wire["cost"], int)
        assert set(wire) == {
            "cost", "strategy", "candidates", "scan_candidates", "shards",
        }

    def test_combine_sums_and_reports_mixed_strategies(self):
        a = CostEstimate(
            cost=10.0, strategy="pruned", candidates=2, scan_candidates=5
        )
        b = CostEstimate(
            cost=4.0, strategy="exact", candidates=1, scan_candidates=3
        )
        combined = combine_estimates([a, b, None])
        assert combined.cost == 14.0
        assert combined.strategy == "mixed"
        assert combined.candidates == 3
        assert combined.scan_candidates == 8
        assert combined.shards == 2
        same = combine_estimates([a, a])
        assert same.strategy == "pruned"

    def test_combine_of_nothing_is_unsatisfiable(self):
        assert combine_estimates([]).strategy == "unsatisfiable"

    def test_set_planner_validates_knobs(self, skewed_index):
        with pytest.raises(InvalidParameterError, match="order"):
            skewed_index.set_planner("fastest")
        with pytest.raises(InvalidParameterError, match="strategy"):
            skewed_index.set_planner("cost", "psychic")
        for order in PLAN_ORDERS:
            for strategy in (None, *PLAN_STRATEGIES):
                skewed_index.set_planner(order, strategy)
        skewed_index.set_planner()

    def test_explain_reports_forced_strategy(self, skewed_index):
        try:
            skewed_index.set_planner("cost", "scan")
            plan = skewed_index.explain("common rare")
            assert plan["forced_strategy"] == "scan"
            assert plan["strategy"] == "scan"
        finally:
            skewed_index.set_planner()


# ----------------------------------------------------------------------
# plan cache: LRU promotion + eviction counter
# ----------------------------------------------------------------------


class TestPlanCacheLru:
    def test_hot_plan_survives_cap_churn(self, skewed_index):
        hierarchy = Hierarchy()
        for name in ("a", "b", "c", "d"):
            hierarchy.add_item(name)
        coded, vocab = code_patterns(
            {("a",): 4, ("b",): 3, ("c",): 2, ("d",): 1}, hierarchy
        )
        index = PatternIndex(coded, vocab)
        index._PLAN_CACHE_CAP = 2
        index.search("a")
        index.search("b")
        index.search("a")  # hit → promoted to most-recent
        index.search("c")  # overflow: evicts "b" (LRU), not hot "a"
        stats = index.plan_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        compiles_before = index.plan_stats()["compiles"]
        index.search("a")  # still cached: no recompile
        assert index.plan_stats()["compiles"] == compiles_before
        index.search("b")  # was evicted: recompiled
        assert index.plan_stats()["compiles"] == compiles_before + 1


# ----------------------------------------------------------------------
# shared position space slices
# ----------------------------------------------------------------------


class TestPositionSpaceSlices:
    LENGTHS = [2, 3, 1, 4, 2, 2]

    def test_slice_equals_direct_build_with_global_pad(self):
        space = PositionSpace(self.LENGTHS)
        view = space.slice_fields(1, 3)
        direct = PositionSpace(self.LENGTHS[1:4], pad=space.pad)
        assert view.offsets == direct.offsets
        assert view.valid == direct.valid
        assert view.pad == direct.pad
        assert view.total == direct.total

    def test_slices_partition_the_space(self):
        space = PositionSpace(self.LENGTHS)
        first = space.slice_fields(0, 2)
        rest = space.slice_fields(2, 4)
        assert len(first.offsets) + len(rest.offsets) == len(self.LENGTHS)
        # rebased: every slice starts at its own origin
        assert first.offsets[0] == 0
        assert rest.offsets[0] == 0

    def test_empty_slice(self):
        space = PositionSpace(self.LENGTHS)
        view = space.slice_fields(3, 0)
        assert view.offsets == []
        assert view.valid == 0

    def test_pad_below_max_len_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            PositionSpace([3, 1], pad=2)
