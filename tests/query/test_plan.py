"""Unit tests for the compiled-query-plan engine (:mod:`repro.query.plan`).

The differential harness proves the compiled engine agrees with the
naive oracle end to end; this file pins down the pieces — the position
bitmap geometry, window shift algebra, plan structure, per-backend plan
cache, hierarchy-aware disjunction hoisting, and the version-2-only
store contract.
"""

from __future__ import annotations

import pytest

from repro import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.query.plan import PositionSpace, QueryPlan, iter_bit_indexes
from repro.query.tokens import normalize_query
from repro.errors import EncodingError
from repro.serve import open_store, write_sharded_store, write_store
from repro.serve.format import HEADER_STRUCT, MAGIC
from tests.property.oracle import oracle_search


@pytest.fixture(scope="module")
def small_index() -> PatternIndex:
    """Five patterns over {a, c, B > {b1, b2}} (see test_oneof_floor)."""
    hierarchy = Hierarchy()
    for root in ("a", "B", "c"):
        hierarchy.add_item(root)
    for child in ("b1", "b2"):
        hierarchy.add_edge(child, "B")
    patterns = {
        ("a", "b1"): 5,
        ("a", "b2"): 3,
        ("a", "c"): 2,
        ("B",): 7,
        ("b1",): 4,
    }
    return PatternIndex(*code_patterns(patterns, hierarchy))


def _compiled(backend, query):
    return backend._compile(normalize_query(query))


def _answers(backend, query, **kwargs):
    return [
        (m.render(), m.frequency) for m in backend.search(query, **kwargs)
    ]


# ----------------------------------------------------------------------
# bitmap primitives
# ----------------------------------------------------------------------


class TestIterBitIndexes:
    def test_empty(self):
        assert list(iter_bit_indexes(0)) == []

    def test_ascending(self):
        assert list(iter_bit_indexes(0b101001)) == [0, 3, 5]

    def test_large_indexes(self):
        mask = (1 << 500) | (1 << 9000) | 1
        assert list(iter_bit_indexes(mask)) == [0, 500, 9000]


class TestPositionSpace:
    def test_geometry(self):
        space = PositionSpace([2, 3, 1])
        # pad equals the max length; fields are length + pad apart
        assert space.max_len == 3
        assert space.pad == 3
        assert space.offsets == [0, 5, 11]
        # valid marks exactly the in-field slots
        expected_valid = 0
        for base, length in zip(space.offsets, [2, 3, 1]):
            for slot in range(base, base + length):
                expected_valid |= 1 << slot
        assert space.valid == expected_valid
        assert list(iter_bit_indexes(space.starts)) == [0, 5, 11]
        assert list(iter_bit_indexes(space.ends)) == [1, 7, 11]

    def test_shift_window_up_exact(self):
        space = PositionSpace([3])
        # from position 0, advancing exactly 2 lands on position 2
        assert space.shift_window_up(1 << 0, (2, 2)) == 1 << 2

    def test_shift_window_up_range_and_unbounded(self):
        space = PositionSpace([4])
        bits = 1 << 0
        assert space.shift_window_up(bits, (1, 2)) == (1 << 1) | (1 << 2)
        assert space.shift_window_up(bits, (0, None)) == 0b1111

    def test_shift_clamps_overlong_distances(self):
        space = PositionSpace([3])
        # no field can hold two slots 5 apart: lower bound beyond the
        # longest pattern admits nothing
        assert space.shift_window_up(1 << 0, (5, None)) == 0

    def test_shifts_never_cross_fields(self):
        space = PositionSpace([2, 2])
        last_of_first = 1 << 1
        # even an unbounded window stays inside the first field
        reached = space.shift_window_up(last_of_first, (0, None))
        assert reached == last_of_first
        first_of_second = 1 << space.offsets[1]
        down = space.shift_window_down(first_of_second, (0, None))
        assert down == first_of_second

    def test_shift_window_down_mirrors_up(self):
        space = PositionSpace([4])
        bits = 1 << 3
        assert space.shift_window_down(bits, (1, 2)) == (1 << 1) | (1 << 2)

    def test_field_indexes_deduplicates(self):
        space = PositionSpace([2, 3])
        bits = (1 << 0) | (1 << 1) | (1 << space.offsets[1])
        assert space.field_indexes(bits) == [0, 1]


# ----------------------------------------------------------------------
# plan structure
# ----------------------------------------------------------------------


class TestQueryPlanStructure:
    def test_chain_and_windows(self, small_index):
        plan = QueryPlan(_compiled(small_index, "a * b1"), small_index)
        assert [kind for kind, _ in plan.chain] == ["in", "in"]
        # prefix window, the span between the items, tail window
        assert plan.windows == [(0, 0), (0, None), (0, 0)]
        assert plan.min_len == 2
        assert plan.max_len is None

    def test_wildcards_fold_into_windows(self, small_index):
        plan = QueryPlan(_compiled(small_index, "? *{1,2} a +"), small_index)
        assert [kind for kind, _ in plan.chain] == ["in"]
        assert plan.windows == [(2, 3), (1, None)]
        assert plan.min_len == 4

    def test_negation_is_a_chain_node(self, small_index):
        plan = QueryPlan(_compiled(small_index, "!c"), small_index)
        assert [kind for kind, _ in plan.chain] == ["notin"]
        assert plan.min_len == 1
        assert plan.max_len == 1

    def test_empty_chain_is_pure_length_test(self, small_index):
        plan = QueryPlan(_compiled(small_index, "? ?"), small_index)
        assert plan.chain == []
        assert (plan.min_len, plan.max_len) == (2, 2)
        # exactly the two-item patterns, in rank order: a b1 (5),
        # a b2 (3), a c (2) — the one-item B (7) and b1 (4) are skipped
        assert plan.length_scan_indexes(small_index) == [1, 3, 4]

    def test_unsatisfiable_floor(self, small_index):
        plan = QueryPlan(_compiled(small_index, "(a|c)@1000"), small_index)
        assert plan.unsatisfiable

    def test_candidate_mask_none_when_unrestricted(self, small_index):
        # all-negative query: no positive postings to intersect
        plan = QueryPlan(_compiled(small_index, "!c"), small_index)
        assert plan.candidate_mask(small_index) is None

    def test_candidate_mask_intersects_postings(self, small_index):
        plan = QueryPlan(_compiled(small_index, "a b1"), small_index)
        mask = plan.candidate_mask(small_index)
        admitted = set(iter_bit_indexes(mask))
        # patterns containing BOTH a and b1: only 'a b1' (idx by rank)
        expected = {
            idx
            for idx in range(small_index._num_patterns())
            if {small_index.vocabulary.id("a"), small_index.vocabulary.id("b1")}
            <= set(small_index._pattern_at(idx)[0])
        }
        assert admitted == expected


# ----------------------------------------------------------------------
# plan cache + stats
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_hits_and_compiles(self, small_index):
        before = small_index.plan_stats()
        small_index.search("a ? *{0,1}")
        mid = small_index.plan_stats()
        assert mid["compiles"] >= before["compiles"] + 1
        small_index.search("a ? *{0,1}")
        after = small_index.plan_stats()
        assert after["hits"] >= mid["hits"] + 1
        assert after["compiles"] == mid["compiles"]

    def test_eviction_cap(self):
        hierarchy = Hierarchy()
        hierarchy.add_item("a")
        index = PatternIndex(*code_patterns({("a",): 1}, hierarchy))
        for floor in range(index._PLAN_CACHE_CAP + 10):
            index.search(f"a@{floor}")
        assert index.plan_stats()["entries"] <= index._PLAN_CACHE_CAP

    def test_paths_counters(self, small_index):
        base = small_index.plan_stats()["paths"]
        small_index.search("a ?")  # positional backend: exact
        small_index.search("? ?")  # no chain: wildcard scan
        paths = small_index.plan_stats()["paths"]
        assert paths["exact"] == base["exact"] + 1
        assert paths["wildcard"] == base["wildcard"] + 1


# ----------------------------------------------------------------------
# hierarchy-aware disjunction hoisting
# ----------------------------------------------------------------------


class TestDisjunctionHoisting:
    def test_subtree_disjunction_becomes_under(self, small_index):
        vocab = small_index.vocabulary
        (token,) = _compiled(small_index, "(B|b1|b2)")
        assert token == ("under", vocab.id("B"))

    def test_partial_subtree_stays_oneof(self, small_index):
        (token,) = _compiled(small_index, "(b1|b2)")
        # B itself is missing: not a full subtree
        assert token[0] == "oneof"

    def test_singleton_disjunction_becomes_item(self, small_index):
        vocab = small_index.vocabulary
        (token,) = _compiled(small_index, "(c|c)")
        assert token == ("item", vocab.id("c"))

    def test_hoisted_answers_match_subtree_query(self, small_index):
        assert _answers(small_index, "(B|b1|b2)") == _answers(
            small_index, "^B"
        )

    def test_floor_filtered_set_hoists_too(self, small_index):
        # every member of B's subtree clears floor 0: same as ^B
        assert _compiled(small_index, "(B|b1|b2)@0") == _compiled(
            small_index, "^B"
        )


# ----------------------------------------------------------------------
# compiled plans vs the naive oracle on every path
# ----------------------------------------------------------------------

QUERIES = (
    "a ?",
    "a * b1",
    "a *{0,1} ?",
    "? ?",
    "*",
    "!c",
    "!a ? *",
    "^B",
    "a !^B",
    "(b1|c)",
    "a +",
    "+ b1",
    "*{1,} b1",
    "?@4 ?",
)


def _oracle_answers(index, query):
    """The naive oracle's ranked answer, in :func:`_answers` form."""
    return [
        (" ".join(pattern), frequency)
        for pattern, frequency in oracle_search(
            index._frequencies, index.vocabulary, normalize_query(query)
        )
    ]


class TestAcceleratedEqualsReference:
    @pytest.mark.parametrize("query", QUERIES)
    def test_index_paths_agree(self, small_index, query):
        assert _answers(small_index, query) == _oracle_answers(
            small_index, query
        )

    def test_sharded_store_agrees_with_oracle(self, small_index, tmp_path):
        path = tmp_path / "oracle.shards"
        write_sharded_store(
            path, small_index._frequencies, small_index.vocabulary, shards=2
        )
        with open_store(path) as store:
            for query in QUERIES:
                assert _answers(store, query) == _oracle_answers(
                    small_index, query
                ), query
            # the sharded handle aggregates its shards' counters
            assert store.plan_stats()["paths"]["exact"] > 0

    def test_forced_pruned_without_mask_runs_as_scan(self, small_index):
        # an all-negative chain builds no candidate mask, so a forced
        # "pruned" plan runs the length scan + DP instead
        small_index.set_planner("cost", "pruned")
        try:
            before = small_index.plan_stats()["paths"]
            got = _answers(small_index, "!a ?")
            after = small_index.plan_stats()["paths"]
        finally:
            small_index.set_planner()
        assert got == _oracle_answers(small_index, "!a ?")
        assert after["scan"] == before["scan"] + 1
        assert after["pruned"] == before["pruned"]


# ----------------------------------------------------------------------
# one store format: version 2 only
# ----------------------------------------------------------------------


class TestStoreVersion:
    @pytest.mark.parametrize("version", [1, 99])
    def test_other_versions_rejected(self, small_index, tmp_path, version):
        path = tmp_path / f"v{version}.store"
        write_store(path, small_index._frequencies, small_index.vocabulary)
        data = bytearray(path.read_bytes())
        HEADER_STRUCT.pack_into(
            data,
            len(MAGIC),
            version,
            *HEADER_STRUCT.unpack_from(data, len(MAGIC))[1:],
        )
        path.write_bytes(bytes(data))
        with pytest.raises(EncodingError) as excinfo:
            open_store(path)
        message = str(excinfo.value)
        assert f"version {version}" in message
        assert "lash index build" in message

    def test_no_legacy_surface(self, small_index, tmp_path):
        path = tmp_path / "surface.store"
        write_store(path, small_index._frequencies, small_index.vocabulary)
        sharded_path = tmp_path / "surface.shards"
        write_sharded_store(
            sharded_path,
            small_index._frequencies,
            small_index.vocabulary,
            shards=2,
        )
        with open_store(path) as single, open_store(sharded_path) as sharded:
            for backend in (small_index, single, sharded):
                backend.search("a ?")
                assert "legacy" not in backend.plan_stats()["paths"]
            assert "positional" not in single.describe()
            assert all(
                "positional" not in shard
                for shard in sharded.describe()["shard_stats"]
            )
