"""PatternStore: binary round-trip and equivalence with PatternIndex."""

import random

import pytest

from repro.core import Lash, MiningParams
from repro.errors import EncodingError, StoreCorruptError
from repro.hierarchy import Hierarchy
from repro.query import PatternIndex, code_patterns
from repro.serve import PatternStore, write_store
from repro.serve.store import HEADER_SIZE


@pytest.fixture
def fig1_result(fig1_database, fig1_hierarchy):
    return Lash(MiningParams(sigma=2, gamma=1, lam=3)).mine(
        fig1_database, fig1_hierarchy
    )


@pytest.fixture
def fig1_store(fig1_result, tmp_path):
    path = tmp_path / "fig1.store"
    with PatternStore.build(
        path, fig1_result.patterns, fig1_result.vocabulary
    ) as store:
        yield store


FIG1_QUERIES = [
    "a ?", "^B ?", "? ? ?", "*", "+", "a * c", "^D", "a", "? a",
    "^B + *", "a + a",
]


class TestRoundTrip:
    def test_header_metadata(self, fig1_result, fig1_store):
        info = fig1_store.describe()
        assert info["patterns"] == len(fig1_result)
        assert info["items"] == len(fig1_result.vocabulary)
        assert info["total_frequency"] == sum(
            fig1_result.patterns.values()
        )
        assert info["max_length"] == max(
            len(p) for p in fig1_result.patterns
        )
        assert info["file_bytes"] > HEADER_SIZE

    @pytest.mark.parametrize("query", FIG1_QUERIES)
    def test_search_identical_to_index(self, fig1_result, fig1_store, query):
        index = PatternIndex.from_result(fig1_result)
        assert fig1_store.search(query) == index.search(query)
        assert fig1_store.count(query) == index.count(query)
        assert fig1_store.total_frequency(query) == index.total_frequency(
            query
        )

    def test_iteration_and_top(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        assert list(fig1_store) == list(index)
        assert fig1_store.top(5) == index.top(5)
        assert len(fig1_store) == len(index)

    def test_exact_frequency(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        for names in [("a", "B"), ("a",), ("a", "B", "c"), ("e", "f")]:
            assert fig1_store.frequency(*names) == index.frequency(*names)
        assert ("a", "B") in fig1_store
        assert ("zzz",) not in fig1_store

    def test_hierarchy_navigation(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        assert fig1_store.generalizations_of(
            ("a", "b1")
        ) == index.generalizations_of(("a", "b1"))
        assert fig1_store.specializations_of(
            ("a", "B")
        ) == index.specializations_of(("a", "B"))

    def test_slot_fillers(self, fig1_result, fig1_store):
        index = PatternIndex.from_result(fig1_result)
        assert fig1_store.slot_fillers("a ?", 1) == index.slot_fillers(
            "a ?", 1
        )

    def test_vocabulary_roundtrip(self, fig1_result, fig1_store):
        original = fig1_result.vocabulary
        loaded = fig1_store.vocabulary
        assert len(loaded) == len(original)
        for item_id in range(len(original)):
            assert loaded.name(item_id) == original.name(item_id)
            assert loaded.frequency(item_id) == original.frequency(item_id)
            assert loaded.parent_ids(item_id) == original.parent_ids(item_id)
            assert loaded.ancestors_or_self(
                item_id
            ) == original.ancestors_or_self(item_id)

    def test_to_store_hook(self, fig1_result, tmp_path):
        path = tmp_path / "hook.store"
        fig1_result.to_store(path)
        with PatternStore.open(path) as store:
            assert len(store) == len(fig1_result)
            assert store.frequency("a", "B") == fig1_result.frequency(
                "a", "B"
            )


def test_empty_pattern_rejected(fig1_result, tmp_path):
    with pytest.raises(EncodingError, match="empty pattern"):
        write_store(
            tmp_path / "bad.store", {(): 5}, fig1_result.vocabulary
        )


def test_rebuild_does_not_disturb_open_store(fig1_result, tmp_path):
    """Rebuilding in place must not truncate a live reader's mmap."""
    path = tmp_path / "live.store"
    write_store(path, fig1_result.patterns, fig1_result.vocabulary)
    with PatternStore.open(path) as live:
        before = live.search("a ?")
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        assert live.search("^B ?")  # old mapping still fully readable
        assert live.search("a ?") == before
    with PatternStore.open(path) as rebuilt:
        assert rebuilt.search("a ?") == before
    assert not path.with_name(path.name + ".tmp").exists()


def test_decode_caches_are_bounded(fig1_result, tmp_path):
    path = tmp_path / "capped.store"
    write_store(path, fig1_result.patterns, fig1_result.vocabulary)
    index = PatternIndex.from_result(fig1_result)
    with PatternStore(
        path, pattern_cache_size=3, postings_cache_size=2
    ) as store:
        # broad scans stay correct while the caches respect their caps
        assert store.search("*") == index.search("*")
        assert store.search("^B ?") == index.search("^B ?")
        assert len(store._pattern_cache) <= 3
        assert len(store._postings_cache) <= 2


def test_frequency_zero_pattern_is_still_a_member(tmp_path):
    """Membership means 'stored', not 'frequency > 0' — on both backends."""
    coded, vocabulary = code_patterns({("a",): 0, ("a", "b"): 2})
    index = PatternIndex(coded, vocabulary)
    path = tmp_path / "zero.store"
    with PatternStore.build(path, coded, vocabulary) as store:
        for backend in (index, store):
            assert ("a",) in backend
            assert backend.frequency("a") == 0
            assert ("b",) not in backend


class TestLaziness:
    def test_open_reads_header_only(self, fig1_store):
        assert fig1_store._vocab is None
        assert fig1_store._by_length is None
        assert fig1_store._pattern_cache == {}
        fig1_store.describe()  # header-only metadata stays lazy
        assert fig1_store._vocab is None

    def test_sections_load_on_demand(self, fig1_store):
        fig1_store.search("a ?")
        assert fig1_store._vocab is not None
        assert fig1_store._pattern_cache  # decoded only touched records


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"NOTASTORExxxxxxxxxxxxxxxxxxxx" * 10)
        with pytest.raises(EncodingError, match="bad magic"):
            PatternStore.open(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.store"
        path.write_bytes(b"RPROPST1")
        with pytest.raises(EncodingError, match="bad magic|truncated"):
            PatternStore.open(path)

    def test_truncated_body(self, fig1_result, tmp_path):
        path = tmp_path / "trunc.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(StoreCorruptError, match="truncated"):
            PatternStore.open(path)


class TestChecksums:
    def _flip_byte(self, path, offset_from_header: int) -> None:
        data = bytearray(path.read_bytes())
        index = HEADER_SIZE + offset_from_header
        data[index] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_bit_rot_detected_on_open(self, fig1_result, tmp_path):
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        self._flip_byte(path, 3)  # somewhere in the vocabulary section
        with pytest.raises(StoreCorruptError, match="checksum mismatch"):
            PatternStore.open(path)

    def test_mismatch_names_the_section(self, fig1_result, tmp_path):
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        self._flip_byte(path, 0)
        with pytest.raises(StoreCorruptError, match="vocabulary section"):
            PatternStore.open(path)

    def test_verification_skippable(self, fig1_result, tmp_path):
        """`verify_checksums=False` restores O(header) open even on a
        damaged file; decode errors then surface lazily (or not at all
        for untouched sections)."""
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        self._flip_byte(path, 0)
        store = PatternStore.open(path, verify_checksums=False)
        store.close()

    def test_lookups_surface_vocabulary_corruption(
        self, fig1_result, tmp_path
    ):
        """A damaged vocabulary section opened without verification must
        fail ``frequency`` and ``in`` loudly, exactly like ``search`` —
        not pass for an absent pattern."""
        path = tmp_path / "rot.store"
        write_store(path, fig1_result.patterns, fig1_result.vocabulary)
        data = bytearray(path.read_bytes())
        # ten continuation bytes: the first name-length varint overflows
        data[HEADER_SIZE:HEADER_SIZE + 10] = b"\xff" * 10
        path.write_bytes(bytes(data))
        with PatternStore.open(path, verify_checksums=False) as store:
            with pytest.raises(EncodingError):
                store.search("a")
            with pytest.raises(EncodingError):
                store.frequency("a", "B")
            with pytest.raises(EncodingError):
                ("a", "B") in store

    def test_unchecksummed_store_opens_without_validation(
        self, fig1_result, tmp_path
    ):
        path = tmp_path / "plain.store"
        write_store(
            path,
            fig1_result.patterns,
            fig1_result.vocabulary,
            checksums=False,
        )
        with PatternStore.open(path) as store:
            assert store.describe()["checksums"] is False
            index = PatternIndex.from_result(fig1_result)
            assert store.search("a ?") == index.search("a ?")

    def test_checksums_add_exactly_one_trailer(self, fig1_result, tmp_path):
        plain = tmp_path / "plain.store"
        summed = tmp_path / "summed.store"
        write_store(
            plain,
            fig1_result.patterns,
            fig1_result.vocabulary,
            checksums=False,
        )
        write_store(summed, fig1_result.patterns, fig1_result.vocabulary)
        # same sections, plus 6 × u32 checksums and the flags bit
        assert (
            summed.stat().st_size == plain.stat().st_size + 24
        )
        with PatternStore.open(summed) as store:
            assert store.describe()["checksums"] is True


def _random_setup(rng: random.Random):
    """A random DAG hierarchy plus random decoded patterns over it."""
    hierarchy = Hierarchy()
    roots = [f"R{i}" for i in range(rng.randint(2, 4))]
    for root in roots:
        hierarchy.add_item(root)
    mids = [f"m{i}" for i in range(rng.randint(3, 6))]
    for mid in mids:
        hierarchy.add_edge(mid, rng.choice(roots))
        if rng.random() < 0.3:  # occasional DAG node
            other = rng.choice(roots)
            if other not in hierarchy.parents(mid):
                hierarchy.add_edge(mid, other)
    leaves = [f"l{i}" for i in range(rng.randint(4, 10))]
    for leaf in leaves:
        hierarchy.add_edge(leaf, rng.choice(mids))
    items = roots + mids + leaves + ["loner"]  # item outside the forest
    patterns = {}
    for _ in range(rng.randint(10, 60)):
        length = rng.randint(1, 4)
        pattern = tuple(rng.choice(items) for _ in range(length))
        patterns[pattern] = rng.randint(1, 100)
    return hierarchy, patterns, items


def _random_queries(rng: random.Random, items, n=25):
    queries = []
    for _ in range(n):
        length = rng.randint(1, 4)
        tokens = []
        for _ in range(length):
            kind = rng.random()
            if kind < 0.4:
                tokens.append(rng.choice(items))
            elif kind < 0.6:
                tokens.append("^" + rng.choice(items))
            else:
                tokens.append(rng.choice(["?", "+", "*"]))
        queries.append(" ".join(tokens))
    return queries


@pytest.mark.parametrize("seed", range(8))
def test_randomized_store_matches_index(tmp_path, seed):
    """The store answers every query exactly like the in-memory index."""
    rng = random.Random(seed)
    hierarchy, patterns, items = _random_setup(rng)
    coded, vocabulary = code_patterns(patterns, hierarchy)
    index = PatternIndex(coded, vocabulary)
    path = tmp_path / f"rand{seed}.store"
    with PatternStore.build(path, coded, vocabulary) as store:
        assert len(store) == len(index)
        assert list(store) == list(index)
        for query in _random_queries(rng, items):
            assert store.search(query) == index.search(query), query
            assert store.search(query, limit=3) == index.search(
                query, limit=3
            ), query
        for pattern in list(patterns)[:10]:
            assert store.frequency(*pattern) == index.frequency(*pattern)
        for pattern in list(patterns)[:5]:
            assert store.generalizations_of(
                pattern
            ) == index.generalizations_of(pattern)
            assert store.specializations_of(
                pattern
            ) == index.specializations_of(pattern)
