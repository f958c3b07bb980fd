"""Backend-agnostic wildcard search over a set of mined patterns.

:class:`PatternSearchBase` holds everything about *matching* — query
compilation, the regex-style DP matcher, candidate pruning via postings,
hierarchy descendant expansion — and leaves *storage* to subclasses.
Two backends implement it:

* :class:`~repro.query.index.PatternIndex` — everything in memory, built
  directly from a mining result;
* :class:`~repro.serve.store.PatternStore` — a compact on-disk binary
  file, loaded lazily section by section.

Because both run the identical compiled matcher over the identical
candidate sets, their answers are byte-for-byte the same; the tests
assert this on randomized pattern sets.

A subclass provides the storage primitives:

``_vocabulary_instance()``
    The :class:`~repro.hierarchy.vocabulary.Vocabulary` the patterns are
    coded against (may be loaded lazily).
``_num_patterns()``
    Number of stored patterns.
``_pattern_at(idx)``
    ``(coded_pattern, frequency)`` of the pattern at ``idx``.  Index
    order is frequency-descending, ties by coded pattern ascending, so
    ascending indexes enumerate "most frequent first".
``_postings_for(item_id)``
    Ascending indexes of patterns containing the item.
``_positional_postings_for(item_id)``
    Parallel ``(pattern indexes, per-pattern position tuples)``: the
    postings of one item plus the positions it occupies in each pattern.
``_length_groups()``
    Mapping ``pattern length -> ascending indexes``.

Every public read path is expressed over three rank-ordered generators
(:meth:`~PatternSearchBase._iter_ranked`,
:meth:`~PatternSearchBase._iter_search`,
:meth:`~PatternSearchBase._iter_itemwise`), so a composite backend —
:class:`~repro.serve.sharded.ShardedPatternStore` — can answer by k-way
merging the streams of its member stores without re-implementing any of
the matching or ranking logic.

Search itself runs through compiled :class:`~repro.query.plan.QueryPlan`
objects (cached per backend): every backend exposes positional
postings, so chain queries are answered exactly with bitmap algebra
(``exact``), by a postings-bitset mask whose survivors the DP verifies
(``pruned``), or by a length-filtered scan the DP verifies (``scan``);
the plan's cost estimate picks one, and every path returns
byte-identical answers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import InvalidParameterError, UnknownItemError
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.cost import PLAN_ORDERS, PLAN_STRATEGIES, CostEstimate
from repro.query.plan import QueryPlan, iter_bit_indexes
from repro.query.tokens import (
    AnyToken,
    FloorToken,
    GapToken,
    ItemToken,
    NotToken,
    OneOfToken,
    PlusToken,
    QueryToken,
    SpanToken,
    UnderToken,
    normalize_query,
)

Pattern = tuple[int, ...]

#: one compiled query token: ``(kind, payload)``.  ``kind`` is one of
#: ``item``/``under`` (payload: item id), ``any``/``plus``/``span``
#: (payload: -1), ``oneof`` (payload: frozenset of admissible item
#: ids — disjunctions and frequency floors both lower to this form),
#: ``notin`` (payload: frozenset of *excluded* item ids — negations
#: lower to this complement test), or ``gap`` (payload: ``(m, n)``
#: consumption bounds, ``n=None`` unbounded).
CompiledToken = tuple[str, "int | frozenset[int] | tuple"]


def rank_key(record: tuple[Pattern, int]) -> tuple[int, Pattern]:
    """Sort key of the canonical index order for one ``(pattern, freq)``
    record.  Shared by :func:`rank_patterns` and the sharded store's
    k-way merge, so a merged stream interleaves exactly as a single
    backend would have ranked the union."""
    return (-record[1], record[0])


def rank_patterns(patterns) -> list[tuple[Pattern, int]]:
    """The canonical index order every backend stores patterns in: most
    frequent first, ties by coded pattern ascending.  Both
    :class:`~repro.query.index.PatternIndex` and the on-disk store sort
    with this one function — their ranked answers are identical because
    the order is shared, not merely repeated."""
    return sorted(patterns.items(), key=rank_key)


@dataclass(frozen=True)
class QueryMatch:
    """One search hit: the decoded pattern and its mined frequency."""

    pattern: tuple[str, ...]
    frequency: int

    def render(self) -> str:
        return " ".join(self.pattern)

    def __repr__(self) -> str:
        return f"QueryMatch({self.render()!r}, {self.frequency})"


class PatternSearchBase:
    """Shared matching engine over any pattern storage backend."""

    #: compiled query plans retained per backend (plans hold bitmaps in
    #: this backend's pattern-index coordinates, so they cannot be
    #: shared across shards the way the vocabulary-pure caches are)
    _PLAN_CACHE_CAP = 256

    def __init__(self) -> None:
        self._children_map: dict[int, list[int]] | None = None
        self._descendants_cache: dict[int, tuple[int, ...]] = {}
        self._descendants_lock = threading.Lock()
        # vocabulary-pure memos (shared across shards, see
        # ShardedPatternStore._shard): token -> compiled form / id set
        self._compile_cache: dict[QueryToken, CompiledToken] = {}
        self._admissible_cache: dict[QueryToken, frozenset[int]] = {}
        # planner-statistics memo (postings sizes per node id set,
        # length stats, scan counts): per backend, never invalidated —
        # a backend instance is an immutable snapshot of one store
        self._cost_stat_cache: dict[tuple, object] = {}
        # per-backend plan machinery
        self._plan_lock = threading.Lock()
        self._plan_cache: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self._plan_hits = 0
        self._plan_compiles = 0
        self._plan_evictions = 0
        self._plan_paths = {
            "exact": 0,
            "pruned": 0,
            "scan": 0,
            "wildcard": 0,
        }
        # planner knobs: candidate-mask node ordering and a forced
        # execution strategy (None = the cost estimate decides); both
        # are part of the plan-cache key, so flipping them can never
        # serve a plan built under different rules
        self._plan_order = "cost"
        self._plan_strategy: str | None = None
        self._pos_space = None
        # a sharded handle installs a factory here so all its shards
        # slice one shared PositionSpace build; the counter feeds
        # plan_stats() so tests can pin "built exactly once"
        self._space_factory = None
        self._space_builds = 0

    # ------------------------------------------------------------------
    # storage primitives (subclass responsibility)
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        raise NotImplementedError

    def _num_patterns(self) -> int:
        raise NotImplementedError

    def _pattern_at(self, idx: int) -> tuple[Pattern, int]:
        raise NotImplementedError

    def _postings_for(self, item_id: int) -> Sequence[int]:
        raise NotImplementedError

    def _length_groups(self) -> dict[int, Sequence[int]]:
        raise NotImplementedError

    def _positional_postings_for(
        self, item_id: int
    ) -> tuple[Sequence[int], Sequence[tuple[int, ...]]]:
        raise NotImplementedError

    def _postings_size_estimate(self, item_id: int) -> int:
        """Estimated postings-list length for one item — the planner's
        per-node cost statistic.  The default reads the true length
        (O(1) for in-memory backends); on-disk stores override it with
        a byte-range estimate that never decodes a postings list."""
        return len(self._postings_for(item_id))

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary_instance()

    def __len__(self) -> int:
        return self._num_patterns()

    def __iter__(self) -> Iterator[QueryMatch]:
        vocabulary = self.vocabulary
        for pattern, frequency in self._iter_ranked():
            yield QueryMatch(vocabulary.decode_sequence(pattern), frequency)

    def __contains__(self, names: object) -> bool:
        try:
            coded = self.vocabulary.encode_sequence(tuple(names))  # type: ignore[arg-type]
        except UnknownItemError:
            return False
        return self._find_coded(coded) is not None

    def frequency(self, *names: str) -> int:
        """Mined frequency of an exact pattern; 0 when absent."""
        try:
            coded = self.vocabulary.encode_sequence(names)
        except UnknownItemError:
            return 0
        found = self._find_coded(coded)
        return 0 if found is None else found

    def _find_coded(self, coded: Pattern) -> int | None:
        """Frequency of an exactly-stored pattern, ``None`` when absent
        (membership and frequency stay distinct: a stored frequency-0
        pattern is still a member).  Default: exact lookup through the
        postings of the rarest item."""
        if not coded:
            return None
        best: Sequence[int] | None = None
        for item in set(coded):
            postings = self._postings_for(item)
            if best is None or len(postings) < len(best):
                best = postings
        for idx in best or ():
            pattern, freq = self._pattern_at(idx)
            if pattern == coded:
                return freq
        return None

    def top(self, n: int = 10) -> list[QueryMatch]:
        """The ``n`` most frequent patterns in the index."""
        vocabulary = self.vocabulary
        out: list[QueryMatch] = []
        for pattern, frequency in self._iter_ranked():
            if len(out) >= n:
                break
            out.append(
                QueryMatch(vocabulary.decode_sequence(pattern), frequency)
            )
        return out

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self,
        query: str | QueryToken | tuple | list,
        limit: int | None = None,
        min_freq: int | None = None,
    ) -> list[QueryMatch]:
        """All indexed patterns matching the query, most frequent first.

        ``query`` is a string in the wildcard syntax or a sequence of
        :class:`~repro.query.tokens.QueryToken`.  Unknown item names raise
        :class:`~repro.errors.UnknownItemError`.

        ``min_freq`` is the per-query σ override: only patterns whose
        *mined frequency* clears it are returned.  It is orthogonal to
        ``token@N`` floors (those bound an item's corpus frequency) and
        composes with them.  Because results stream in frequency-
        descending rank order, the filter is a prefix cut — iteration
        stops at the first pattern below the floor.
        """
        if min_freq is not None and (
            not isinstance(min_freq, int)
            or isinstance(min_freq, bool)
            or min_freq < 0
        ):
            raise InvalidParameterError(
                f"min_freq must be an integer >= 0 or None, got {min_freq!r}"
            )
        compiled = self._compile(normalize_query(query))
        vocabulary = self.vocabulary
        matches: list[QueryMatch] = []
        for pattern, frequency in self._iter_search(compiled):
            if min_freq is not None and frequency < min_freq:
                break  # rank order: everything after is below σ too
            matches.append(
                QueryMatch(vocabulary.decode_sequence(pattern), frequency)
            )
            if limit is not None and len(matches) >= limit:
                break
        return matches

    def count(self, query, min_freq: int | None = None) -> int:
        """Number of indexed patterns matching the query."""
        return len(self.search(query, min_freq=min_freq))

    def total_frequency(self, query, min_freq: int | None = None) -> int:
        """Sum of frequencies over all matches (n-gram-viewer style mass)."""
        return sum(
            match.frequency for match in self.search(query, min_freq=min_freq)
        )

    def slot_fillers(
        self, query, slot: int
    ) -> list[tuple[str, int]]:
        """Aggregate the items filling one wildcard slot of a fixed-length
        query, with their total frequency (most frequent first).

        Only queries without ``*``/``+`` have an unambiguous alignment, so
        span tokens are rejected.  Typical use: *which items appear after
        "NOUN lives in"?* → ``slot_fillers("NOUN lives in ?", 3)``.
        """
        tokens = normalize_query(query)
        if any(
            isinstance(t, (SpanToken, PlusToken, GapToken)) for t in tokens
        ):
            raise InvalidParameterError(
                "slot_fillers requires a fixed-length query "
                "(no '*'/'+'/'*{m,n}')"
            )
        if not 0 <= slot < len(tokens):
            raise InvalidParameterError(
                f"slot {slot} out of range for a {len(tokens)}-token query"
            )
        fillers: dict[str, int] = {}
        for match in self.search(tokens):
            name = match.pattern[slot]
            fillers[name] = fillers.get(name, 0) + match.frequency
        return sorted(fillers.items(), key=lambda kv: (-kv[1], kv[0]))

    # ------------------------------------------------------------------
    # hierarchy navigation
    # ------------------------------------------------------------------

    def generalizations_of(self, names) -> list[QueryMatch]:
        """Indexed patterns that are itemwise generalizations of ``names``
        (same length, each item an ancestor-or-self), including the pattern
        itself when indexed."""
        vocabulary = self.vocabulary
        coded = vocabulary.encode_sequence(tuple(names))
        return [
            QueryMatch(vocabulary.decode_sequence(pattern), frequency)
            for pattern, frequency in self._iter_itemwise(coded, upward=True)
        ]

    def specializations_of(self, names) -> list[QueryMatch]:
        """Indexed patterns that are itemwise specializations of ``names``
        (same length, each item a descendant-or-self), including the
        pattern itself when indexed."""
        vocabulary = self.vocabulary
        coded = vocabulary.encode_sequence(tuple(names))
        return [
            QueryMatch(vocabulary.decode_sequence(pattern), frequency)
            for pattern, frequency in self._iter_itemwise(coded, upward=False)
        ]

    # ------------------------------------------------------------------
    # rank-ordered streams (composite backends merge these)
    # ------------------------------------------------------------------

    def _iter_ranked(self) -> Iterator[tuple[Pattern, int]]:
        """All ``(pattern, frequency)`` records, most frequent first
        (ties by coded pattern): the backend's native index order."""
        for idx in range(self._num_patterns()):
            yield self._pattern_at(idx)

    def _iter_search(
        self, compiled: list[CompiledToken]
    ) -> Iterator[tuple[Pattern, int]]:
        """Records matching a compiled query, in rank order.  The
        compiled form is id-based, so it is only portable to another
        backend holding an identical vocabulary (shards do).

        Routing, cheapest-estimated first: wildcard-only queries are a
        pure length-range scan (no per-pattern work at all); for chain
        queries the plan's cost estimate picks a strategy —
        ``exact`` (positional bitmap propagation, no DP), ``pruned``
        (AND the cheap chain nodes' postings bitsets, DP-verify
        survivors and retain the verified indexes on the plan) or
        ``scan`` (length-filtered scan + DP, the union-vs-scan fallback
        for unselective chains).  A ``pruned`` plan whose chain admits
        no mask (negations only, or nodes admitting the whole
        vocabulary) runs as ``scan``.  Every path yields ascending
        pattern indexes — the rank order — so the choice of path is
        invisible downstream.
        """
        plan = self._plan_for(compiled)
        if plan.unsatisfiable:
            return
        if not plan.chain:
            self._count_path("wildcard")
            for idx in plan.length_scan_indexes(self):
                yield self._pattern_at(idx)
            return
        strategy = plan.strategy(self)
        if strategy == "exact":
            self._count_path("exact")
            for idx in plan.match_indexes(self):
                yield self._pattern_at(idx)
            return
        if strategy == "pruned" and plan.candidate_mask(self) is not None:
            # few candidates: verify once and retain on the plan —
            # repeats stay as cheap as the exact path's retained
            # match indexes
            self._count_path("pruned")
            for idx in plan.verified_indexes(self, compiled):
                yield self._pattern_at(idx)
            return
        self._count_path("scan")
        yield from self._iter_search_dp(
            compiled, plan.length_scan_indexes(self)
        )

    def _iter_search_dp(
        self, compiled: list[CompiledToken], indexes
    ) -> Iterator[tuple[Pattern, int]]:
        """The verified path: run the DP matcher over the given
        ascending candidate indexes."""
        for idx in indexes:
            pattern, frequency = self._pattern_at(idx)
            if self._matches(compiled, pattern):
                yield pattern, frequency

    def _iter_itemwise(
        self, coded: Pattern, upward: bool
    ) -> Iterator[tuple[Pattern, int]]:
        """Same-length patterns itemwise generalizing (``upward``) or
        specializing ``coded``, in rank order."""
        vocabulary = self.vocabulary
        for idx in self._length_groups().get(len(coded), ()):
            pattern, frequency = self._pattern_at(idx)
            if upward:
                ok = all(
                    vocabulary.generalizes_to(s, p)
                    for s, p in zip(coded, pattern)
                )
            else:
                ok = all(
                    vocabulary.generalizes_to(p, s)
                    for s, p in zip(coded, pattern)
                )
            if ok:
                yield pattern, frequency

    # ------------------------------------------------------------------
    # compiled query plans
    # ------------------------------------------------------------------

    def _plan_for(self, compiled: list[CompiledToken]) -> QueryPlan:
        """The cached :class:`~repro.query.plan.QueryPlan` for a
        compiled query, building (outside the lock) and inserting on
        miss.  LRU eviction at :data:`_PLAN_CACHE_CAP` entries — a hit
        promotes the plan to most-recent, so a hot plan survives cap
        churn (eviction used to be pure FIFO).  The planner knobs are
        part of the key: plans hold masks and strategies built under
        one (order, strategy) setting."""
        key = (self._plan_order, self._plan_strategy, tuple(compiled))
        with self._plan_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_hits += 1
                self._plan_cache.move_to_end(key)
                return plan
        plan = QueryPlan(compiled, self)
        with self._plan_lock:
            existing = self._plan_cache.get(key)
            if existing is not None:
                self._plan_hits += 1
                self._plan_cache.move_to_end(key)
                return existing
            self._plan_compiles += 1
            if len(self._plan_cache) >= self._PLAN_CACHE_CAP:
                self._plan_cache.popitem(last=False)
                self._plan_evictions += 1
            self._plan_cache[key] = plan
        return plan

    def _count_path(self, path: str) -> None:
        with self._plan_lock:
            self._plan_paths[path] += 1

    def set_planner(
        self, order: str = "cost", strategy: str | None = None
    ) -> None:
        """Planner knobs: candidate-mask node ordering (one of
        :data:`~repro.query.cost.PLAN_ORDERS`) and a forced execution
        strategy (one of :data:`~repro.query.cost.PLAN_STRATEGIES`,
        ``None`` = the cost estimate decides).  Every combination
        answers byte-identically — the differential harness forces them
        all; benchmarks use ``("cardinality", "exact")`` as the
        pre-planner reference."""
        if order not in PLAN_ORDERS:
            raise InvalidParameterError(
                f"planner order must be one of {PLAN_ORDERS}, got {order!r}"
            )
        if strategy is not None and strategy not in PLAN_STRATEGIES:
            raise InvalidParameterError(
                f"planner strategy must be one of {PLAN_STRATEGIES} or "
                f"None, got {strategy!r}"
            )
        self._plan_order = order
        self._plan_strategy = strategy

    def estimate_cost(self, query) -> CostEstimate:
        """The cost estimate for a query against this backend — the
        admission-control currency (see :mod:`repro.query.cost`)."""
        compiled = self._compile(normalize_query(query))
        return self._plan_for(compiled).estimate(self)

    def explain(self, query) -> dict:
        """The compiled plan and its cost estimate, for ``lash query
        --explain`` and debugging: chain shape, windows, length bounds,
        the active planner knobs, the strategy that would run, and the
        full per-node estimate."""
        compiled = self._compile(normalize_query(query))
        plan = self._plan_for(compiled)
        estimate = plan.estimate(self)
        return {
            "chain": [
                {"kind": kind, "ids": len(ids)} for kind, ids in plan.chain
            ],
            "windows": [list(window) for window in plan.windows],
            "min_len": plan.min_len,
            "max_len": plan.max_len,
            "unsatisfiable": plan.unsatisfiable,
            "order": self._plan_order,
            "forced_strategy": self._plan_strategy,
            "strategy": (
                plan.strategy(self) if plan.chain else estimate.strategy
            ),
            "estimate": estimate.to_dict(),
        }

    def plan_stats(self) -> dict:
        """Plan-cache and execution-path counters (surfaced by the HTTP
        service's ``/stats``)."""
        with self._plan_lock:
            return {
                "entries": len(self._plan_cache),
                "capacity": self._PLAN_CACHE_CAP,
                "hits": self._plan_hits,
                "compiles": self._plan_compiles,
                "evictions": self._plan_evictions,
                "space_builds": self._space_builds,
                "paths": dict(self._plan_paths),
            }

    def _plan_candidate_indexes(
        self, compiled: list[CompiledToken]
    ) -> list[int] | None:
        """Ascending candidate indexes stage-1 plan pruning admits, or
        ``None`` when the plan constrains nothing (the property tests
        assert this set is a superset of the true matches)."""
        plan = self._plan_for(compiled)
        if plan.unsatisfiable:
            return []
        if not plan.chain:
            return plan.length_scan_indexes(self)
        mask = plan.candidate_mask(self)
        if mask is None:
            return None
        return list(iter_bit_indexes(mask))

    def _pattern_lengths(self) -> list[int]:
        """Length of every stored pattern, indexed by pattern index
        (derived from the length groups — no pattern decoding)."""
        lengths = [0] * self._num_patterns()
        for length, idxs in self._length_groups().items():
            for idx in idxs:
                lengths[idx] = length
        return lengths

    def _position_space(self):
        """The lazily-built positional coordinate system shared by every
        plan over this backend.  A sharded handle installs a
        ``_space_factory`` so its shards slice one shared build instead
        of each paying the full slot loop on first positional query."""
        space = self._pos_space
        if space is None:
            from repro.query.plan import PositionSpace

            with self._plan_lock:
                space = self._pos_space
                if space is None:
                    factory = self._space_factory
                    if factory is not None:
                        space = factory()
                    else:
                        space = PositionSpace(self._pattern_lengths())
                        self._space_builds += 1
                    self._pos_space = space
        return space

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _descendants_or_self(self, item_id: int) -> tuple[int, ...]:
        # lock-free fast path; build-and-insert under the lock so the
        # caches stay consistent across concurrent server threads
        cached = self._descendants_cache.get(item_id)
        if cached is not None:
            return cached
        with self._descendants_lock:
            cached = self._descendants_cache.get(item_id)
            if cached is not None:
                return cached
            if self._children_map is None:
                vocabulary = self.vocabulary
                children: dict[int, list[int]] = {
                    i: [] for i in range(len(vocabulary))
                }
                for child in range(len(vocabulary)):
                    for parent in vocabulary.parent_ids(child):
                        children[parent].append(child)
                self._children_map = children
            seen: set[int] = set()
            stack = [item_id]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(self._children_map[current])
            result = tuple(sorted(seen))
            self._descendants_cache[item_id] = result
            return result

    def _compile(
        self, tokens: tuple[QueryToken, ...]
    ) -> list[CompiledToken]:
        """Resolve item names to ids once, validating the whole query
        upfront.  Compiled form: :data:`CompiledToken` pairs.

        Disjunctions expand to the union of their choices' id sets
        (``^name`` choices pull in the whole subtree) and frequency
        floors intersect the inner token's id set with the items whose
        corpus frequency clears the floor — so by the time matching
        runs, both token kinds are plain ``oneof`` id-set tests.
        Negations expand the *same* id set but compile to ``notin``
        (the complement test), keeping the excluded set small instead
        of materializing near-the-whole-vocabulary admissible sets.
        The id sets derive only from the vocabulary, so the compiled
        query stays portable across shards sharing that vocabulary.
        """
        vocabulary = self.vocabulary
        return [self._compile_token(token, vocabulary) for token in tokens]

    def _admissible_ids(
        self, token: QueryToken, vocabulary: Vocabulary
    ) -> frozenset[int]:
        """Id set an item/``^name``/disjunction token admits.  Memoized
        per token: the result derives only from the vocabulary, so the
        cache is shared across shards and never invalidates."""
        cached = self._admissible_cache.get(token)
        if cached is not None:
            return cached
        if isinstance(token, UnderToken):
            ids = frozenset(
                self._descendants_or_self(vocabulary.id(token.name))
            )
        elif isinstance(token, ItemToken):
            ids = frozenset((vocabulary.id(token.name),))
        else:
            union: set[int] = set()
            for choice in token.choices:
                union.update(self._admissible_ids(choice, vocabulary))
            ids = frozenset(union)
        self._admissible_cache[token] = ids
        return ids

    def _hoist_oneof(self, ids: frozenset[int]) -> CompiledToken:
        """Collapse an admissible id set to a cheaper token when its
        structure allows: a singleton is a plain ``item`` test, and a
        set covering exactly one hierarchy subtree is an ``under`` test
        rooted at its minimum id (ancestors always carry smaller ids
        than their descendants, so the root of any covered subtree must
        be the set's minimum).  Both rewrites give plans a smaller chain
        node; the admitted items are identical by construction."""
        if not ids:
            return ("oneof", ids)
        root = min(ids)
        if len(ids) == 1:
            return ("item", root)
        subtree = self._descendants_or_self(root)
        if len(subtree) == len(ids) and all(item in ids for item in subtree):
            return ("under", root)
        return ("oneof", ids)

    def _compile_token(
        self, token: QueryToken, vocabulary: Vocabulary
    ) -> CompiledToken:
        """Memoized front of :meth:`_compile_token_uncached` (tokens are
        frozen dataclasses; compilation is vocabulary-pure)."""
        cached = self._compile_cache.get(token)
        if cached is not None:
            return cached
        compiled = self._compile_token_uncached(token, vocabulary)
        self._compile_cache[token] = compiled
        return compiled

    def _compile_token_uncached(
        self, token: QueryToken, vocabulary: Vocabulary
    ) -> CompiledToken:
        if isinstance(token, ItemToken):
            return ("item", vocabulary.id(token.name))
        if isinstance(token, UnderToken):
            return ("under", vocabulary.id(token.name))
        if isinstance(token, AnyToken):
            return ("any", -1)
        if isinstance(token, PlusToken):
            return ("plus", -1)
        if isinstance(token, SpanToken):
            return ("span", -1)
        if isinstance(token, GapToken):
            return ("gap", (token.min_items, token.max_items))
        if isinstance(token, NotToken):
            return ("notin", self._admissible_ids(token.inner, vocabulary))
        if isinstance(token, OneOfToken):
            # hierarchy-aware hoisting: [a|b|c] covering exactly the
            # subtree of their common root compiles as if the user had
            # written ^root
            return self._hoist_oneof(self._admissible_ids(token, vocabulary))
        if isinstance(token, FloorToken):
            kind, payload = self._compile_token(token.inner, vocabulary)
            if kind == "item":
                if vocabulary.frequency(payload) >= token.floor:
                    return ("item", payload)
                return ("oneof", frozenset())
            if kind == "under":
                candidates: Sequence[int] = self._descendants_or_self(payload)
            elif kind == "any":
                if token.floor == 0:
                    return ("any", -1)
                candidates = range(len(vocabulary))
            elif kind == "notin":
                # floor over a negation (!a@N): the floor turns the
                # near-whole-vocabulary complement into a concrete
                # id set, which also gives the plan's mask postings to
                # prune on — unlike a bare negation
                if token.floor == 0:
                    return ("notin", payload)
                candidates = [
                    item
                    for item in range(len(vocabulary))
                    if item not in payload
                ]
            else:  # oneof
                candidates = payload
            return self._hoist_oneof(
                frozenset(
                    item
                    for item in candidates
                    if vocabulary.frequency(item) >= token.floor
                )
            )
        raise InvalidParameterError(
            f"unsupported query token {token!r}"
        )  # pragma: no cover - normalize_query guards this

    def _matches(
        self, compiled: list[CompiledToken], pattern: Pattern
    ) -> bool:
        """Regex-style DP over token positions × pattern positions."""
        vocabulary = self.vocabulary
        n_items = len(pattern)
        # reachable[j] = True if a prefix of tokens consumed pattern[:j]
        reachable = [True] + [False] * n_items
        for kind, target in compiled:
            nxt = [False] * (n_items + 1)
            if kind == "span":
                # zero or more: propagate the earliest reachable point right
                running = False
                for j in range(n_items + 1):
                    running = running or reachable[j]
                    nxt[j] = running
            elif kind == "plus":
                running = False
                for j in range(1, n_items + 1):
                    running = running or reachable[j - 1]
                    nxt[j] = running
            elif kind == "gap":
                # nxt[j] iff some reachable[j - d] with m <= d <= n
                lower, upper = target
                for j in range(lower, n_items + 1):
                    first = 0 if upper is None else max(0, j - upper)
                    nxt[j] = any(reachable[first : j - lower + 1])
            else:
                for j in range(n_items):
                    if not reachable[j]:
                        continue
                    item = pattern[j]
                    if kind == "any":
                        nxt[j + 1] = True
                    elif kind == "item":
                        if item == target:
                            nxt[j + 1] = True
                    elif kind == "oneof":
                        if item in target:
                            nxt[j + 1] = True
                    elif kind == "notin":
                        if item not in target:
                            nxt[j + 1] = True
                    else:  # under
                        if vocabulary.generalizes_to(item, target):
                            nxt[j + 1] = True
            reachable = nxt
            if not any(reachable):
                return False
        return reachable[n_items]


__all__ = [
    "PatternSearchBase",
    "QueryMatch",
    "Pattern",
    "CompiledToken",
    "rank_patterns",
    "rank_key",
]
