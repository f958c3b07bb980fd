"""Sharded pattern stores: one logical index over many store files.

A corpus whose postings outgrow one comfortable ``mmap`` is split across
shard files at build time (:func:`~repro.serve.writer.write_sharded_store`):
every pattern lives in the shard selected by a stable hash of its first
item's *name*, and all shards carry the identical shared vocabulary.
:class:`ShardedPatternStore` presents the set as a single
:class:`~repro.query.base.PatternSearchBase` backend:

* each shard opens lazily (O(header) + mmap) the first time a query
  touches it, so ``open()`` on the directory reads only the manifest;
* ranked read paths — search, iteration, top-k, hierarchy navigation —
  k-way merge the shards' rank-ordered streams with a heap keyed by the
  shared :func:`~repro.query.base.rank_key`, so answers are
  byte-identical to a single-file store of the same patterns;
* exact lookups route straight to the owning shard via the same hash
  the writer used — one shard touched, not N.

:func:`open_store` dispatches on the path (directory with manifest →
sharded, file → single) so callers serve either layout transparently.
"""

from __future__ import annotations

import heapq
import threading
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import InvalidParameterError, StoreCorruptError
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import (
    CompiledToken,
    Pattern,
    PatternSearchBase,
    rank_key,
)
from repro.query.cost import CostEstimate, combine_estimates
from repro.query.plan import PositionSpace
from repro.query.tokens import normalize_query
from repro.serve.format import is_sharded_store, read_manifest, shard_of
from repro.serve.store import PatternStore


class ShardedPatternStore(PatternSearchBase):
    """Read a shard-set directory as one pattern search backend.

    Parameters mirror :class:`~repro.serve.store.PatternStore`; the
    cache sizes apply **per shard** (each shard is its own store with
    its own decode caches).  Opening reads only ``manifest.json``;
    shard files are opened on first use, under a lock, and reused.

    Use as a context manager or call :meth:`close` to release all maps.
    """

    def __init__(
        self,
        path: str | Path,
        pattern_cache_size: int = 1 << 16,
        postings_cache_size: int = 1 << 12,
        verify_checksums: bool = True,
        shard_subset: Sequence[int] | None = None,
    ) -> None:
        """``shard_subset`` mounts only the named shard indexes — the
        distributed tier's shard servers each own a slice of one
        manifest.  Ranked reads cover exactly the owned shards; exact
        lookups whose hash routes to an unmounted shard are refused
        (the router, which knows the whole cluster, owns that routing).
        """
        super().__init__()
        self._path = Path(path)
        self._manifest = read_manifest(self._path)
        self._files: list[str] = self._manifest["shard_files"]
        if shard_subset is None:
            self._owned: tuple[int, ...] = tuple(range(len(self._files)))
        else:
            owned = sorted(set(shard_subset))
            if not owned:
                raise InvalidParameterError("shard_subset must not be empty")
            if owned[0] < 0 or owned[-1] >= len(self._files):
                raise InvalidParameterError(
                    f"shard_subset {owned} out of range for "
                    f"{len(self._files)} shards"
                )
            self._owned = tuple(owned)
        self._owned_set = frozenset(self._owned)
        self._subset_counts: tuple[int, int] | None = None
        self._pattern_cache_size = pattern_cache_size
        self._postings_cache_size = postings_cache_size
        self._verify_checksums = verify_checksums
        self._open_lock = threading.Lock()
        self._stores: list[PatternStore | None] = [None] * len(self._files)
        # pin every owned shard's inode now (no reads — decode stays
        # lazy): online compaction may unlink this generation's files
        # while this handle lives, and a shard first touched after that
        # must still find its data
        self._pins: list = [None] * len(self._files)
        try:
            for index in self._owned:
                self._pins[index] = open(
                    self._path / self._files[index], "rb"
                )
        except FileNotFoundError as exc:
            for pin in self._pins:
                if pin is not None:
                    pin.close()
            raise StoreCorruptError(
                f"{self._path}: manifest references missing shard file "
                f"({exc.filename})"
            ) from None
        self._shared_vocab: Vocabulary | None = None
        # one PositionSpace build shared by every shard: the first
        # positional query triggers a single global build, sliced into
        # per-shard views (see _shard_space)
        self._space_lock = threading.Lock()
        self._space_slices: dict[int, PositionSpace] | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def num_shards(self) -> int:
        return len(self._files)

    @property
    def owned_shards(self) -> tuple[int, ...]:
        """Shard indexes this handle mounts (all of them unless opened
        with ``shard_subset``)."""
        return self._owned

    @property
    def generation(self) -> int:
        """Manifest generation this handle serves.  Online compaction
        (:class:`~repro.serve.compact.StoreCompactor`) bumps it on every
        manifest swap; a server compares it against the on-disk manifest
        to decide when to reopen."""
        return self._manifest.get("generation", 0)

    @property
    def ingested_through(self) -> int | None:
        """Freshness watermark: sequence number (exclusive) through which
        ingest deltas have been folded into this generation, or ``None``
        for a store never touched by ``lash ingest``."""
        ingest = self._manifest.get("ingest")
        if isinstance(ingest, dict):
            value = ingest.get("ingested_through")
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        return None

    @property
    def retained_from(self) -> int | None:
        """Retention horizon: first sequence number still contributing
        support (earlier ones were retired), or ``None`` without ingest."""
        ingest = self._manifest.get("ingest")
        if isinstance(ingest, dict):
            value = ingest.get("retained_from")
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        return None

    def _shard(self, index: int) -> PatternStore:
        if index not in self._owned_set:
            raise InvalidParameterError(
                f"shard {index} is not mounted by this handle "
                f"(owned: {list(self._owned)})"
            )
        store = self._stores[index]
        if store is None:
            with self._open_lock:
                store = self._stores[index]
                if store is None:
                    if self._closed:
                        raise ValueError("sharded store is closed")
                    # hand the pin over before constructing: a failed
                    # open (e.g. CRC mismatch) closes the handle, and a
                    # poisoned slot would turn every retry into a
                    # ValueError on a closed file instead of the real
                    # store error.  Retries fall back to a path open.
                    pin = self._pins[index]
                    self._pins[index] = None
                    store = PatternStore(
                        self._path / self._files[index],
                        pattern_cache_size=self._pattern_cache_size,
                        postings_cache_size=self._postings_cache_size,
                        verify_checksums=self._verify_checksums,
                        # one decoded vocabulary serves every shard
                        vocabulary=self._shared_vocab,
                        # the handle pinned at mount time: reads work
                        # even if the path was since unlinked
                        fileobj=pin,
                    )
                    # descendant expansions (^name queries), compiled
                    # tokens, and admissible id sets are pure functions
                    # of the shared vocabulary: let shards reuse each
                    # other's results (plan caches stay per-shard —
                    # their bitmaps live in shard-local coordinates)
                    store._descendants_cache = self._descendants_cache
                    store._descendants_lock = self._descendants_lock
                    store._compile_cache = self._compile_cache
                    store._admissible_cache = self._admissible_cache
                    store._plan_order = self._plan_order
                    store._plan_strategy = self._plan_strategy
                    # shards slice one shared PositionSpace build
                    # instead of each paying the full slot loop
                    store._space_factory = (
                        lambda shard_index=index: self._shard_space(
                            shard_index
                        )
                    )
                    self._stores[index] = store
        return store

    def _shards(self) -> list[PatternStore]:
        return [self._shard(i) for i in self._owned]

    @classmethod
    def open(
        cls, path: str | Path, verify_checksums: bool = True
    ) -> "ShardedPatternStore":
        return cls(path, verify_checksums=verify_checksums)

    def close(self) -> None:
        with self._open_lock:
            self._closed = True
            for store in self._stores:
                if store is not None:
                    store.close()
            self._stores = [None] * len(self._files)
            for pin in self._pins:
                if pin is not None:
                    pin.close()
            self._pins = [None] * len(self._files)

    def __enter__(self) -> "ShardedPatternStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Aggregate metadata plus a per-shard breakdown.

        Opens every shard (each O(header)); the per-shard entries power
        ``lash index info`` and the server's ``/healthz`` / ``/metrics``.
        """
        shards = [store.describe() for store in self._shards()]
        info = {
            "path": str(self._path),
            "shards": len(self._files),
            "generation": self.generation,
            "items": self._manifest["items"],
            "patterns": self._manifest["patterns"],
            "total_frequency": self._manifest["total_frequency"],
            "max_length": max((s["max_length"] for s in shards), default=0),
            "file_bytes": sum(s["file_bytes"] for s in shards),
            "shard_stats": shards,
        }
        if isinstance(self._manifest.get("ingest"), dict):
            info["ingest"] = dict(self._manifest["ingest"])
        if len(self._owned) != len(self._files):
            # a subset mount serves only its slice; report that slice's
            # counts, not the whole manifest's
            info["owned_shards"] = list(self._owned)
            info["patterns"] = sum(s["patterns"] for s in shards)
            info["total_frequency"] = sum(
                s["total_frequency"] for s in shards
            )
        return info

    # ------------------------------------------------------------------
    # storage primitives / rank-ordered streams
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        # every shard stores the identical shared vocabulary: decode it
        # once (from whichever shard opens first) and hand the one copy
        # to shards opened later
        if self._shared_vocab is None:
            vocabulary = self._shard(self._owned[0]).vocabulary
            with self._open_lock:
                if self._shared_vocab is None:
                    self._shared_vocab = vocabulary
                # shards opened before the first vocabulary access (e.g.
                # by describe()) adopt the shared copy too
                for store in self._stores:
                    if store is not None and store._vocab is None:
                        store._vocab = self._shared_vocab
        return self._shared_vocab

    def _num_patterns(self) -> int:
        if len(self._owned) == len(self._files):
            return self._manifest["patterns"]
        if self._subset_counts is None:
            # O(header) per owned shard, computed once: the manifest
            # only knows the whole set's totals
            shards = self._shards()
            self._subset_counts = (
                sum(s._num_patterns() for s in shards),
                sum(s._total_frequency for s in shards),
            )
        return self._subset_counts[0]

    def _iter_ranked(self) -> Iterator[tuple[Pattern, int]]:
        return heapq.merge(
            *(store._iter_ranked() for store in self._shards()), key=rank_key
        )

    def _iter_search(
        self, compiled: list[CompiledToken]
    ) -> Iterator[tuple[Pattern, int]]:
        # the compiled ids and id sets are valid in every shard (shared
        # vocabulary); per-shard streams are rank-ordered, so the heap
        # interleaves them into exactly the order one monolithic store
        # would emit
        return heapq.merge(
            *(store._iter_search(compiled) for store in self._shards()),
            key=rank_key,
        )

    def _iter_itemwise(
        self, coded: Pattern, upward: bool
    ) -> Iterator[tuple[Pattern, int]]:
        return heapq.merge(
            *(store._iter_itemwise(coded, upward) for store in self._shards()),
            key=rank_key,
        )

    def _find_coded(self, coded: Pattern) -> int | None:
        if not coded:
            return None
        # the writer routed this pattern by its first item's name; the
        # same hash finds the one shard that can hold it
        name = self.vocabulary.name(coded[0])
        return self._shard(shard_of(name, len(self._files)))._find_coded(coded)

    def _pattern_at(self, idx: int):  # pragma: no cover - defensive
        raise NotImplementedError(
            "sharded stores have no global pattern numbering; "
            "use the rank-ordered iterators"
        )

    def _postings_for(self, item_id: int):  # pragma: no cover - defensive
        raise NotImplementedError(
            "sharded stores have no global postings; "
            "use the rank-ordered iterators"
        )

    def _length_groups(self):  # pragma: no cover - defensive
        raise NotImplementedError(
            "sharded stores have no global length groups; "
            "use the rank-ordered iterators"
        )

    # ------------------------------------------------------------------
    # query-plan plumbing
    # ------------------------------------------------------------------

    def set_planner(
        self, order: str = "cost", strategy: str | None = None
    ) -> None:
        """Set the planner knobs on this handle and every already-open
        shard (shards opened later inherit them at mount time)."""
        super().set_planner(order, strategy)
        with self._open_lock:
            for store in self._stores:
                if store is not None:
                    store._plan_order = order
                    store._plan_strategy = strategy

    def _shard_space(self, index: int) -> PositionSpace:
        """The shard's slice of one shared :class:`PositionSpace`.

        The per-slot build loop is the expensive part of a cold
        positional query; building it once over the concatenated owned
        shards' lengths and slicing per shard (two big-int shifts each)
        turns a shard-count-fold cold start into a single build.  The
        global pad keeps every slice's window algebra identical to a
        direct per-shard build."""
        with self._space_lock:
            if self._space_slices is None:
                lengths: list[int] = []
                counts: list[tuple[int, int]] = []
                for shard_index in self._owned:
                    shard_lengths = self._shard(
                        shard_index
                    )._pattern_lengths()
                    counts.append((shard_index, len(shard_lengths)))
                    lengths.extend(shard_lengths)
                space = PositionSpace(lengths)
                self._space_builds += 1
                slices: dict[int, PositionSpace] = {}
                first = 0
                for shard_index, n_fields in counts:
                    slices[shard_index] = space.slice_fields(
                        first, n_fields
                    )
                    first += n_fields
                self._space_slices = slices
            return self._space_slices[index]

    def estimate_cost(self, query) -> CostEstimate:
        """Handle-level cost estimate: the per-shard estimates summed
        (shards partition the patterns, so their work adds)."""
        compiled = self._compile(normalize_query(query))
        return combine_estimates(
            shard._plan_for(compiled).estimate(shard)
            for shard in self._shards()
        )

    def explain(self, query) -> dict:
        """Plan shape from the first owned shard (chains are
        vocabulary-pure, hence identical across shards) with the
        handle-level combined estimate."""
        combined = self.estimate_cost(query)
        info = self._shard(self._owned[0]).explain(query)
        info["estimate"] = combined.to_dict()
        info["strategy"] = combined.strategy
        return info

    def plan_stats(self) -> dict:
        """Aggregate plan-cache counters over the currently-open shards
        (closed slots are skipped — this is a metrics read, not a reason
        to fault shards in).  ``space_builds`` counts the handle's own
        shared builds plus any per-shard builds — exactly 1 after a
        positional query, however many shards are mounted."""
        totals = {
            "entries": 0,
            "capacity": 0,
            "hits": 0,
            "compiles": 0,
            "evictions": 0,
            "space_builds": self._space_builds,
            "paths": {
                "exact": 0,
                "pruned": 0,
                "scan": 0,
                "wildcard": 0,
            },
        }
        with self._open_lock:
            open_stores = [s for s in self._stores if s is not None]
        for store in open_stores:
            stats = store.plan_stats()
            totals["entries"] += stats["entries"]
            totals["capacity"] += stats["capacity"]
            totals["hits"] += stats["hits"]
            totals["compiles"] += stats["compiles"]
            totals["evictions"] += stats["evictions"]
            totals["space_builds"] += stats["space_builds"]
            for path, count in stats["paths"].items():
                totals["paths"][path] += count
        return totals


def open_store(
    path: str | Path,
    pattern_cache_size: int = 1 << 16,
    postings_cache_size: int = 1 << 12,
    verify_checksums: bool = True,
) -> PatternStore | ShardedPatternStore:
    """Open a store path of either layout.

    A directory containing a shard manifest opens as a
    :class:`ShardedPatternStore`; anything else as a single-file
    :class:`~repro.serve.store.PatternStore`.  Serving code calls this
    and never needs to know which it got.
    """
    cls = ShardedPatternStore if is_sharded_store(path) else PatternStore
    return cls(
        path,
        pattern_cache_size=pattern_cache_size,
        postings_cache_size=postings_cache_size,
        verify_checksums=verify_checksums,
    )


__all__ = ["ShardedPatternStore", "open_store"]
