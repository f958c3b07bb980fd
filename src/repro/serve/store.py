"""The pattern store reader: a memory-mapped binary index of mined patterns.

``lash mine`` is the expensive, run-once half of the paper's exploration
story; this module is the cheap, run-many half.  A store file is built
once (:mod:`repro.serve.writer`) from a mining result or a patterns TSV
and then serves wildcard queries directly from disk: opening it reads
only a fixed-size header, the file is memory-mapped, and every section —
vocabulary, pattern records, postings — is decoded lazily on first use.
A server process is answering its first query microseconds after
``open()`` instead of re-deriving a vocabulary and inverted index from
text.

The byte layout lives in :mod:`repro.serve.format`; patterns are stored
most-frequent-first (ties by coded pattern), the exact order
:class:`~repro.query.index.PatternIndex` uses, so the two backends
return identical ranked results.  The fixed-width offset tables give
O(1) random access into the varint sections — the store never has to
decode records it does not touch.  For stores written with per-section
checksums, ``open()`` verifies every section's CRC-32 and raises
:class:`~repro.errors.StoreCorruptError` on a mismatch (skippable with
``verify_checksums=False`` when O(header) startup matters more than
bit-rot detection).
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import EncodingError, StoreCorruptError
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import Pattern, PatternSearchBase
from repro.io.codec import (
    read_positional_postings,
    read_sequence,
    read_uvarint,
    section_checksum,
    zigzag_decode,
)
from repro.serve.format import (
    CHECKSUMS_STRUCT,
    FLAG_CHECKSUMS,
    FLAG_DELTA,
    HEADER_SIZE,
    HEADER_STRUCT,
    MAGIC,
    SECTION_NAMES,
    SECTIONS_STRUCT,
    U64,
    VERSION,
)
from repro.serve.writer import write_store


class PatternStore(PatternSearchBase):
    """Lazily loaded, memory-mapped pattern store.

    Opening is O(header) plus, for checksummed files, one CRC-32 sweep
    (disable with ``verify_checksums=False``): the constructor validates
    the magic, reads the section table and maps the file.  The
    vocabulary, pattern records, postings lists and length groups are
    each decoded on first access and cached, so a process that only ever
    runs selective queries never pays for the sections those queries
    skip.

    Thread-safe for concurrent reads (the HTTP server runs one thread
    per request): one-time section builds (vocabulary, length groups)
    are lock-guarded; per-record decodes are lock-free pure reads of
    the immutable map with locked cache inserts, so cold-cache misses
    proceed in parallel.

    Decoded records are memoized up to ``pattern_cache_size`` patterns
    and ``postings_cache_size`` postings lists; past the caps, decodes
    still answer but are not retained, so a single broad scan cannot
    pin the whole decoded store in memory.

    Use as a context manager or call :meth:`close` to release the map.
    """

    def __init__(
        self,
        path: str | Path,
        pattern_cache_size: int = 1 << 16,
        postings_cache_size: int = 1 << 12,
        verify_checksums: bool = True,
        vocabulary: Vocabulary | None = None,
        fileobj=None,
    ) -> None:
        """``vocabulary`` pre-supplies the decoded vocabulary, skipping
        the vocab-section decode entirely.  The caller asserts it equals
        the file's own section — the sharded store passes the one copy
        all its shards share instead of letting each shard re-decode the
        identical bytes.

        ``fileobj`` supplies an already-open binary handle for ``path``
        (ownership transfers; it is closed with the store).  The sharded
        store opens one per shard at mount time, so a shard file
        unlinked later — e.g. a generation retired by online compaction
        — can still be lazily mapped through the pinned inode."""
        super().__init__()
        self._pattern_cache_size = pattern_cache_size
        self._postings_cache_size = postings_cache_size
        self._path = Path(path)
        self._file = open(self._path, "rb") if fileobj is None else fileobj
        try:
            head = self._file.read(HEADER_SIZE)
            if len(head) < HEADER_SIZE or not head.startswith(MAGIC):
                raise EncodingError(
                    f"{self._path}: not a pattern store (bad magic)"
                )
            (
                self._version,
                self._flags,
                self._n_items,
                self._n_patterns,
                self._total_frequency,
                self._max_length,
            ) = HEADER_STRUCT.unpack_from(head, len(MAGIC))
            if self._version != VERSION:
                raise EncodingError(
                    f"{self._path}: unsupported store version "
                    f"{self._version} (this build reads version "
                    f"{VERSION} only); rebuild the store with "
                    "`lash index build` or `lash mine --store`"
                )
            (
                self._off_vocab,
                self._off_lengths,
                self._off_pat_offsets,
                self._off_patterns,
                self._off_post_offsets,
                self._off_postings,
                self._off_end,
            ) = SECTIONS_STRUCT.unpack_from(head, len(MAGIC) + HEADER_STRUCT.size)
            self._checksummed = bool(self._flags & FLAG_CHECKSUMS)
            # a signed delta store (spool-only): every frequency is
            # zigzag-coded and decrements come out negative
            self._delta = bool(self._flags & FLAG_DELTA)
            if self._delta:
                self._total_frequency = zigzag_decode(self._total_frequency)
            expected_size = self._off_end + (
                CHECKSUMS_STRUCT.size if self._checksummed else 0
            )
            if expected_size != os.fstat(self._file.fileno()).st_size:
                raise StoreCorruptError(
                    f"{self._path}: truncated pattern store"
                )
            self._data = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
            if self._checksummed and verify_checksums:
                self._verify_checksums()
        except Exception:
            self._file.close()
            raise
        self._lock = threading.RLock()
        self._vocab: Vocabulary | None = vocabulary
        self._pattern_cache: dict[int, tuple[Pattern, int]] = {}
        # item -> (pattern indexes, per-pattern position tuples)
        self._postings_cache: dict[
            int, tuple[list[int], list[tuple[int, ...]]]
        ] = {}
        self._by_length: dict[int, list[int]] | None = None

    def _verify_checksums(self) -> None:
        """CRC-check every section against the trailing checksum block."""
        stored = CHECKSUMS_STRUCT.unpack_from(self._data, self._off_end)
        bounds = (
            self._off_vocab,
            self._off_lengths,
            self._off_pat_offsets,
            self._off_patterns,
            self._off_post_offsets,
            self._off_postings,
            self._off_end,
        )
        for i, name in enumerate(SECTION_NAMES):
            actual = section_checksum(self._data, bounds[i], bounds[i + 1])
            if actual != stored[i]:
                raise StoreCorruptError(
                    f"{self._path}: checksum mismatch in {name} section "
                    f"(stored {stored[i]:#010x}, computed {actual:#010x})"
                )

    @classmethod
    def open(
        cls, path: str | Path, verify_checksums: bool = True
    ) -> "PatternStore":
        return cls(path, verify_checksums=verify_checksums)

    @classmethod
    def build(
        cls,
        path: str | Path,
        patterns: Mapping[Pattern, int],
        vocabulary: Vocabulary,
        checksums: bool = True,
    ) -> "PatternStore":
        """Write a store file and open it."""
        write_store(path, patterns, vocabulary, checksums=checksums)
        return cls(path)

    def close(self) -> None:
        self._data.close()
        self._file.close()

    def __enter__(self) -> "PatternStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # header-only metadata
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    def describe(self) -> dict:
        """Store metadata; available without decoding any section."""
        return {
            "path": str(self._path),
            "version": self._version,
            "items": self._n_items,
            "patterns": self._n_patterns,
            "total_frequency": self._total_frequency,
            "max_length": self._max_length,
            "file_bytes": self._off_end
            + (CHECKSUMS_STRUCT.size if self._checksummed else 0),
            "checksums": self._checksummed,
            "delta": self._delta,
        }

    # ------------------------------------------------------------------
    # storage primitives (see PatternSearchBase)
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        if self._vocab is None:
            with self._lock:
                if self._vocab is None:
                    self._vocab = self._decode_vocabulary()
        return self._vocab

    def _decode_vocabulary(self) -> Vocabulary:
        data = self._data
        offset = self._off_vocab
        names: list[str] = []
        frequencies: list[int] = []
        parent_lists: list[tuple[int, ...]] = []
        for _ in range(self._n_items):
            n, offset = read_uvarint(data, offset)
            names.append(data[offset:offset + n].decode("utf-8"))
            offset += n
            freq, offset = read_uvarint(data, offset)
            frequencies.append(zigzag_decode(freq) if self._delta else freq)
            n_parents, offset = read_uvarint(data, offset)
            parents = []
            for _ in range(n_parents):
                parent, offset = read_uvarint(data, offset)
                parents.append(parent)
            parent_lists.append(tuple(parents))
        hierarchy = Hierarchy()
        for name in names:
            hierarchy.add_item(name)
        for name, parents in zip(names, parent_lists):
            for parent in parents:
                hierarchy.add_edge(name, names[parent])
        return Vocabulary(names, hierarchy, frequencies)

    def _num_patterns(self) -> int:
        return self._n_patterns

    def _pattern_at(self, idx: int) -> tuple[Pattern, int]:
        # per-record decodes are pure reads of the immutable mmap, so
        # concurrent cold misses decode in parallel (worst case: two
        # threads build the same record); only the insert takes the lock
        cached = self._pattern_cache.get(idx)
        if cached is not None:
            return cached
        if not 0 <= idx < self._n_patterns:
            raise IndexError(f"pattern index {idx} out of range")
        base = self._off_pat_offsets + U64.size * idx
        start = U64.unpack_from(self._data, base)[0] + self._off_patterns
        freq, offset = read_uvarint(self._data, start)
        if self._delta:
            freq = zigzag_decode(freq)
        pattern, _ = read_sequence(self._data, offset)
        record = (pattern, freq)
        with self._lock:
            if len(self._pattern_cache) < self._pattern_cache_size:
                self._pattern_cache[idx] = record
        return record

    def _decode_postings(
        self, item_id: int
    ) -> tuple[list[int], list[tuple[int, ...]]]:
        base = self._off_post_offsets + U64.size * item_id
        start, end = struct.unpack_from("<2Q", self._data, base)
        start += self._off_postings
        end += self._off_postings
        return read_positional_postings(self._data, start, end)

    def _postings_for(self, item_id: int) -> Sequence[int]:
        return self._positional_postings_for(item_id)[0]

    def _postings_size_estimate(self, item_id: int) -> int:
        """O(1) postings-size estimate for the query planner: the
        postings byte range out of the offset table, divided by a rough
        bytes-per-entry (an entry is an index delta varint plus a
        position count plus gap-coded positions, ≥3 bytes).  Never
        decodes — ordering and skip decisions only need relative
        magnitudes."""
        cached = self._postings_cache.get(item_id)
        if cached is not None:
            return len(cached[0])
        if not 0 <= item_id < self._n_items:
            return 0
        base = self._off_post_offsets + U64.size * item_id
        start, end = struct.unpack_from("<2Q", self._data, base)
        span = end - start
        if not span:
            return 0
        return max(1, span // 3)

    def _positional_postings_for(self, item_id: int):
        cached = self._postings_cache.get(item_id)
        if cached is not None:
            return cached
        if not 0 <= item_id < self._n_items:
            return [], []
        entry = self._decode_postings(item_id)
        with self._lock:
            if len(self._postings_cache) < self._postings_cache_size:
                self._postings_cache[item_id] = entry
        return entry

    def _length_groups(self) -> dict[int, Sequence[int]]:
        if self._by_length is None:
            with self._lock:
                if self._by_length is None:
                    groups: dict[int, list[int]] = {}
                    offset = self._off_lengths
                    for idx in range(self._n_patterns):
                        length, offset = read_uvarint(self._data, offset)
                        groups.setdefault(length, []).append(idx)
                    self._by_length = groups
        return self._by_length


#: re-exported for the pre-split import path ``repro.serve.store.HEADER_SIZE``
__all__ = ["PatternStore", "write_store", "HEADER_SIZE", "MAGIC", "VERSION"]
