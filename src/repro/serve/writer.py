"""Building pattern stores: streaming writers, shard routers, and merges.

The write side of the store format (layout in :mod:`repro.serve.format`),
refactored around **rank-ordered record streams**: every writer consumes
``(coded_pattern, frequency)`` records one at a time, so the peak memory
of a build is bounded by its spill buffers, never by the pattern count.

* :class:`PatternWriter` — streams one store file.  Variable-length
  sections (lengths, offsets, records) spill to anonymous temp files as
  they grow; postings are accumulated as ``(item, index)`` pairs,
  spilled as sorted runs, and k-way merged on close; the final file is
  assembled section by section and swapped in atomically.
* :class:`ShardedPatternWriter` — routes one rank-ordered stream across
  shard files by stable hash of the first item, then drops a manifest
  and swaps the whole directory in.
* :func:`merge_stores` — the incremental-build path: vocabularies are
  unioned into a merged vocabulary, per-source streams are id-remapped
  and externally re-sorted (duplicate patterns summing their
  frequencies), and the resulting rank-ordered stream feeds the same
  writers.  Output is byte-identical to a full in-memory rebuild while
  peak memory stays bounded by the sort buffer.

All writers are atomic (write-then-rename): rebuilding a store a live
server has mmapped never truncates the mapped inode or exposes a half
file.
"""

from __future__ import annotations

import heapq
import os
import re
import shutil
import tempfile
import zlib
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from repro.errors import EncodingError
from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import Pattern, rank_key, rank_patterns
from repro.io.codec import (
    write_positions,
    write_sequence,
    write_uvarint,
    zigzag_encode,
)
from repro.serve.format import (
    CHECKSUMS_STRUCT,
    FLAG_CHECKSUMS,
    FLAG_DELTA,
    HEADER_SIZE,
    HEADER_STRUCT,
    MAGIC,
    MANIFEST_NAME,
    SECTIONS_STRUCT,
    SHARD_FILE_RE,
    U64,
    VERSION,
    shard_filename,
    shard_of,
    write_manifest,
)
from repro.serve.stream import (
    DEFAULT_SORT_BUFFER,
    RUN_BUFFERING,
    read_file_uvarint,
    sorted_records,
    sum_equal_patterns,
)

#: names a shard build may leave behind (shard files of any generation,
#: manifest, the compaction lock, their tmps)
_SHARD_ENTRY_RE = re.compile(
    "(" + SHARD_FILE_RE.pattern + "|"
    + re.escape(MANIFEST_NAME)
    + r"|\.compact\.lock)(\.tmp)?"
)

#: in-memory bytes per streamed section before it spills to a temp file
DEFAULT_SECTION_BUFFER = 1 << 16
#: in-memory ``(item, pattern index)`` posting pairs before a sorted run
#: is spilled
DEFAULT_POSTINGS_BUFFER = 1 << 15


def _remove_shard_dir(directory: Path) -> None:
    """Delete a directory holding (only) a shard build.

    Every entry must look like a shard file or manifest; anything else
    aborts before a single unlink, so a mistyped ``--out`` pointing at a
    real data directory can never be destroyed by a rebuild."""
    for entry in directory.iterdir():
        if not _SHARD_ENTRY_RE.fullmatch(entry.name):
            raise EncodingError(
                f"{directory}: refusing to overwrite — contains "
                f"{entry.name!r}, which is not part of a sharded store"
            )
    shutil.rmtree(directory)


def _encode_vocabulary(vocabulary: Vocabulary, delta: bool = False) -> bytes:
    """The vocabulary section: per item name, frequency, parent ids.

    Under ``delta`` the frequencies are zigzag-coded: a retire delta
    carries *negative* item frequencies so merging vocabularies of base
    + deltas reproduces the retained corpus's f-list exactly."""
    vocab = bytearray()
    for item_id in range(len(vocabulary)):
        name = vocabulary.name(item_id).encode("utf-8")
        write_uvarint(vocab, len(name))
        vocab.extend(name)
        frequency = vocabulary.frequency(item_id)
        write_uvarint(vocab, zigzag_encode(frequency) if delta else frequency)
        parents = vocabulary.parent_ids(item_id)
        write_uvarint(vocab, len(parents))
        for parent in parents:
            write_uvarint(vocab, parent)
    return bytes(vocab)


class _SectionSpill:
    """One store section accumulated in bounded memory.

    Bytes append to an in-memory buffer; past ``buffer_bytes`` the
    buffer flushes to an anonymous temp file.  Size and CRC-32 are
    tracked incrementally, so finalizing never re-reads the spill."""

    def __init__(self, spill_dir: Path, buffer_bytes: int) -> None:
        self._dir = spill_dir
        self._limit = max(1, buffer_bytes)
        self._buf = bytearray()
        self._file: IO[bytes] | None = None
        self._flushed = 0
        self._crc = 0

    def append(self, data) -> None:
        self._buf.extend(data)
        if len(self._buf) >= self._limit:
            if self._file is None:
                self._file = tempfile.TemporaryFile(
                    prefix="repro-section-", dir=str(self._dir)
                )
            self._crc = zlib.crc32(self._buf, self._crc)
            self._flushed += len(self._buf)
            self._file.write(self._buf)
            self._buf = bytearray()

    @property
    def size(self) -> int:
        return self._flushed + len(self._buf)

    def checksum(self) -> int:
        return zlib.crc32(self._buf, self._crc) & 0xFFFFFFFF

    def copy_into(self, out: IO[bytes]) -> None:
        if self._file is not None:
            self._file.seek(0)
            shutil.copyfileobj(self._file, out)
        out.write(self._buf)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class PatternWriter:
    """Stream a rank-ordered pattern record sequence into one store file.

    The streaming counterpart of the old materialize-then-serialize
    writer, producing byte-identical files: call :meth:`write` with
    ``(coded_pattern, frequency)`` records in the canonical rank order
    (:func:`~repro.query.base.rank_key` strictly ascending — exactly
    what :func:`~repro.query.base.rank_patterns` or a store's ranked
    iterator emits), then :meth:`close`.  Out-of-order or duplicate
    records are rejected, because a store written out of rank order
    would silently break the answer-equivalence invariant.

    Memory stays bounded regardless of how many records pass through:
    growing sections spill to anonymous temp files next to the target
    (``spill_dir`` overrides), postings pairs spill as sorted runs that
    are heap-merged during :meth:`close`, and only O(vocabulary) state
    is ever resident.  ``close`` assembles the final file and swaps it
    in with ``os.replace``; :meth:`abort` (or an exception inside the
    ``with`` block) discards everything.
    """

    def __init__(
        self,
        path: str | Path,
        vocabulary: Vocabulary,
        checksums: bool = True,
        spill_dir: str | Path | None = None,
        buffer_bytes: int = DEFAULT_SECTION_BUFFER,
        postings_buffer: int = DEFAULT_POSTINGS_BUFFER,
        delta: bool = False,
    ) -> None:
        """``delta=True`` writes a signed delta store (header
        :data:`~repro.serve.format.FLAG_DELTA`): every frequency is
        zigzag-coded and records may carry negative frequencies
        (decrements); zero-frequency records are rejected so a delta
        has exactly one canonical byte form."""
        self._path = Path(path)
        self._vocabulary = vocabulary
        self._checksums = checksums
        self._delta = delta
        spill = Path(spill_dir) if spill_dir is not None else self._path.parent
        self._spill_dir = spill
        self._buffer_bytes = buffer_bytes
        self._n_items = len(vocabulary)
        self._vocab_bytes = _encode_vocabulary(vocabulary, delta=delta)
        self._lengths = _SectionSpill(spill, buffer_bytes)
        self._offsets = _SectionSpill(spill, buffer_bytes)
        self._offsets.append(U64.pack(0))
        self._records = _SectionSpill(spill, buffer_bytes)
        self._cursor = 0
        self._pairs: list[tuple[int, int, tuple[int, ...]]] = []
        self._pair_runs: list[IO[bytes]] = []
        self._postings_buffer = max(1, postings_buffer)
        self._count = 0
        self._total_frequency = 0
        self._max_length = 0
        self._last_key: tuple[int, Pattern] | None = None
        self._done = False

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def count(self) -> int:
        """Records written so far."""
        return self._count

    @property
    def total_frequency(self) -> int:
        return self._total_frequency

    def write(self, pattern: Pattern, frequency: int) -> None:
        if self._done:
            raise EncodingError(f"{self._path}: writer already closed")
        pattern = tuple(pattern)
        if not pattern:
            raise EncodingError("empty pattern cannot be stored")
        if min(pattern) < 0 or max(pattern) >= self._n_items:
            raise EncodingError(
                f"pattern {pattern!r} has items outside the vocabulary "
                f"(size {self._n_items})"
            )
        if self._delta:
            if frequency == 0:
                raise EncodingError(
                    f"{self._path}: zero-frequency record {pattern!r} has "
                    "no effect; delta stores must be in canonical form"
                )
        elif frequency < 0:
            # frequency 0 is a legal plain record (membership means
            # "stored", not "frequency > 0"); decrements are delta-only
            raise EncodingError(
                f"{self._path}: frequency {frequency} for {pattern!r}; "
                "only delta stores may carry negative frequencies"
            )
        key = rank_key((pattern, frequency))
        if self._last_key is not None and key <= self._last_key:
            raise EncodingError(
                f"{self._path}: pattern stream is not in rank order "
                f"(most frequent first, ties by coded pattern) at "
                f"record {self._count}"
            )
        self._last_key = key

        length = bytearray()
        write_uvarint(length, len(pattern))
        self._lengths.append(length)

        record = bytearray()
        write_uvarint(
            record, zigzag_encode(frequency) if self._delta else frequency
        )
        write_sequence(record, pattern)
        self._records.append(record)
        self._cursor += len(record)
        self._offsets.append(U64.pack(self._cursor))

        positions_by_item: dict[int, list[int]] = {}
        for position, item in enumerate(pattern):
            positions_by_item.setdefault(item, []).append(position)
        for item, positions in positions_by_item.items():
            self._pairs.append((item, self._count, tuple(positions)))
        if len(self._pairs) >= self._postings_buffer:
            self._spill_pairs()

        self._count += 1
        self._total_frequency += frequency
        self._max_length = max(self._max_length, len(pattern))

    def _spill_pairs(self) -> None:
        self._pairs.sort()
        run = tempfile.TemporaryFile(
            prefix="repro-postings-",
            dir=str(self._spill_dir),
            buffering=RUN_BUFFERING,
        )
        try:
            buf = bytearray()
            for item, idx, positions in self._pairs:
                write_uvarint(buf, item)
                write_uvarint(buf, idx)
                write_positions(buf, positions)
                if len(buf) >= self._buffer_bytes:
                    run.write(buf)
                    buf = bytearray()
            run.write(buf)
        except BaseException:
            run.close()
            raise
        self._pair_runs.append(run)
        self._pairs = []

    @staticmethod
    def _iter_pair_run(
        run: IO[bytes],
    ) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        run.seek(0)
        while True:
            item = read_file_uvarint(run)
            if item is None:
                return
            idx = read_file_uvarint(run)
            n_positions = read_file_uvarint(run)
            if idx is None or n_positions is None:
                raise EncodingError("truncated postings spill run")
            positions: list[int] = []
            previous = 0
            for i in range(n_positions):
                raw = read_file_uvarint(run)
                if raw is None:
                    raise EncodingError("truncated postings spill run")
                previous = raw if i == 0 else previous + raw
                positions.append(previous)
            yield item, idx, tuple(positions)

    def _merged_pairs(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """All ``(item, pattern index, positions)`` triples, sorted.
        Triples are unique per (item, pattern) — one carries every
        position of the item inside the pattern — so the per-item index
        lists come out strictly ascending, as the gap coding demands."""
        self._pairs.sort()
        streams: list[Iterator[tuple[int, int, tuple[int, ...]]]] = [
            self._iter_pair_run(run) for run in self._pair_runs
        ]
        if self._pairs or not streams:
            streams.append(iter(self._pairs))
        if len(streams) == 1:
            return streams[0]
        return heapq.merge(*streams)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Assemble the sections and atomically publish the store file."""
        if self._done:
            return
        self._done = True
        tmp = self._path.with_name(self._path.name + ".tmp")
        postings = _SectionSpill(self._spill_dir, self._buffer_bytes)
        post_offsets = _SectionSpill(self._spill_dir, self._buffer_bytes)
        try:
            post_offsets.append(U64.pack(0))
            cursor = 0
            pairs = self._merged_pairs()
            pending = next(pairs, None)
            for item_id in range(self._n_items):
                # flush into the spill in bounded chunks: a single
                # stopword-grade item may own postings for most of the
                # store, and one bytearray per item would grow with it
                buf = bytearray()
                previous = 0
                first = True
                while pending is not None and pending[0] == item_id:
                    idx = pending[1]
                    if first:
                        write_uvarint(buf, idx)
                        first = False
                    else:
                        write_uvarint(buf, idx - previous)
                    previous = idx
                    write_positions(buf, pending[2])
                    if len(buf) >= self._buffer_bytes:
                        postings.append(buf)
                        cursor += len(buf)
                        buf = bytearray()
                    pending = next(pairs, None)
                postings.append(buf)
                cursor += len(buf)
                post_offsets.append(U64.pack(cursor))

            spills = (
                self._lengths,
                self._offsets,
                self._records,
                post_offsets,
                postings,
            )
            sizes = (len(self._vocab_bytes),) + tuple(s.size for s in spills)
            sections: list[int] = []
            offset = HEADER_SIZE
            for size in sizes:
                sections.append(offset)
                offset += size
            sections.append(offset)  # end of the data sections

            flags = FLAG_CHECKSUMS if self._checksums else 0
            if self._delta:
                flags |= FLAG_DELTA
            header = HEADER_STRUCT.pack(
                VERSION,
                flags,
                self._n_items,
                self._count,
                zigzag_encode(self._total_frequency)
                if self._delta
                else self._total_frequency,
                self._max_length,
            )
            try:
                with open(tmp, "wb") as f:
                    f.write(MAGIC)
                    f.write(header)
                    f.write(SECTIONS_STRUCT.pack(*sections))
                    f.write(self._vocab_bytes)
                    for spill in spills:
                        spill.copy_into(f)
                    if self._checksums:
                        f.write(
                            CHECKSUMS_STRUCT.pack(
                                zlib.crc32(self._vocab_bytes) & 0xFFFFFFFF,
                                *(spill.checksum() for spill in spills),
                            )
                        )
                os.replace(tmp, self._path)
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
        finally:
            postings.close()
            post_offsets.close()
            self._release()

    def abort(self) -> None:
        """Discard all buffered/spilled state without touching ``path``."""
        if self._done:
            return
        self._done = True
        self._release()

    def _release(self) -> None:
        for spill in (self._lengths, self._offsets, self._records):
            spill.close()
        for run in self._pair_runs:
            run.close()
        self._pair_runs = []
        self._pairs = []

    def __enter__(self) -> "PatternWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class _ShardStreamWriter:
    """Route one rank-ordered stream into shard files of a directory.

    The core router shared by :class:`ShardedPatternWriter` (fresh
    builds, which add a build-tmp directory swap around it) and the
    compactor (which writes generation-tagged files straight into a
    live store directory).  Each shard file is written by its own
    :class:`PatternWriter`; a globally rank-ordered input stream yields
    rank-ordered per-shard subsequences, so every shard stays a valid
    standalone store.
    """

    def __init__(
        self,
        directory: Path,
        files: Sequence[str],
        vocabulary: Vocabulary,
        checksums: bool = True,
        postings_buffer: int = DEFAULT_POSTINGS_BUFFER,
        delta: bool = False,
    ) -> None:
        self._vocabulary = vocabulary
        self._num = len(files)
        self.count = 0
        self.total_frequency = 0
        self._writers: list[PatternWriter] = []
        try:
            for name in files:
                self._writers.append(
                    PatternWriter(
                        directory / name,
                        vocabulary,
                        checksums=checksums,
                        spill_dir=directory,
                        postings_buffer=postings_buffer,
                        delta=delta,
                    )
                )
        except BaseException:
            self.abort()
            raise

    def write(self, pattern: Pattern, frequency: int) -> None:
        if not pattern:
            raise EncodingError("empty pattern cannot be stored")
        index = shard_of(self._vocabulary.name(pattern[0]), self._num)
        self._writers[index].write(pattern, frequency)
        self.count += 1
        self.total_frequency += frequency

    def close(self) -> None:
        for writer in self._writers:
            writer.close()

    def abort(self) -> None:
        for writer in self._writers:
            writer.abort()


class ShardedPatternWriter:
    """Stream a rank-ordered record sequence into a fresh shard set.

    Shard files and manifest are built in a sibling ``.build-tmp``
    directory and swapped in whole on :meth:`close`, so rebuilding over
    an existing shard set (even with a different shard count) can never
    expose a manifest describing a mix of old and new shard files: a
    crash leaves either the previous set or no readable set, never a
    hybrid.  A destination containing anything that is not a sharded
    store is refused, not deleted.
    """

    def __init__(
        self,
        path: str | Path,
        vocabulary: Vocabulary,
        shards: int,
        checksums: bool = True,
        postings_buffer: int = DEFAULT_POSTINGS_BUFFER,
        delta: bool = False,
    ) -> None:
        if shards < 1:
            raise EncodingError(f"shard count must be >= 1, got {shards}")
        directory = Path(path)
        if directory.exists() and not directory.is_dir():
            raise EncodingError(
                f"{directory}: exists and is not a directory; omit shards "
                "to overwrite a single-file store"
            )
        self._directory = directory
        self._vocabulary = vocabulary
        tmp = directory.with_name(directory.name + ".build-tmp")
        if tmp.exists():
            _remove_shard_dir(tmp)  # leftover of a crashed build
        tmp.mkdir(parents=True)
        self._tmp = tmp
        self._files = [shard_filename(i, shards) for i in range(shards)]
        self._done = False
        self._delta = delta
        try:
            self._router = _ShardStreamWriter(
                tmp,
                self._files,
                vocabulary,
                checksums=checksums,
                postings_buffer=postings_buffer,
                delta=delta,
            )
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    @property
    def path(self) -> Path:
        return self._directory

    @property
    def count(self) -> int:
        return self._router.count

    @property
    def total_frequency(self) -> int:
        return self._router.total_frequency

    def write(self, pattern: Pattern, frequency: int) -> None:
        if self._done:
            raise EncodingError(f"{self._directory}: writer already closed")
        self._router.write(pattern, frequency)

    def close(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            self._router.close()
            meta = {
                "items": len(self._vocabulary),
                "patterns": self._router.count,
                "total_frequency": self._router.total_frequency,
                "generation": 0,
            }
            if self._delta:
                meta["delta"] = True
            write_manifest(self._tmp, self._files, meta)
            if self._directory.exists():
                _remove_shard_dir(self._directory)  # validates contents first
            os.replace(self._tmp, self._directory)
        except BaseException:
            shutil.rmtree(self._tmp, ignore_errors=True)
            raise

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        self._router.abort()
        shutil.rmtree(self._tmp, ignore_errors=True)

    def __enter__(self) -> "ShardedPatternWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# ----------------------------------------------------------------------
# mapping front-ends (the pre-streaming API, now thin wrappers)
# ----------------------------------------------------------------------

def write_store(
    path: str | Path,
    patterns: Mapping[Pattern, int],
    vocabulary: Vocabulary,
    checksums: bool = True,
    delta: bool = False,
) -> None:
    """Serialize coded patterns + vocabulary into a store file.

    ``checksums=True`` (the default) appends a CRC-32 per section and
    sets :data:`~repro.serve.format.FLAG_CHECKSUMS`, letting readers
    detect bit-rot on open.  Empty patterns are rejected: no miner
    produces them, and the postings-based exact lookup could not find
    them, so storing one would break the store/index answer-equivalence
    invariant.
    """
    with PatternWriter(
        path, vocabulary, checksums=checksums, delta=delta
    ) as writer:
        for pattern, frequency in rank_patterns(patterns):
            writer.write(pattern, frequency)


def write_sharded_store(
    path: str | Path,
    patterns: Mapping[Pattern, int],
    vocabulary: Vocabulary,
    shards: int,
    checksums: bool = True,
) -> Path:
    """Write a sharded store: a directory of shard files plus a manifest.

    Patterns are routed by :func:`~repro.serve.format.shard_of` over the
    *name* of their first item; each shard file carries the full shared
    vocabulary, so any shard also opens as a standalone
    :class:`~repro.serve.store.PatternStore`.
    """
    with ShardedPatternWriter(
        path, vocabulary, shards, checksums=checksums
    ) as writer:
        for pattern, frequency in rank_patterns(patterns):
            writer.write(pattern, frequency)
    return writer.path


# ----------------------------------------------------------------------
# streaming merge
# ----------------------------------------------------------------------

def merged_vocabulary(stores: Sequence, signed: bool = False) -> Vocabulary:
    """The union vocabulary of already-open stores (hierarchies unioned,
    item frequencies summed, the LASH total order recomputed —
    ``signed=True`` switches to the frequency-free depth order for
    delta-to-delta merges whose sums may go negative)."""
    from repro.query.build import merge_vocabularies

    return merge_vocabularies(
        [store.vocabulary for store in stores], signed=signed
    )


def iter_merged_records(
    stores: Sequence,
    vocabulary: Vocabulary,
    sort_buffer: int = DEFAULT_SORT_BUFFER,
    spill_dir: str | Path | None = None,
) -> Iterator[tuple[Pattern, int]]:
    """Rank-ordered union stream of already-open stores.

    Per-source ranked streams are decoded lazily, remapped onto
    ``vocabulary`` (from :func:`merged_vocabulary`) through per-source
    id tables, externally sorted by pattern so duplicates across
    sources become adjacent and sum their frequencies, then externally
    re-sorted into the canonical rank order.  Peak memory is bounded by
    ``sort_buffer`` records plus O(vocabulary) for the remap tables —
    independent of how many patterns flow through.
    """
    remaps = [
        [
            vocabulary.id(store.vocabulary.name(item_id))
            for item_id in range(len(store.vocabulary))
        ]
        for store in stores
    ]

    def remapped() -> Iterator[tuple[Pattern, int]]:
        for store, remap in zip(stores, remaps):
            for pattern, frequency in store._iter_ranked():
                yield tuple(remap[item] for item in pattern), frequency

    by_pattern = sorted_records(
        remapped(), key=lambda record: record[0], buffer_records=sort_buffer,
        spill_dir=spill_dir,
    )
    return sorted_records(
        sum_equal_patterns(by_pattern), key=rank_key,
        buffer_records=sort_buffer, spill_dir=spill_dir,
    )


def merge_stores(
    sources: Sequence[str | Path],
    out: str | Path,
    shards: int | None = None,
    checksums: bool = True,
    sort_buffer: int = DEFAULT_SORT_BUFFER,
    min_frequency: int = 1,
    as_delta: bool = False,
) -> None:
    """Merge existing stores (files or shard directories) into one store.

    The incremental-build path: vocabularies are unioned (item
    frequencies summed, the total order recomputed, pattern ids
    remapped), postings are rebuilt over the union, and frequencies of
    patterns present in several sources are summed.  Over mining runs of
    disjoint corpora this reproduces, byte for byte, the store a full
    rebuild over the combined runs would produce — except patterns whose
    support crosses the σ threshold only on the combined corpus, which
    no merge of already-thresholded results can recover.

    Sources may include signed *delta* stores (ingest increments and
    retire decrements): frequencies sum algebraically, and the merged
    record stream is thresholded at ``min_frequency`` — a pattern whose
    summed support falls below it (e.g. fully retired, net 0) vanishes
    from the output exactly as it would from a re-mine of the retained
    corpus.  The default of 1 keeps positive-store merges byte-identical
    to their historical output while erasing cancelled patterns.

    ``as_delta=True`` writes the *output* as a signed delta store
    instead: no thresholding except dropping exact-zero records (the
    canonical form), so folding deltas into one delta is associative —
    any grouping or arrival order of the same deltas produces the same
    bytes.

    Unlike the original implementation this never materializes a source:
    records stream straight from the source mmaps through two external
    sorts into the streaming writers, so ``sort_buffer`` (records per
    in-memory run, also applied to the writers' postings buffers) bounds
    peak memory regardless of store sizes.

    ``shards=None`` writes a single file; ``shards=N`` a shard set —
    including re-routing an existing shard set to a new shard count
    (``lash index merge old.shards --out new.shards --shards M``).
    """
    from repro.serve.sharded import open_store

    if not sources:
        raise EncodingError("merge needs at least one source store")
    out = Path(out)
    if shards is None and out.is_dir():
        # a directory here is almost certainly a previous sharded
        # build; replacing it with a file silently would orphan it
        raise EncodingError(
            f"{out}: is a directory; pass shards=N to overwrite a "
            "sharded store"
        )
    opened = []
    try:
        for source in sources:
            # a linear merge scan gains nothing from decode caches; size
            # 0 keeps peak memory independent of the source store sizes
            opened.append(
                open_store(
                    source, pattern_cache_size=0, postings_cache_size=0
                )
            )
        vocabulary = merged_vocabulary(opened, signed=as_delta)
        records = iter_merged_records(
            opened, vocabulary, sort_buffer=sort_buffer,
            spill_dir=out.parent,
        )
        # the sources stream lazily, so `out` may be one of them: the
        # writers build in tmp files/directories and swap in atomically,
        # and an already-mmapped source inode survives the replace
        if shards is None:
            writer: PatternWriter | ShardedPatternWriter = PatternWriter(
                out, vocabulary, checksums=checksums,
                postings_buffer=sort_buffer, delta=as_delta,
            )
        else:
            writer = ShardedPatternWriter(
                out, vocabulary, shards, checksums=checksums,
                postings_buffer=sort_buffer, delta=as_delta,
            )
        with writer:
            for pattern, frequency in records:
                if as_delta:
                    if frequency == 0:
                        continue
                elif frequency < min_frequency:
                    continue
                writer.write(pattern, frequency)
    finally:
        for store in opened:
            store.close()


__all__ = [
    "PatternWriter",
    "ShardedPatternWriter",
    "write_store",
    "write_sharded_store",
    "merged_vocabulary",
    "iter_merged_records",
    "merge_stores",
]
