"""On-disk format of the pattern store: layout constants and helpers.

One store *file* (written by :mod:`repro.serve.writer`, read by
:mod:`repro.serve.store`) is laid out as::

    magic "RPROPST1"                                          8 bytes
    header: version, flags, n_items, n_patterns,
            total_frequency, max_length                       28 bytes
    section table: 7 × u64 absolute offsets                   56 bytes
    [vocab]     per item: name, frequency, parent ids         varint
    [lengths]   per pattern: its length                       varint
    [pat_offs]  (n_patterns+1) × u64, relative to [patterns]  fixed
    [patterns]  per pattern: frequency + zigzag-delta items   varint
    [post_offs] (n_items+1) × u64, relative to [postings]     fixed
    [postings]  per item: ascending pattern indexes, gap-coded,
                each followed by the gap-coded positions of the
                item in that pattern
    [checksums] 6 × u32 CRC-32, one per section               optional

The header's version must equal :data:`VERSION`; readers reject any
other version with a hint to rebuild the store.

The trailing checksum section exists iff :data:`FLAG_CHECKSUMS` is set
in the header flags; the section table's final offset always marks the
end of the postings, so readers locate the checksums (and validate the
file size) from the flag alone.

A *sharded* store is a directory of store files plus a JSON manifest
(:data:`MANIFEST_NAME`).  Patterns are routed to shards by
:func:`shard_of` — a stable FNV-1a hash of the pattern's **first item
name** (names, not ids, so the routing survives vocabulary remaps when
stores are merged).  Every shard file carries the full shared
vocabulary, making each one a valid standalone store.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path
from typing import Sequence

from repro.errors import EncodingError, StoreCorruptError
from repro.mapreduce.engine import stable_hash

MAGIC = b"RPROPST1"
#: the store version every writer emits and the only one readers
#: accept.  Each ``(item, pattern index)`` postings entry carries the
#: gap-coded positions the item occupies inside the pattern, feeding
#: the compiled query plans' exact matcher.
VERSION = 2

#: header flag: a 6 × u32 CRC-32 section trails the postings
FLAG_CHECKSUMS = 0x1
#: header flag: the store is a *signed delta*.  Every frequency — the
#: header's total, each vocabulary entry's, each pattern record's — is
#: zigzag-encoded and may be negative; a negative record is a
#: *decrement* emitted by ``lash ingest`` when sequences are retired.
#: Delta stores exist only in the compaction spool: ``merge_stores``
#: consumes them and the fold drops any pattern whose summed frequency
#: falls below the minimum, so a served store never carries the flag.
FLAG_DELTA = 0x2

HEADER_STRUCT = struct.Struct("<HHIQQI")
SECTIONS_STRUCT = struct.Struct("<7Q")
U64 = struct.Struct("<Q")
CHECKSUMS_STRUCT = struct.Struct("<6I")
#: bytes read by :meth:`PatternStore.open` before any query arrives
HEADER_SIZE = len(MAGIC) + HEADER_STRUCT.size + SECTIONS_STRUCT.size

#: data sections, in file order, as named by error messages
SECTION_NAMES = (
    "vocabulary",
    "lengths",
    "pattern offsets",
    "patterns",
    "posting offsets",
    "postings",
)

# ----------------------------------------------------------------------
# sharded-store manifest
# ----------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-sharded-pattern-store"
MANIFEST_VERSION = 1
#: routing function recorded in the manifest so a future format change
#: cannot silently misroute lookups against old shard sets
PARTITIONER = "fnv64(first-item-name)"


def shard_of(first_item: str, num_shards: int) -> int:
    """Shard index owning every pattern whose first item is ``first_item``.

    Keyed on the item *name* through the engine's
    :func:`~repro.mapreduce.engine.stable_hash` so the assignment is
    reproducible across processes, Python versions, and — critically —
    across merges that renumber item ids.
    """
    return stable_hash(first_item) % num_shards


#: any generation's shard file name (used to validate directory
#: contents before deletion and to sweep retired generations)
SHARD_FILE_RE = re.compile(r"shard-\d{5}-of-\d{5}(-g\d{6})?\.store")


def shard_filename(index: int, num_shards: int, generation: int = 0) -> str:
    """Name of one shard file.

    Generation 0 (a fresh build) keeps the historical name; online
    compaction writes generation ``g+1`` files next to the live
    generation ``g`` set, so the tag keeps the two sets from colliding
    until the manifest swap retires the old one.
    """
    base = f"shard-{index:05d}-of-{num_shards:05d}"
    if generation:
        base += f"-g{generation:06d}"
    return base + ".store"


def write_manifest(directory: Path, shard_files: Sequence[str], meta: dict) -> None:
    """Atomically write the shard-set manifest (its presence marks the
    directory as a complete sharded store)."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "partitioner": PARTITIONER,
        "shards": len(shard_files),
        "shard_files": list(shard_files),
        **meta,
    }
    path = directory / MANIFEST_NAME
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_manifest(directory: Path) -> dict:
    """Load and validate a shard-set manifest."""
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise EncodingError(
            f"{directory}: not a sharded pattern store (no {MANIFEST_NAME})"
        ) from None
    except json.JSONDecodeError as exc:
        raise StoreCorruptError(f"{path}: invalid manifest: {exc}") from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise EncodingError(
            f"{path}: not a sharded pattern store manifest "
            f"(format {manifest.get('format')!r})"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise EncodingError(
            f"{path}: unsupported manifest version "
            f"{manifest.get('version')!r} (expected {MANIFEST_VERSION})"
        )
    if manifest.get("partitioner") != PARTITIONER:
        raise EncodingError(
            f"{path}: unknown shard partitioner "
            f"{manifest.get('partitioner')!r} (expected {PARTITIONER!r})"
        )
    files = manifest.get("shard_files")
    if not isinstance(files, list) or not files or not all(
        isinstance(f, str) for f in files
    ):
        raise StoreCorruptError(f"{path}: manifest lists no shard files")
    generation = manifest.setdefault("generation", 0)
    if not isinstance(generation, int) or isinstance(generation, bool):
        raise StoreCorruptError(
            f"{path}: manifest generation {generation!r} is not an integer"
        )
    return manifest


def is_sharded_store(path: str | Path) -> bool:
    """True when ``path`` is a sharded-store directory (has a manifest)."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


# ----------------------------------------------------------------------
# delta sidecar metadata
# ----------------------------------------------------------------------

#: suffix of the JSON sidecar published next to each ingest delta.  The
#: sidecar is written (tmp + rename) *before* the delta file itself is
#: renamed into place, so a ``.store`` file with a sidecar is complete
#: by construction; a ``.store`` without one is a legacy spool delta
#: that carries no watermark.
DELTA_META_SUFFIX = ".meta.json"


def delta_meta_path(delta: Path) -> Path:
    """Sidecar path for a spool delta file."""
    return delta.with_name(delta.name + DELTA_META_SUFFIX)


def write_delta_meta(
    delta: Path, meta: dict, source: Path | None = None
) -> Path:
    """Atomically publish ``meta`` as the sidecar of ``delta``.

    The caller supplies the semantic fields (kind, sequence range,
    watermark); the payload integrity fields — byte size and CRC-32 of
    the delta file as it exists *right now* — are stamped here so the
    sidecar can never describe bytes it has not seen.  ``source`` reads
    the bytes from a staging path while the sidecar is still named for
    the final ``delta`` location (the publish protocol renames the
    sidecar into place *before* the delta itself).
    """
    import zlib

    data = (delta if source is None else source).read_bytes()
    payload = {
        "format": "repro-ingest-delta",
        "bytes": len(data),
        "crc32": zlib.crc32(data) & 0xFFFFFFFF,
        **meta,
    }
    path = delta_meta_path(delta)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_delta_meta(delta: Path) -> dict | None:
    """Load the sidecar of ``delta``, or ``None`` when it has none.

    A present-but-unreadable sidecar raises :class:`StoreCorruptError`
    so the daemon quarantines the pair instead of applying a delta
    whose provenance cannot be checked.
    """
    path = delta_meta_path(delta)
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, OSError) as exc:
        raise StoreCorruptError(f"{path}: invalid delta sidecar: {exc}") from None
    if not isinstance(meta, dict) or meta.get("format") != "repro-ingest-delta":
        raise StoreCorruptError(f"{path}: not an ingest-delta sidecar")
    return meta


def verify_delta_meta(delta: Path, meta: dict) -> bool:
    """True iff the delta's bytes match the size + CRC-32 in ``meta``."""
    import zlib

    try:
        data = delta.read_bytes()
    except OSError:
        return False
    return len(data) == meta.get("bytes") and (
        zlib.crc32(data) & 0xFFFFFFFF
    ) == meta.get("crc32")


__all__ = [
    "MAGIC",
    "VERSION",
    "FLAG_CHECKSUMS",
    "FLAG_DELTA",
    "HEADER_STRUCT",
    "SECTIONS_STRUCT",
    "U64",
    "CHECKSUMS_STRUCT",
    "HEADER_SIZE",
    "SECTION_NAMES",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "PARTITIONER",
    "SHARD_FILE_RE",
    "shard_of",
    "shard_filename",
    "write_manifest",
    "read_manifest",
    "is_sharded_store",
    "DELTA_META_SUFFIX",
    "delta_meta_path",
    "write_delta_meta",
    "read_delta_meta",
    "verify_delta_meta",
]
