"""Varint / zigzag / delta primitives for the binary pattern store.

LEB128-style unsigned varints (7 bits per byte, high bit = continuation),
zigzag mapping for signed deltas, and gap coding for ascending integer
lists (positional postings).  Pure functions over ``bytes``-like buffers
so they work directly on a memory-mapped file without copying sections.
"""

from __future__ import annotations

import zlib
from typing import Sequence

from repro.errors import EncodingError


def write_uvarint(buf: bytearray, value: int) -> None:
    """Append an unsigned varint to ``buf``."""
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data, offset: int) -> tuple[int, int]:
    """Decode one unsigned varint at ``offset``; returns (value, end)."""
    value = 0
    shift = 0
    while True:
        try:
            byte = data[offset]
        except IndexError:
            raise EncodingError("truncated uvarint") from None
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise EncodingError("uvarint too long (corrupt store?)")


def zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one with small absolute values
    staying small: 0, -1, 1, -2, … → 0, 1, 2, 3, …"""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def write_sequence(buf: bytearray, items: Sequence[int]) -> None:
    """Append a length-prefixed item-id sequence, zigzag-delta coded.

    The first id is stored absolute, later ids as signed deltas from
    their predecessor — pattern items are drawn from a frequency-skewed
    vocabulary, so consecutive ids tend to be numerically close and the
    deltas pack into fewer bytes than the raw ids.
    """
    write_uvarint(buf, len(items))
    previous = 0
    for i, item in enumerate(items):
        if i == 0:
            write_uvarint(buf, item)
        else:
            write_uvarint(buf, zigzag_encode(item - previous))
        previous = item


def read_sequence(data, offset: int) -> tuple[tuple[int, ...], int]:
    """Decode one :func:`write_sequence` record; returns (items, end)."""
    n, offset = read_uvarint(data, offset)
    items: list[int] = []
    previous = 0
    for i in range(n):
        raw, offset = read_uvarint(data, offset)
        previous = raw if i == 0 else previous + zigzag_decode(raw)
        items.append(previous)
    return tuple(items), offset


def write_positions(buf: bytearray, positions: Sequence[int]) -> None:
    """Append one position list: a count followed by the ascending
    positions, first absolute and the rest as gaps.  Used by the
    postings entries of the pattern store, where each pattern index
    carries the positions its item occupies inside the pattern."""
    write_uvarint(buf, len(positions))
    previous = 0
    for i, position in enumerate(positions):
        if i == 0:
            write_uvarint(buf, position)
        else:
            if position <= previous:
                raise EncodingError(
                    f"position list not strictly ascending: {position} "
                    f"after {previous}"
                )
            write_uvarint(buf, position - previous)
        previous = position


def read_positions(data, offset: int) -> tuple[tuple[int, ...], int]:
    """Decode one :func:`write_positions` record; returns (positions, end)."""
    n, offset = read_uvarint(data, offset)
    positions: list[int] = []
    previous = 0
    for i in range(n):
        raw, offset = read_uvarint(data, offset)
        previous = raw if i == 0 else previous + raw
        positions.append(previous)
    return tuple(positions), offset


def read_positional_postings(
    data, offset: int, end: int
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Decode one item's postings record: a sequence of ``(pattern
    index, positions)`` entries, the indexes first absolute and the rest
    as gaps, each followed by a positions list coded by
    :func:`write_positions`.  Returns the ascending index list and the
    parallel list of position tuples."""
    indexes: list[int] = []
    positions: list[tuple[int, ...]] = []
    previous = 0
    first = True
    while offset < end:
        raw, offset = read_uvarint(data, offset)
        previous = raw if first else previous + raw
        first = False
        indexes.append(previous)
        entry, offset = read_positions(data, offset)
        positions.append(entry)
    return indexes, positions


def section_checksum(data, start: int = 0, end: int | None = None) -> int:
    """CRC-32 of ``data[start:end]`` as an unsigned 32-bit value.

    Used for the optional per-section checksums of the pattern store.
    Accepts any buffer (``bytes``, ``bytearray``, ``mmap``); the slice is
    taken through a :class:`memoryview` so mmapped sections are not
    copied before hashing.
    """
    view = memoryview(data)[start:len(data) if end is None else end]
    return zlib.crc32(view) & 0xFFFFFFFF


__all__ = [
    "write_uvarint",
    "read_uvarint",
    "zigzag_encode",
    "zigzag_decode",
    "write_sequence",
    "read_sequence",
    "write_positions",
    "read_positions",
    "read_positional_postings",
    "section_checksum",
]
