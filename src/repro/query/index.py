"""The pattern index: hierarchy-aware wildcard search over mined patterns.

Built once from a :class:`~repro.core.result.MiningResult` (or a raw
pattern→frequency mapping plus its vocabulary), the index answers
Netspeak-style queries (see :mod:`repro.query.tokens`), ranked by
frequency.

Search runs over a positional inverted index: per item id, the
patterns containing it and the positions it occupies in each.  Compiled
query plans (:mod:`repro.query.plan`) turn those postings into bitmaps
and answer chain queries exactly, prune candidates for the DP matcher,
or fall back to a length-filtered scan, whichever the cost estimate
prices cheapest.

The matching machinery itself lives in
:class:`~repro.query.base.PatternSearchBase` and is shared with the
on-disk :class:`~repro.serve.store.PatternStore`; this class is the
all-in-memory backend.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.hierarchy.vocabulary import Vocabulary
from repro.query.base import (
    Pattern,
    PatternSearchBase,
    QueryMatch,
    rank_patterns,
)


class PatternIndex(PatternSearchBase):
    """Immutable in-memory index over a set of mined generalized sequences.

    Parameters
    ----------
    patterns:
        Integer-coded pattern → frequency, as produced by any miner in
        this library.
    vocabulary:
        The vocabulary the patterns are coded against.

    Example
    -------
    >>> index = PatternIndex.from_result(result)
    >>> index.search("the ^ADJ ?", limit=5)
    >>> index.frequency("a", "B")
    3
    """

    def __init__(
        self, patterns: Mapping[Pattern, int], vocabulary: Vocabulary
    ) -> None:
        super().__init__()
        self._vocabulary = vocabulary
        self._patterns: list[tuple[Pattern, int]] = rank_patterns(patterns)
        self._frequencies: dict[Pattern, int] = dict(patterns)
        self._postings: dict[int, list[int]] = {}
        self._positions: dict[int, list[tuple[int, ...]]] = {}
        self._by_length: dict[int, list[int]] = {}
        for idx, (pattern, _) in enumerate(self._patterns):
            self._by_length.setdefault(len(pattern), []).append(idx)
            positions_by_item: dict[int, list[int]] = {}
            for position, item in enumerate(pattern):
                positions_by_item.setdefault(item, []).append(position)
            for item, positions in positions_by_item.items():
                self._postings.setdefault(item, []).append(idx)
                self._positions.setdefault(item, []).append(tuple(positions))

    @classmethod
    def from_result(cls, result) -> "PatternIndex":
        """Index a :class:`~repro.core.result.MiningResult`."""
        return cls(result.patterns, result.vocabulary)

    # ------------------------------------------------------------------
    # storage primitives (see PatternSearchBase)
    # ------------------------------------------------------------------

    def _vocabulary_instance(self) -> Vocabulary:
        return self._vocabulary

    def _num_patterns(self) -> int:
        return len(self._patterns)

    def _pattern_at(self, idx: int) -> tuple[Pattern, int]:
        return self._patterns[idx]

    def _postings_for(self, item_id: int) -> Sequence[int]:
        return self._postings.get(item_id, ())

    def _positional_postings_for(self, item_id: int):
        return (
            self._postings.get(item_id, ()),
            self._positions.get(item_id, ()),
        )

    def _length_groups(self) -> dict[int, Sequence[int]]:
        return self._by_length

    def _find_coded(self, coded: Pattern) -> int | None:
        # O(1) via the retained mapping instead of a postings scan.
        return self._frequencies.get(coded)


__all__ = ["PatternIndex", "QueryMatch"]
