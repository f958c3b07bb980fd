"""The naive query oracle: brute-force matching over a raw pattern mapping.

The independent reference every query backend is checked against.  It
shares nothing with the engine under test: no compiled form, no
postings, no candidate pruning, no DP — a backtracking recursion over
the query tokens, with hierarchy facts read from the string-level
hierarchy rather than the backends' id-level caches.
"""

from __future__ import annotations

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
)


def oracle_token_matches(token: QueryToken, item: int, vocab) -> bool:
    """Does this single-item token admit the item?  Hierarchy facts come
    from the *string-level* hierarchy, not the backends' id-level caches.
    """
    if isinstance(token, AnyToken):
        return True
    if isinstance(token, ItemToken):
        return vocab.name(item) == token.name
    if isinstance(token, UnderToken):
        return token.name in vocab.hierarchy.ancestors_or_self(
            vocab.name(item)
        )
    if isinstance(token, OneOfToken):
        return any(
            oracle_token_matches(choice, item, vocab)
            for choice in token.choices
        )
    if isinstance(token, NotToken):
        return not oracle_token_matches(token.inner, item, vocab)
    if isinstance(token, FloorToken):
        return vocab.frequency(item) >= token.floor and oracle_token_matches(
            token.inner, item, vocab
        )
    raise AssertionError(f"oracle cannot match {token!r}")


def oracle_match(tokens, pattern, vocab) -> bool:
    """Backtracking recursion — deliberately nothing like the DP in
    :meth:`PatternSearchBase._matches`."""

    def rec(i: int, j: int) -> bool:
        if i == len(tokens):
            return j == len(pattern)
        token = tokens[i]
        if isinstance(token, SpanToken):
            return any(rec(i + 1, k) for k in range(j, len(pattern) + 1))
        if isinstance(token, PlusToken):
            return any(rec(i + 1, k) for k in range(j + 1, len(pattern) + 1))
        if isinstance(token, GapToken):
            stop = (
                len(pattern)
                if token.max_items is None
                else min(len(pattern), j + token.max_items)
            )
            return any(
                rec(i + 1, k) for k in range(j + token.min_items, stop + 1)
            )
        return (
            j < len(pattern)
            and oracle_token_matches(token, pattern[j], vocab)
            and rec(i + 1, j + 1)
        )

    return rec(0, 0)


def oracle_search(patterns, vocab, tokens, min_freq=None):
    """Ranked (decoded pattern, frequency) hits, most frequent first,
    ties by coded pattern ascending — the shared index order, re-stated
    here independently.  ``min_freq`` is the per-query σ override: a
    plain filter here, a rank-prefix cut in the backends."""
    hits = [
        (coded, freq)
        for coded, freq in patterns.items()
        if (min_freq is None or freq >= min_freq)
        and oracle_match(tokens, coded, vocab)
    ]
    hits.sort(key=lambda record: (-record[1], record[0]))
    return [(vocab.decode_sequence(coded), freq) for coded, freq in hits]
