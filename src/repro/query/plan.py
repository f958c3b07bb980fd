"""Compiled query plans: bitset candidate pruning + positional matching.

The DP matcher in :mod:`repro.query.base` re-interprets the compiled
token list for every candidate pattern.  This module lowers a compiled
query **once** into a :class:`QueryPlan` and answers it with big-integer
bitmap algebra instead — the sequence analog of DMR-XPath's numbering
scheme, where a precomputed coordinate system turns structural traversal
into range predicates:

* the **chain** of a query is its membership-testing tokens (``item`` /
  ``under`` / ``oneof`` / ``notin``), each holding the admissible (or
  excluded) item-id set;
* everything between chain nodes — ``?``/``+``/``*``/``*{m,n}`` — folds
  into **consumption windows** ``(lo, hi)``: how many items may separate
  two neighboring chain nodes (plus a prefix window before the first
  node and a tail window after the last);
* a :class:`PositionSpace` lays every stored pattern out as a *field* of
  bit slots inside one big Python integer, separated by enough zero
  padding that in-field shifts can never leak into a neighbor.  Item
  occurrences (the store's positional postings) become set bits; window
  checks become shift-and-OR sweeps; a query is answered by propagating
  a reachable-position bitmap through the chain and reading off which
  fields keep a live bit.

The propagation computes exactly the reachable-set of the DP matcher
restricted to consuming tokens, so the surviving fields *are* the
matches — no verification needed.  The plan's stage-1 **candidate
mask** — the cheapest-first AND of the concrete chain nodes' postings
bitsets — serves the ``pruned`` strategy instead, whose survivors the DP
verifies; the cost planner picks it when decoding a ubiquitous node's
positions would cost more than verifying a rare node's few candidates.

Plans hold per-backend bitmaps (pattern indexes are shard-local), so
they are cached per backend instance; see
:meth:`~repro.query.base.PatternSearchBase._plan_for`.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Iterator, Sequence

from repro.query.cost import CostEstimator, order_mask_nodes

Window = tuple[int, "int | None"]


def iter_bit_indexes(mask: int) -> Iterator[int]:
    """Set-bit indexes of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PositionSpace:
    """Global bit-slot coordinates for every position of every pattern.

    Pattern ``i`` of length ``L_i`` owns slots ``[offsets[i],
    offsets[i] + L_i)``; fields are separated by ``pad`` dead slots
    where ``pad`` is the maximum pattern length, so any single shift of
    at most ``pad`` slots followed by an AND with :attr:`valid` stays
    within fields.  :attr:`starts` and :attr:`ends` mark each field's
    first and last slot — the anchors for prefix and tail windows.
    """

    __slots__ = (
        "offsets", "valid", "starts", "ends", "max_len", "pad", "total",
    )

    def __init__(
        self, lengths: Sequence[int], pad: int | None = None
    ) -> None:
        max_len = 1
        for length in lengths:
            if length > max_len:
                max_len = length
        if pad is None:
            pad = max_len
        elif pad < max_len:
            raise ValueError(
                f"pad {pad} below the maximum pattern length {max_len}: "
                "in-field shifts could leak into a neighboring field"
            )
        offsets: list[int] = []
        offset = 0
        for length in lengths:
            offsets.append(offset)
            offset += length + pad
        nbytes = ((offset + 7) >> 3) or 1
        valid = bytearray(nbytes)
        starts = bytearray(nbytes)
        ends = bytearray(nbytes)
        for base, length in zip(offsets, lengths):
            starts[base >> 3] |= 1 << (base & 7)
            last = base + length - 1
            ends[last >> 3] |= 1 << (last & 7)
            for slot in range(base, base + length):
                valid[slot >> 3] |= 1 << (slot & 7)
        self.offsets = offsets
        self.valid = int.from_bytes(bytes(valid), "little")
        self.starts = int.from_bytes(bytes(starts), "little")
        self.ends = int.from_bytes(bytes(ends), "little")
        self.max_len = max_len
        self.pad = pad
        self.total = offset

    def slice_fields(self, first: int, count: int) -> "PositionSpace":
        """A view of ``count`` consecutive fields starting at field
        ``first``, rebased to its own coordinates.  Masks extract with
        two big-int shifts instead of re-running the per-slot build
        loop — this is how a sharded handle hands each shard its slice
        of one shared build.  ``pad`` and ``max_len`` stay global: a
        larger-than-necessary pad still separates fields, and a
        larger ``max_len`` only admits extra shift distances whose
        landing bits the AND with :attr:`valid` clears, so window
        algebra over a slice equals a direct build with the same pad."""
        view = object.__new__(PositionSpace)
        if count <= 0:
            view.offsets = []
            view.valid = view.starts = view.ends = 0
            view.max_len = self.max_len
            view.pad = self.pad
            view.total = 0
            return view
        offsets = self.offsets
        lo = offsets[first]
        end = first + count
        hi = offsets[end] if end < len(offsets) else self.total
        width_mask = (1 << (hi - lo)) - 1
        view.offsets = [base - lo for base in offsets[first:end]]
        view.valid = (self.valid >> lo) & width_mask
        view.starts = (self.starts >> lo) & width_mask
        view.ends = (self.ends >> lo) & width_mask
        view.max_len = self.max_len
        view.pad = self.pad
        view.total = hi - lo
        return view

    # ------------------------------------------------------------------
    # window algebra
    # ------------------------------------------------------------------

    def _spread_up(self, bits: int, width: int) -> int:
        """OR of ``bits`` shifted up by every distance in ``[0, width]``,
        confined to fields.  Doubling sweep: after covering contiguous
        distances ``[0, c]`` a further shift by ``s <= c + 1`` extends
        the coverage to ``[0, c + s]`` — and every intermediate landing
        slot of an in-field target is itself in-field, so the AND with
        :attr:`valid` never breaks coverage."""
        covered = 0
        valid = self.valid
        while covered < width and bits:
            step = min(covered + 1, width - covered, self.pad)
            bits |= (bits << step) & valid
            covered += step
        return bits

    def _spread_down(self, bits: int, width: int) -> int:
        covered = 0
        valid = self.valid
        while covered < width and bits:
            step = min(covered + 1, width - covered, self.pad)
            bits |= (bits >> step) & valid
            covered += step
        return bits

    def shift_window_up(self, bits: int, window: Window) -> int:
        """Slots reachable from ``bits`` by advancing ``d`` positions
        for any ``d`` in the window (``hi=None`` unbounded).  Distances
        beyond ``max_len - 1`` cannot stay inside any field, so they
        clamp away instead of shifting."""
        lo, hi = window
        max_d = self.max_len - 1
        if lo > max_d:
            return 0
        if lo:
            bits = (bits << lo) & self.valid
        hi = max_d if hi is None else min(hi, max_d)
        return self._spread_up(bits, hi - lo)

    def shift_window_down(self, bits: int, window: Window) -> int:
        lo, hi = window
        max_d = self.max_len - 1
        if lo > max_d:
            return 0
        if lo:
            bits = (bits >> lo) & self.valid
        hi = max_d if hi is None else min(hi, max_d)
        return self._spread_down(bits, hi - lo)

    def field_indexes(self, bits: int) -> list[int]:
        """Ascending pattern indexes whose field holds any set bit."""
        out: list[int] = []
        offsets = self.offsets
        last = -1
        for slot in iter_bit_indexes(bits):
            idx = bisect_right(offsets, slot) - 1
            if idx != last:
                out.append(idx)
                last = idx
        return out


class QueryPlan:
    """One compiled query lowered for bitmap execution.

    Construction resolves the chain/window structure and the admissible
    id tuples (``under`` expands through the backend's memoized
    descendant sets).  The per-backend bitmaps — stage-1 candidate mask
    and the final match-index list — build
    lazily on first execution and are retained, so a cached plan
    answers repeats (different σ, different limits) with no bitmap work
    at all.
    """

    __slots__ = (
        "chain",
        "windows",
        "min_len",
        "max_len",
        "unsatisfiable",
        "_lock",
        "_mask_ready",
        "_mask",
        "_matches_idx",
        "_verified_idx",
        "_estimate",
        "_strategy",
    )

    def __init__(self, compiled: Sequence, backend) -> None:
        chain: list[tuple[str, tuple[int, ...]]] = []
        windows: list[list] = [[0, 0]]
        unsatisfiable = False
        for kind, payload in compiled:
            if kind == "item":
                chain.append(("in", (payload,)))
                windows.append([0, 0])
            elif kind == "under":
                chain.append(("in", backend._descendants_or_self(payload)))
                windows.append([0, 0])
            elif kind == "oneof":
                if not payload:
                    unsatisfiable = True  # e.g. an unsatisfiable floor
                chain.append(("in", tuple(sorted(payload))))
                windows.append([0, 0])
            elif kind == "notin":
                chain.append(("notin", tuple(sorted(payload))))
                windows.append([0, 0])
            else:
                if kind == "any":
                    lo, hi = 1, 1
                elif kind == "plus":
                    lo, hi = 1, None
                elif kind == "span":
                    lo, hi = 0, None
                else:  # gap
                    lo, hi = payload
                window = windows[-1]
                window[0] += lo
                if hi is None:
                    window[1] = None
                elif window[1] is not None:
                    window[1] += hi
        self.chain = chain
        self.windows: list[Window] = [(w[0], w[1]) for w in windows]
        min_len = len(chain)
        max_len: int | None = len(chain)
        for lo, hi in self.windows:
            min_len += lo
            if hi is None:
                max_len = None
            elif max_len is not None:
                max_len += hi
        self.min_len = min_len
        self.max_len = max_len
        self.unsatisfiable = unsatisfiable
        self._lock = threading.Lock()
        self._mask_ready = False
        self._mask: int | None = None
        self._matches_idx: list[int] | None = None
        self._verified_idx: list[int] | None = None
        self._estimate = None
        self._strategy: str | None = None

    # ------------------------------------------------------------------
    # cost estimation + strategy choice
    # ------------------------------------------------------------------

    def estimate(self, backend):
        """The plan's :class:`~repro.query.cost.CostEstimate` against
        this backend, computed once and retained (plans are per-backend,
        and the plan-cache key includes the planner knobs, so the
        estimate can never go stale under knob flips).

        Also memoized in the backend's ``_cost_stat_cache`` keyed by
        the plan's structure: a plan evicted from (or cleared out of)
        the plan cache and later recompiled picks its price back up
        instead of re-walking postings stats — estimates depend only on
        structure, the stat cache, and the plan-order knob, all of
        which live exactly as long as the backend."""
        est = self._estimate
        if est is None:
            key = (
                "estimate",
                tuple(self.chain),
                tuple(self.windows),
                getattr(backend, "_plan_order", "cost"),
                self.unsatisfiable,
            )
            cache = backend._cost_stat_cache
            est = cache.get(key)
            if est is None:
                est = CostEstimator(backend).estimate(self)
                cache[key] = est
            self._estimate = est
        return est

    def strategy(self, backend) -> str:
        """Execution strategy for a chain query: the estimate's pick,
        unless the backend forces one (``_plan_strategy``, a test and
        benchmark hook) — every strategy answers identically, only the
        work profile differs."""
        chosen = self._strategy
        if chosen is None:
            forced = getattr(backend, "_plan_strategy", None)
            chosen = forced if forced is not None else self.estimate(
                backend
            ).strategy
            self._strategy = chosen
        return chosen

    def verified_indexes(self, backend, compiled) -> list[int]:
        """Ascending match indexes via mask-prune + DP-verify, retained
        on the plan.  The cost planner routes skewed queries here —
        DP-verifying a rare node's few candidates
        beats decoding a ubiquitous node's every occurrence into the
        exact path's bitmaps — and memoizing keeps the steady-state
        profile as flat as the exact path's retained match indexes."""
        cached = self._verified_idx
        if cached is not None:
            return cached
        mask = self.candidate_mask(backend)
        verified = [
            idx
            for idx in iter_bit_indexes(mask or 0)
            if backend._matches(compiled, backend._pattern_at(idx)[0])
        ]
        self._verified_idx = verified
        return verified

    # ------------------------------------------------------------------
    # stage 1: bitset candidate pruning
    # ------------------------------------------------------------------

    def candidate_mask(self, backend) -> int | None:
        """Pattern-index bitmask of candidates surviving the AND of the
        concrete chain nodes' postings bitsets, cheapest (smallest
        *estimated postings volume*) first with an early exit at zero;
        nodes whose postings dwarf the cheapest node's are skipped
        entirely (the mask stays a verified superset — see
        :func:`~repro.query.cost.order_mask_nodes`).  ``None`` when no
        chain node restricts candidates (all-negative queries, or nodes
        admitting the whole vocabulary) — the caller falls back to a
        length-filtered scan."""
        if self._mask_ready:
            return self._mask
        with self._lock:
            return self._candidate_mask_locked(backend)

    # ------------------------------------------------------------------
    # stage 2: exact positional matching
    # ------------------------------------------------------------------

    def _node_position_map(self, backend, space: PositionSpace, node) -> int:
        """Bitmap of slots whose item the chain node admits."""
        node_kind, ids = node
        if node_kind == "in" and len(ids) == len(backend.vocabulary):
            return space.valid  # every slot holds *some* item
        bits = bytearray((space.valid.bit_length() + 7) >> 3 or 1)
        offsets = space.offsets
        for item in ids:
            indexes, positions = backend._positional_postings_for(item)
            for idx, entry in zip(indexes, positions):
                base = offsets[idx]
                for position in entry:
                    slot = base + position
                    bits[slot >> 3] |= 1 << (slot & 7)
        mapped = int.from_bytes(bytes(bits), "little")
        if node_kind == "notin":
            return space.valid & ~mapped
        return mapped

    def match_indexes(self, backend) -> list[int]:
        """Ascending indexes of the patterns matching the query —
        computed once per (plan, backend) by chain propagation, exact
        for every token kind, then retained."""
        cached = self._matches_idx
        if cached is not None:
            return cached
        with self._lock:
            if self._matches_idx is None:
                self._matches_idx = self._compute_matches(backend)
        return self._matches_idx

    def _compute_matches(self, backend) -> list[int]:
        space = backend._position_space()
        if not space.offsets:
            return []
        mask = self._candidate_mask_locked(backend)
        if mask == 0:
            return []
        reach = 0
        for k, node in enumerate(self.chain):
            lo, hi = self.windows[k]
            if k == 0:
                source = space.shift_window_up(space.starts, (lo, hi))
            else:
                source = space.shift_window_up(
                    reach, (lo + 1, None if hi is None else hi + 1)
                )
            reach = source & self._node_position_map(backend, space, node)
            if not reach:
                return []
        anchor = space.shift_window_down(space.ends, self.windows[-1])
        return space.field_indexes(reach & anchor)

    def _candidate_mask_locked(self, backend) -> int | None:
        # Caller holds self._lock (which is not reentrant).
        if self._mask_ready:
            return self._mask
        vocab_size = len(backend.vocabulary)
        usable = [
            ids
            for node_kind, ids in self.chain
            if node_kind == "in" and len(ids) < vocab_size
        ]
        mask: int | None = None
        if usable:
            order = getattr(backend, "_plan_order", "cost")
            if order == "cardinality":
                # the legacy ordering: id-set size says nothing about
                # postings volume, kept as a forcible reference
                usable.sort(key=len)
                ordered = usable
            else:
                # node sizes are a property of the (immutable) backend,
                # not the plan — share the estimator's memo so cold
                # compiles don't re-sum hundreds of per-id estimates
                stat_cache = backend._cost_stat_cache
                sized = []
                for ids in usable:
                    size = stat_cache.get(("node", ids))
                    if size is None:
                        size = sum(
                            backend._postings_size_estimate(item)
                            for item in ids
                        )
                        stat_cache[("node", ids)] = size
                    sized.append((size, ids))
                ordered = [
                    ids for _, ids in order_mask_nodes(sized, order)[0]
                ]
            n_bytes = (backend._num_patterns() + 7) >> 3
            for ids in ordered:
                buf = bytearray(n_bytes)
                for item in ids:
                    for idx in backend._postings_for(item):
                        buf[idx >> 3] |= 1 << (idx & 7)
                node_mask = int.from_bytes(bytes(buf), "little")
                mask = node_mask if mask is None else mask & node_mask
                if not mask:
                    break
        self._mask = mask
        self._mask_ready = True
        return mask

    # ------------------------------------------------------------------
    # wildcard-only queries
    # ------------------------------------------------------------------

    def length_scan_indexes(self, backend) -> list[int]:
        """For an empty chain (wildcards and gaps only) matching is a
        pure length-range test: the per-token consumptions range over
        full integer intervals, so their sum covers ``[min_len,
        max_len]`` with no holes."""
        indexes: list[int] = []
        for length, group in backend._length_groups().items():
            if length >= self.min_len and (
                self.max_len is None or length <= self.max_len
            ):
                indexes.extend(group)
        indexes.sort()
        return indexes


__all__ = ["PositionSpace", "QueryPlan", "iter_bit_indexes"]
