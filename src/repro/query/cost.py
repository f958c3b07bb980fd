"""Per-query cost estimation for the serving-side planner.

The candidate-selection machinery in :mod:`repro.query.plan` used to
order stage-1 postings intersections by raw id-set size — one id per
node tells you nothing about how many *patterns* that id posts to.  This
module prices a compiled :class:`~repro.query.plan.QueryPlan` against a
concrete backend using store statistics that are O(1) per item to read
(:meth:`~repro.query.base.PatternSearchBase._postings_size_estimate`):

* per chain node, the summed estimated postings size of its admissible
  (or, for negations, excluded) id set — the cost of AND-ing that node
  into the candidate mask, and the node ordering key;
* the pattern-length distribution — how many patterns a pure
  length-range scan would visit, and the size of the positional bitmap
  the exact path sweeps;
* a selectivity product over the intersected nodes — the expected
  number of candidates the DP verifier would have to check.

From those it picks the cheapest *correct* execution strategy:

``"exact"``
    positional bitmap propagation — heavy when any
    chain node admits a high-frequency item (its every occurrence is
    decoded into the position map), near-free on repeats (match indexes
    are retained on the plan);
``"pruned"``
    AND the cheap nodes' postings bitsets, DP-verify survivors — wins
    when one node is rare and another ubiquitous: the ubiquitous node is
    skipped entirely instead of decoded;
``"scan"``
    length-filtered scan + DP — the fallback that beats building any
    mask when no node is selective (e.g. an ``?@N`` floor admitting
    most of the vocabulary).

Every strategy yields byte-identical answers by construction (masks are
supersets, the DP verifies, the exact path is exact), so the estimate
can only change *speed*; the differential harness forces each strategy
and every node ordering to prove it.

The same estimate is the admission-control currency:
:class:`~repro.serve.service.QueryService` compares
:attr:`CostEstimate.cost` against its ceiling/budget thresholds, the
router scales its fan-out deadline with it, and the LRU weighs it when
choosing eviction victims.  Constants live in
:mod:`repro.analysis.costmodel` so all layers price work identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.costmodel import (
    COST_BITMAP_BYTE,
    COST_DP_CELL,
    COST_LENGTH_SCAN,
    COST_PATTERN_DECODE,
    COST_POSTINGS_ENTRY,
    NODE_SKIP_FACTOR,
)

#: candidate-mask node orderings the planner can be forced into (tests
#: and benchmarks flip these; answers must not change):
#: ``cost`` — ascending estimated postings size, oversized nodes
#: skipped; ``cardinality`` — the legacy ascending id-set size, nothing
#: skipped; ``worst`` — descending estimated postings size, nothing
#: skipped (the adversarial ordering).
PLAN_ORDERS = ("cost", "cardinality", "worst")

#: execution strategies a plan with a non-empty chain can be forced
#: into (``None`` lets the estimate decide)
PLAN_STRATEGIES = ("exact", "pruned", "scan")


@dataclass(frozen=True)
class CostEstimate:
    """One query's predicted execution price, in abstract work units.

    ``strategy`` is what the planner would run absent a forced
    override: ``exact``/``pruned``/``scan`` for chain queries,
    ``wildcard`` for chainless ones, ``unsatisfiable`` when the query
    can match nothing.  ``candidates`` is the expected DP-verification
    set size; ``nodes`` carries per-concrete-node postings estimates
    (``skipped`` marks nodes the cost ordering leaves out of the mask).
    """

    cost: float
    strategy: str
    candidates: int
    scan_candidates: int
    nodes: tuple[dict, ...] = ()
    shards: int = 1

    def to_dict(self) -> dict:
        return {
            "cost": round(self.cost, 1),
            "strategy": self.strategy,
            "candidates": self.candidates,
            "scan_candidates": self.scan_candidates,
            "nodes": [dict(node) for node in self.nodes],
            "shards": self.shards,
        }

    def to_wire(self) -> dict:
        """Integer-only projection for the socket protocol (the wire
        format has no float type; work units round to ints losslessly
        enough for admission thresholds)."""
        return {
            "cost": int(round(self.cost)),
            "strategy": self.strategy,
            "candidates": self.candidates,
            "scan_candidates": self.scan_candidates,
            "shards": self.shards,
        }


def combine_estimates(estimates) -> CostEstimate:
    """Fold per-shard estimates into one handle-level estimate: costs
    and candidate counts add (shards partition the patterns); the
    strategy is reported when the shards agree, ``"mixed"`` otherwise
    (per-shard statistics can legitimately pick different plans)."""
    estimates = [est for est in estimates if est is not None]
    if not estimates:
        return CostEstimate(
            cost=0.0, strategy="unsatisfiable", candidates=0,
            scan_candidates=0,
        )
    strategies = {est.strategy for est in estimates}
    nodes: tuple[dict, ...] = ()
    if estimates and all(
        len(est.nodes) == len(estimates[0].nodes) for est in estimates
    ):
        nodes = tuple(
            {
                "kind": group[0]["kind"],
                "ids": group[0]["ids"],
                "postings": sum(node["postings"] for node in group),
                "skipped": all(node["skipped"] for node in group),
            }
            for group in zip(*(est.nodes for est in estimates))
        )
    return CostEstimate(
        cost=sum(est.cost for est in estimates),
        strategy=strategies.pop() if len(strategies) == 1 else "mixed",
        candidates=sum(est.candidates for est in estimates),
        scan_candidates=sum(est.scan_candidates for est in estimates),
        nodes=nodes,
        shards=sum(est.shards for est in estimates),
    )


def order_mask_nodes(sized: list, order: str) -> tuple[list, list]:
    """Order ``(estimated postings, ids)`` pairs for mask intersection
    and split off the ones the ``cost`` ordering skips.  Returns
    ``(included, skipped)`` — both in intersection order.  Skipping is
    sound because the mask is an AND of postings supersets: any node
    subset still yields a superset of the true matches, which the DP
    (or the exact propagation) then verifies."""
    ranked = sorted(sized, key=lambda pair: (pair[0], len(pair[1])))
    if order == "worst":
        ranked.reverse()
        return ranked, []
    if order == "cardinality":
        return sorted(sized, key=lambda pair: len(pair[1])), []
    ceiling = NODE_SKIP_FACTOR * max(ranked[0][0], 1)
    included = [pair for pair in ranked if pair[0] <= ceiling]
    skipped = [pair for pair in ranked if pair[0] > ceiling]
    return included, skipped


class CostEstimator:
    """Prices a compiled plan against one backend's store statistics."""

    def __init__(self, backend) -> None:
        self._backend = backend

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def node_entries(self, ids) -> int:
        """Summed estimated postings size of a node's id set.

        Memoized per backend: pricing a ``^Category`` node sums
        hundreds of per-id estimates, and the sum is a property of the
        (immutable) store, not of the query."""
        backend = self._backend
        cache = backend._cost_stat_cache
        key = ("node", ids)
        size = cache.get(key)
        if size is None:
            size = sum(
                backend._postings_size_estimate(item) for item in ids
            )
            cache[key] = size
        return size

    def _length_stats(self) -> tuple[int, int, float]:
        """``(pattern count, max length, average length)``, memoized."""
        cache = self._backend._cost_stat_cache
        stats = cache.get(("lengths",))
        if stats is None:
            total = 0
            count = 0
            longest = 1
            for length, group in self._backend._length_groups().items():
                n = len(group)
                count += n
                total += length * n
                if length > longest:
                    longest = length
            stats = (count, longest, (total / count if count else 1.0))
            cache[("lengths",)] = stats
        return stats

    def _scan_count(self, plan) -> int:
        """Patterns a length-range scan for this plan would visit,
        memoized per (min, max) length window."""
        cache = self._backend._cost_stat_cache
        key = ("scan", plan.min_len, plan.max_len)
        count = cache.get(key)
        if count is None:
            count = 0
            for length, group in self._backend._length_groups().items():
                if length >= plan.min_len and (
                    plan.max_len is None or length <= plan.max_len
                ):
                    count += len(group)
            cache[key] = count
        return count

    # ------------------------------------------------------------------
    # the estimate
    # ------------------------------------------------------------------

    def estimate(self, plan) -> CostEstimate:
        if plan.unsatisfiable:
            return CostEstimate(
                cost=1.0, strategy="unsatisfiable", candidates=0,
                scan_candidates=0,
            )
        backend = self._backend
        n_patterns, max_len, avg_len = self._length_stats()
        scan_count = self._scan_count(plan)
        if not plan.chain:
            # chainless queries read length groups straight through —
            # no DP, no mask, just pattern decodes
            return CostEstimate(
                cost=1.0 + scan_count * COST_PATTERN_DECODE,
                strategy="wildcard",
                candidates=scan_count,
                scan_candidates=scan_count,
            )

        vocab_size = len(backend.vocabulary)
        node_stats: list[dict] = []
        sized: list[tuple[int, tuple[int, ...]]] = []
        exact_decode = 0  # postings entries the exact path decodes
        for node_kind, ids in plan.chain:
            whole = node_kind == "in" and len(ids) == vocab_size
            entries = 0 if whole else self.node_entries(ids)
            node_stats.append(
                {
                    "kind": node_kind,
                    "ids": len(ids),
                    "postings": entries,
                    "skipped": False,
                }
            )
            exact_decode += entries
            if node_kind == "in" and not whole:
                sized.append((entries, ids))

        order = getattr(backend, "_plan_order", "cost")
        candidates = float(scan_count)
        mask_cost = 0.0
        if sized:
            included, skipped = order_mask_nodes(sized, order)
            # mark skipped nodes in the per-node stats by their id
            # tuple (chain nodes can repeat an id set; marking all
            # occurrences is the conservative, readable choice)
            skipped_sets = {ids for _, ids in skipped}
            for stat, (node_kind, ids) in zip(node_stats, plan.chain):
                if node_kind == "in" and ids in skipped_sets:
                    stat["skipped"] = True
            mask_cost = (
                sum(entries for entries, _ in included) * COST_POSTINGS_ENTRY
            )
            candidates = float(min(entries for entries, _ in included))
            for entries, _ in included[1:]:
                candidates *= min(1.0, entries / max(1, n_patterns))
            candidates = min(candidates, float(scan_count))

        query_width = len(plan.chain) + len(plan.windows)
        dp_unit = (
            query_width * avg_len * COST_DP_CELL + COST_PATTERN_DECODE
        )
        pruned_cost = mask_cost + candidates * dp_unit
        scan_cost = 1.0 + scan_count * (
            dp_unit if plan.chain else COST_LENGTH_SCAN
        )

        # the exact path decodes every chain node's positional postings
        # into slot bitmaps, then sweeps the whole position space once
        # per node (size memoized with the other stats)
        space_bytes = backend._cost_stat_cache.get(("space",))
        if space_bytes is None:
            space_bytes = (
                sum(
                    (length + max_len) * len(group)
                    for length, group in backend._length_groups().items()
                )
                // 8
            ) or 1
            backend._cost_stat_cache[("space",)] = space_bytes
        exact_cost = (
            mask_cost
            + exact_decode * COST_POSTINGS_ENTRY
            + len(plan.chain) * space_bytes * COST_BITMAP_BYTE
        )
        # all three executions are correct; ties prefer the earlier
        # option (exact: no per-candidate DP cliff)
        options = [("exact", exact_cost)]
        if sized:
            options.append(("pruned", pruned_cost))
        options.append(("scan", scan_cost))
        chosen, cost = min(options, key=lambda pair: pair[1])

        return CostEstimate(
            cost=cost,
            strategy=chosen,
            candidates=int(candidates),
            scan_candidates=scan_count,
            nodes=tuple(node_stats),
        )


__all__ = [
    "CostEstimate",
    "CostEstimator",
    "combine_estimates",
    "order_mask_nodes",
    "PLAN_ORDERS",
    "PLAN_STRATEGIES",
]
