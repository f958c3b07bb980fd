"""Extension — query serving throughput: store vs rebuild, plan vs pruned.

Two batteries over the same mined NYT-slice pattern set:

* **store vs rebuild** — the split the serving subsystem exists for:
  ``lash query`` rebuilds a vocabulary and inverted index from the
  patterns TSV on every invocation; ``lash serve`` opens a binary
  :class:`~repro.serve.store.PatternStore` once and answers from it.
  Store-backed serving must sustain thousands of queries/sec where
  rebuild-per-query manages a few, and store ``open()`` must beat any
  rebuild by orders of magnitude.

* **compiled plans vs forced pruning** — the raw-speed matcher: the
  same store answered through compiled query plans (cost-chosen
  strategy, plan cache warm — the steady state a server lives in) vs a
  second handle forced to the ``pruned`` strategy with its plan cache
  cleared before every query, so each query pays bitset pruning plus a
  DP verify of every candidate.  Byte-identity is asserted on every
  query class before timing, so the speedup can't come from serving
  different answers.  The target the
  acceptance gate enforces: **≥5×** on gap/adjacency-heavy classes
  (≥2× in ``--quick`` CI mode, where the corpus is a tenth the size
  and constant overheads dominate).

Results persist to ``BENCH_query.json`` (override with
``LASH_BENCH_QUERY_OUT``) in the same shape as ``BENCH_router.json``:
per-class and overall numbers for the perf trajectory.
"""

import json
import os
import sys
import time

if __name__ == "__main__" and "--quick" in sys.argv:
    # CI smoke entry point: shrink the corpus before conftest reads it
    os.environ.setdefault("REPRO_BENCH_SCALE", "0.1")

from repro import Lash, MiningParams, PatternIndex
from repro.io import read_patterns, write_patterns
from repro.query import code_patterns
from repro.serve import PatternStore, QueryService
from conftest import NYT_SIGMA_LOW
from reporting import BenchReport

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
OUT_PATH = os.environ.get("LASH_BENCH_QUERY_OUT", "BENCH_query.json")
#: seconds each (engine, query class) pair is measured for
MEASURE_S = max(0.2, 1.0 * SCALE)
#: the acceptance floor on gap/adjacency-heavy classes
MIN_SPEEDUP = 2.0 if SCALE < 1.0 else 5.0

QUERIES = [
    "the ^ADJ ?",
    "^PRON ^VERB",
    "? ^PREP ?",
    "^DET * ^NOUN",
    "? ?",
]

#: the plan-vs-DP battery; classes marked dense are the gap/adjacency-
#: heavy shapes the compiled-plan accelerator targets (position-window
#: arithmetic instead of per-candidate DP re-interpretation)
PLAN_QUERIES = {
    "adjacent anchor": ("the ^ADJ ?", True),
    "bounded gap": ("^DET *{0,2} ^NOUN", True),
    "gap + anchor": ("the *{1,3} ?", True),
    "double gap": ("^DET *{0,2} ? *{0,2} ^NOUN", True),
    "wild adjacency": ("? ^PREP ?", True),
    "span walk": ("^PRON * ^VERB", False),
    "negated slot": ("!the ^NOUN", False),
}


def _rebuild_index(tsv_path, hierarchy):
    """What every ``lash query`` invocation pays before matching."""
    patterns = read_patterns(tsv_path)
    coded, vocabulary = code_patterns(patterns, hierarchy)
    return PatternIndex(coded, vocabulary)


def _qps(serve_one, queries, seconds):
    served = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        serve_one(queries[served % len(queries)])
        served += 1
    return served / seconds


def test_store_vs_rebuild_throughput(nyt, tmp_path):
    report = BenchReport(
        "Ext. serving", "store-backed vs rebuild-from-TSV query serving"
    )
    hierarchy = nyt.hierarchy("CLP")
    params = MiningParams(NYT_SIGMA_LOW, 0, 5)
    result = Lash(params).mine(nyt.database, hierarchy)

    tsv_path = tmp_path / "patterns.tsv"
    write_patterns(result, tsv_path)
    store_path = tmp_path / "patterns.store"
    build_start = time.perf_counter()
    result.to_store(store_path)
    store_build_s = time.perf_counter() - build_start

    # --- startup cost -------------------------------------------------
    start = time.perf_counter()
    index = PatternIndex.from_result(result)
    index_build_s = time.perf_counter() - start

    start = time.perf_counter()
    store = PatternStore.open(store_path)
    store_open_s = time.perf_counter() - start

    start = time.perf_counter()
    _rebuild_index(tsv_path, hierarchy)
    rebuild_s = time.perf_counter() - start

    report.add(
        "store build (once)",
        {"s": round(store_build_s, 4), "qps": "-"},
    )
    report.add(
        "index build (in-mem)",
        {"s": round(index_build_s, 4), "qps": "-"},
    )
    report.add(
        "TSV rebuild (per query)",
        {"s": round(rebuild_s, 4), "qps": "-"},
    )
    report.add(
        "store open (per process)",
        {"s": round(store_open_s, 6), "qps": "-"},
    )

    # --- throughput ---------------------------------------------------
    service = QueryService(store, cache_size=256)
    uncached = QueryService(store, cache_size=0)
    timings = {
        "rebuild": _qps(
            lambda q: _rebuild_index(tsv_path, hierarchy).search(q, limit=10),
            QUERIES,
            seconds=2.0,
        ),
        "store": _qps(
            lambda q: uncached.query(q, limit=10), QUERIES, seconds=1.0
        ),
        "store+cache": _qps(
            lambda q: service.query(q, limit=10), QUERIES, seconds=1.0
        ),
    }
    for label in ("rebuild", "store", "store+cache"):
        report.add(
            f"{label} serving",
            {"s": "-", "qps": round(timings[label], 1)},
        )
    report.emit()

    # answers are identical across regimes
    for query in QUERIES:
        assert store.search(query) == index.search(query)
    store.close()

    # store-backed serving beats rebuild-per-query by a wide margin
    assert timings["store"] > 10 * timings["rebuild"]
    assert timings["store+cache"] >= timings["store"]
    # opening the store is far cheaper than any rebuild
    assert store_open_s < rebuild_s / 10
    assert store_open_s < index_build_s


def test_compiled_plan_throughput(nyt, tmp_path):
    report = BenchReport(
        "Ext. raw-speed matcher",
        "compiled plans (positional bitmaps) vs forced pruned, cold (qps)",
    )
    hierarchy = nyt.hierarchy("CLP")
    result = Lash(MiningParams(NYT_SIGMA_LOW, 0, 5)).mine(
        nyt.database, hierarchy
    )
    store_path = tmp_path / "patterns.store"
    result.to_store(store_path)

    accelerated = PatternStore.open(store_path)
    reference = PatternStore.open(store_path)
    reference.set_planner("cost", "pruned")

    def pruned_cold(query):
        # a retained plan would replay its verified indexes: clear it
        # so every query pays the mask build and the DP verify
        reference._plan_cache.clear()
        return reference.search(query)

    results: dict = {}
    try:
        # byte-identity first (full result lists, no limit): the
        # timings below must describe identical answers
        for label, (query, _) in PLAN_QUERIES.items():
            fast = [
                (m.pattern, m.frequency) for m in accelerated.search(query)
            ]
            slow = [(m.pattern, m.frequency) for m in pruned_cold(query)]
            assert fast == slow, f"{label}: accelerated != pruned"

        # full ranked answers, no limit: the count / total_frequency /
        # slot_fillers regime where both handles do complete work (a
        # small limit lets the DP early-exit on queries whose top-
        # ranked candidates happen to match, hiding its full cost)
        speedups_dense = []
        for label, (query, dense) in PLAN_QUERIES.items():
            plan_qps = _qps(
                lambda q: accelerated.search(q), [query], MEASURE_S
            )
            pruned_qps = _qps(pruned_cold, [query], MEASURE_S)
            speedup = plan_qps / pruned_qps if pruned_qps else float("inf")
            if dense:
                speedups_dense.append(speedup)
            results[label] = {
                "query": query,
                "dense": dense,
                "plan_qps": round(plan_qps, 1),
                "pruned_qps": round(pruned_qps, 1),
                "speedup": round(speedup, 2),
            }
            report.add(
                label,
                {
                    "plan_qps": round(plan_qps, 1),
                    "pruned_qps": round(pruned_qps, 1),
                    "speedup": f"{speedup:.1f}x",
                },
            )

        stats = accelerated.plan_stats()
        # every class compiled once, then served from the plan cache
        assert stats["compiles"] >= len(PLAN_QUERIES)
        assert stats["hits"] > stats["compiles"]
        assert stats["paths"]["exact"] > 0

        worst_dense = min(speedups_dense)
        results["_overall"] = {
            "min_dense_speedup": round(worst_dense, 2),
            "target": MIN_SPEEDUP,
            "plan_cache": {
                "compiles": stats["compiles"],
                "hits": stats["hits"],
            },
        }
        report.add(
            "overall",
            {
                "plan_qps": "-",
                "pruned_qps": "-",
                "speedup": f">= {worst_dense:.1f}x (dense)",
            },
        )
    finally:
        accelerated.close()
        reference.close()

    payload = {
        "bench": "query_throughput",
        "patterns": len(result),
        "scale": SCALE,
        "measure_s": MEASURE_S,
        "unit": "qps",
        "queries": results,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {OUT_PATH}", file=sys.__stdout__)
    report.emit()

    assert worst_dense >= MIN_SPEEDUP, (
        f"gap/adjacency-heavy speedup {worst_dense:.2f}x "
        f"below the {MIN_SPEEDUP}x target: {results}"
    )


#: planner-battery floors: the cost-based planner must not regress any
#: compiled-plan class by more than ~10% (measurement noise headroom in
#: --quick, where iterations are few) and must win big on skew
MIN_PLANNER_RATIO = 0.85 if SCALE < 1.0 else 0.95
MIN_SKEW_SPEEDUP = 1.2 if SCALE < 1.0 else 1.5


def _skewed_pair(store):
    """A (ubiquitous, rare) item pair mined from the actual pattern
    set — the postings skew the cost-based node ordering exists for."""
    counts: dict = {}
    for match in store:
        for item in set(match.pattern):
            if item.isalnum():
                counts[item] = counts.get(item, 0) + 1
    ranked = sorted(counts, key=counts.get)
    return ranked[-1], ranked[0]


def _cold_qps(backend, query, seconds):
    """Best single cold iteration in the window, as queries/sec.

    The plan cache is cleared every iteration: the planner's work
    (node ordering, strategy choice) happens at plan build + first
    execution, so a warm cache would time nothing but memoized mask
    reuse.  The position space and vocabulary stay warm — they are
    planner-independent.  The min-time estimator is used instead of a
    windowed mean because at ~1 ms/query a transient load spike folded
    into the mean dwarfs the few-percent planner deltas under test;
    the fastest iteration is the one that saw the machine idle, which
    is the cost being compared."""
    best = float("inf")
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        backend._plan_cache.clear()
        start = time.perf_counter()
        backend.search(query)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return 1.0 / best if best > 0 else float("inf")


def test_planner_battery(nyt, tmp_path):
    """Cost-based planner vs the legacy cardinality ordering, cold.

    Baseline is ``set_planner("cardinality", "exact")`` — the node
    order and strategy the engine shipped with before the planner.
    The cost planner must hold every compiled-plan regression class
    (ratio >= MIN_PLANNER_RATIO) and win >= MIN_SKEW_SPEEDUP on at
    least one postings-skew class, with byte-identical answers across
    every ordering and strategy first.
    """
    report = BenchReport(
        "Ext. query planner",
        "cost-based planning vs cardinality order (cold plans, qps)",
    )
    hierarchy = nyt.hierarchy("CLP")
    result = Lash(MiningParams(NYT_SIGMA_LOW, 0, 5)).mine(
        nyt.database, hierarchy
    )
    store_path = tmp_path / "patterns.store"
    result.to_store(store_path)

    store = PatternStore.open(store_path)
    results: dict = {}
    try:
        common, rare = _skewed_pair(store)
        battery = {
            label: query for label, (query, _) in PLAN_QUERIES.items()
        }
        skew_classes = {
            "skewed pair": f"{common} {rare}",
            "floored rare": f"?@2 {rare}",
        }
        battery.update(skew_classes)

        # byte-identity across every ordering x strategy before timing
        from repro.query.cost import PLAN_ORDERS, PLAN_STRATEGIES

        for label, query in battery.items():
            store.set_planner()
            reference = [
                (m.pattern, m.frequency) for m in store.search(query)
            ]
            for order in PLAN_ORDERS:
                for strategy in (None, *PLAN_STRATEGIES):
                    store.set_planner(order, strategy)
                    got = [
                        (m.pattern, m.frequency)
                        for m in store.search(query)
                    ]
                    assert got == reference, (label, order, strategy)

        best_skew = 0.0
        worst_ratio = float("inf")
        for label, query in battery.items():
            # interleave rounds and keep each config's best window: a
            # single contiguous window is at the mercy of transient
            # machine load, which at ~1 ms/query swamps the
            # few-percent planner deltas under test
            rounds = 3
            baseline_qps = 0.0
            planner_qps = 0.0
            for _ in range(rounds):
                store.set_planner("cardinality", "exact")
                baseline_qps = max(
                    baseline_qps,
                    _cold_qps(store, query, MEASURE_S / rounds),
                )
                store.set_planner("cost", None)
                planner_qps = max(
                    planner_qps,
                    _cold_qps(store, query, MEASURE_S / rounds),
                )
            ratio = (
                planner_qps / baseline_qps if baseline_qps else float("inf")
            )
            if label in skew_classes:
                best_skew = max(best_skew, ratio)
            else:
                worst_ratio = min(worst_ratio, ratio)
            results[label] = {
                "query": query,
                "skewed": label in skew_classes,
                "baseline_qps": round(baseline_qps, 1),
                "planner_qps": round(planner_qps, 1),
                "ratio": round(ratio, 2),
            }
            report.add(
                label,
                {
                    "base_qps": round(baseline_qps, 1),
                    "cost_qps": round(planner_qps, 1),
                    "ratio": f"{ratio:.2f}x",
                },
            )
        store.set_planner()
    finally:
        store.close()

    results["_overall"] = {
        "worst_regression_ratio": round(worst_ratio, 2),
        "best_skew_speedup": round(best_skew, 2),
        "ratio_floor": MIN_PLANNER_RATIO,
        "skew_target": MIN_SKEW_SPEEDUP,
    }
    report.add(
        "overall",
        {
            "base_qps": "-",
            "cost_qps": "-",
            "ratio": (
                f">= {worst_ratio:.2f}x, skew {best_skew:.2f}x"
            ),
        },
    )

    # merge into the battery file the compiled-plan test wrote (this
    # test runs after it in file order; standalone runs start fresh)
    try:
        with open(OUT_PATH, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {"bench": "query_throughput", "scale": SCALE}
    payload["planner"] = results
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {OUT_PATH}", file=sys.__stdout__)
    report.emit()

    assert worst_ratio >= MIN_PLANNER_RATIO, (
        f"cost planner regressed a compiled-plan class to "
        f"{worst_ratio:.2f}x of baseline: {results}"
    )
    assert best_skew >= MIN_SKEW_SPEEDUP, (
        f"best skew-class speedup {best_skew:.2f}x below the "
        f"{MIN_SKEW_SPEEDUP}x target: {results}"
    )


if __name__ == "__main__":
    # `python benchmarks/bench_query_throughput.py [--quick]` runs this
    # file through pytest — `--quick` is the CI smoke mode
    import pytest

    argv = [arg for arg in sys.argv[1:] if arg != "--quick"]
    sys.exit(pytest.main([__file__, "-q", *argv]))
