"""Mining process of the benchmark: parse, mine, write the store.

Run as ``python3 perfbench/mine_worker.py SPEC_JSON`` with ``src`` on
``PYTHONPATH``.  It parses the corpus and hierarchy files of every
corpus repeatedly (set-up, see :func:`parse_setup`), then mines each
corpus into its own 4-shard store, in passes over the corpora until its
time budget is spent, checks the output, and prints one JSON line with
the timings (raw, and scaled to the reference speed of :mod:`speed`
from probes before and after each mine), the job counters, the output
digest, its peak RSS and (when traced) the layer totals of every traced
mine.  Its own peak RSS is the ``peak_rss_mb`` metric, so
mining runs in this process and nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

from repro.core import Lash, MiningParams
from repro.io import read_database, read_hierarchy
from repro.serve import open_store
from repro.sequence.subsequence import support
from speed import paced, probe, scaled

clock = time.perf_counter


def pattern_digest(pairs) -> str:
    """sha256 of the sorted ``pattern<TAB>frequency`` lines."""
    lines = sorted(f"{' '.join(p)}\t{f}" for p, f in pairs)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def oracle_mismatches(result, database, gamma, samples, seed) -> list[str]:
    """Recount the support of a few mined patterns by brute force."""
    vocabulary = result.vocabulary
    encoded = [vocabulary.encode_sequence(seq) for seq in database]
    patterns = sorted(result.patterns)
    rng = random.Random(seed)
    wrong = []
    for pattern in rng.sample(patterns, min(samples, len(patterns))):
        expected = support(vocabulary, pattern, encoded, gamma)
        if expected != result.patterns[pattern]:
            wrong.append(
                f"{vocabulary.render(pattern)}: mined "
                f"{result.patterns[pattern]}, corpus support {expected}"
            )
    return wrong


def job_counts(result) -> dict:
    counters = result.counters
    metrics = result.metrics
    return {
        "map_out_records": counters["MAP_OUTPUT_RECORDS"],
        "map_out_bytes": counters["MAP_OUTPUT_BYTES"],
        "combine_in": counters["COMBINE_INPUT_RECORDS"],
        "combine_out": counters["COMBINE_OUTPUT_RECORDS"],
        "shuffle_bytes": counters["SHUFFLE_BYTES"],
        "shuffle_s": metrics.shuffle_s,
        "psm_candidates": result.local_stats.candidates,
        "psm_outputs": result.local_stats.outputs,
        "patterns": len(result),
    }


def parse(paths) -> list:
    return [(read_database(db), read_hierarchy(hierarchy))
            for db, hierarchy in paths]


def parse_setup(paths, budget_s: float) -> tuple[list, list]:
    """Parse the corpora repeatedly for about ``budget_s`` (set-up).

    Returns the parsed corpora and the time of each parse at the
    reference speed (:func:`speed.paced`)."""
    corpora = parse(paths)  # untimed: the first parse warms the caches
    if budget_s <= 0:
        return corpora, []

    def one() -> None:
        nonlocal corpora
        corpora = parse(paths)

    return corpora, paced(one, budget_s)


def main(spec: dict) -> dict:
    corpora, setup = parse_setup(spec["corpora"], spec["parse_s"])

    params = MiningParams(spec["sigma"], spec["gamma"], spec["lam"])
    root = Path(spec["store_root"])
    stores = [root / f"store-{index}" for index in range(len(corpora))]
    digests = [set() for _ in corpora]
    problems = []
    tracer = None
    mines = []
    passes = 0
    loop_start = clock()
    speed_before = probe()
    while True:
        # one pass mines every corpus once; a traced run's first pass is
        # untraced, the baseline of the tracing overhead
        if spec["trace"] and tracer is None and passes > 0:
            from tracing import Tracer, install

            tracer = install(Tracer(), "mine")
        for index, (database, hierarchy) in enumerate(corpora):
            if tracer is not None:
                tracer.reset()
            shutil.rmtree(stores[index], ignore_errors=True)
            start = clock()
            result = Lash(params).mine(database, hierarchy)
            mined = clock()
            result.to_store(stores[index], shards=spec["shards"])
            end = clock()
            speed_after = probe()
            entry = {
                "pass": passes,
                "corpus": index,
                "t_start": start,
                "mine_s": end - start,
                "scaled_s": scaled(end - start, speed_before, speed_after),
                "store_s": end - mined,
                "traced": tracer is not None,
                "counts": job_counts(result),
                "store_bytes": sum(
                    p.stat().st_size for p in stores[index].iterdir()
                    if p.is_file()
                ),
            }
            if tracer is not None:
                entry["trace"] = tracer.summary()
            mines.append(entry)
            digests[index].add(pattern_digest(result.decoded().items()))
            if passes == 0:
                problems += oracle_mismatches(
                    result, database, params.gamma, spec["oracle_samples"],
                    spec["seed"] + index,
                )
            del result  # one result at a time, so peak RSS is one mine's
            speed_before = speed_after
        passes += 1
        elapsed = clock() - loop_start
        if passes >= spec["min_passes"] and (
            elapsed + elapsed / passes > spec["budget_s"]
        ):
            break

    for index in range(len(corpora)):
        if len(digests[index]) != 1:
            problems.append(
                f"corpus {index}: repeated mines disagree: "
                f"{sorted(digests[index])}"
            )
        with open_store(stores[index]) as served:
            stored = pattern_digest(
                (match.pattern, match.frequency) for match in served
            )
        if stored not in digests[index]:
            problems.append(f"corpus {index}: store content differs "
                            "from the mine")
    if tracer is not None and spec.get("trace_out"):
        tracer.dump(spec["trace_out"])
    per_corpus = [sorted(d)[0] for d in digests]
    return {
        "setup_s": setup,
        "mines": mines,
        # one corpus: its digest; several: the digest of their digests
        "digest": per_corpus[0] if len(per_corpus) == 1 else hashlib.sha256(
            "\n".join(per_corpus).encode("utf-8")).hexdigest(),
        "store": str(stores[0]),
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
