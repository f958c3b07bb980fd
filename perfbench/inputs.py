"""Seeded inputs of the four workloads.

Everything the program sees is written to files here: a corpus, its
hierarchy, and (for the serving workloads) the held-out sentences and
the query stream.  The same seed always gives the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import (
    ProductDataConfig,
    TextCorpusConfig,
    generate_product_data,
    generate_text_corpus,
)
from repro.datasets.zipf import ZipfSampler

#: seed of the product taxonomy, which is the same in every run (a shop's
#: catalogue); ``--seed`` draws the user sessions over it
CATALOGUE_SEED = 29

#: open-loop request rate per target, on one connection.  At 66 ms
#: between requests a connection that has been used back to back stays
#: in the delayed-ACK (ping-pong) state, so every answer carries the
#: keep-alive stall, as it does for a busy client
OPEN_RATE = 15.0
#: back-to-back requests that warm up each open-loop connection; without
#: them the open loop lands in either state, differently from run to run
WARMUP = 10
#: closed-loop requests per second of read phase
CLOSED_PER_S = 7
#: share of /batch requests in the stream, and queries per batch
BATCH_EVERY = 10
BATCH_SIZE = 8
#: share of /count requests (the rest are /query)
COUNT_EVERY = 3
QUERY_LIMIT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "text" or "products"
    size: int  # sentences or users
    sigma: int
    gamma: int | None
    lam: int
    levels: int | None = None  # product hierarchy depth (h2..h8)
    held_out: int = 0  # sentences kept back for live ingestion
    pool: int = 0  # distinct queries in the read stream's pool
    corpora: int = 1  # independent corpora drawn from one seed
    mine_share: float = 0.0  # share of --seconds spent mining
    read_share: float = 0.0  # share of --seconds spent on read phases
    serving: bool = False  # set-up is a server start, not a corpus parse
    ingest: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mine-text", "text", 5000, 20, 0, 3, pool=600,
                 mine_share=0.65, read_share=0.3),
        Workload("mine-sessions", "products", 2000, 10, 1, 5, levels=8,
                 pool=600, corpora=5, mine_share=0.75, read_share=0.3),
        Workload("serve-read", "text", 6000, 20, 0, 4, pool=1500,
                 mine_share=0.8, read_share=0.45, serving=True),
        Workload("serve-ingest", "text", 1000, 1, 0, 3, held_out=100,
                 pool=1500, mine_share=0.5, read_share=0.2, serving=True,
                 ingest=True),
    )
}


def write_corpora(workload: Workload, seed: int, out: Path) -> list[dict]:
    """Write the workload's corpora under ``out``, one directory each.

    Corpus ``i`` of ``seed`` is drawn from ``seed * corpora + i``, so a
    workload with one corpus draws it from ``seed`` itself.
    """
    return [
        write_corpus(workload, seed * workload.corpora + index,
                     out / f"corpus{index}")
        for index in range(workload.corpora)
    ]


def write_corpus(workload: Workload, seed: int, out: Path) -> dict:
    """Generate one corpus and hierarchy file under ``out``.

    Returns the in-memory views the generator needs later: the
    directory, the mined sequences, the held-out sequences, the
    hierarchy, and item frequencies for building queries.
    """
    out.mkdir(parents=True, exist_ok=True)
    if workload.kind == "text":
        corpus = generate_text_corpus(
            TextCorpusConfig(
                num_sentences=workload.size + workload.held_out, seed=seed
            )
        )
        hierarchy = corpus.hierarchy("CLP")
        sequences = list(corpus.database)
    else:
        hierarchy, sequences = product_sessions(
            workload.size, workload.levels, seed
        )
    base = sequences[: workload.size]
    held_out = sequences[workload.size:]
    with open(out / "corpus.txt", "w", encoding="utf-8") as f:
        for seq in base:
            f.write(" ".join(seq) + "\n")
    hierarchy.to_file(out / "hierarchy.txt")
    counts: dict[str, int] = {}
    for seq in base:
        for item in seq:
            counts[item] = counts.get(item, 0) + 1
    return {
        "dir": out,
        "base": base,
        "held_out": held_out,
        "hierarchy": hierarchy,
        "counts": counts,
    }


def product_sessions(users: int, levels: int, seed: int):
    """Sessions of ``users`` users over the fixed catalogue.

    The catalogue comes from ``generate_product_data`` with
    ``CATALOGUE_SEED``; the sessions follow that generator's process
    (a few preferred root categories per user, Zipf popularity within
    each, geometric session lengths), drawn from ``seed``.  Drawing a new
    catalogue per seed would make the mining work swing by a factor of
    two between seeds.
    """
    config = ProductDataConfig(num_users=0, seed=CATALOGUE_SEED)
    catalogue = generate_product_data(config)
    by_root: dict[str, list[str]] = {}
    for product, chain in catalogue.chains.items():
        by_root.setdefault(chain[-1], []).append(product)
    rng = random.Random(seed)
    np_rng = np.random.default_rng(seed)
    samplers = {
        root: ZipfSampler(len(pool), config.zipf_exponent, np_rng)
        for root, pool in by_root.items()
    }
    roots = sorted(by_root)
    sessions = []
    for _ in range(users):
        preferred = rng.sample(
            roots, k=min(len(roots), rng.choice((1, 1, 2, 3)))
        )
        length = min(
            config.max_session_length,
            max(1, int(np_rng.geometric(1.0 / config.avg_session_length))),
        )
        sessions.append(tuple(
            by_root[root][int(samplers[root].sample())]
            for root in (rng.choice(preferred) for _ in range(length))
        ))
    return catalogue.hierarchy(levels), sessions


def query_pool(corpus: dict, size: int, seed: int) -> list[str]:
    """``size`` distinct queries covering all ten token kinds.

    Kinds: ``name``, ``^name``, ``?``, ``+``, ``*``, ``*{m,n}``,
    ``*{m,}``, ``(a|b|^C)``, ``!token`` and ``token@N``.  Every query
    carries at least one positive item or subtree, so none is refused.
    """
    rng = random.Random(seed * 7919 + 17)
    hierarchy = corpus["hierarchy"]
    counts = corpus["counts"]
    items = sorted(counts, key=lambda i: (-counts[i], i))[:300]
    weights = [counts[i] for i in items]
    categories = sorted(
        {a for item in items for a in hierarchy.ancestors(item)}
    )

    def item() -> str:
        return rng.choices(items, weights)[0]

    def under() -> str:
        return "^" + rng.choice(categories) if categories else item()

    def floor() -> int:
        return rng.choice((2, 5, 10, 50))

    templates = [
        lambda: f"{item()} ?",
        lambda: f"{under()} {item()}",
        lambda: f"{item()} + {item()}",
        lambda: f"{item()} * {under()}",
        lambda: f"{under()} *{{0,2}} {item()}",
        lambda: f"{item()} *{{1,}} ?",
        lambda: f"({item()}|{item()}|{under()}) ?",
        lambda: f"{item()} !{item()}",
        lambda: f"{under()}@{floor()} ?",
        lambda: f"? {item()} ?",
    ]
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < size:
        query = templates[len(pool) % len(templates)]()
        if query not in seen:
            seen.add(query)
            pool.append(query)
    return pool


def request_stream(pool: list[str], length: int, seed: int) -> list[tuple]:
    """A Zipf-skewed request stream over ``pool``.

    Each entry is ``(endpoint, payload)``: ``("/query", (q, min_freq))``,
    ``("/count", (q, min_freq))`` or ``("/batch", (queries, min_freq))``.
    Every fifth single query carries a ``min_freq`` override.
    """
    rng = random.Random(seed * 104729 + 3)
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    order = list(pool)
    rng.shuffle(order)

    def pick() -> str:
        return rng.choices(order, weights)[0]

    stream = []
    for position in range(length):
        min_freq = rng.choice((2, 10)) if position % 5 == 4 else None
        if position % BATCH_EVERY == BATCH_EVERY - 1:
            batch = tuple(pick() for _ in range(BATCH_SIZE))
            stream.append(("/batch", (batch, min_freq)))
        elif position % COUNT_EVERY == COUNT_EVERY - 1:
            stream.append(("/count", (pick(), min_freq)))
        else:
            stream.append(("/query", (pick(), min_freq)))
    return stream
