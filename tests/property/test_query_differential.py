"""Differential fuzzing of the query language across all backends.

The evaluate-everywhere-and-compare discipline: random hierarchies,
databases and queries (drawn from all ten token kinds — item, ``^name``,
``?``, ``+``, ``*``, ``*{m,n}`` bounded gap, ``(a|b|^C)`` disjunction,
``!name`` / ``!^Cat`` negation (counted as two kinds: exact and
subtree), ``token@N`` frequency floor — plus per-query σ overrides) are
answered by four implementations that must agree byte for byte on the
ranked ``(pattern, frequency)`` list:

* the naive oracle (:mod:`tests.property.oracle`) — backtracking
  matcher over the raw pattern mapping, no compiled form, no postings,
  no candidate pruning;
* :class:`~repro.query.index.PatternIndex` — in-memory, inverted index,
  answered exactly by the compiled-plan bitmap engine;
* :class:`~repro.serve.store.PatternStore` — single mmap'd store file
  with positional postings, same bitmap engine;
* :class:`~repro.serve.sharded.ShardedPatternStore` — k-way heap merge
  over shard files.

Queries are biased toward gap/adjacency-dense shapes (a third draw from
a ``?``/``*{m,n}``-heavy pool) because position-window arithmetic is
where the plan engine could silently diverge from the DP; a companion
property test asserts stage-1 pruning only ever *over*-admits.

``LASH_DIFF_SEED`` reseeds the generator (CI runs the fixed default
plus one randomized seed per build); ``LASH_DIFF_INSTANCES`` scales the
number of mined instances.  Every failure message carries the seed,
instance and query needed to replay it, and when
``LASH_DIFF_ARTIFACT_DIR`` is set a failing run additionally writes a
replay bundle there — the generated corpus and hierarchy as loadable
files plus a ``replay.txt`` with the one command that reproduces the
crash locally (CI uploads the directory as a build artifact).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro import Hierarchy, Lash, MiningParams, SequenceDatabase
from repro.errors import UnknownItemError
from repro.query import PatternIndex, parse_query
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
    is_negation_only,
    normalize_query,
)
from repro.serve import QueryService, open_store
from tests.property.oracle import oracle_search

SEED = int(os.environ.get("LASH_DIFF_SEED", "20260729"))
N_INSTANCES = int(os.environ.get("LASH_DIFF_INSTANCES", "24"))
QUERIES_PER_INSTANCE = 14
ARTIFACT_DIR = os.environ.get("LASH_DIFF_ARTIFACT_DIR")

#: the ten generated kinds: one per token kind, negation split into its
#: exact and subtree forms (their candidate-selection behavior differs —
#: ``!^C`` excludes a whole subtree), and cycling the required kind over
#: the full tuple guarantees coverage even on unlucky seeds
KINDS = (
    "item",
    "under",
    "any",
    "plus",
    "span",
    "gap",
    "oneof",
    "not",
    "notunder",
    "floor",
)


# ----------------------------------------------------------------------
# random instances and queries
# ----------------------------------------------------------------------


def _random_hierarchy(rng: random.Random) -> Hierarchy:
    """A random forest with occasional extra DAG edges."""
    n = rng.randint(3, 9)
    names = [f"i{k}" for k in range(n)]
    hierarchy = Hierarchy()
    for idx, name in enumerate(names):
        parent = None
        if idx and rng.random() < 0.6:
            parent = names[rng.randrange(idx)]
        hierarchy.add_item(name, parent)
    for idx in range(2, n):
        if rng.random() < 0.15:
            candidate = names[rng.randrange(idx)]
            if candidate not in hierarchy.ancestors_or_self(names[idx]):
                hierarchy.add_edge(names[idx], candidate)
    return hierarchy


def _random_database(rng: random.Random, names) -> SequenceDatabase:
    return SequenceDatabase(
        [
            [rng.choice(names) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(2, 10))
        ]
    )


def _random_name(rng: random.Random, vocab) -> str:
    return vocab.name(rng.randrange(len(vocab)))


def _random_single_token(rng: random.Random, vocab, kind: str) -> QueryToken:
    if kind == "item":
        return ItemToken(_random_name(rng, vocab))
    if kind == "under":
        return UnderToken(_random_name(rng, vocab))
    if kind == "any":
        return AnyToken()
    if kind == "oneof":
        return OneOfToken(
            tuple(
                _random_single_token(
                    rng, vocab, rng.choice(("item", "under"))
                )
                for _ in range(rng.randint(1, 3))
            )
        )
    if kind == "not":
        # exact-item negation, occasionally over a whole disjunction
        return NotToken(
            _random_single_token(
                rng, vocab, "oneof" if rng.random() < 0.3 else "item"
            )
        )
    if kind == "notunder":
        return NotToken(UnderToken(_random_name(rng, vocab)))
    assert kind == "floor"
    # "not" among the inner kinds: `!a@N` is the floor-over-negation
    # form, whose finite candidate set separates it from bare negation
    inner = _random_single_token(
        rng, vocab, rng.choice(("item", "under", "any", "oneof", "not"))
    )
    # floors drawn around real corpus frequencies so some pass, some cut
    anchor = vocab.frequency(rng.randrange(len(vocab)))
    return FloorToken(inner, max(0, anchor + rng.randint(-1, 2)))


def _random_gap(rng: random.Random) -> GapToken:
    lower = rng.randint(0, 2)
    upper = None if rng.random() < 0.3 else lower + rng.randint(0, 2)
    return GapToken(lower, upper)


#: kind pool for gap/adjacency-dense queries: heavy on the tokens that
#: exercise the plan engine's window arithmetic (positional shifts,
#: bounded/unbounded spreads, exact-adjacency chains)
DENSE_KINDS = ("gap", "any", "gap", "plus", "any", "item", "under", "gap")


def _is_dense(tokens) -> bool:
    """A gap/adjacency-dense query: two or more window-shaping tokens
    (``?`` forces exact adjacency arithmetic; ``*{m,n}`` forces bounded
    spreads) — the shapes the compiled-plan accelerator targets."""
    return (
        sum(1 for t in tokens if isinstance(t, (GapToken, AnyToken))) >= 2
    )


def _random_query(
    rng: random.Random, vocab, required_kind: str
) -> tuple[QueryToken, ...]:
    """1–5 tokens, at least one of ``required_kind`` (cycling the
    requirement over all ten kinds guarantees full coverage even on
    unlucky seeds).  The required token's position is biased toward the
    string boundaries so gaps regularly anchor the first and last
    region — the places where off-by-ones in the matcher DP live.

    A third of queries draw from :data:`DENSE_KINDS` instead of the
    uniform pool: gap/adjacency-heavy shapes whose position-window
    arithmetic is where the plan engine can silently diverge from the
    DP (the harness asserts a floor on how many such queries ran)."""
    if rng.random() < 0.35:
        length = rng.randint(2, 5)
        kinds = [rng.choice(DENSE_KINDS) for _ in range(length)]
    else:
        length = rng.randint(1, 4)
        kinds = [rng.choice(KINDS) for _ in range(length)]
    position = rng.choice((0, length - 1, rng.randrange(length)))
    kinds[position] = required_kind
    tokens = []
    for kind in kinds:
        if kind == "plus":
            tokens.append(PlusToken())
        elif kind == "span":
            tokens.append(SpanToken())
        elif kind == "gap":
            tokens.append(_random_gap(rng))
        else:
            tokens.append(_random_single_token(rng, vocab, kind))
    return tuple(tokens)


def _random_min_freq(rng: random.Random, patterns) -> int:
    """A σ override anchored on real pattern frequencies, so some
    queries are cut mid-ranking, some not at all, some entirely."""
    anchor = rng.choice(sorted(patterns.values())) if patterns else 1
    return max(0, anchor + rng.randint(-1, 2))


def _render_token(token: QueryToken) -> str:
    """The string syntax for a token (all generated names are
    syntax-safe ``i<k>`` identifiers)."""
    if isinstance(token, ItemToken):
        return token.name
    if isinstance(token, UnderToken):
        return f"^{token.name}"
    if isinstance(token, AnyToken):
        return "?"
    if isinstance(token, PlusToken):
        return "+"
    if isinstance(token, SpanToken):
        return "*"
    if isinstance(token, GapToken):
        upper = "" if token.max_items is None else token.max_items
        return f"*{{{token.min_items},{upper}}}"
    if isinstance(token, NotToken):
        return f"!{_render_token(token.inner)}"
    if isinstance(token, OneOfToken):
        return "(" + "|".join(_render_token(c) for c in token.choices) + ")"
    assert isinstance(token, FloorToken)
    return f"{_render_token(token.inner)}@{token.floor}"


def _render_query(tokens) -> str:
    return " ".join(_render_token(t) for t in tokens)


def _token_kinds(tokens) -> set[str]:
    kinds: set[str] = set()
    for token in tokens:
        if isinstance(token, ItemToken):
            kinds.add("item")
        elif isinstance(token, UnderToken):
            kinds.add("under")
        elif isinstance(token, AnyToken):
            kinds.add("any")
        elif isinstance(token, PlusToken):
            kinds.add("plus")
        elif isinstance(token, SpanToken):
            kinds.add("span")
        elif isinstance(token, GapToken):
            kinds.add("gap")
        elif isinstance(token, NotToken):
            kinds.add(
                "notunder" if isinstance(token.inner, UnderToken) else "not"
            )
        elif isinstance(token, OneOfToken):
            kinds.add("oneof")
        elif isinstance(token, FloorToken):
            kinds.add("floor")
    return kinds


# ----------------------------------------------------------------------
# replay bundles
# ----------------------------------------------------------------------


def _dump_replay_bundle(database, hierarchy, params, context: str) -> str:
    """Write the failing instance where CI can pick it up as an artifact.

    The bundle holds the generated corpus/hierarchy as loadable files
    (``lash mine --db corpus.txt --hierarchy hierarchy.txt`` works on
    them directly), the mining parameters and failure context as JSON,
    and the one command that replays the whole failing run.
    """
    if not ARTIFACT_DIR:
        return ""
    bundle = Path(ARTIFACT_DIR) / f"diff-seed-{SEED}"
    bundle.mkdir(parents=True, exist_ok=True)
    database.to_file(bundle / "corpus.txt")
    hierarchy.to_file(bundle / "hierarchy.txt")
    (bundle / "failure.json").write_text(
        json.dumps(
            {
                "seed": SEED,
                "instances": N_INSTANCES,
                "sigma": params.sigma,
                "gamma": params.gamma,
                "lam": params.lam,
                "context": context,
            },
            indent=2,
        )
    )
    (bundle / "replay.txt").write_text(
        f"LASH_DIFF_SEED={SEED} LASH_DIFF_INSTANCES={N_INSTANCES} "
        "PYTHONPATH=src python -m pytest -q "
        "tests/property/test_query_differential.py\n"
    )
    return f" [replay bundle: {bundle}]"


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------


def test_differential_oracle_vs_all_backends(tmp_path):
    rng = random.Random(SEED)
    cases = 0
    sigma_cases = 0
    dense_cases = 0
    kinds_covered: set[str] = set()
    paths_total = {"exact": 0, "pruned": 0, "scan": 0, "wildcard": 0}
    for instance in range(N_INSTANCES):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([0, 1, 2, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        patterns, vocab = result.patterns, result.vocabulary

        index = PatternIndex(patterns, vocab)
        single_path = tmp_path / f"i{instance}.store"
        result.to_store(single_path)
        sharded_path = tmp_path / f"i{instance}.shards"
        result.to_store(sharded_path, shards=rng.randint(2, 4))

        try:
            with open_store(single_path) as single, open_store(
                sharded_path
            ) as sharded:
                backends = [index, single, sharded]
                for q in range(QUERIES_PER_INSTANCE):
                    tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                    kinds_covered |= _token_kinds(tokens)
                    if _is_dense(tokens):
                        dense_cases += 1
                    rendered = _render_query(tokens)
                    context = (
                        f"seed={SEED} instance={instance} query={rendered!r}"
                    )

                    # the string syntax round-trips to the generated tokens
                    assert parse_query(rendered) == tokens, context

                    expected = oracle_search(patterns, vocab, tokens)
                    for backend in backends:
                        got = [
                            (m.pattern, m.frequency)
                            for m in backend.search(tokens)
                        ]
                        assert got == expected, (
                            f"{context} backend={type(backend).__name__}: "
                            f"{got!r} != oracle {expected!r}"
                        )

                    # per-query σ override: a rank-prefix cut on every
                    # backend must equal the oracle's plain filter
                    if rng.random() < 0.5:
                        min_freq = _random_min_freq(rng, patterns)
                        floored = oracle_search(
                            patterns, vocab, tokens, min_freq=min_freq
                        )
                        for backend in backends:
                            got = [
                                (m.pattern, m.frequency)
                                for m in backend.search(
                                    tokens, min_freq=min_freq
                                )
                            ]
                            assert got == floored, (
                                f"{context} min_freq={min_freq} "
                                f"backend={type(backend).__name__}: "
                                f"{got!r} != oracle {floored!r}"
                            )
                        sigma_cases += 1

                    # limit must be a plain prefix of the full ranking
                    if expected:
                        cut = rng.randint(1, len(expected))
                        for backend in backends:
                            prefix = [
                                (m.pattern, m.frequency)
                                for m in backend.search(tokens, limit=cut)
                            ]
                            assert prefix == expected[:cut], context
                    cases += 1
                for backend in backends:
                    for path, count in backend.plan_stats()["paths"].items():
                        paths_total[path] += count
        except AssertionError as exc:
            raise AssertionError(
                str(exc)
                + _dump_replay_bundle(
                    database, hierarchy, params, str(exc)
                )
            ) from exc
    assert cases >= 300, f"only {cases} differential cases executed"
    assert sigma_cases >= 50, f"only {sigma_cases} σ-override cases executed"
    assert dense_cases >= 60, (
        f"only {dense_cases} gap/adjacency-dense queries executed"
    )
    assert kinds_covered == set(KINDS), (
        f"token kinds never generated: {set(KINDS) - kinds_covered}"
    )
    # the accelerator's fast paths actually ran: chain queries were
    # answered exactly (no DP) and pruned with the bitset
    assert paths_total["exact"] > 0, f"exact path never taken: {paths_total}"
    assert paths_total["pruned"] > 0, f"pruned path never taken: {paths_total}"


def test_planner_orderings_and_strategies_differential(tmp_path):
    """Every choice the cost planner can make is answer-invariant.

    For random mined instances, every combination of node ordering
    (``cost``/``cardinality``/``worst``) and forced execution strategy
    (``exact``/``pruned``/``scan`` plus estimate-driven ``None``) must
    return the same ranked answers as the naive oracle — on the
    in-memory index, the store file, and the sharded store.  This is
    the guarantee that
    lets admission control trust the estimate: the planner can only
    change *speed*, never answers.
    """
    from repro.query.cost import PLAN_ORDERS, PLAN_STRATEGIES

    rng = random.Random(SEED + 4)
    compared = 0
    strategies_run: set[str] = set()
    for instance in range(max(3, N_INSTANCES // 8)):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([0, 1, 2, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        patterns, vocab = result.patterns, result.vocabulary
        index = PatternIndex(patterns, vocab)
        single_path = tmp_path / f"p{instance}.store"
        result.to_store(single_path)
        sharded_path = tmp_path / f"p{instance}.shards"
        result.to_store(sharded_path, shards=rng.randint(2, 3))
        with open_store(single_path) as single, open_store(
            sharded_path
        ) as sharded:
            backends = [index, single, sharded]
            for q in range(QUERIES_PER_INSTANCE):
                tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                reference = oracle_search(patterns, vocab, tokens)
                for order in PLAN_ORDERS:
                    for strategy in (None, *PLAN_STRATEGIES):
                        for backend in backends:
                            backend.set_planner(order, strategy)
                            strategies_run.add(
                                backend.explain(tokens)["strategy"]
                            )
                            got = [
                                (m.pattern, m.frequency)
                                for m in backend.search(tokens)
                            ]
                            assert got == reference, (
                                f"seed={SEED + 4} instance={instance} "
                                f"query={_render_query(tokens)!r} "
                                f"order={order} strategy={strategy} "
                                f"backend={type(backend).__name__}: "
                                f"{got!r} != oracle {reference!r}"
                            )
                            compared += 1
                for backend in backends:
                    backend.set_planner()
    assert compared >= 300, f"only {compared} planner cases executed"
    ran = strategies_run & set(PLAN_STRATEGIES)
    assert ran == set(PLAN_STRATEGIES), (
        f"strategies never exercised: {set(PLAN_STRATEGIES) - ran}"
    )


def test_plan_pruning_is_superset_of_matches(tmp_path):
    """Stage-1 plan pruning never drops a true match.

    For random queries over random mined instances, the candidate set
    the compiled plan admits (bitset AND of the chain nodes' postings,
    or the wildcard length scan) must be a **superset** of the indexes
    the DP matcher accepts — on the in-memory index and the store file.
    This is the safety property behind the verified strategies:
    pruning may over-admit (the DP cleans up), it must never
    under-admit.
    """
    rng = random.Random(SEED + 1)
    checked = 0
    for instance in range(max(4, N_INSTANCES // 4)):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([0, 1, 2, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        patterns, vocab = result.patterns, result.vocabulary
        index = PatternIndex(patterns, vocab)
        single_path = tmp_path / f"s{instance}.store"
        result.to_store(single_path)
        with open_store(single_path) as single:
            for q in range(QUERIES_PER_INSTANCE):
                tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                for backend in (index, single):
                    compiled = backend._compile(normalize_query(tokens))
                    admitted = backend._plan_candidate_indexes(compiled)
                    true_matches = {
                        idx
                        for idx in range(backend._num_patterns())
                        if backend._matches(
                            compiled, backend._pattern_at(idx)[0]
                        )
                    }
                    context = (
                        f"seed={SEED + 1} instance={instance} "
                        f"query={_render_query(tokens)!r} "
                        f"backend={type(backend).__name__}"
                    )
                    if admitted is None:
                        continue  # unrestricted: trivially a superset
                    dropped = true_matches - set(admitted)
                    assert not dropped, (
                        f"{context}: pruning dropped true matches {dropped}"
                    )
                    checked += 1
    assert checked >= 100, f"only {checked} superset cases executed"


def test_canonicalization_differential(tmp_path):
    """``normalize_query(q)`` is semantics-preserving and cache-unifying.

    For random queries: the raw token tuple and its normalized form
    return identical ranked answers from all three backends, and the
    two string spellings share a single :class:`QueryService` cache
    entry (the second lookup is a cache *hit* — checked through the
    hits counter, so a key regression cannot slip through as a silent
    recompute).
    """
    rng = random.Random(SEED + 2)
    checked = 0
    rewritten = 0
    cache_checked = 0
    for instance in range(4):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        result = Lash(
            MiningParams(sigma=1, gamma=rng.choice([1, None]), lam=3)
        ).mine(database, hierarchy)
        index = PatternIndex(result.patterns, result.vocabulary)
        single_path = tmp_path / f"c{instance}.store"
        result.to_store(single_path)
        sharded_path = tmp_path / f"c{instance}.shards"
        result.to_store(sharded_path, shards=2)
        service = QueryService(index)
        with open_store(single_path) as single, open_store(
            sharded_path
        ) as sharded:
            for q in range(30):
                tokens = _random_query(
                    rng, result.vocabulary, KINDS[q % len(KINDS)]
                )
                normalized = normalize_query(tokens)
                rewritten += normalized != tokens
                context = (
                    f"seed={SEED + 2} instance={instance} "
                    f"query={_render_query(tokens)!r} "
                    f"normalized={_render_query(normalized)!r}"
                )
                for backend in (index, single, sharded):
                    raw = [
                        (m.pattern, m.frequency)
                        for m in backend.search(tokens)
                    ]
                    canon = [
                        (m.pattern, m.frequency)
                        for m in backend.search(normalized)
                    ]
                    assert raw == canon, (
                        f"{context} backend={type(backend).__name__}: "
                        f"{raw!r} != {canon!r}"
                    )
                checked += 1
                if is_negation_only(normalized):
                    continue  # the service refuses these by design
                service.query(_render_query(tokens))
                hits_before = service.stats()["cache_hits"]
                service.query(_render_query(normalized))
                assert service.stats()["cache_hits"] == hits_before + 1, (
                    f"{context}: normalized spelling missed the cache "
                    "entry of the raw spelling"
                )
                cache_checked += 1
    assert checked >= 80, f"only {checked} canonicalization cases executed"
    assert rewritten >= 10, (
        f"only {rewritten} queries were actually rewritten — generator "
        "too tame to exercise the canonicalizer"
    )
    assert cache_checked >= 50, (
        f"only {cache_checked} cache-unification cases executed"
    )


def test_differential_router_backend(tmp_path):
    """The distributed tier joins the evaluate-everywhere discipline.

    Random instances are served by a **router** fanning out over two
    half-cluster shard servers plus one full replica (socket protocol,
    k-way merge), and every random query must come back byte-identical
    to the single-process :class:`ShardedPatternStore` over the same
    manifest — then both half servers are killed, leaving each shard
    exactly one live replica, and the same queries must *still* match
    byte for byte with no partial-result flag: failover, not the
    answer, absorbs the failure.

    Two routers run side by side over the same cluster: one on the
    pipelined, compressed mux wire (the default) and one pinned to
    legacy one-request-per-connection framing — the wire format must
    never leak into results, healthy or degraded.
    """
    from repro.serve.distributed import ShardServer
    from repro.serve.router import ClusterMap, RouterBackend, ServerSpec

    rng = random.Random(SEED + 3)
    compared = 0
    failover_compared = 0
    for instance in range(max(3, N_INSTANCES // 8)):
        hierarchy = _random_hierarchy(rng)
        database = _random_database(rng, list(hierarchy.items))
        params = MiningParams(
            sigma=rng.randint(1, 2),
            gamma=rng.choice([1, None]),
            lam=rng.randint(2, 4),
        )
        result = Lash(params).mine(database, hierarchy)
        vocab = result.vocabulary
        num_shards = rng.randint(2, 4)
        sharded_path = tmp_path / f"r{instance}.shards"
        result.to_store(sharded_path, shards=num_shards)
        half = num_shards // 2 or 1
        lower, upper = list(range(half)), list(range(half, num_shards))

        servers = [
            ShardServer(sharded_path, shard_subset=lower, http_port=None),
            ShardServer(
                sharded_path, shard_subset=upper or None, http_port=None
            ),
            ShardServer(sharded_path, http_port=None),  # full replica
        ]
        router = legacy_router = None
        try:
            for server in servers:
                server.start()
            placement = {}
            specs = []
            for server, shards in zip(
                servers, (lower, upper or lower, range(num_shards))
            ):
                spec = ServerSpec(*server.address)
                specs.append(spec)
                for shard in shards:
                    placement.setdefault(shard, []).append(spec.key)
            cluster = ClusterMap(
                specs, num_shards=num_shards, placement=placement
            )
            router = RouterBackend(
                cluster, pipeline_depth=rng.randint(1, 8)
            )
            legacy_router = RouterBackend(cluster, wire="legacy")
            with open_store(sharded_path) as mono:
                queries = []
                for q in range(QUERIES_PER_INSTANCE):
                    tokens = _random_query(rng, vocab, KINDS[q % len(KINDS)])
                    if is_negation_only(normalize_query(tokens)):
                        continue  # the serving tier refuses these
                    queries.append(tokens)

                def compare(tokens, phase):
                    context = (
                        f"seed={SEED + 3} instance={instance} "
                        f"phase={phase} query={_render_query(tokens)!r}"
                    )
                    expected = [
                        (m.pattern, m.frequency)
                        for m in mono.search(tokens)
                    ]
                    got = [
                        (m.pattern, m.frequency)
                        for m in router.search(tokens)
                    ]
                    assert got == expected, (
                        f"{context}: {got!r} != mono {expected!r}"
                    )
                    assert router.take_partial() is None, context
                    via_legacy = [
                        (m.pattern, m.frequency)
                        for m in legacy_router.search(tokens)
                    ]
                    assert via_legacy == expected, (
                        f"{context} wire=legacy: "
                        f"{via_legacy!r} != mono {expected!r}"
                    )
                    assert legacy_router.take_partial() is None, context
                    if expected:
                        cut = rng.randint(1, len(expected))
                        prefix = [
                            (m.pattern, m.frequency)
                            for m in router.search(tokens, limit=cut)
                        ]
                        assert prefix == expected[:cut], context
                    min_freq = _random_min_freq(rng, result.patterns)
                    floored = [
                        (m.pattern, m.frequency)
                        for m in mono.search(tokens, min_freq=min_freq)
                    ]
                    got_floored = [
                        (m.pattern, m.frequency)
                        for m in router.search(tokens, min_freq=min_freq)
                    ]
                    assert got_floored == floored, (
                        f"{context} min_freq={min_freq}: "
                        f"{got_floored!r} != mono {floored!r}"
                    )

                for tokens in queries:
                    compare(tokens, "healthy")
                    compared += 1
                assert len(router) == len(mono)
                # the default router actually negotiated the mux wire
                pipeline = router.describe()["pipeline"]
                assert pipeline["wire"] == "auto"
                assert router.describe()["wire"]["frames_sent"] > 0

                # one replica down per shard: both half servers die,
                # the full replica carries every shard
                servers[0].stop()
                servers[1].stop()
                for tokens in queries:
                    compare(tokens, "failover")
                    failover_compared += 1
        finally:
            if router is not None:
                router.close()
            if legacy_router is not None:
                legacy_router.close()
            for server in servers:
                server.stop()
    assert compared >= 20, f"only {compared} router cases executed"
    assert failover_compared >= 20, (
        f"only {failover_compared} failover cases executed"
    )


def test_differential_error_equivalence(tmp_path):
    """Invalid queries fail identically — same exception type — on
    every backend, so a serving tier swap cannot change the API's
    error contract."""
    rng = random.Random(SEED + 1)
    hierarchy = _random_hierarchy(rng)
    database = _random_database(rng, list(hierarchy.items))
    result = Lash(MiningParams(sigma=1, gamma=1, lam=3)).mine(
        database, hierarchy
    )
    index = PatternIndex(result.patterns, result.vocabulary)
    single_path = tmp_path / "err.store"
    result.to_store(single_path)
    sharded_path = tmp_path / "err.shards"
    result.to_store(sharded_path, shards=2)
    with open_store(single_path) as single, open_store(
        sharded_path
    ) as sharded:
        for query in [
            "no-such-item ?",
            "(i0|no-such-item)",
            "^no-such-item@2",
            "!no-such-item i0",
            "!^no-such-item i0",
        ]:
            for backend in (index, single, sharded):
                with pytest.raises(UnknownItemError):
                    backend.search(query)
