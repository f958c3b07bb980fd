"""Spans around the public calls of each layer, for the traced run.

``install(tracer, role)`` replaces module and class attributes with
timing wrappers; nothing here runs unless a traced run asks for it, so
the untraced runs carry no wrappers at all.

A span has a name (its layer), start, end, parent span and request id.
Per layer the tracer keeps exact totals:

* ``calls``;
* ``busy_s``: time inside the layer's outermost spans (a span nested in
  a span of the same layer is not counted twice);
* ``self_s``: span time minus the time of its child spans.

Spans stay in memory (at most ``SPAN_CAP`` per layer; totals stay exact
beyond the cap) and are written out by :meth:`Tracer.dump` when the
process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

SPAN_CAP = 2000

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.layers: dict[str, list] = {}  # layer -> [calls, busy, self]
        self.spans: list[tuple] = []
        self._kept: dict[str, int] = {}
        #: request id -> seconds inside QueryService for that request
        self.request_service: dict[str, float] = {}
        #: free-form probe samples (fold sizes, swap queries, ...)
        self.values: dict[str, list[float]] = {}
        self.swapped = False

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> str | None:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: str | None) -> None:
        self._local.rid = rid

    def _push(self, layer: str, new_call: bool = True) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        nested = any(frame[1] == layer for frame in stack)
        frame = [next(self._ids), layer, 0.0, nested, parent, new_call]
        stack.append(frame)
        return frame

    def _pop(self, frame: list, start: float, end: float) -> None:
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        span_id, layer, children, nested, parent, new_call = frame
        rid = self.request_id
        with self._lock:
            totals = self.layers.get(layer)
            if totals is None:
                totals = self.layers[layer] = [0, 0.0, 0.0]
            if new_call:
                totals[0] += 1
            if not nested:
                totals[1] += duration
            totals[2] += duration - children
            if layer == "service" and not nested and rid is not None:
                self.request_service[rid] = (
                    self.request_service.get(rid, 0.0) + duration
                )
            kept = self._kept.get(layer, 0)
            if kept < SPAN_CAP:
                self._kept[layer] = kept + 1
                self.spans.append((span_id, layer, start, end, parent, rid))

    def note(self, name: str, value: float) -> None:
        with self._lock:
            self.values.setdefault(name, []).append(value)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, generator: bool = False):
        original = getattr(owner, attr)
        if generator:
            wrapper = self._generator_wrapper(original, layer)
        else:
            wrapper = self._call_wrapper(original, layer)
        setattr(owner, attr, wrapper)
        return original

    def _call_wrapper(self, original, layer: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = self._push(layer)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self._pop(frame, start, clock())

        return traced

    def _generator_wrapper(self, original, layer: str):
        # a generator's work happens at each resumption: every resumption
        # is one span of the layer, and only the first counts as a call
        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            first = True
            while True:
                frame = self._push(layer, new_call=first)
                first = False
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._pop(frame, start, clock())
                yield item

        return traced

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        with self._lock:
            return {
                "layers": {
                    layer: {"calls": c, "busy_s": b, "self_s": s}
                    for layer, (c, b, s) in sorted(self.layers.items())
                },
                "request_service": dict(self.request_service),
                "values": {k: list(v) for k, v in self.values.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self.layers.clear()
            self.request_service.clear()
            self.values.clear()

    def dump(self, path) -> None:
        payload = self.summary()
        with self._lock:
            payload["spans"] = [
                {
                    "id": s[0], "name": s[1], "start": s[2], "end": s[3],
                    "parent": s[4], "request": s[5],
                }
                for s in self.spans
            ]
        tmp = f"{path}.part"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# what each process wraps
# ----------------------------------------------------------------------


def _install_mine(tracer: Tracer) -> None:
    from repro.core import lash, partition, psm, result
    from repro.mapreduce import engine

    tracer.wrap(lash.Lash, "mine", "mine")
    tracer.wrap(lash.Lash, "preprocess", "flist")
    tracer.wrap(lash, "partition_emissions", "map", generator=True)
    tracer.wrap(partition, "rewrite_for_pivot", "map.rewrite")
    tracer.wrap(lash.PartitionMineJob, "kv_size", "meter")
    tracer.wrap(lash.PartitionMineJob, "combine", "combine", generator=True)
    tracer.wrap(psm.PivotSequenceMiner, "mine_partition", "psm")
    tracer.wrap(result.MiningResult, "to_store", "store.write")

    run_reduce_task = engine.run_reduce_task

    @functools.wraps(run_reduce_task)
    def counted_reduce(job, partition_, counters, crash_after=None):
        if job.name == "lash":
            tracer.note(
                "reduce_task_records",
                sum(len(values) for values in partition_.values()),
            )
        return run_reduce_task(job, partition_, counters, crash_after)

    engine.run_reduce_task = counted_reduce


def _install_serve(tracer: Tracer) -> None:
    from repro.hierarchy import vocabulary
    from repro.query import base, plan
    from repro.serve import (
        compact, distributed, http, router, service, sharded,
    )

    for module in (service, router, sharded, distributed, base):
        tracer.wrap(module, "normalize_query", "normalize")
    tracer.wrap(plan.QueryPlan, "__init__", "plan.compile")
    for cls in (
        base.PatternSearchBase, sharded.ShardedPatternStore,
        router.RouterBackend,
    ):
        tracer.wrap(cls, "estimate_cost", "cost")
    for name in (
        "candidate_mask", "match_indexes", "verified_indexes",
        "length_scan_indexes",
    ):
        tracer.wrap(plan.QueryPlan, name, "match")
    tracer.wrap(vocabulary.Vocabulary, "decode_sequence", "decode")
    for name in ("query", "count", "batch"):
        tracer.wrap(service.QueryService, name, "service")
    tracer.wrap(router.ShardClient, "request", "router.scatter")
    for name in ("search", "prefetch"):
        tracer.wrap(router.RouterBackend, name, "router.merge")
    for name in ("partial_search", "partial_top"):
        tracer.wrap(distributed, name, "shard")
    tracer.wrap(http.PatternRequestHandler, "_handle", "http")
    handle = http.PatternRequestHandler._handle

    @functools.wraps(handle)
    def handle_with_id(self, route):
        tracer.request_id = self.headers.get("X-Bench-Id")
        try:
            return handle(self, route)
        finally:
            tracer.request_id = None

    http.PatternRequestHandler._handle = handle_with_id

    # the first service call after a store swap pays the cold plan and
    # position-space rebuild; record its duration separately
    query = service.QueryService.query

    @functools.wraps(query)
    def query_after_swap(self, *args, **kwargs):
        if not tracer.swapped:
            return query(self, *args, **kwargs)
        tracer.swapped = False
        start = clock()
        try:
            return query(self, *args, **kwargs)
        finally:
            tracer.note("swap_query_s", clock() - start)

    service.QueryService.query = query_after_swap

    swap = compact.CompactionDaemon._swap

    @functools.wraps(swap)
    def noted_swap(self):
        swap(self)
        tracer.swapped = True

    compact.CompactionDaemon._swap = noted_swap

    fold = tracer.wrap(compact.StoreCompactor, "compact", "compact.fold")
    traced_fold = compact.StoreCompactor.compact

    @functools.wraps(fold)
    def measured_fold(self, deltas=(), *args, **kwargs):
        deltas = list(deltas)
        delta_bytes = sum(os.path.getsize(d) for d in deltas)
        stats = traced_fold(self, deltas, *args, **kwargs)
        from repro.serve.format import read_manifest

        manifest = read_manifest(self.path)
        written = sum(
            (self.path / name).stat().st_size
            for name in manifest["shard_files"]
        )
        tracer.note("fold_pending", len(deltas))
        if delta_bytes:
            tracer.note("fold_rewrite_ratio", written / delta_bytes)
        return stats

    compact.StoreCompactor.compact = measured_fold


def _install_ingest(tracer: Tracer) -> None:
    from repro.core import lash
    from repro.serve import ingest

    tracer.wrap(ingest.Ingestor, "add", "ingest.add")
    tracer.wrap(lash, "micro_mine", "ingest.micro_mine")


ROLES = {
    "mine": _install_mine,
    "serve": _install_serve,
    "ingest": _install_ingest,
}


def install(tracer: Tracer, role: str) -> Tracer:
    ROLES[role](tracer)
    return tracer
