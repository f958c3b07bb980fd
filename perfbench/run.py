"""Benchmark of the whole mine → store → serve → ingest system.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mine-text --seed 1 --seconds 18 \
        --trace 0

``--workload all`` runs the four workloads one after the other.  Every
workload generates its inputs from ``--seed``, mines them into a 4-shard
store in a separate process (``mine_worker.py``), serves the store
through the CLI (``lash serve``, and ``lash shard-serve`` twice plus
``lash route`` for the routed setup), drives keep-alive HTTP/1.1 load
at it from at most two client threads, and checks every answer.
``serve-ingest`` also ingests and retires sequences through
``Ingestor.add``/``retire`` while the reads run, and finally compares
the live shards byte for byte with a fresh σ=1 mine of the retained
corpus.

Human-readable report lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``, a separate run
with timing wrappers around each layer's public calls).  The exit code
is non-zero when any output check failed.  Workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

clock = time.perf_counter
SHARDS = 4
SETUP_STARTS = 7  # server starts per run; serve set-up is their median
PARSE_S = 1.0  # corpus parses for this long; mine set-up is their median
COMPACT_INTERVAL = 0.1  # lash serve --compact-interval of serve-ingest
INGEST_BATCHES = 5  # Ingestor.add calls of serve-ingest; one retire follows
POLL_PAUSE = 0.05  # between the generator's freshness polls
INGEST_SHARE = 0.85  # share of --seconds the batches and the retire span
ROUTED_SLICES = ([0, 1], [2, 3])  # two shard servers, two shards each
ADDRESS_RE = re.compile(r"on (?:http://)?([0-9.]+):([0-9]+)\s*$")


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------


def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def p99(values) -> float | None:
    """The 99th percentile, when at least ten samples lie beyond it."""
    ordered = sorted(values)
    if len(ordered) * 0.01 < 10:
        return None
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def system_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import platform

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
    }


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


@dataclass
class Server:
    name: str
    proc: subprocess.Popen
    address: tuple[str, int]
    started: float
    trace_out: Path | None
    log: Path


class Processes:
    """Every process the run starts; :meth:`stop_all` ends them all."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.servers: list[Server] = []

    def start(self, name: str, args: list[str], traced: bool) -> Server:
        log = self.work / f"{name}.log"
        trace_out = self.work / f"{name}.trace.json" if traced else None
        if traced:
            command = [sys.executable, "-u", str(HERE / "launch.py"),
                       str(trace_out)] + args
        else:
            command = [sys.executable, "-u", "-m", "repro.cli"] + args
        started = clock()
        with open(log, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(
                command, stdout=out, stderr=subprocess.STDOUT,
                env=subprocess_env(), cwd=ROOT,
            )
        server = Server(name, proc, ("", 0), started, trace_out, log)
        self.servers.append(server)
        deadline = started + 60
        while clock() < deadline:
            for line in log.read_text(encoding="utf-8").splitlines():
                match = ADDRESS_RE.search(line)
                if match:
                    server.address = (match.group(1), int(match.group(2)))
                    return server
            if proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(
            f"{name} did not start: {log.read_text(encoding='utf-8')}"
        )

    def stop(self, server: Server) -> dict | None:
        """Stop a server the way Ctrl-C does; returns its trace dump."""
        if server.proc.poll() is None:
            server.proc.send_signal(signal.SIGINT)
            try:
                server.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.proc.kill()
                server.proc.wait()
        if server in self.servers:
            self.servers.remove(server)
        if server.trace_out is not None and server.trace_out.exists():
            return json.loads(server.trace_out.read_text(encoding="utf-8"))
        return None

    def stop_all(self) -> None:
        for server in list(self.servers):
            self.stop(server)


def run_worker(spec: dict) -> dict:
    """Run ``mine_worker.py`` to completion and return its report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "mine_worker.py"), json.dumps(spec)],
        capture_output=True, text=True, env=subprocess_env(), cwd=ROOT,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"mine worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def get_json(address, path: str) -> dict:
    from client import Client

    client = Client(address)
    try:
        return client.get_json(path)
    finally:
        client.close()


# ----------------------------------------------------------------------
# answers and checks
# ----------------------------------------------------------------------


def expected_answers(store: Path, stream) -> dict:
    """Answer bytes of the in-process store for every distinct request."""
    from inputs import QUERY_LIMIT
    from repro.serve import QueryService, open_store

    backend = open_store(store)
    service = QueryService(backend)
    answers = {}
    try:
        for endpoint, payload in stream:
            key = (endpoint, payload)
            if key in answers:
                continue
            query, min_freq = payload
            if endpoint == "/query":
                answer = service.query(query, QUERY_LIMIT, min_freq)
            elif endpoint == "/count":
                answer = service.count(query, min_freq)
            else:
                answer = {
                    "results": service.batch(
                        list(query), QUERY_LIMIT, min_freq
                    )
                }
            answers[key] = json.dumps(answer).encode("utf-8")
    finally:
        backend.close()
    return answers


#: ``estimated_cost`` is the planner's price, not part of the answer; it
#: depends on which postings the process has already decoded, so it is
#: left out of every comparison
PRICE = ("estimated_cost",)
#: the router prices queries from shard statistics and carries no
#: freshness watermarks
ROUTER_OMITS = PRICE + ("ingested_through", "retained_from")


def answer_view(body: bytes, omit=PRICE) -> bytes:
    """The answer bytes without the fields in ``omit``."""
    answer = json.loads(body)
    for entry in answer.get("results", [answer]):
        for key in omit:
            entry.pop(key, None)
    return json.dumps(answer).encode("utf-8")


def check_samples(samples, stream, expected, failures: list,
                  routed: bool = False) -> None:
    """Count every failed or wrong answer into ``failures``.

    Mono answers must equal the in-process bytes without ``PRICE``;
    routed answers without ``ROUTER_OMITS``."""
    for sample in samples:
        if sample.error is not None:
            failures.append(f"request {sample.index}: {sample.error}")
            continue
        if expected is None:
            continue
        endpoint, payload = stream[sample.index % len(stream)]
        omit = ROUTER_OMITS if routed else PRICE
        want = answer_view(expected[(endpoint, payload)], omit)
        if answer_view(sample.body, omit) != want:
            failures.append(
                f"request {sample.index} {endpoint} {payload!r}: "
                "answer differs from the in-process store"
            )


def open_count(seconds: float) -> int:
    """Requests per target of the open loop: 70% of the read seconds
    (the closed loops take the rest)."""
    from inputs import OPEN_RATE

    return max(10, int(OPEN_RATE * seconds * 0.7))


def closed_count(seconds: float) -> int:
    """Requests per target of each closed loop."""
    from inputs import CLOSED_PER_S

    return max(10, int(CLOSED_PER_S * seconds))


def read_requests(seconds: float) -> int:
    """Stream entries the read phases use: the open loop's, then the
    closed loops' (which start where the open loop stopped)."""
    return open_count(seconds) + closed_count(seconds)


def latency_ms(phase) -> list[float]:
    return [(s.done - s.due) * 1000 for s in phase.ok]


def phase_report(phase, closed: bool) -> dict:
    report = {"samples": len(phase.samples), "ok": len(phase.ok)}
    if closed:
        report["qps"] = len(phase.ok) / max(phase.end - phase.start, 1e-9)
        report["p50_ms"] = median(latency_ms(phase))
    else:
        lat = latency_ms(phase)
        report["p50_ms"] = median(lat)
        tail = p99(lat)
        if tail is not None:
            report["p99_ms"] = tail
        late = [(s.sent - s.due) * 1000 for s in phase.samples]
        report["generator_late_p50_ms"] = median(late)
        report["generator_late_max_ms"] = max(late, default=0.0)
    return report


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


@dataclass
class Run:
    workload: object
    seed: int
    seconds: float
    trace: bool
    work: Path
    procs: Processes
    attempted: int = 0
    failures: list = field(default_factory=list)
    values: dict = field(default_factory=dict)  # end-to-end metrics
    layers: dict = field(default_factory=dict)  # per-layer metrics
    report: dict = field(default_factory=dict)
    dumps: dict = field(default_factory=dict)  # server name -> trace
    mine_traces: list = field(default_factory=list)  # traced mines
    closed_phase: object = None  # the mono closed loop, for http.self_ms
    started: float = field(default_factory=time.perf_counter)

    def mark(self, stage: str) -> None:
        """Record when a stage ended, in seconds since the run began."""
        self.report.setdefault("stages_s", {})[stage] = round(
            clock() - self.started, 3)


def mine(run: Run, corpora: list[Path], budget: float, oracle: int,
         name: str = "mine") -> dict:
    """Mine ``corpora`` in passes for ``budget`` seconds (at least one
    pass; two in a traced run, the first untraced) in the mining
    process, and count its output checks."""
    w = run.workload
    store_root = run.work / name
    store_root.mkdir()
    traced = run.trace and name == "mine"
    spec = {
        "corpora": [[str(d / "corpus.txt"), str(d / "hierarchy.txt")]
                    for d in corpora],
        "sigma": w.sigma, "gamma": w.gamma, "lam": w.lam,
        "shards": SHARDS, "store_root": str(store_root),
        "parse_s": PARSE_S if name == "mine" else 0.0,
        "min_passes": 2 if traced else 1, "budget_s": budget,
        "trace": traced, "trace_out": str(run.work / f"{name}.trace.json"),
        "oracle_samples": oracle, "seed": run.seed,
    }
    report = run_worker(spec)
    run.mark(name)
    run.attempted += len(report["mines"])
    for problem in report["problems"]:
        run.failures.append(f"{name}: {problem}")
    return report


def pinned_digest(run: Run, digest: str) -> None:
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    want = pins.get(run.workload.name, {}).get(str(run.seed))
    run.report["digest"] = digest
    run.report["digest_pinned"] = want is not None
    if want is not None and want != digest:
        run.failures.append(
            f"mined output digest {digest} differs from the pinned {want}"
        )


def start_mono(run: Run, store: Path, name: str, traced: bool,
               spool: Path | None = None) -> Server:
    args = ["serve", "--store", str(store), "--port", "0"]
    if spool is not None:
        args += ["--compact-spool", str(spool), "--compact-interval",
                 str(COMPACT_INTERVAL)]
    return run.procs.start(name, args, traced)


def start_routed(run: Run, store: Path, traced: bool) -> Server:
    servers = []
    for index, shards in enumerate(ROUTED_SLICES):
        server = run.procs.start(
            f"shard{index}",
            ["shard-serve", "--store", str(store), "--port", "0",
             "--no-http", "--shards", ",".join(map(str, shards))],
            traced,
        )
        servers.append({"host": server.address[0],
                        "port": server.address[1], "shards": shards})
    cluster = run.work / "cluster.json"
    cluster.write_text(json.dumps({"num_shards": SHARDS,
                                   "servers": servers}))
    return run.procs.start(
        "router", ["route", "--cluster", str(cluster), "--port", "0"],
        traced,
    )


def await_answer(run: Run, server: Server, stream) -> tuple[float, bytes]:
    from client import first_answer

    endpoint, payload = stream[0]
    return first_answer(
        server.address, endpoint, payload, 60,
        lambda: server.proc.poll() is None,
    )


def read_phases(run: Run, mono: Server, routed: Server, stream, expected,
                seconds: float) -> None:
    """Open loop mono and routed, then closed loop mono and routed."""
    from client import closed_loop, open_loop
    from inputs import OPEN_RATE, WARMUP

    count = open_count(seconds)
    closed = closed_count(seconds)
    phases = {}
    phases["mono_open"], phases["routed_open"] = open_loop(
        [mono.address, routed.address], stream, count, OPEN_RATE,
        ["mo", "ro"], WARMUP)
    phases["mono_closed"] = closed_loop(
        mono.address, stream, closed, "mc", offset=count)
    phases["routed_closed"] = closed_loop(
        routed.address, stream, closed, "rc", offset=count)
    for name, phase in phases.items():
        run.attempted += len(phase.samples)
        check_samples(phase.samples, stream, expected, run.failures,
                      routed=name.startswith("routed"))
        run.report[name] = phase_report(phase, name.endswith("closed"))
    run.values["query_p50_ms"] = run.report["mono_open"]["p50_ms"]
    run.values["routed_p50_ms"] = run.report["routed_open"]["p50_ms"]
    run.values["query_qps"] = run.report["mono_closed"]["qps"]
    run.values["routed_qps"] = run.report["routed_closed"]["qps"]
    run.closed_phase = phases["mono_closed"]
    stats = get_json(mono.address, "/stats")
    plan = stats.get("plan_cache", {})
    lookups = plan.get("hits", 0) + plan.get("compiles", 0)
    run.report["service_hit_ratio"] = stats["cache_hit_rate"]
    run.report["service_evictions"] = stats["cache_evictions"]
    run.report["plan_hit_ratio"] = plan.get("hits", 0) / lookups \
        if lookups else 0.0
    run.report["plan_evictions"] = plan.get("evictions", 0)
    router = get_json(routed.address, "/stats").get("store", {})
    wire = router.get("wire", {})
    run.report["wire_bytes"] = wire.get("wire_bytes_sent", 0) + \
        wire.get("wire_bytes_received", 0)
    run.report["wire_raw_bytes"] = wire.get("raw_bytes_sent", 0) + \
        wire.get("raw_bytes_received", 0)
    run.report["wire_frames"] = wire.get("frames_sent", 0) + \
        wire.get("frames_received", 0)
    run.report["router_retries"] = router.get("fanout_retries", 0)


def serve_and_read(run: Run, store: Path, corpus: dict, read_s: float,
                   spool: Path | None = None) -> tuple[Server, list]:
    """Set-up, then the read phases.

    Returns the mono server (left running) and the request stream."""
    from inputs import query_pool, request_stream

    w = run.workload
    pool = query_pool(corpus, w.pool, run.seed)
    stream = request_stream(pool, read_requests(read_s), run.seed)
    setup, first = [], []
    mono = None
    for attempt in range(SETUP_STARTS):
        if mono is not None:
            run.procs.stop(mono)
        mono = start_mono(run, store, f"mono{attempt}", False, spool)
        answered, body = await_answer(run, mono, stream)
        setup.append(answered - mono.started)
        first.append(body)
    run.mark("setup")
    expected = expected_answers(store, stream)
    run.mark("expected")
    for body in first:
        if answer_view(body) != answer_view(expected[stream[0]]):
            run.failures.append("first answer after start-up is wrong")
    run.attempted += len(first)
    run.values["serve_setup_s"] = median(setup)
    run.report["server_setup_s"] = setup
    if run.trace:
        # restart the server with the timing wrappers
        run.procs.stop(mono)
        mono = start_mono(run, store, "mono", True, spool)
        await_answer(run, mono, stream)
    routed = start_routed(run, store, run.trace)
    _, body = await_answer(run, routed, stream)
    if answer_view(body, ROUTER_OMITS) != answer_view(
            expected[stream[0]], ROUTER_OMITS):
        run.failures.append("routed first answer is wrong")
    run.mark("routed_setup")
    read_phases(run, mono, routed, stream, expected, read_s)
    run.mark("reads")
    for server in [s for s in run.procs.servers if s is not mono]:
        run.dumps[server.name] = run.procs.stop(server)
    return mono, stream


def run_pipeline(run: Run, corpora: list[dict]) -> None:
    """Mine, serve, read, and for serve-ingest ingest beside the reads."""
    w = run.workload
    report = mine(run, [c["dir"] for c in corpora],
                  w.mine_share * run.seconds, oracle=6)
    pinned_digest(run, report["digest"])
    run.values["mine_s"] = pass_median(report, "scaled_s")
    run.report["mine_raw_s"] = pass_median(report, "mine_s")
    run.values["peak_rss_mb"] = report["peak_rss_mb"]
    run.report["mine"] = summarize_mine(report)
    if run.trace:
        run.mine_traces = [m for m in report["mines"] if m["traced"]]
    store = Path(report["store"])
    ingestor = spool = None
    if w.ingest:
        from repro.serve import Ingestor

        spool = run.work / "spool"
        ingestor = Ingestor.init(run.work / "ingest", store, spool,
                                 gamma=w.gamma, lam=w.lam)
    mono, stream = serve_and_read(run, store, corpora[0],
                                  w.read_share * run.seconds, spool)
    if w.serving:
        run.values["setup_s"] = run.values["serve_setup_s"]
    else:
        run.values["setup_s"] = median(report["setup_s"])
    if ingestor is not None:
        ingest_phase(run, ingestor, mono, stream, corpora[0], store)
    else:
        # a batch pipeline's freshness: mine and write the store, then
        # start a server on it and get its first answer (the start-up is
        # not scaled: a sixth of the sum, it moves it by a percent)
        run.values["fresh_p50_s"] = (run.values["mine_s"]
                                     + run.values["serve_setup_s"])
        run.dumps["mono"] = run.procs.stop(mono)
    if run.trace:
        run.layers["trace.overhead_ratio"] = trace_overhead(run, report)


def pass_median(report: dict, key: str, traced: bool = False) -> float:
    """Median over the mining passes of the mean ``key`` of a pass's
    mines (one per corpus)."""
    passes: dict[int, list] = {}
    for m in report["mines"]:
        if m["traced"] == traced:
            passes.setdefault(m["pass"], []).append(m[key])
    return median(statistics.mean(times) for times in passes.values())


def trace_overhead(run: Run, report: dict) -> float:
    """Traced / untraced median mining pass time, minus 1.  Every
    workload mines; the HTTP latencies are set by a 40 ms timer that
    would hide the wrappers' cost."""
    return (pass_median(report, "scaled_s", traced=True)
            / pass_median(report, "scaled_s") - 1)


def summarize_mine(report: dict) -> dict:
    mines = report["mines"]
    return {
        "mines": len(mines),
        "mine_s": [m["mine_s"] for m in mines],
        "scaled_s": [m["scaled_s"] for m in mines],
        "store_s": [m["store_s"] for m in mines],
        "parses": len(report["setup_s"]),
        "counts": [m["counts"] for m in mines if m["pass"] == 0],
        "store_bytes": [m["store_bytes"] for m in mines if m["pass"] == 0],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def ingest_phase(run: Run, ingestor, mono: Server, stream, corpus: dict,
                 store: Path) -> None:
    """Reads while batches are added at a fixed cadence and one retire
    follows; then the byte check.

    The reads are the open loop of the read phases, at its rate, on one
    keep-alive connection.  After each add the generator itself asks
    ``/query`` on a second connection until an answer covers the batch,
    so that the reads' queue does not hold up the freshness figure."""
    import threading

    from client import Client, open_loop
    from inputs import OPEN_RATE, WARMUP

    tracer = None
    if run.trace:
        from tracing import Tracer, install

        tracer = install(Tracer(), "ingest")
    held = corpus["held_out"]
    size = len(held) // INGEST_BATCHES
    retire = size // 2
    cadence = INGEST_SHARE * run.seconds / (INGEST_BATCHES + 1)
    events = []  # (kind, call time, watermark it must reach)
    done = threading.Event()
    count = int(OPEN_RATE * (run.seconds + 30))
    result = {}
    poller = Client(mono.address)
    polls = []

    def reads():
        result["phase"], = open_loop([mono.address], stream, count,
                                     OPEN_RATE, ["io"], WARMUP,
                                     stop=done)

    reader = threading.Thread(target=reads)
    reader.start()
    try:
        begin = clock()
        for index in range(INGEST_BATCHES):
            due = begin + index * cadence
            time.sleep(max(0.0, due - clock()))
            called = clock()
            out = ingestor.add(held[index * size:(index + 1) * size])
            events.append(("add", called, out["through_seq"]))
            poll_until(poller, polls, stream, out["through_seq"],
                       due + cadence)
        time.sleep(max(0.0, begin + INGEST_BATCHES * cadence - clock()))
        called = clock()
        out = ingestor.retire(retire)
        events.append(("retire", called, out["retained_from"]))
        wait_until_fresh(run, poller, events[-2][2], out["retained_from"])
    finally:
        done.set()
        reader.join()
        poller.close()
    run.mark("ingest")
    phase = result["phase"]
    run.attempted += len(phase.samples) + len(polls)
    check_samples(phase.samples + polls, stream, None, run.failures)
    marks = watermarks(phase.ok + [s for s in polls if s.error is None],
                       run.failures)
    fresh = []
    for kind, called, through in events:
        if kind != "add":
            continue
        seen = [t for t, ingested, _ in marks
                if t >= called and ingested >= through]
        if seen:
            fresh.append(min(seen) - called)
        else:
            run.failures.append(f"batch through {through} never served")
    run.values["fresh_p50_s"] = median(fresh)
    run.layers["compact.read_p50_ms"] = median(latency_ms(phase))
    run.report["ingest_open"] = phase_report(phase, False)
    run.report["fresh_polls"] = len(polls)
    run.report["fresh_s"] = fresh
    run.report["ingest_events"] = [(k, t - begin, n) for k, t, n in events]
    run.dumps["mono"] = run.procs.stop(mono)
    if tracer is not None:
        run.dumps["ingest"] = tracer.summary()
    retained = corpus["base"] + held[retire:INGEST_BATCHES * size]
    verify_live_store(run, store, retained, corpus["dir"])


def watermark(sample) -> tuple[int, int]:
    """``(ingested_through, retained_from)`` of an answer."""
    answer = json.loads(sample.body)
    if "results" in answer:
        answer = answer["results"][0]
    return (answer.get("ingested_through", -1),
            answer.get("retained_from", -1))


def poll_until(poller, polls: list, stream, through: int,
               until: float) -> None:
    """Ask ``/query`` on ``poller`` until an answer covers ``through`` or
    ``until`` passes; the answers go to ``polls``."""
    from client import one_request

    index = next(i for i, (endpoint, _) in enumerate(stream)
                 if endpoint == "/query")
    while clock() < until:
        sample = one_request(poller, index, len(polls), stream, "fp", None)
        sample.client = 2
        polls.append(sample)
        if sample.error is None and watermark(sample)[0] >= through:
            return
        time.sleep(POLL_PAUSE)


def wait_until_fresh(run: Run, poller, through: int, retained_from: int,
                     timeout: float = 60.0) -> None:
    deadline = clock() + timeout
    while clock() < deadline:
        fresh = poller.get_json("/stats").get("freshness", {})
        if fresh.get("ingested_through", -1) >= through and \
                fresh.get("retained_from", -1) >= retained_from:
            return
        time.sleep(0.05)
    run.failures.append("live store never caught up with the last retire")


def watermarks(samples, failures: list) -> list[tuple[float, int, int]]:
    """``(done, ingested_through, retained_from)`` per answer; checks
    that each connection's watermarks never go backwards."""
    marks = []
    last = {}
    for sample in sorted(samples, key=lambda s: s.done):
        mark = watermark(sample)
        if mark < last.get(sample.client, (-1, -1)):
            failures.append(
                f"watermark went backwards on connection {sample.client}")
        last[sample.client] = max(mark, last.get(sample.client, mark))
        marks.append((sample.done, mark[0], mark[1]))
    return marks


def verify_live_store(run: Run, store: Path, retained,
                      corpus_dir: Path) -> None:
    """The live shards must byte-equal a fresh σ=1 mine of the
    retained corpus."""
    from repro.serve.format import read_manifest

    oracle_dir = run.work / "oracle-corpus"
    oracle_dir.mkdir()
    with open(oracle_dir / "corpus.txt", "w", encoding="utf-8") as f:
        for seq in retained:
            f.write(" ".join(seq) + "\n")
    shutil.copy(corpus_dir / "hierarchy.txt", oracle_dir)
    report = mine(run, [oracle_dir], 0.0, oracle=0, name="oracle")
    fresh = Path(report["store"])
    live_files = read_manifest(store)["shard_files"]
    want_files = read_manifest(fresh)["shard_files"]
    run.attempted += 1
    if len(live_files) != len(want_files) or any(
        (store / a).read_bytes() != (fresh / b).read_bytes()
        for a, b in zip(live_files, want_files)
    ):
        run.failures.append(
            "live shards differ from a fresh mine of the retained corpus")


# ----------------------------------------------------------------------
# per-layer metrics of the traced run
# ----------------------------------------------------------------------


def layer_metrics(run: Run) -> dict:
    out = {"compact.read_p50_ms": 0.0, **run.layers}
    if run.mine_traces:
        out.update(mine_layers(run.mine_traces))
    total = sum_layers(d for n, d in run.dumps.items()
                       if d and n != "ingest")

    run.report["layer_totals"] = {
        "mine": sum_layers(m["trace"] for m in run.mine_traces),
        "serve": total,
        "ingest": sum_layers([run.dumps["ingest"]])
        if run.dumps.get("ingest") else {},
    }

    def busy(layer, key="busy_s"):
        return total.get(layer, {}).get(key, 0.0)

    out.update({
        "normalize.busy_s": busy("normalize"),
        "plan.compile_s": busy("plan.compile"),
        "cost.estimate_s": busy("cost"),
        "match.busy_s": busy("match"),
        "decode.busy_s": busy("decode"),
        "service.busy_s": busy("service", "self_s"),
        "shard.busy_s": busy("shard"),
        "router.scatter_s": busy("router.scatter"),
        "plan.hit_ratio": run.report.get("plan_hit_ratio", 0.0),
        "plan.evictions": run.report.get("plan_evictions", 0),
        "service.hit_ratio": run.report.get("service_hit_ratio", 0.0),
        "service.evictions": run.report.get("service_evictions", 0),
        "router.retries": run.report.get("router_retries", 0),
        "wire.bytes": run.report.get("wire_bytes", 0),
        "wire.raw_bytes": run.report.get("wire_raw_bytes", 0),
        "wire.frames": run.report.get("wire_frames", 0),
    })
    router = run.dumps.get("router")
    out["router.merge_s"] = merge_self_time(router) if router else 0.0
    out["http.self_ms"] = http_self_ms(run)
    mono = run.dumps.get("mono") or {"layers": {}, "values": {}}
    fold = mono["layers"].get("compact.fold")
    out["compact.fold_s"] = fold["busy_s"] / fold["calls"] if fold else 0.0
    values = mono["values"]
    out["compact.rewrite_bytes"] = median(values.get("fold_rewrite_ratio", []))
    out["compact.pending"] = max(values.get("fold_pending", []), default=0)
    out["compact.swap_query_ms"] = 1000 * median(
        values.get("swap_query_s", []))
    ingest = run.dumps.get("ingest") or {"layers": {}}
    for name, layer in (("ingest.add_s", "ingest.add"),
                        ("ingest.micro_mine_s", "ingest.micro_mine")):
        agg = ingest["layers"].get(layer)
        out[name] = agg["busy_s"] / agg["calls"] if agg else 0.0
    return out


def sum_layers(dumps) -> dict:
    """Calls, busy and self time per layer, summed over trace dumps."""
    total = {}
    for dump in dumps:
        for layer, agg in dump["layers"].items():
            slot = total.setdefault(layer, {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0})
            for key in slot:
                slot[key] += agg[key]
    return total


def mine_layers(entries: list) -> dict:
    """Mining-layer metrics of each traced pass, summed over its corpora;
    the median over the passes.  Counts repeat exactly from pass to pass."""
    passes: dict[int, list] = {}
    for entry in entries:
        passes.setdefault(entry["pass"], []).append(entry)
    rows = []
    for mines in passes.values():
        def busy(layer):
            return sum(m["trace"]["layers"].get(layer, {}).get("busy_s", 0.0)
                       for m in mines)

        def count(key):
            return sum(m["counts"][key] for m in mines)

        def skew(m):
            tasks = m["trace"]["values"].get("reduce_task_records", [])
            return max(tasks) * len(tasks) / sum(tasks) if tasks else 0.0

        rows.append({
            "flist.busy_s": busy("flist"),
            "map.busy_s": busy("map"),
            "map.rewrite_s": busy("map.rewrite"),
            "map.out_records": count("map_out_records"),
            "map.out_bytes": count("map_out_bytes"),
            "meter.busy_s": busy("meter"),
            "combine.busy_s": busy("combine"),
            "combine.ratio": count("combine_out") / count("combine_in")
            if count("combine_in") else 0.0,
            "shuffle.busy_s": count("shuffle_s"),
            "shuffle.bytes": count("shuffle_bytes"),
            "shuffle.skew": max(skew(m) for m in mines),
            "psm.busy_s": busy("psm"),
            "psm.candidates": count("psm_candidates"),
            "psm.useful_ratio": count("psm_outputs") / count("psm_candidates")
            if count("psm_candidates") else 0.0,
            "store.write_s": busy("store.write"),
            "store.bytes": sum(m["store_bytes"] for m in mines),
        })
    return {key: median(row[key] for row in rows) for key in rows[0]}


def merge_self_time(dump: dict) -> float:
    """Router search/prefetch time not covered by shard requests (which
    run on the fan-out threads, so plain self time would count the
    wait)."""
    spans = dump["spans"]
    scatter = sorted((s["start"], s["end"]) for s in spans
                     if s["name"] == "router.scatter")
    merges = [s for s in spans if s["name"] == "router.merge"]
    nested = {s["id"] for s in merges}
    total = 0.0
    for span in merges:
        if span["parent"] in nested:
            continue
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for a, b in scatter:
            if b <= cursor or a >= end:
                continue
            a = max(a, cursor)
            b = min(b, end)
            covered += b - a
            cursor = b
        total += (end - start) - covered
    return total


def http_self_ms(run: Run) -> float:
    """Median over the mono closed-loop requests of client time minus
    the QueryService time of the same request."""
    phase = run.closed_phase
    mono = run.dumps.get("mono")
    if phase is None or mono is None:
        return 0.0
    service = mono["request_service"]
    offset = phase.samples[0].index if phase.samples else 0
    gaps = []
    for sample in phase.ok:
        rid = f"mc-{sample.index - offset}"
        if rid in service:
            gaps.append(((sample.done - sample.sent) - service[rid]) * 1000)
    return median(gaps)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object and the report."""
    from inputs import write_corpora

    work = ROOT / ".perfbench" / f"{workload.name}-s{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run = Run(workload, seed, seconds, trace, work, Processes(work))
    run.report["system"] = system_info()
    try:
        corpora = write_corpora(workload, seed, work)
        run.mark("inputs")
        run.report["input"] = {
            "corpora": len(corpora),
            "sequences": [len(c["base"]) for c in corpora],
            "held_out": len(corpora[0]["held_out"]),
            "items": [len(c["counts"]) for c in corpora],
        }
        run_pipeline(run, corpora)
    finally:
        run.procs.stop_all()
    return finalize(run)


def finalize(run: Run) -> dict:
    spec = load_spec()
    if run.trace:
        values = layer_metrics(run)
        wanted = spec["per_layer"]
    else:
        values = run.values
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise KeyError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {
            "value": float(values[metric["name"]]),
            "unit": metric["unit"],
        }
    return {
        "result": {
            "correct": not run.failures,
            "attempted": max(1, run.attempted),
            "failed": len(run.failures),
            "metrics": metrics,
        },
        "report": run.report,
        "failures": run.failures,
        "work": run.work,
    }


def print_report(name: str, outcome: dict) -> None:
    result, report = outcome["result"], outcome["report"]
    print(f"== {name}")
    print(f"system: {json.dumps(report['system'])}")
    print(f"input: {json.dumps(report['input'])}")
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for key, value in report.items():
        if key not in ("system", "input"):
            print(f"  {key}: {json.dumps(value, default=str)}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{name} failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    for failure in outcome["failures"][:20]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)} or 'all'")
    outcome = run_workload(WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    save(args, outcome)
    print_report(args.workload, outcome)
    print(json.dumps(outcome["result"]), flush=True)
    return 0 if outcome["result"]["correct"] else 1


def save(args, outcome: dict) -> None:
    """Keep the report under .perfbench/results and drop the scratch."""
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {k: v for k, v in outcome.items() if k != "work"},
        default=str, indent=1))
    shutil.rmtree(outcome["work"], ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    from inputs import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            combined["correct"] = False
        if not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
