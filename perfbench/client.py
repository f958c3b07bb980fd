"""Keep-alive HTTP/1.1 load generator: open-loop and closed-loop phases.

Each of the (at most two) client threads owns one persistent
``http.client`` connection, as a real client would; a request never
asks for ``Connection: close``.  An open-loop phase gives each target
(the mono server, the router) one thread; a closed-loop phase gives its
one target both.  Every request carries an
``X-Bench-Id`` header (``<phase>-<index>``) so the traced servers can
attribute their spans to it.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import urlencode

from inputs import QUERY_LIMIT

clock = time.perf_counter
CLIENTS = 2


def request_parts(endpoint: str, payload) -> tuple[str, str, bytes | None]:
    """``(method, url, body)`` of one stream entry."""
    query, min_freq = payload
    if endpoint == "/batch":
        body = {"queries": list(query), "limit": QUERY_LIMIT}
        if min_freq is not None:
            body["min_freq"] = min_freq
        return "POST", "/batch", json.dumps(body).encode("utf-8")
    params = {"q": query}
    if endpoint == "/query":
        params["limit"] = QUERY_LIMIT
    if min_freq is not None:
        params["min_freq"] = min_freq
    return "GET", f"{endpoint}?{urlencode(params)}", None


class Client:
    """One persistent connection."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0):
        self.conn = http.client.HTTPConnection(*address, timeout=timeout)

    def send(self, endpoint: str, payload, rid: str) -> tuple[int, bytes]:
        method, url, body = request_parts(endpoint, payload)
        headers = {"X-Bench-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, url, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request reconnects
            raise

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


@dataclass
class Sample:
    index: int
    client: int
    due: float  # scheduled send time (open loop) or send time
    sent: float
    done: float
    status: int
    body: bytes
    error: str | None = None


@dataclass
class Phase:
    name: str
    samples: list[Sample] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.error is None]


def one_request(client, index, k, stream, phase, due) -> Sample:
    endpoint, payload = stream[index % len(stream)]
    sent = clock()
    try:
        status, body = client.send(endpoint, payload, f"{phase}-{k}")
        error = None if status == 200 else f"HTTP {status}"
    except (OSError, http.client.HTTPException) as exc:
        status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
    return Sample(index, 0, due if due is not None else sent, sent, clock(),
                  status, body, error)


def _run_threads(target, count: int = CLIENTS) -> None:
    threads = [
        threading.Thread(target=target, args=(j,)) for j in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(targets, stream, count, rate, names, warmup=0,
              stop: threading.Event | None = None) -> list[Phase]:
    """Every target gets its own client and connection and the same
    ``count`` requests of ``stream``, due at a fixed ``rate``.  Latency
    counts from each request's due time.

    Each connection first sends ``warmup`` back-to-back copies of the
    stream's first request, the way a busy client's connection has
    already been used, and starts its schedule right after them.  A set
    ``stop`` event ends the phase early.  Returns one phase per target.
    """
    phases = [Phase(name) for name in names]

    def drive(j: int) -> None:
        phase = phases[j]
        client = Client(targets[j])
        try:
            for _ in range(warmup):
                status, _ = client.send(*stream[0], "warmup")
                if status != 200:
                    raise RuntimeError(f"warm-up answered HTTP {status}")
            phase.start = start = clock() + 0.005
            for k in range(count):
                if stop is not None and stop.is_set():
                    break
                due = start + k / rate
                pause = due - clock()
                if pause > 0:
                    time.sleep(pause)
                sample = one_request(client, k, k, stream, phase.name, due)
                sample.client = j
                phase.samples.append(sample)
        finally:
            client.close()
            phase.end = clock()

    _run_threads(drive, len(targets))
    return phases


def closed_loop(address, stream, count, name, offset=0) -> Phase:
    """``count`` requests, each client sending its next one as soon as
    the previous answer is in."""
    phase = Phase(name)
    per_client: list[list[Sample]] = [[] for _ in range(CLIENTS)]
    phase.start = clock()

    def drive(j: int) -> None:
        client = Client(address)
        try:
            for k in range(j, count, CLIENTS):
                sample = one_request(client, offset + k, k, stream, name, None)
                sample.client = j
                per_client[j].append(sample)
        finally:
            client.close()

    _run_threads(drive)
    phase.end = clock()
    phase.samples = sorted(
        (s for samples in per_client for s in samples), key=lambda s: s.index
    )
    return phase


def first_answer(address, endpoint, payload, timeout, alive) -> tuple:
    """Poll until the server answers 200; returns ``(time, body)``.

    ``alive()`` is false once the server process has exited, which
    ends the wait early."""
    deadline = clock() + timeout
    while clock() < deadline and alive():
        client = Client(address, timeout=5.0)
        try:
            status, body = client.send(endpoint, payload, "setup-0")
            if status == 200:
                return clock(), body
        except (OSError, http.client.HTTPException):
            pass
        finally:
            client.close()
        time.sleep(0.005)
    raise RuntimeError(f"no answer from {address} within {timeout}s")
