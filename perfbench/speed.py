"""Reference CPU speed, for scaling CPU-bound timings.

On a shared machine the speed of pure-Python code wanders: on a
two-vCPU Intel Xeon virtual machine (Python 3.11) the same mine took
1.5 s to 2.9 s, in spells of seconds to minutes, so a median over one
run does not average it out.  A CPU-bound timing is therefore scaled to a
reference speed: :func:`probe` times a fixed slice of interpreter work
of the kind mining does (dict updates keyed by tuples, sorting, string
building), right before and right after the timed call, and
:func:`scaled` multiplies the measured time by ``REFERENCE_S`` over the
mean of the two probes.  A machine twice as fast runs both twice as
fast, so the scaled time stays put; a change that makes the program
faster moves only the timed call.  The probe is the benchmark's own
code, which no change to the program can alter.
"""

from __future__ import annotations

import time

#: time of one probe on that virtual machine (Intel Xeon, 2 vCPUs,
#: Python 3.11), so scaled times read as seconds there
REFERENCE_S = 0.18
#: time of one :func:`tick` there (0.045 of a probe)
TICK_REFERENCE_S = 0.0081


def _work(rounds: int, size: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        counts: dict = {}
        for i in range(size):
            key = ((i * 7919) % 5003, i % 7)
            counts[key] = counts.get(key, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        "".join(str(value) for _, value in ordered[:2000])
    return time.perf_counter() - start


def probe() -> float:
    """Seconds one fixed slice of interpreter work takes now."""
    return _work(4, 20000)


def tick() -> float:
    """Seconds a short slice of the same work (about 8 ms) takes now."""
    return _work(1, 5000)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def paced(work, budget_s: float) -> list[float]:
    """Times of repeated ``work()`` calls at the reference speed.

    For timings of about 10 ms: the speed can halve within a second,
    faster than probes a fifth of a second long follow.  Each call runs
    between two ticks, and its time is scaled by the mean of the two.
    Calls repeat until ``budget_s`` is spent (at least one)."""
    times = []
    start = time.perf_counter()
    before = tick()
    while not times or time.perf_counter() - start < budget_s:
        begin = time.perf_counter()
        work()
        elapsed = time.perf_counter() - begin
        after = tick()
        times.append(elapsed * TICK_REFERENCE_S / ((before + after) / 2))
        before = after
    return times
