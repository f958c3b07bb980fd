"""Self-test of the benchmark runner at tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload on a tiny input, untraced and traced, and checks
that each metric of ``BENCHMARK.json`` is printed with its unit and that
the run's own output checks pass.  It then feeds the answer checker a
corrupted answer, a mono and a routed one, and checks that each counts
as a failure that makes the run incorrect.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs HERE on sys.path)


def tiny(workload):
    return dataclasses.replace(
        workload,
        name=f"tiny-{workload.name}",
        size=300,
        sigma=1 if workload.ingest else max(2, workload.sigma // 5),
        held_out=30 if workload.ingest else 0,
        pool=60,
        corpora=min(2, workload.corpora),
    )


def check_metrics(outcome: dict, wanted: list, label: str) -> list[str]:
    problems = []
    metrics = outcome["result"]["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append(f"{label}: metrics {sorted(metrics)} != {names}")
    for spec in wanted:
        entry = metrics.get(spec["name"])
        if entry is None:
            continue
        if entry["unit"] != spec["unit"]:
            problems.append(f"{label}: {spec['name']} unit {entry['unit']}")
        if not math.isfinite(entry["value"]):
            problems.append(f"{label}: {spec['name']} = {entry['value']}")
    if not outcome["result"]["correct"]:
        problems.append(f"{label}: output checks failed: "
                        f"{outcome['failures'][:3]}")
    return problems


def check_corruption() -> list[str]:
    """A wrong answer must count as a failure and fail the run."""
    from client import Sample

    stream = [("/query", ("a ?", None))]
    good = b'{"query": "a ?", "matches": [], "count": 0, "estimated_cost": 1}'
    bad = good.replace(b'"count": 0', b'"count": 1')
    expected = {stream[0]: good}
    problems = []
    for routed in (False, True):
        failures: list = []
        sample = Sample(0, 0, 0.0, 0.0, 0.0, 200, bad)
        run.check_samples([sample], stream, expected, failures, routed)
        if not failures:
            problems.append(f"corrupted answer passed (routed={routed})")
        failures = []
        sample = Sample(0, 0, 0.0, 0.0, 0.0, 200, good)
        run.check_samples([sample], stream, expected, failures, routed)
        if failures:
            problems.append(f"correct answer failed (routed={routed})")
    state = run.Run(None, 0, 1.0, False, Path("."), None)
    state.failures.append("corrupted answer")
    state.values = {m["name"]: 1.0 for m in run.load_spec()["end_to_end"]}
    state.report["system"] = {}
    if run.finalize(state)["result"]["correct"]:
        problems.append("a run with a failed check reads as correct")
    return problems


def main() -> int:
    if not (run.SRC / "repro").is_dir():
        print(f"no program sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from inputs import WORKLOADS

    spec = run.load_spec()
    problems = check_corruption()
    for workload in WORKLOADS.values():
        for trace in (False, True):
            label = f"{workload.name} trace={int(trace)}"
            outcome = run.run_workload(tiny(workload), 1, 3.0, trace)
            run.shutil.rmtree(outcome["work"], ignore_errors=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            found = check_metrics(outcome, wanted, label)
            print(f"{label}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test passed" if not problems else "self-test failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
