"""Child process of the benchmark: a fresh interpreter that uses diskgeom.

    python3 perfbench/child.py setup WORKLOAD SEED WORK
        import diskgeom.cli and build the workload's inputs, then exit;
        the parent times the whole process as one set-up.
    python3 perfbench/child.py queries SEED WORK SECONDS OUT
        set up, then run the closed query loop for SECONDS and write a
        JSON summary to OUT.

The parent puts the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import workloads

MAX_QUERIES = 1_000_000


def setup(workload: str, seed: int, work: Path):
    import diskgeom
    import diskgeom.cli  # noqa: F401  (the CLI import is part of set-up)

    if workload == workloads.QUERIES:
        return diskgeom, workloads.QueryCorpus(seed, work)
    diskgeom.canonical_quadruple(workloads.GASKETS[workload]["curvatures"])
    return diskgeom, None


def query_loop(seed: int, work: Path, seconds: float) -> dict:
    dg, corpus = setup(workloads.QUERIES, seed, work)
    stream = corpus.stream()
    clock = time.perf_counter
    for kind in dict.fromkeys(workloads.MIX_BLOCK):  # warm lazy imports and file caches
        payload = next(p for k, p in stream if k == kind)
        workloads.attempt(dg, kind, payload)
    stream = corpus.stream()
    # preallocated and touched, so the child's RSS does not grow with the
    # number of queries a fast or slow machine gets through
    latencies = array("d", [0.0]) * MAX_QUERIES
    outcomes: Counter = Counter()
    kinds: Counter = Counter()
    kind_busy = dict.fromkeys(workloads.QUERY_KINDS, 0.0)
    count = 0
    gc.collect()  # start timing from a settled collector; it stays enabled
    deadline = clock() + seconds
    while clock() < deadline and count < MAX_QUERIES:
        kind, payload = next(stream)
        start = clock()
        result, raised = workloads.attempt(dg, kind, payload)
        latency = latencies[count] = clock() - start
        kinds[kind] += 1
        kind_busy[kind] += latency
        count += 1
        outcomes[workloads.classify(kind, payload, result, raised)] += 1
    latencies = latencies[:count]
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    return {
        "latency_p99_s": p99,
        "busy_s": sum(latencies),
        "outcomes": dict(outcomes),
        "kinds": dict(kinds),
        "kind_busy_s": kind_busy,
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        workload, seed, work = rest
        setup(workload, int(seed), Path(work))
        return 0
    seed, work, seconds, out = rest
    summary = query_loop(int(seed), Path(work), float(seconds))
    Path(out).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
