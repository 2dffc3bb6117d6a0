"""diskgeom benchmark: end-to-end runs, or a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 8  # before and again after the timed loop


def spawn(argv: list[str], stdout: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, its own max RSS in MB).

    The rusage comes from wait4 on this child alone; RUSAGE_CHILDREN would
    give the running maximum over every child so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stdout.with_suffix(".err")), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Wall times of fresh interpreters that import diskgeom.cli and build the inputs."""
    argv = [str(CHILD), "setup", workload, str(seed), str(work)]
    log = work / "setup.out"
    times = []
    for k in range(SETUP_REPEATS + 1):  # the first start may also write bytecode caches
        wall, code, _ = spawn(argv, log)
        if code != 0:
            raise RuntimeError(f"set-up exited {code}: {log.with_suffix('.err').read_text()}")
        if k:
            times.append(wall)
    return times


def measure_gasket(workload: str, seconds: float, work: Path) -> dict:
    csv_path, svg_path, out = work / "gasket.csv", work / "gasket.svg", work / "gasket.out"
    argv = ["-m", "diskgeom.cli", *workloads.gasket_argv(workload, csv_path, svg_path)]
    walls, rss = [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:  # two runs give a p99
        for path in (csv_path, svg_path):
            path.unlink(missing_ok=True)
        wall, code, maxrss = spawn(argv, out)
        problems = [f"exit code {code}"] if code else []
        problems += workloads.check_gasket(workload, out.read_text(), csv_path, svg_path)
        if problems:
            failed += 1
            print(f"{workload} run {len(walls)}: {'; '.join(problems)}", file=sys.stderr)
        walls.append(wall)
        rss.append(maxrss)
    disks = workloads.GASKETS[workload]["disks"]
    print(f"{workload}: {len(walls)} CLI runs, {disks} disks each")
    return {
        "attempted": len(walls),
        "failed": failed,
        "rejected": 0,
        "latency_mean_ms": statistics.fmean(walls) * 1e3,
        "latency_p99_ms": _p99(walls) * 1e3,
        "items_per_s": disks * len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_queries(seed: int, seconds: float, work: Path) -> dict:
    summary_path = work / "queries.json"
    argv = [str(CHILD), "queries", str(seed), str(work), str(seconds), str(summary_path)]
    _, code, maxrss = spawn(argv, work / "queries.out")
    errors = (work / "queries.err").read_text()
    if code != 0:
        raise RuntimeError(f"query child exited {code}: {errors}")
    sys.stderr.write(errors)  # crashed queries, if any
    summary = json.loads(summary_path.read_text())
    attempted, failed, rejected = workloads.tally(summary["outcomes"])
    print(f"queries: {attempted} attempted, {failed} failed, rejected {rejected}")
    busy = summary["busy_s"]
    for kind, count in summary["kinds"].items():
        print(f"  {kind}: {count} queries, {summary['kind_busy_s'][kind] / busy:.1%} of busy time")
    return {
        "attempted": attempted,
        "failed": failed,
        "rejected": sum(rejected.values()),
        "latency_mean_ms": summary["busy_s"] / attempted * 1e3,
        "latency_p99_ms": summary["latency_p99_s"] * 1e3,
        "items_per_s": attempted / summary["busy_s"],
        "peak_rss_mb": maxrss,
    }


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[int, int, dict]:
    # set-up is timed on both sides of the timed loop, so that its median
    # spans the whole run and not only the host's state at the start
    setup_times = measure_setup(workload, seed, work)
    if workload == workloads.QUERIES:
        run = measure_queries(seed, seconds, work)
    else:
        run = measure_gasket(workload, seconds, work)
    setup_times += measure_setup(workload, seed, work)
    attempted, failed = run.pop("attempted"), run.pop("failed")
    run["accept_rate"] = (attempted - failed - run.pop("rejected")) / attempted
    run["setup_s"] = statistics.median(setup_times)
    return attempted, failed, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated benchmark unwinds, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "diskgeom" / "__init__.py").is_file():
        print(f"error: no diskgeom sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics each mode reports, with their units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            names = [metric["name"] for metric in declared]
            attempted, failed, values = tracing.traced_pass(args.workload, args.seed, work, SRC, names)
        else:
            attempted, failed, values = end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
