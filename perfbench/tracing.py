"""Traced pass: per-layer spans and counts around diskgeom's public functions.

The library is not changed.  Every public function of the five modules
(cli, gasket, descartes, minkowski, nsphere) is replaced, in every diskgeom
namespace that holds it, by a wrapper that times the call and charges it
to its caller, so each function gets calls, total time and self time
(total minus the wrapped calls it made).  Aggregates are kept instead of a
span list: the gasket workloads make several hundred thousand calls, and
holding one record per call would itself load the garbage collector.

Each workload runs a fixed amount of work in this process, untraced and
traced in alternation so that drift on a shared machine cancels out of
trace.overhead_ratio.  GC pauses and collection counts are recorded in the
traced part only.  Gasket workloads then run once more under tracemalloc,
apart from the spans it would distort.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import io
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads

TRACED_MODULES = ("cli", "gasket", "descartes", "minkowski", "nsphere")
TRACE_QUERIES = 10000
TRACE_CHUNK = 1000

# per-layer metric -> (wrapped function, Span field)
SPAN_METRICS = {
    "cli.main_s": ("cli.main", "total_s"),
    "gasket.canonical_quadruple_s": ("gasket.canonical_quadruple", "total_s"),
    "gasket.generate_s": ("gasket.generate", "total_s"),
    "gasket.generate_self_s": ("gasket.generate", "self_s"),
    "gasket.render_svg_s": ("gasket.render_svg", "total_s"),
    "descartes.vieta_reflect_calls": ("descartes.vieta_reflect", "calls"),
    "descartes.vieta_reflect_s": ("descartes.vieta_reflect", "total_s"),
    "descartes.solve_fourth_disk_s": ("descartes.solve_fourth_disk", "total_s"),
    "descartes.solve_fourth_disk_failed": ("descartes.solve_fourth_disk", "failed"),
    "minkowski.lift_s": ("minkowski.lift", "total_s"),
    "minkowski.verify_generalized_s": ("minkowski.verify_generalized", "total_s"),
    "minkowski.project_s": ("minkowski.project", "total_s"),
    "minkowski.project_failed": ("minkowski.project", "failed"),
    "nsphere.canonical_simplex_config_s": ("nsphere.canonical_simplex_config", "total_s"),
    "nsphere.lift_sphere_s": ("nsphere.lift_sphere", "total_s"),
    "nsphere.verify_generalized_n_s": ("nsphere.verify_generalized_n", "total_s"),
}


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    """Timing wrappers for diskgeom's public functions, installed on demand."""

    def __init__(self, dg):
        self.spans: dict[str, Span] = {}
        self.generated = None  # last Gasket returned by gasket.generate
        self._stack: list[float] = []
        wrappers = {}
        for short in TRACED_MODULES:
            module = getattr(dg, short)
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        # modules import each other's functions by name, so every namespace
        # holding a reference gets the wrapper
        self._sites = [
            (namespace, name, value, wrappers[value])
            for namespace in (dg, *(getattr(dg, short) for short in TRACED_MODULES))
            for name, value in vars(namespace).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def _wrap(self, name: str, fn):
        span = self.spans[name] = Span()
        stack, clock = self._stack, time.perf_counter
        keep = name == "gasket.generate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed += 1
                raise
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if keep:
                self.generated = result
            return result

        return traced

    def install(self) -> None:
        for namespace, name, _, wrapper in self._sites:
            setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original, _ in self._sites:
            setattr(namespace, name, original)

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())


class GcMeter:
    """Pause time from gc.callbacks and collections per generation from gc.get_stats()."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._start = 0.0
        self._before: list[dict] = []

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start

    def start(self) -> None:
        self._before = gc.get_stats()
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)
        for generation, (now, before) in enumerate(zip(gc.get_stats(), self._before)):
            self.collections[generation] += now["collections"] - before["collections"]


@contextlib.contextmanager
def tracing(tracer: Tracer, meter: GcMeter):
    tracer.install()
    meter.start()
    try:
        yield
    finally:
        meter.stop()
        tracer.uninstall()


def _gasket_once(dg, workload: str, work: Path) -> tuple[float, list[str]]:
    """One in-process CLI run; returns its wall time and any output problems."""
    csv_path, svg_path = work / "gasket.csv", work / "gasket.svg"
    for path in (csv_path, svg_path):
        path.unlink(missing_ok=True)
    out = io.StringIO()
    gc.collect()  # each run starts from the same collector state
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = dg.cli.main(workloads.gasket_argv(workload, csv_path, svg_path))
    wall = time.perf_counter() - start
    problems = [f"exit code {code}"] if code else []
    return wall, problems + workloads.check_gasket(workload, out.getvalue(), csv_path, svg_path)


def _trace_gasket(dg, workload: str, work: Path, metrics: dict, problems: list) -> tuple[int, int]:
    tracer, meter = Tracer(dg), GcMeter()
    base_1, found_1 = _gasket_once(dg, workload, work)
    with tracing(tracer, meter):
        traced_s, found_2 = _gasket_once(dg, workload, work)
    generated, tracer.generated = tracer.generated, None
    metrics["cli.csv_bytes"] = (work / "gasket.csv").stat().st_size
    metrics["cli.svg_bytes"] = (work / "gasket.svg").stat().st_size
    base_2, found_3 = _gasket_once(dg, workload, work)
    tracemalloc.start()
    try:
        _, found_4 = _gasket_once(dg, workload, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runs = (found_1, found_2, found_3, found_4)
    for found in runs:
        problems += found

    disks, quadruples = len(generated.disks), len(generated.quadruples)
    reflections = tracer.span("descartes.vieta_reflect").calls
    metrics["gasket.disks"] = disks
    metrics["gasket.quadruples"] = quadruples
    metrics["gasket.reflection_yield"] = (disks - 4) / reflections if reflections else 0.0
    metrics["gasket.pruned"] = reflections - (quadruples - 1)
    metrics["gasket.dedup_hits"] = (quadruples - 1) - (disks - 4)
    metrics["gasket.tracemalloc_peak_mb"] = peak / 2**20
    metrics["gasket.bytes_per_disk"] = peak / disks
    _span_metrics(tracer, meter, metrics)
    metrics["trace.overhead_ratio"] = 2.0 * traced_s / (base_1 + base_2)
    return len(runs), sum(bool(found) for found in runs)


def _trace_queries(dg, seed: int, work: Path, metrics: dict, problems: list) -> tuple[int, int]:
    corpus = workloads.QueryCorpus(seed, work)
    tracer, meter = Tracer(dg), GcMeter()
    stream = corpus.stream()
    outcomes = {False: Counter(), True: Counter()}
    busy = {False: 0.0, True: 0.0}
    kind_busy = dict.fromkeys(workloads.QUERY_KINDS, 0.0)  # untraced only
    clock = time.perf_counter
    gc.collect()
    for chunk in range(TRACE_QUERIES // TRACE_CHUNK):
        queries = [next(stream) for _ in range(TRACE_CHUNK)]
        for traced in (chunk % 2 == 1, chunk % 2 == 0):
            with tracing(tracer, meter) if traced else contextlib.nullcontext():
                for kind, payload in queries:
                    start = clock()
                    result, raised = workloads.attempt(dg, kind, payload)
                    latency = clock() - start
                    busy[traced] += latency
                    if not traced:
                        kind_busy[kind] += latency
                    outcomes[traced][workloads.classify(kind, payload, result, raised)] += 1
    if outcomes[True] != outcomes[False]:
        problems.append(f"traced outcomes {dict(outcomes[True])} differ from untraced {dict(outcomes[False])}")
    for outcome, count in outcomes[True].items():
        if outcome not in ("ok", "failed"):
            key = f"errors.{outcome}"
            metrics[key if key in metrics else "errors.other"] += count
    for kind, seconds in kind_busy.items():
        metrics[f"queries.{kind}_s"] = seconds
    _span_metrics(tracer, meter, metrics)
    metrics["trace.overhead_ratio"] = busy[True] / busy[False]
    failed = outcomes[True]["failed"] + outcomes[False]["failed"] + (outcomes[True] != outcomes[False])
    return 2 * TRACE_QUERIES, failed


def _span_metrics(tracer: Tracer, meter: GcMeter, metrics: dict) -> None:
    for metric, (function, field) in SPAN_METRICS.items():
        metrics[metric] = getattr(tracer.span(function), field)
    # the CLI layer's own time (argument parsing, document loading, CSV and
    # file writes): self time summed over every wrapped cli function
    metrics["cli.self_s"] = sum(span.self_s for name, span in tracer.spans.items() if name.startswith("cli."))
    metrics["runtime.gc_s"] = meter.pause_s
    for generation, count in enumerate(meter.collections):
        metrics[f"runtime.gc_collections_gen{generation}"] = count


def traced_pass(workload: str, seed: int, work: Path, src: Path, names: list[str]) -> tuple[int, int, dict]:
    """(attempted, failed, metrics) for the per-layer metric `names`; unused layers read 0."""
    sys.path.insert(0, str(src))
    import diskgeom as dg
    import diskgeom.cli  # noqa: F401

    metrics = dict.fromkeys(names, 0)
    problems: list[str] = []
    if workload in workloads.GASKETS:
        attempted, failed = _trace_gasket(dg, workload, work, metrics, problems)
    else:
        attempted, failed = _trace_queries(dg, seed, work, metrics, problems)
    for problem in problems:
        print(f"{workload} traced pass: {problem}", file=sys.stderr)
    print(f"{workload}: tracing overhead {metrics['trace.overhead_ratio']:.3f}x")
    return attempted, failed, metrics
