"""Per-layer spans recorded from outside the program.

:func:`install` rebinds the public entry point of every layer to a timing
wrapper.  Methods are replaced on their class; a module-level function is
replaced in every loaded ``repro`` module that holds it, because callers
import functions by value.  A wrapper that a caller bypasses would report
zero calls, which is why the runner reconciles the counts with the plan
(see ``run.py``).

Each wrapped call is a span.  Its *self* time is its duration minus the
durations of the spans it directly contains; a layer's ``_s`` metric sums
the self time of its spans, so the layer times of one run add up to the
time spent inside ``run_experiment``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: ``dimemas.path.*`` buckets, in report order.
PATHS = ("event", "ff_proven", "ff_contended", "des_fallback",
         "cohort_lane", "cached")


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self._open: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.fallback_reasons: Dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, function: Callable[..., Any],
             observe: Optional[Callable[..., None]] = None
             ) -> Callable[..., Any]:
        """``function`` timed as a span of ``layer``.

        ``observe(result, elapsed, *args, **kwargs)`` runs after the span
        closes, to count what the call returned.
        """
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                self.self_s[layer] += elapsed - children[0]
                self.counts[layer] += 1
                self.durations[layer].append(elapsed)
            if observe is not None:
                observe(result, elapsed, *args, **kwargs)
            return result

        return wrapper

    # -- observers -----------------------------------------------------------
    def classify_result(self, result) -> None:
        """Count one replayed cell by the path its metadata names."""
        adaptive = result.metadata.get("adaptive")
        if adaptive is None:
            self.counts["path.event"] += 1
        elif "grid_width" in adaptive:
            self.counts["path.cohort_lane"] += 1
        elif adaptive["mode"] == "des-fallback":
            self.counts["path.des_fallback"] += 1
            self.fallback_reasons[adaptive.get("fallback_reason")] += 1
        elif adaptive["proven_exact"]:
            self.counts["path.ff_proven"] += 1
        else:
            self.counts["path.ff_contended"] += 1
        if adaptive is not None:
            self.counts["contended_transfers"] += adaptive.get(
                "contended_transfers", 0)

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        s, n = self.self_s, self.counts
        sim_calls = n["dimemas.simulator"]
        sim_records = n["simulator.records"]
        lanes = n["gridreplay.lanes"]
        cells = self.durations["dimemas.simulator"]
        return {
            "tracing.calls": n["tracing"],
            "tracing.records": n["tracing.records"],
            "tracing.s": s["tracing"],
            "tracing.prepare_s": s["tracing.prepare"],
            "core.overlap.calls": n["core.overlap"],
            "core.overlap.s": s["core.overlap"],
            "analysis.calls": n["analysis.trace"],
            "analysis.s": s["analysis.trace"] + s["analysis.tasks"],
            "experiments.plan.s": s["experiments.plan"],
            "experiments.plan.group_cohorts_s": s["experiments.group_cohorts"],
            "experiments.plan.cohorts": n["plan.cohorts"],
            "experiments.plan.cohort_cells": n["plan.cohort_cells"],
            "dimemas.windows.classify_calls": n["dimemas.windows"],
            "dimemas.windows.classify_s": s["dimemas.windows"],
            "dimemas.gridreplay.calls": n["dimemas.gridreplay"],
            "dimemas.gridreplay.lanes": lanes,
            "dimemas.gridreplay.s": s["dimemas.gridreplay"],
            "dimemas.gridreplay.ms_per_lane": (
                1e3 * s["dimemas.gridreplay"] / lanes if lanes else 0.0),
            "dimemas.simulator.calls": sim_calls,
            "dimemas.simulator.s": s["dimemas.simulator"],
            "dimemas.simulator.records": sim_records,
            "dimemas.simulator.us_per_record": (
                1e6 * s["dimemas.simulator"] / sim_records
                if sim_records else 0.0),
            "dimemas.simulator.cell_p50_ms": _percentile_ms(cells, 50),
            "dimemas.simulator.cell_p95_ms": _percentile_ms(cells, 95),
            **{f"dimemas.path.{path}": n[f"path.{path}"] for path in PATHS},
            "dimemas.contended_transfers": n["contended_transfers"],
            "store.keys_s": s["store.keys"],
            "store.digest_s": s["store.digest"],
            "store.get_calls": n["store.get"],
            "store.hits": n["store.hits"],
            "store.get_s": s["store.get"],
            "store.put_calls": n["store.put"],
            "store.put_s": s["store.put"],
            "core.executor.self_s": s["core.executor"],
            "experiments.runner.self_s": s["experiments.runner"],
        }


def _percentile_ms(durations: List[float], percent: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100)[percent - 1]


def _rebind(original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
    """Replace ``original`` by ``wrapper`` in every loaded repro module."""
    bound = False
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                bound = True
    if not bound:
        raise RuntimeError(f"{original.__qualname__} is bound nowhere")


def install(recorder: Recorder) -> Callable[..., Any]:
    """Wrap every layer's entry point; return the wrapped ``run_experiment``.

    Imports the program, so it belongs to the traced process's set-up.
    """
    from repro.analysis.tracelint import analyze_trace
    from repro.core.executor import SweepExecutor
    from repro.core.overlap import OverlapTransformer
    from repro.dimemas import gridreplay, windows
    from repro.dimemas.simulator import DimemasSimulator
    from repro.experiments import plan, runner
    from repro.store.filestore import FileResultStore
    from repro.tracing.machine import TracingVirtualMachine
    from repro.tracing.trace import Trace

    n = recorder.counts

    def count_records(trace) -> int:
        return sum(len(rank_trace) for rank_trace in trace)

    def traced(result, _elapsed, *_args, **_kwargs):
        n["tracing.records"] += count_records(result)

    def simulated(result, _elapsed, _self, trace, *_args, **_kwargs):
        n["simulator.records"] += count_records(trace)
        recorder.classify_result(result)

    def cohort_replayed(results, _elapsed, *_args, **_kwargs):
        # Members peeled off the lane walk ran through the wrapped
        # simulator and were counted there; only the lanes count here.
        for result in results:
            if "grid_width" in result.metadata.get("adaptive", {}):
                n["gridreplay.lanes"] += 1
                recorder.classify_result(result)

    def grouped(units, _elapsed, *_args, **_kwargs):
        for unit in units:
            width = getattr(unit, "width", None)
            if width is not None:
                n["plan.cohorts"] += 1
                n["plan.cohort_cells"] += width

    def got(payload, _elapsed, *_args, **_kwargs):
        if payload is not None:
            n["store.hits"] += 1

    def ran(result, _elapsed, *_args, **_kwargs):
        n["path.cached"] += result.cache_stats().get("hits", 0)

    methods = (
        (TracingVirtualMachine, "trace", "tracing", traced),
        (Trace, "prepared", "tracing.prepare", None),
        (Trace, "digest", "store.digest", None),
        (OverlapTransformer, "transform", "core.overlap", None),
        (DimemasSimulator, "simulate", "dimemas.simulator", simulated),
        (FileResultStore, "get", "store.get", got),
        (FileResultStore, "put", "store.put", None),
        (plan.ExperimentPlan, "cell_keys", "store.keys", None),
        (SweepExecutor, "execute", "core.executor", None),
    )
    for owner, name, layer, observe in methods:
        setattr(owner, name,
                recorder.wrap(layer, getattr(owner, name), observe))
    functions = (
        (analyze_trace, "analysis.trace", None),
        (plan.analyze_tasks, "analysis.tasks", None),
        (plan.plan_experiment, "experiments.plan", None),
        (plan.group_cohorts, "experiments.group_cohorts", grouped),
        (windows.classify, "dimemas.windows", None),
        (gridreplay.replay_cohort, "dimemas.gridreplay", cohort_replayed),
    )
    for function, layer, observe in functions:
        _rebind(function, recorder.wrap(layer, function, observe))
    return recorder.wrap("experiments.runner", runner.run_experiment, ran)
