#!/usr/bin/env python
"""Cost and payoff of the content-addressed result store.

Runs the same bandwidth-sweep experiment three ways --

* **no cache**: the plain runner, the pre-store baseline;
* **cold cache**: a store attached to an empty directory (lookup misses
  everywhere, every result written through); and
* **warm cache**: the same store again (every cell served from disk);

-- and reports wall time, the number of simulations actually executed and
the store's size on disk.  The run self-checks the subsystem's contract:
the three executions must produce identical scalar rows, the cold pass must
simulate exactly once per cell, the warm pass must simulate *nothing* and
must beat the no-cache wall time by at least ``--min-speedup`` (exit 1
otherwise).  With ``--output`` the numbers are written as JSON
(``BENCH_result_cache.json`` is the committed snapshot; CI smoke-runs this
script and uploads the file as a build artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_result_cache.py --ranks 16 --samples 9

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse
import json
import platform as host_platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

# The benchmarks are plain scripts, but tests load them by file path
# (importlib.spec_from_file_location), which skips the script-directory
# sys.path entry -- add it so the shared provenance stamp resolves.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _provenance import provenance  # noqa: E402
from repro._version import __version__
from repro.core import executor as executor_module
from repro.core.analysis import geometric_bandwidths
from repro.core.reporting import format_table
from repro.experiments import ExperimentSpec, run_experiment
from repro.store import FileResultStore


def stable_rows(result):
    """Tidy rows minus wall-clock timing (never reproducible)."""
    return [{key: value for key, value in row.items()
             if key != "task_seconds"}
            for row in result.to_rows()]



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="result-store payoff: no-cache vs cold vs warm")
    parser.add_argument("--app", default="nas-bt")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--samples", type=int, default=9,
                        help="bandwidth points in the grid")
    parser.add_argument("--min-bandwidth", type=float, default=2.0)
    parser.add_argument("--max-bandwidth", type=float, default=20000.0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the replays")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="warm-over-no-cache wall-time floor "
                             "(self-check)")
    parser.add_argument("--cache-dir", default=None,
                        help="store directory (default: a temporary one)")
    parser.add_argument("--output", default=None,
                        help="write the numbers as JSON")
    args = parser.parse_args(argv)

    spec = ExperimentSpec(
        apps=(args.app,),
        app_options={"num_ranks": args.ranks, "iterations": args.iterations},
        bandwidths=tuple(geometric_bandwidths(
            args.min_bandwidth, args.max_bandwidth, args.samples)),
        jobs=args.jobs)

    cache_dir = Path(args.cache_dir) if args.cache_dir else \
        Path(tempfile.mkdtemp(prefix="bench-result-cache-"))
    cleanup = args.cache_dir is None

    # Count the simulations that actually execute (serial replays run in
    # this process; with --jobs > 1 the count only covers the parent, so
    # the simulate-nothing check still holds for the warm pass).
    simulations = []
    original_simulate = executor_module._simulate

    def counting(task, trace, collect_timeline):
        simulations.append(task.index)
        return original_simulate(task, trace, collect_timeline)

    executor_module._simulate = counting
    try:
        passes = []
        results = {}
        for name, store in (
                ("no cache", None),
                ("cold cache", FileResultStore(cache_dir)),
                ("warm cache", FileResultStore(cache_dir))):
            simulations.clear()
            start = time.perf_counter()
            results[name] = run_experiment(spec, store=store)
            wall = time.perf_counter() - start
            stats = results[name].cache_stats()
            store_bytes = 0
            if store is not None:
                with store:
                    store_bytes = store.stats().total_bytes
            passes.append({
                "pass": name,
                "wall_seconds": wall,
                "simulations": len(simulations),
                "hits": stats.get("hits", 0) if stats["enabled"] else 0,
                "store_bytes": store_bytes,
            })
    finally:
        executor_module._simulate = original_simulate
        if cleanup:
            shutil.rmtree(cache_dir, ignore_errors=True)

    tasks = len(results["no cache"].to_rows())
    no_cache, cold, warm = passes
    warm_speedup = (no_cache["wall_seconds"] / warm["wall_seconds"]
                    if warm["wall_seconds"] > 0 else float("inf"))

    print(f"app: {args.app} ({args.ranks} ranks, {args.iterations} "
          f"iterations), {args.samples}-point bandwidth grid "
          f"[{args.min_bandwidth:g}, {args.max_bandwidth:g}] MB/s, "
          f"jobs={args.jobs}, {tasks} replay cells")
    print()
    print(format_table(
        ["pass", "wall (s)", "simulations", "cache hits", "store bytes"],
        [[p["pass"], f"{p['wall_seconds']:.4f}", p["simulations"],
          p["hits"], p["store_bytes"]] for p in passes],
        title="result store: no-cache vs cold vs warm"))
    print(f"\nwarm-over-no-cache wall-time speedup: {warm_speedup:.1f}x")

    failures = []
    baseline_rows = stable_rows(results["no cache"])
    for name in ("cold cache", "warm cache"):
        if stable_rows(results[name]) != baseline_rows:
            failures.append(f"{name}: rows differ from the no-cache run")
    if args.jobs == 1 and cold["simulations"] != tasks:
        failures.append(f"cold pass simulated {cold['simulations']} of "
                        f"{tasks} cells")
    if warm["simulations"] != 0:
        failures.append(f"warm pass simulated {warm['simulations']} cell(s)")
    if warm["hits"] != tasks:
        failures.append(f"warm pass hit {warm['hits']} of {tasks} cells")
    if warm_speedup < args.min_speedup:
        failures.append(f"warm speedup {warm_speedup:.1f}x below the "
                        f"{args.min_speedup:g}x floor")

    if args.output:
        payload = {
            "benchmark": "result_cache",
            "version": __version__,
            "python": host_platform.python_version(),
            "provenance": provenance(),
            "parameters": {
                "app": args.app,
                "ranks": args.ranks,
                "iterations": args.iterations,
                "samples": args.samples,
                "min_bandwidth": args.min_bandwidth,
                "max_bandwidth": args.max_bandwidth,
                "jobs": args.jobs,
            },
            "cells": tasks,
            "passes": passes,
            "warm_speedup": warm_speedup,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.output}")

    if failures:
        for failure in failures:
            print(f"SELF-CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print("\nself-check passed: identical rows, zero warm simulations, "
          f"warm wall time >= {args.min_speedup:g}x faster")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
