#!/usr/bin/env python
"""Grid-vectorized sweep benchmark: one pass over the trace per cohort.

Replays the standard sweep workload -- the ``bench_replay_core``
applications, each as (original + ideal-overlapped) variants -- across a
bandwidth grid of uncontended flat platforms, two ways:

* ``per-cell``: the adaptive backend replayed once per (trace, platform)
  cell through :class:`~repro.dimemas.simulator.DimemasSimulator` -- on
  these proven cells the same lane walk at width 1, the path of a caller
  that replays cells one at a time, and the speedup baseline;
* ``grid``: :func:`~repro.dimemas.gridreplay.replay_cohort` evaluating the
  whole platform grid in a single structural walk over the trace, carrying
  one clock vector per rank (one lane per grid cell).

Both paths promise results bit-identical to the ``event`` backend, so
every cell's whole result -- total time, every ``RankStats`` field and the
network dict, key order included -- is compared between the grid path,
the per-cell path and the event walk, and any difference fails the run.
The reported ``max_relative_error`` of the total times covers all cells.
Both paths are timed with the cyclic garbage collector paused, as
``run_experiment`` runs them.
``--min-speedup`` (grid over per-cell, aggregate wall time) and
``--max-error`` (CI passes ``0``) turn the run into the CI gate that keeps
the batching honest: evaluating lanes together may not change what any
lane computes.

The results are printed as a table and written to ``BENCH_gridsweep.json``
(committed, with a provenance stamp) so the trajectory is recorded per PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_gridsweep.py
    PYTHONPATH=src python benchmarks/bench_gridsweep.py \
        --ranks 4 --iterations 2 --width 12 --repeat 3   # CI smoke mode

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import astuple
from pathlib import Path

# The benchmarks are plain scripts, but tests load them by file path
# (importlib.spec_from_file_location), which skips the script-directory
# sys.path entry -- add it so the shared provenance stamp resolves.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _provenance import provenance  # noqa: E402
from bench_replay_core import DEFAULT_APPS
from repro._collector import collector_paused
from repro.apps.registry import create_application
from repro.core.analysis import geometric_bandwidths
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.patterns import ComputationPattern
from repro.core.reporting import format_table
from repro.dimemas.gridreplay import replay_cohort
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.simulator import DimemasSimulator


def _build_workload(apps, ranks, iterations, width):
    """(app -> [(variant, trace)]) plus a ``width``-cell vectorizable grid.

    The grid is one cohort by construction: uncontended flat platforms
    (no bus or link caps, so every cell is provably contention-free)
    that differ only in the bandwidth scalar.
    """
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))
    workload = {}
    for name in apps:
        app = create_application(name, num_ranks=ranks, iterations=iterations)
        original = environment.trace(app)
        overlapped = environment.overlap(original,
                                         pattern=ComputationPattern.IDEAL)
        workload[name] = [("original", original), ("ideal", overlapped)]
    platforms = [
        Platform(bandwidth_mbps=bandwidth, num_buses=0,
                 input_links=0, output_links=0, replay_backend="adaptive")
        for bandwidth in geometric_bandwidths(10.0, 10000.0, width)]
    return workload, platforms


def _whole(total_time, ranks, network):
    """One cell's result as a value compared with ``==``: the total time,
    every ``RankStats`` field and the network dict, key order included."""
    return (total_time, [astuple(stats) for stats in ranks],
            json.dumps(network))


def _run_per_cell(variants, platforms):
    """Replay every cell through the stock simulator; (seconds, results)."""
    start = time.perf_counter()
    results = []
    for _label, trace in variants:
        simulator = DimemasSimulator(collect_timeline=False)
        for platform in platforms:
            results.append(simulator.simulate(trace, platform=platform))
    return time.perf_counter() - start, results


def _run_grid(variants, platforms):
    """Replay every variant as one cohort batch; (seconds, results)."""
    start = time.perf_counter()
    results = []
    for _label, trace in variants:
        results.extend(replay_cohort(trace, platforms))
    return time.perf_counter() - start, results


def _event_cells(variants, platforms):
    """Exact per-cell reference results (see :func:`_whole`) of the event
    backend."""
    cells = []
    for _label, trace in variants:
        for platform in platforms:
            total_time, ranks, _timeline, network = ReplayEngine(
                trace, platform.with_replay_backend("event"),
                collect_timeline=False).run()
            cells.append(_whole(total_time, ranks, network))
    return cells


def _relative_errors(grid_times, event_times):
    """Per-cell |grid - event| / event (0.0 where the reference is 0)."""
    errors = []
    for grid_time, event_time in zip(grid_times, event_times):
        if event_time == 0.0:
            errors.append(0.0 if grid_time == 0.0 else float("inf"))
        else:
            errors.append(abs(grid_time - event_time) / event_time)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="grid-vectorized cohort replay vs per-cell adaptive")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--width", type=int, default=12,
                        help="grid cells per cohort (bandwidth samples)")
    parser.add_argument("--apps", nargs="*", default=DEFAULT_APPS)
    parser.add_argument("--repeat", type=int, default=1,
                        help="replays of the whole grid per path "
                             "(best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the grid path beats per-cell "
                             "adaptive by at least this aggregate factor "
                             "(CI perf guard)")
    parser.add_argument("--max-error", type=float, default=None,
                        help="fail if any cell's relative error against the "
                             "event backend exceeds this bound (CI accuracy "
                             "guard; 0 demands bit-identical total times)")
    parser.add_argument("--output", default="BENCH_gridsweep.json",
                        help="JSON file for the recorded trajectory")
    args = parser.parse_args(argv)

    workload, platforms = _build_workload(
        args.apps, args.ranks, args.iterations, args.width)

    rows = []
    report = {
        "benchmark": "gridsweep_replay",
        "provenance": provenance(),
        "config": {
            "ranks": args.ranks,
            "iterations": args.iterations,
            "grid_width": args.width,
            "bandwidths_mbps": [platform.bandwidth_mbps
                                for platform in platforms],
            "variants": ["original", "ideal"],
            "repeat": args.repeat,
        },
        "apps": {},
    }
    total_cell = total_grid = 0.0
    worst_error = 0.0
    total_cells = exact_cells = identical_cells = 0
    for name, variants in workload.items():
        cell_seconds = grid_seconds = float("inf")
        # Paused as in run_experiment: the kept results would otherwise
        # trigger collections that walk every trace, inside the timings.
        with collector_paused():
            for _ in range(max(1, args.repeat)):
                # Interleave the paths inside every repeat so machine
                # drift hits both comparably.
                seconds, cell_results = _run_per_cell(variants, platforms)
                cell_seconds = min(cell_seconds, seconds)
                seconds, grid_results = _run_grid(variants, platforms)
                grid_seconds = min(grid_seconds, seconds)
        event_cells = _event_cells(variants, platforms)
        identical = sum(
            1 for grid, cell, event in zip(grid_results, cell_results,
                                           event_cells)
            if _whole(grid.total_time, grid.ranks, grid.network)
            == _whole(cell.total_time, cell.ranks, cell.network) == event)
        errors = _relative_errors([result.total_time
                                   for result in grid_results],
                                  [cell[0] for cell in event_cells])
        app_worst = max(errors)
        worst_error = max(worst_error, app_worst)
        total_cells += len(errors)
        exact_cells += sum(1 for error in errors if error == 0.0)
        identical_cells += identical
        total_cell += cell_seconds
        total_grid += grid_seconds
        speedup = cell_seconds / grid_seconds if grid_seconds else float("inf")
        report["apps"][name] = {
            "cells": len(errors),
            "exact_cells": sum(1 for error in errors if error == 0.0),
            "identical_cells": identical,
            "per_cell_seconds": cell_seconds,
            "grid_seconds": grid_seconds,
            "speedup_vs_per_cell": speedup,
            "max_relative_error": app_worst,
        }
        rows.append([name, len(errors), f"{cell_seconds:.3f}",
                     f"{grid_seconds:.3f}", f"{speedup:.2f}x",
                     f"{app_worst:.2e}"])

    aggregate = total_cell / total_grid if total_grid else float("inf")
    report["aggregate"] = {
        "cells": total_cells,
        "exact_cells": exact_cells,
        "identical_cells": identical_cells,
        "per_cell_seconds": total_cell,
        "grid_seconds": total_grid,
        "speedup_vs_per_cell": aggregate,
        "max_relative_error": worst_error,
    }
    print(format_table(
        ["app", "cells", "per-cell s", "grid s", "speedup", "max rel err"],
        rows, title=f"grid-vectorized cohort replay "
                    f"(width {args.width}, adaptive per-cell baseline)"))
    print(f"\naggregate speedup: grid {aggregate:.2f}x over per-cell "
          f"adaptive ({total_cell:.3f} s -> {total_grid:.3f} s); "
          f"max relative error {worst_error:.2e} over {total_cells} cells "
          f"({exact_cells} bit-exact); {identical_cells} whole results "
          f"identical across the grid path, the per-cell path and the "
          f"event walk")

    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")

    failed = identical_cells < total_cells
    if failed:
        print(f"EXACTNESS GATE FAILED: {total_cells - identical_cells} of "
              f"{total_cells} cells differ between the grid path, the "
              f"per-cell path and the event walk")
    if args.min_speedup is not None and aggregate < args.min_speedup:
        print(f"PERF GATE FAILED: grid speedup over per-cell adaptive "
              f"{aggregate:.2f}x < required {args.min_speedup:.2f}x")
        failed = True
    if args.max_error is not None and worst_error > args.max_error:
        print(f"ACCURACY GATE FAILED: max relative error {worst_error:.2e} "
              f"> allowed {args.max_error:.2e}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
