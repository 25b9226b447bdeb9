#!/usr/bin/env python
"""Serial-versus-parallel wall-time comparison of the sweep executor.

Runs the same NAS-BT bandwidth sweep twice -- once serially (``jobs=1``) and
once on a worker pool -- verifies that the two sweeps are bit-identical, and
reports the wall-time speedup.  The replay grid defaults to 16 log-spaced
bandwidth points with three variants each (original / real / ideal), i.e. 48
independent replay tasks.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_executor.py --jobs 4

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.apps import NasBT
from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.core.analysis import geometric_bandwidths
from repro.core.reporting import format_table, sweep_table
from repro.experiments import ExperimentSpec, run_experiment


def _identical(serial, parallel) -> bool:
    """True when two sweeps carry exactly the same simulated numbers."""
    return (
        serial.variants == parallel.variants
        and [p.bandwidth_mbps for p in serial.points]
        == [p.bandwidth_mbps for p in parallel.points]
        and [p.times for p in serial.points] == [p.times for p in parallel.points]
        and [p.original_communication_fraction for p in serial.points]
        == [p.original_communication_fraction for p in parallel.points]
        and [p.original_compute_time for p in serial.points]
        == [p.original_compute_time for p in parallel.points]
        and [p.network for p in serial.points]
        == [p.network for p in parallel.points])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="serial vs parallel sweep wall-time on a NAS-BT grid")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=6)
    parser.add_argument("--samples", type=int, default=16,
                        help="bandwidth points in the grid")
    parser.add_argument("--min-bandwidth", type=float, default=4.0)
    parser.add_argument("--max-bandwidth", type=float, default=16384.0)
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel run")
    parser.add_argument("--table", action="store_true",
                        help="also print the full per-point sweep table")
    args = parser.parse_args(argv)

    app = NasBT(num_ranks=args.ranks, iterations=args.iterations)
    bandwidths = geometric_bandwidths(
        args.min_bandwidth, args.max_bandwidth, args.samples)
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))

    print(f"app: nas-bt ({args.ranks} ranks, {args.iterations} iterations), "
          f"{args.samples}-point bandwidth grid, "
          f"{os.cpu_count()} core(s) available")

    spec = ExperimentSpec(apps=(app.name,), bandwidths=bandwidths)
    runs = {}
    for name, jobs in (("serial", 1), (f"parallel (jobs={args.jobs})", args.jobs)):
        start = time.perf_counter()
        sweep = run_experiment(spec.with_jobs(jobs), environment=environment,
                               apps=[app]).sweep()
        runs[name] = (time.perf_counter() - start, sweep)

    (serial_name, (serial_wall, serial_sweep)), (parallel_name, (parallel_wall, parallel_sweep)) = runs.items()
    identical = _identical(serial_sweep, parallel_sweep)
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else float("inf")

    rows = [
        [serial_name, serial_wall,
         serial_sweep.metadata["replay_wall_seconds"], 1.0],
        [parallel_name, parallel_wall,
         parallel_sweep.metadata["replay_wall_seconds"], speedup],
    ]
    print()
    print(format_table(
        ["run", "total wall (s)", "replay wall (s)", "speedup"],
        rows, title="sweep executor wall-time comparison"))
    print()
    print(f"results identical: {'yes' if identical else 'NO'}")
    print(f"wall-time speedup: {speedup:.2f}x with {args.jobs} workers")

    if args.table:
        print()
        print(sweep_table(parallel_sweep))

    if not identical:
        print("error: parallel sweep diverged from the serial sweep",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
