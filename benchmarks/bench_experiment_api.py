#!/usr/bin/env python
"""Overhead of the declarative experiment API over the raw executor.

The unified API adds a layer between the caller and the
:class:`~repro.core.executor.SweepExecutor`: spec validation, grid
expansion, the static-analysis precheck and result assembly.  This harness
times the same bandwidth sweep twice -- once through the raw executor
(trace, transform, replay; exactly what the pre-redesign drivers did) and
once through ``ExperimentSpec`` -> ``run_experiment`` -- verifies the
per-point numbers are bit-identical, and reports the overhead of the
declarative layer.  Both sides run with the cyclic garbage collector
paused, so the pause is not counted as a gain of either.
It also times spec (de)serialization, which bounds what ``repro-overlap
run --spec`` pays before the first replay starts.

Usage::

    PYTHONPATH=src python benchmarks/bench_experiment_api.py --samples 8

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.core.analysis import ORIGINAL, geometric_bandwidths
from repro.core.executor import SweepExecutor, collector_paused
from repro.core.patterns import ComputationPattern
from repro.core.reporting import format_table
from repro.experiments import Experiment, ExperimentSpec, run_experiment


@collector_paused()
def _raw_executor_points(app_name, options, bandwidths, jobs):
    """The pre-redesign driver path: straight-line SweepExecutor use.

    It runs with the cyclic garbage collector paused, as ``run_experiment``
    does, so the overhead compares like with like.
    """
    from repro.apps.registry import create_application

    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))
    app = create_application(app_name, **options)
    original = environment.trace(app)
    variants = {ORIGINAL: original}
    for pattern in (ComputationPattern.REAL, ComputationPattern.IDEAL):
        variants[pattern.value] = environment.overlap(original, pattern=pattern)
    executor = SweepExecutor(jobs=jobs)
    points, _ = executor.run_sweep(variants, environment.platform, bandwidths,
                                   app_name=app.name)
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="declarative-API overhead vs the raw sweep executor")
    parser.add_argument("--app", default="nas-bt")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--min-bandwidth", type=float, default=4.0)
    parser.add_argument("--max-bandwidth", type=float, default=16384.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best of N is reported)")
    args = parser.parse_args(argv)

    bandwidths = geometric_bandwidths(args.min_bandwidth, args.max_bandwidth,
                                      args.samples)
    options = {"num_ranks": args.ranks, "iterations": args.iterations}
    builder = (Experiment.for_app(args.app, **options)
               .bandwidths(bandwidths)
               .patterns("real", "ideal")
               .chunk_count(8)
               .jobs(args.jobs))
    spec = builder.build()

    raw_seconds = []
    api_seconds = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        raw_points = _raw_executor_points(args.app, options, bandwidths,
                                          args.jobs)
        raw_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        result = run_experiment(spec)
        api_seconds.append(time.perf_counter() - start)

    api_points = result.sweep().points
    identical = (
        [p.bandwidth_mbps for p in raw_points]
        == [p.bandwidth_mbps for p in api_points]
        and [p.times for p in raw_points] == [p.times for p in api_points])
    if not identical:
        print("FAIL: declarative API diverged from the raw executor",
              file=sys.stderr)
        return 1

    start = time.perf_counter()
    for _ in range(100):
        reloaded = ExperimentSpec.from_toml(spec.to_toml())
    serialize_us = (time.perf_counter() - start) / 100 * 1e6
    assert reloaded == spec

    raw_best = min(raw_seconds)
    api_best = min(api_seconds)
    rows = [
        ["raw executor (s)", f"{raw_best:.3f}"],
        ["declarative API (s)", f"{api_best:.3f}"],
        ["overhead", f"{(api_best / raw_best - 1) * 100:+.1f} %"],
        ["TOML round-trip (us)", f"{serialize_us:.0f}"],
        ["replays", len(bandwidths) * 3],
        ["jobs", args.jobs],
    ]
    print(format_table(["metric", "value"], rows,
                       title=f"experiment-API overhead: {args.app} "
                             f"({args.samples}-point sweep, best of "
                             f"{args.repeats})"))
    print("\nper-point results bit-identical: yes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
