#!/usr/bin/env python
"""Replay wall time and simulated runtime across the three topologies.

Replays the same NAS-BT workload grid (original / real / ideal variants at
several bandwidths) on the flat bus, a hierarchical tree and a 2-D torus,
and reports per topology

* the *simulated* runtime of the original trace at the lowest and highest
  swept bandwidth (what the machine model predicts), and
* the *replay task time* the simulator spent on that topology's share of
  the grid (what the multi-hop pipeline costs us; tree and torus routes
  cross more resources per transfer than the flat bus's single hop).

The three topologies are one ``topologies`` axis of a single experiment
spec, so the grid is traced and transformed once.

Usage::

    PYTHONPATH=src python benchmarks/bench_topologies.py --ranks 8 --samples 4

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse

from repro.apps import NasBT
from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.core.analysis import ORIGINAL, geometric_bandwidths
from repro.core.reporting import format_table
from repro.experiments import ExperimentSpec, run_experiment

TOPOLOGIES = [
    "flat",
    "tree:radix=4,bandwidth_scale=2.0,links=2",
    "torus:links=1",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="replay cost of the three topologies on one NAS-BT grid")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--samples", type=int, default=6,
                        help="bandwidth points in the grid")
    parser.add_argument("--min-bandwidth", type=float, default=10.0)
    parser.add_argument("--max-bandwidth", type=float, default=10000.0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the replays")
    args = parser.parse_args(argv)

    bandwidths = geometric_bandwidths(
        args.min_bandwidth, args.max_bandwidth, args.samples)
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))

    app = NasBT(num_ranks=args.ranks, iterations=args.iterations)
    spec = ExperimentSpec(apps=(app.name,), topologies=TOPOLOGIES,
                          bandwidths=bandwidths, jobs=args.jobs)
    result = run_experiment(spec, environment=environment, apps=[app])

    rows = []
    # Cells come back in the spec's topology order.
    for topology, sweep in zip(TOPOLOGIES, result.by_topology().values()):
        # Replay-only task time; tracing and the overlap transforms (which
        # are shared by every row) are excluded so the column compares what
        # the multi-hop pipeline actually costs.
        replay = sum(point.replay_seconds() for point in sweep.points)
        slowest = sweep.points[0]
        fastest = sweep.points[-1]
        _, peak = sweep.peak_speedup("ideal")
        rows.append([
            topology,
            slowest.time(ORIGINAL),
            fastest.time(ORIGINAL),
            peak,
            fastest.network_stat(ORIGINAL, "mean_queue_time"),
            replay,
        ])

    print(f"app: nas-bt ({args.ranks} ranks, {args.iterations} iterations), "
          f"{args.samples}-point bandwidth grid "
          f"[{args.min_bandwidth:g}, {args.max_bandwidth:g}] MB/s, "
          f"jobs={args.jobs}")
    print()
    print(format_table(
        ["topology", f"simulated @{args.min_bandwidth:g} (s)",
         f"simulated @{args.max_bandwidth:g} (s)", "peak ideal speedup",
         "mean queue @max BW (s)", "replay task time (s)"],
        rows, title="topology comparison: simulated runtime vs replay cost"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
