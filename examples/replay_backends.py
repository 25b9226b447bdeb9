#!/usr/bin/env python
"""Replay backends: the event engine vs the adaptive fast-forward.

The replay engine ships two backends selected by the ``replay_backend``
platform knob:

* ``adaptive`` (the default): a classifier inspects each (trace,
  platform) cell and fast-forwards it with per-rank time recurrences
  instead of DES events, running the event walk itself for cells it
  cannot fast-forward, and
* ``event``: every CPU burst, MPI-overhead charge and transfer hop is its
  own discrete event -- the reference the adaptive walks are tested
  against.

On the paper's default platform (one input and one output link per node)
the adaptive backend's contended fast-forward reproduces the event
backend bit for bit -- total time, per-rank statistics and network
statistics -- so the choice is a wall-time one.  This example replays the
same sweep through both backends, checks the results match exactly, and
reports the wall-time difference.

Run with::

    python examples/replay_backends.py
    python examples/replay_backends.py --smoke   # tiny CI-sized workload
"""

import argparse
import time

from repro.apps import create_application
from repro.core import (
    ComputationPattern,
    FixedCountChunking,
    OverlapStudyEnvironment,
)
from repro.core.analysis import geometric_bandwidths
from repro.dimemas import Platform
from repro.dimemas.replay import ReplayEngine
from repro.experiments import Experiment, run_experiment


def replay_grid(traces, platforms, backend):
    """Replay every (trace, platform) cell; return (wall seconds, results)
    with one (total time, rank statistics, network statistics) per cell."""
    start = time.perf_counter()
    results = []
    for trace in traces:
        for platform in platforms:
            engine = ReplayEngine(trace, platform.with_replay_backend(backend),
                                  collect_timeline=False)
            total_time, ranks, _, network = engine.run()
            results.append((total_time, ranks, network))
    return time.perf_counter() - start, results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI smoke runs")
    args = parser.parse_args(argv)
    ranks, iterations, samples = (4, 2, 3) if args.smoke else (16, 4, 6)

    # The paper-style workload: an application plus its ideally overlapped
    # variant, swept across a log-spaced bandwidth grid on the default
    # platform.
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))
    app = create_application("sweep3d", num_ranks=ranks, iterations=iterations)
    original = environment.trace(app)
    ideal = environment.overlap(original, pattern=ComputationPattern.IDEAL)
    traces = [original, ideal]
    platforms = [Platform(bandwidth_mbps=bandwidth)
                 for bandwidth in geometric_bandwidths(10.0, 10000.0, samples)]

    event_seconds, event_results = replay_grid(traces, platforms, "event")
    adaptive_seconds, adaptive_results = replay_grid(traces, platforms,
                                                     "adaptive")

    assert event_results == adaptive_results, \
        "the adaptive backend must be bit-identical to the event backend"
    cells = len(traces) * len(platforms)
    print(f"sweep3d, {ranks} ranks, {cells} sweep cells, times, rank and "
          f"network statistics bit-identical across backends")
    print(f"  event backend:    {event_seconds:7.3f} s")
    print(f"  adaptive backend: {adaptive_seconds:7.3f} s "
          f"({event_seconds / adaptive_seconds:.2f}x)")

    # The same knob through the experiment API: one builder call (or
    # ``repro-overlap sweep --replay-backend event`` on the CLI).
    spec = (Experiment.for_app("sweep3d", num_ranks=ranks,
                               iterations=iterations)
            .patterns("ideal")
            .chunk_count(8)
            .bandwidths([platform.bandwidth_mbps for platform in platforms])
            .replay_backend("event")
            .build())
    result = run_experiment(spec)
    print()
    print(f"experiment API with .replay_backend('event'): "
          f"{len(result.to_rows())} rows")


if __name__ == "__main__":
    main()
