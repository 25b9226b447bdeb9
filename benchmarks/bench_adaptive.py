#!/usr/bin/env python
"""Adaptive-backend benchmark: speed *and* accuracy on the sweep workload.

Replays the same workload as ``bench_replay_core.py`` -- several
applications, each as (original + ideal-overlapped) variants across a
platform grid covering the paper's replay regimes -- through three
engines:

* ``legacy``: the embedded pre-refactor replica (the speedup baseline),
* ``event``: the event backend (the *accuracy* reference), and
* ``adaptive``: the classifying fast-forward backend and the default
  (``replay_backend="adaptive"``), the subject under test.  Replays are
  metric-only, so proven cells (the ideal network, or a mapping that keeps
  every message inside a node) take the lane walk at width 1 and every
  other fast-forwarded cell the paced walk.

The adaptive backend's contract is exactness -- it replays the same run
as the event backend -- so this harness measures its speed and checks
that contract: the aggregate wall-time speedups over the legacy and event
engines, and the per-cell relative error of every simulated total time
against the event backend.  ``--min-speedup`` (adaptive over legacy) and
``--max-error`` (worst observed per-cell relative error; CI passes ``0``)
turn the run into the CI gate: the backend may not get faster by getting
wronger.

The results are printed as a table and written to ``BENCH_adaptive.json``
(committed, with a provenance stamp) so the speed/accuracy trajectory is
recorded per PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive.py
    PYTHONPATH=src python benchmarks/bench_adaptive.py \
        --ranks 4 --iterations 2 --samples 2   # CI smoke mode

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# The benchmarks are plain scripts, but tests load them by file path
# (importlib.spec_from_file_location), which skips the script-directory
# sys.path entry -- add it so the shared provenance stamp resolves.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _provenance import provenance  # noqa: E402
from bench_replay_core import (
    DEFAULT_APPS,
    LegacyReplayEngine,
    _build_workload,
    _fast_engine,
    _run_engine,
)
from repro.core.reporting import format_table
from repro.dimemas.replay import ReplayEngine


def _adaptive_engine(trace, platform):
    return ReplayEngine(trace, platform.with_replay_backend("adaptive"),
                        collect_timeline=False)


def _relative_errors(adaptive_times, event_times):
    """Per-cell |adaptive - event| / event (0.0 where the reference is 0)."""
    errors = []
    for adaptive_time, event_time in zip(adaptive_times, event_times):
        if event_time == 0.0:
            errors.append(0.0 if adaptive_time == 0.0 else float("inf"))
        else:
            errors.append(abs(adaptive_time - event_time) / event_time)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="adaptive backend: speedup and relative error vs the "
                    "exact engines")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--samples", type=int, default=6,
                        help="bandwidth points per application")
    parser.add_argument("--apps", nargs="*", default=DEFAULT_APPS)
    parser.add_argument("--repeat", type=int, default=1,
                        help="replays of the whole grid per engine "
                             "(best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the adaptive backend beats the "
                             "legacy engine by at least this aggregate "
                             "factor (CI perf guard)")
    parser.add_argument("--max-error", type=float, default=None,
                        help="fail if any cell's relative error against the "
                             "event backend exceeds this bound (CI accuracy "
                             "guard; 0 demands bit-identical total times)")
    parser.add_argument("--output", default="BENCH_adaptive.json",
                        help="JSON file for the recorded trajectory")
    args = parser.parse_args(argv)

    workload, platforms = _build_workload(
        args.apps, args.ranks, args.iterations, args.samples)

    rows = []
    report = {
        "benchmark": "adaptive_replay",
        "provenance": provenance(),
        "config": {
            "ranks": args.ranks,
            "iterations": args.iterations,
            "bandwidth_samples": args.samples,
            "platform_grid": [platform.name for platform in platforms],
            "variants": ["original", "ideal"],
            "repeat": args.repeat,
        },
        "apps": {},
    }
    total_legacy = total_event = total_adaptive = 0.0
    worst_error = 0.0
    total_cells = exact_cells = 0
    for name, variants in workload.items():
        legacy_seconds = event_seconds = adaptive_seconds = float("inf")
        for _ in range(max(1, args.repeat)):
            # Interleave the engines inside every repeat so machine drift
            # hits all three comparably.
            seconds, _, legacy_times = _run_engine(
                LegacyReplayEngine, variants, platforms)
            legacy_seconds = min(legacy_seconds, seconds)
            seconds, _, event_times = _run_engine(
                _fast_engine, variants, platforms)
            event_seconds = min(event_seconds, seconds)
            seconds, _, adaptive_times = _run_engine(
                _adaptive_engine, variants, platforms)
            adaptive_seconds = min(adaptive_seconds, seconds)
        if legacy_times != event_times:
            raise SystemExit(
                f"{name}: event backend diverged from the legacy engine "
                f"({event_times} != {legacy_times})")
        errors = _relative_errors(adaptive_times, event_times)
        app_worst = max(errors)
        worst_error = max(worst_error, app_worst)
        total_cells += len(errors)
        exact_cells += sum(1 for error in errors if error == 0.0)
        total_legacy += legacy_seconds
        total_event += event_seconds
        total_adaptive += adaptive_seconds
        speedup_legacy = (legacy_seconds / adaptive_seconds
                          if adaptive_seconds else float("inf"))
        speedup_event = (event_seconds / adaptive_seconds
                         if adaptive_seconds else float("inf"))
        report["apps"][name] = {
            "cells": len(errors),
            "exact_cells": sum(1 for error in errors if error == 0.0),
            "legacy_seconds": legacy_seconds,
            "event_seconds": event_seconds,
            "adaptive_seconds": adaptive_seconds,
            "speedup_vs_legacy": speedup_legacy,
            "speedup_vs_event": speedup_event,
            "max_relative_error": app_worst,
        }
        rows.append([name, len(errors),
                     f"{legacy_seconds:.3f}", f"{event_seconds:.3f}",
                     f"{adaptive_seconds:.3f}",
                     f"{speedup_legacy:.2f}x", f"{speedup_event:.2f}x",
                     f"{app_worst:.2e}"])

    aggregate_legacy = (total_legacy / total_adaptive
                        if total_adaptive else float("inf"))
    aggregate_event = (total_event / total_adaptive
                       if total_adaptive else float("inf"))
    report["aggregate"] = {
        "cells": total_cells,
        "exact_cells": exact_cells,
        "legacy_seconds": total_legacy,
        "event_seconds": total_event,
        "adaptive_seconds": total_adaptive,
        "speedup_vs_legacy": aggregate_legacy,
        "speedup_vs_event": aggregate_event,
        "max_relative_error": worst_error,
    }
    print(format_table(
        ["app", "cells", "legacy s", "event s", "adaptive s",
         "vs legacy", "vs event", "max rel err"],
        rows, title="adaptive backend: wall time and accuracy "
                    "(timeline-free sweep workload)"))
    print(f"\naggregate speedup: adaptive {aggregate_legacy:.2f}x over "
          f"legacy, {aggregate_event:.2f}x over event "
          f"({total_legacy:.3f} s -> {total_adaptive:.3f} s); "
          f"max relative error {worst_error:.2e} over {total_cells} cells "
          f"({exact_cells} bit-exact)")

    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")

    failed = False
    if args.min_speedup is not None and aggregate_legacy < args.min_speedup:
        print(f"PERF GATE FAILED: adaptive speedup over legacy "
              f"{aggregate_legacy:.2f}x < required {args.min_speedup:.2f}x")
        failed = True
    if args.max_error is not None and worst_error > args.max_error:
        print(f"ACCURACY GATE FAILED: max relative error {worst_error:.2e} "
              f"> allowed {args.max_error:.2e}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
