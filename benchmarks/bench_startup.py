#!/usr/bin/env python
"""Start-up cost of the command-line interface, in fresh processes.

Every command a user types pays the interpreter start and the imports
before its first line runs.  This harness times whole processes:

* ``bare``       -- ``python -c pass``, the floor no command can beat;
* ``list-apps``  -- ``python -m repro list-apps``;
* ``help``       -- ``python -m repro --help``;
* ``cache-stats`` -- ``python -m repro cache stats`` on a filled store;
* ``warm-sweep`` -- ``python -m repro sweep --app sweep3d`` against that
  store, every cell a hit, so nothing is replayed.

Each source tree gets its own temporary store, filled by one untimed sweep,
and every command runs once untimed, which also writes the bytecode caches
unless ``PYTHONDONTWRITEBYTECODE`` is set.  The children inherit that
setting: with it set and no ``__pycache__`` in the tree, every run compiles
the modules it imports from source, so the numbers show each import at its
full cost.  The report records which case it measured.  The timed runs go
round-robin over the commands and the source trees, so a slow phase of the
host spreads over all of them.  The report gives each command's median and
quartiles.

A command that exits non-zero fails the run (exit 1).  There is no timing
gate: shared CI runners are too noisy for one, and
``tests/test_import_discipline.py`` pins what each command loads.

Usage::

    PYTHONPATH=src python benchmarks/bench_startup.py --ranks 16 --repeat 10
    python benchmarks/bench_startup.py --src old/src --src src --repeat 10

With several ``--src`` trees (say, a parent commit's and the change's) the
runs alternate between them.  With ``--output`` the numbers are written as
JSON (CI uploads ``BENCH_startup.json`` as a build artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

# The benchmarks are plain scripts, but tests load them by file path
# (importlib.spec_from_file_location), which skips the script-directory
# sys.path entry -- add it so the shared provenance stamp resolves.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _provenance import provenance  # noqa: E402

#: The repository's own source tree, the default ``--src``.
DEFAULT_SOURCE = Path(__file__).resolve().parents[1] / "src"


def commands(ranks: int, store: str) -> Dict[str, List[str]]:
    """The timed command lines (after the interpreter), by name."""
    return {
        "bare": ["-c", "pass"],
        "list-apps": ["-m", "repro", "list-apps"],
        "help": ["-m", "repro", "--help"],
        "cache-stats": ["-m", "repro", "cache", "stats", "--cache-dir", store],
        "warm-sweep": ["-m", "repro", "sweep", "--app", "sweep3d",
                       "--ranks", str(ranks), "--cache-dir", store],
    }


def run(source: Path, arguments: Sequence[str]) -> float:
    """Seconds one fresh process takes; raises on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=str(source))
    env.pop("REPRO_CACHE_DIR", None)
    start = time.perf_counter()
    completed = subprocess.run([sys.executable, *arguments], env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               timeout=600)
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        raise RuntimeError(
            f"'python {' '.join(arguments)}' with PYTHONPATH={source} "
            f"exited {completed.returncode}:\n{completed.stderr}")
    return elapsed


def summary(samples: List[float]) -> Dict[str, object]:
    """Median and quartiles, in milliseconds, beside the raw samples."""
    ordered = sorted(samples)
    if len(ordered) > 1:
        first, _, third = statistics.quantiles(ordered, n=4)
    else:
        first = third = ordered[0]
    return {"median_ms": 1e3 * statistics.median(ordered),
            "q1_ms": 1e3 * first, "q3_ms": 1e3 * third,
            "samples_ms": [1e3 * sample for sample in samples]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="start-up time of the CLI commands, in fresh processes")
    parser.add_argument("--ranks", type=int, default=16,
                        help="ranks of the warm sweep3d sweep")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed runs per command and source tree")
    parser.add_argument("--src", action="append", type=Path, default=None,
                        help="source tree to put on PYTHONPATH (repeatable; "
                             "runs alternate between trees; default: this "
                             "repository's src)")
    parser.add_argument("--output", default=None,
                        help="write the numbers as JSON")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sources = [path.resolve() for path in (args.src or [DEFAULT_SOURCE])]

    with tempfile.TemporaryDirectory(prefix="bench-startup-") as scratch:
        lines = {}
        try:
            for index, source in enumerate(sources):
                lines[source] = commands(args.ranks,
                                         str(Path(scratch) / f"store{index}"))
                # Untimed: the cold sweep fills the store, and one run of
                # each command writes the bytecode caches.
                run(source, lines[source]["warm-sweep"])
                for arguments in lines[source].values():
                    run(source, arguments)
            samples = {source: {name: [] for name in lines[source]}
                       for source in sources}
            for _ in range(args.repeat):
                for name in lines[sources[0]]:
                    for source in sources:
                        samples[source][name].append(
                            run(source, lines[source][name]))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    report = {"provenance": provenance(),
              "config": {"ranks": args.ranks, "repeat": args.repeat,
                         "sources": [str(source) for source in sources],
                         "bytecode_writes": not os.environ.get(
                             "PYTHONDONTWRITEBYTECODE")},
              "results": {str(source): {name: summary(values)
                                        for name, values in by_name.items()}
                          for source, by_name in samples.items()}}
    for source in sources:
        print(f"{source} ({args.repeat} runs each)")
        for name, stats in report["results"][str(source)].items():
            print(f"  {name:<12} median {stats['median_ms']:7.1f} ms  "
                  f"(q1 {stats['q1_ms']:.1f}, q3 {stats['q3_ms']:.1f})")
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                     encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
