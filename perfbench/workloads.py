"""Seeded inputs of the end-to-end benchmark's four workloads.

Every workload is one ``run_experiment`` call over the paper's six
applications at 16 ranks.  The seed draws the platform grid:

* bandwidths from a 24-point log-spaced ladder over the paper's 10-1000 MB/s
  range, one point per equal-width stratum of the ladder (a stratified
  log-uniform draw, so every seed spans the whole range and carries about
  the same amount of replay work);
* latencies, on the uncontended grids, the same way from a 1-2-5 ladder of
  six points between 1 and 50 microseconds.

Drawing from fixed ladders keeps every cell any seed can produce inside one
finite universe, whose ``event``-backend reference is recorded once in
``reference.json.gz`` (see ``reference.py``).

This module is stdlib-only: the runner imports it without importing the
program, and the child builds its spec from the same description.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

PAPER_APPS = ("nas-bt", "nas-cg", "pop", "alya", "specfem", "sweep3d")
NUM_RANKS = 16
VARIANTS = 3  # original, real, ideal

#: 24 log-spaced bandwidths, 10 to 1000 MB/s.
BANDWIDTH_LADDER = tuple(round(10 ** (1 + 2 * k / 23), 3) for k in range(24))
#: Six latencies, 1 to 50 microseconds.
LATENCY_LADDER = (1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5)
#: Fixed CPU-speed axis of the uncontended grids.
CPU_SPEEDS = (1.0, 2.0)

#: Platform overrides of the two reference grids.
GRIDS: Dict[str, Dict[str, object]] = {
    # The paper's default platform: one input and one output link per node.
    "default": {},
    # No limited network resource, so every window is proven contention-free
    # and the grid-vectorized cohort path can batch cells.
    "uncontended": {"input_links": 0, "output_links": 0},
}

#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = ("paper-sweep", "paper-sweep-adaptive", "cohort-grid", "warm-cache")


def stratified(rng: random.Random, size: int, picks: int) -> List[int]:
    """One index per equal-width stratum of ``range(size)``, ascending."""
    if size % picks:
        raise ValueError(f"{size} points do not split into {picks} strata")
    width = size // picks
    return [stratum * width + rng.randrange(width) for stratum in range(picks)]


def describe(name: str, seed: int) -> Dict[str, object]:
    """The JSON-able description of one workload's inputs for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    rng = random.Random(seed)
    bandwidths = [BANDWIDTH_LADDER[i]
                  for i in stratified(rng, len(BANDWIDTH_LADDER), 12)]
    latencies = [LATENCY_LADDER[i]
                 for i in stratified(rng, len(LATENCY_LADDER), 3)]
    if name.startswith("paper-sweep"):
        return {
            "name": name, "grid": "default",
            "backend": "adaptive" if name.endswith("adaptive") else "event",
            "bandwidths": bandwidths, "latencies": [], "cpu_speeds": [],
            "store": None,
        }
    return {
        "name": name, "grid": "uncontended", "backend": "adaptive",
        # The warm grid is grown to the whole bandwidth ladder so that
        # store lookups, not import and tracing, dominate its wall time.
        "bandwidths": (list(BANDWIDTH_LADDER) if name == "warm-cache"
                       else bandwidths),
        "latencies": latencies, "cpu_speeds": list(CPU_SPEEDS),
        "store": "warm" if name == "warm-cache" else "fresh",
    }


def cell_count(description: Dict[str, object]) -> int:
    """Grid cells (tidy rows) one run of ``description`` produces."""
    axes: Sequence[Sequence[object]] = (
        description["bandwidths"], description["latencies"] or [None],
        description["cpu_speeds"] or [None])
    count = len(PAPER_APPS) * VARIANTS
    for axis in axes:
        count *= len(axis)
    return count


def spec_fields(description: Dict[str, object]) -> Dict[str, object]:
    """Keyword arguments of the ``ExperimentSpec`` for ``description``."""
    platform = dict(GRIDS[description["grid"]])
    platform["replay_backend"] = description["backend"]
    return {
        "apps": PAPER_APPS,
        "app_options": {"num_ranks": NUM_RANKS},
        "bandwidths": description["bandwidths"],
        "latencies": description["latencies"],
        "cpu_speeds": description["cpu_speeds"],
        "platform": platform,
        "jobs": 1,
    }
