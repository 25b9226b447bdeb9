"""Grid-vectorized adaptive replay: one structural pass, many platforms.

A parameter sweep replays one trace across a grid of platform points that
differ only in scalar axes -- bandwidth, latency, CPU speed, MPI overhead.
On *proven* cells (see :func:`repro.dimemas.windows.classify`) those
scalars are the only thing the replay depends on: which rank blocks where,
which send matches which receive and which collective completes when (in
program order, not in time) are purely structural.  So a *cohort* of
proven cells sharing the structural axes -- trace, topology shape, node
mapping, collective model, eager-threshold protocol class -- rides one
lane walk (``_vector_walk`` in :mod:`repro.dimemas.replay`): a single pass
over the prepared record streams with one clock lane per cell.

Each lane is bit-identical to the event backend's replay of its cell in
every output -- time, rank statistics and network statistics: the walk
evaluates the same expressions on the same operands in the same program
order per lane, and network aggregates are exact sums.  Cached sweep
results therefore do not depend on whether a cell was batched.

Cells that do not qualify -- contended cells, a diverging protocol class,
a non-adaptive backend, a trace defect -- peel off into the per-cell path
(:class:`DimemasSimulator`), exactly as a per-cell sweep would run them.
The experiment runner only batches proven cells
(:func:`repro.experiments.plan.group_cohorts`); the peel-off serves
direct callers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dimemas.platform import Platform
from repro.dimemas.replay import _vector_walk
from repro.dimemas.results import SimulationResult
from repro.dimemas.simulator import DimemasSimulator
from repro.dimemas.windows import classify, protocol_class
from repro.paraver.timeline import NullRecorder
from repro.tracing.trace import Trace

__all__ = ["cohort_signature", "replay_cohort"]


def cohort_signature(trace: Trace, platform: Platform) -> Optional[Tuple]:
    """The grouping key under which cells may share one vectorized walk.

    Cells with equal signatures replay the same structure: the clocks are
    the only thing that differs, so they can ride one walk as vector
    lanes.  ``None`` marks a cell that must stay on the per-cell path (a
    non-adaptive backend, or a trace the classifier cannot prove).
    Deliberately *absent* from the key: bandwidth, latency, CPU speed, MPI
    overhead, intranode parameters (pure scalar axes) and the flat bus/link
    counts (so a cohort may mix proven and contended cells -- the
    contended ones peel off inside :func:`replay_cohort`).
    """
    if platform.replay_backend != "adaptive":
        return None
    klass = protocol_class(trace, platform.eager_threshold,
                           platform.processors_per_node)
    if klass < 0:
        return None
    return (platform.topology.to_string(),
            platform.collective_model.to_string(),
            platform.processors_per_node, klass)


def replay_cohort(trace: Trace, platforms: Sequence[Platform],
                  labels: Optional[Sequence[Optional[str]]] = None,
                  ) -> List[SimulationResult]:
    """Replay ``trace`` on every platform of a cohort, sharing one walk.

    Returns one :class:`SimulationResult` per platform, in order.  Proven
    cells that share the first such cell's structural signature ride the
    lane walk together, at any width, and carry ``grid_width`` in their
    ``adaptive`` metadata; every other cell runs through the standard
    per-cell simulator (identical to what a non-batched sweep would do).
    """
    platforms = list(platforms)
    if labels is None:
        labels = [None] * len(platforms)
    plans = [classify(trace, platform) for platform in platforms]
    lane_cells: List[int] = []
    reference = None
    for index, (platform, plan) in enumerate(zip(platforms, plans)):
        if platform.replay_backend != "adaptive" or not plan.proven_exact:
            continue
        signature = cohort_signature(trace, platform)
        if signature is None:
            continue
        if reference is None:
            reference = signature
        if signature == reference:
            lane_cells.append(index)
    results: List[Optional[SimulationResult]] = [None] * len(platforms)
    if lane_cells:
        lanes = _vector_walk(trace, [platforms[i] for i in lane_cells])
        for index, (total_time, ranks, network) in zip(lane_cells, lanes):
            label = labels[index]
            metadata = dict(trace.metadata)
            if label is not None:
                metadata["label"] = label
            metadata["adaptive"] = {
                "backend": "adaptive",
                "mode": "fast-forward",
                "network_uncontended": plans[index].network_uncontended,
                "proven_exact": True,
                "contended_transfers": 0,
                "grid_width": len(lane_cells),
            }
            timeline = NullRecorder(
                num_ranks=trace.num_ranks,
                name=label or trace.metadata.get("name", "trace"))
            results[index] = SimulationResult(
                platform=platforms[index], total_time=total_time,
                ranks=ranks, timeline=timeline, network=network,
                metadata=metadata)
    for index, platform in enumerate(platforms):
        if results[index] is None:
            results[index] = DimemasSimulator(
                platform, collect_timeline=False).simulate(
                    trace, label=labels[index])
    return results  # type: ignore[return-value]
