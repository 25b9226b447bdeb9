"""The simulator facade."""

from __future__ import annotations

from typing import Optional

from repro.dimemas.platform import Platform
from repro.dimemas.results import SimulationResult
from repro.tracing.trace import Trace


class DimemasSimulator:
    """Replays traces on configurable platforms.

    The simulator is stateless between calls: every :meth:`simulate`
    invocation builds a fresh replay engine, so the same simulator object can
    be reused across a bandwidth sweep.
    """

    def __init__(self, platform: Optional[Platform] = None,
                 collect_timeline: bool = True):
        self.platform = platform or Platform()
        self.collect_timeline = collect_timeline

    def simulate(self, trace: Trace, platform: Optional[Platform] = None,
                 label: Optional[str] = None,
                 collect_timeline: Optional[bool] = None) -> SimulationResult:
        """Reconstruct the time behaviour of ``trace`` on ``platform``.

        ``collect_timeline=False`` replays with a null timeline recorder
        (the returned timeline is empty, every metric is bit-identical);
        ``None`` falls back to the simulator's default.
        """
        # The replay stack loads with the first replay, not with the facade.
        from repro.dimemas.replay import ReplayEngine

        platform = platform or self.platform
        if collect_timeline is None:
            collect_timeline = self.collect_timeline
        engine = ReplayEngine(trace, platform, label=label,
                              collect_timeline=collect_timeline)
        total_time, stats, timeline, network_stats = engine.run()
        metadata = dict(trace.metadata)
        if label is not None:
            metadata["label"] = label
        if engine.adaptive_summary is not None:
            # How the adaptive backend handled this cell: fast-forward or
            # DES fallback, its classification and contended transfers.
            metadata["adaptive"] = dict(engine.adaptive_summary)
        return SimulationResult(
            platform=platform,
            total_time=total_time,
            ranks=stats,
            timeline=timeline,
            network=network_stats,
            metadata=metadata,
        )


def simulate(trace: Trace, platform: Optional[Platform] = None,
             label: Optional[str] = None) -> SimulationResult:
    """Convenience function: simulate ``trace`` on ``platform``."""
    return DimemasSimulator(platform).simulate(trace, label=label)
