"""The overlap study environment (paper Figure 1).

The environment connects the three stages of the paper's tool chain:

1. the tracing virtual machine produces the annotated original trace of an
   application model,
2. the overlap transformer generates the potential (overlapped) traces, and
3. the Dimemas replay engine reconstructs the time behaviours on a
   configurable platform, which can then be compared with the Paraver-like
   timeline utilities.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro.core.chunking import ChunkingPolicy, FixedSizeChunking
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.dimemas.results import SimulationResult
from repro.dimemas.simulator import DimemasSimulator
from repro.tracing.machine import TracingVirtualMachine
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import ApplicationModel
    from repro.core.study import OverlapStudy


class OverlapStudyEnvironment:
    """Facade over tracing, overlap transformation, replay and comparison."""

    def __init__(self, platform: Optional[Platform] = None,
                 chunking: Optional[ChunkingPolicy] = None,
                 validate: bool = True):
        self.platform = platform or Platform()
        self.chunking = chunking or FixedSizeChunking(chunk_bytes=16384, max_chunks=64)
        self.machine = TracingVirtualMachine(validate=validate)

    # -- stage 1: tracing -----------------------------------------------------
    def trace(self, app: "ApplicationModel") -> Trace:
        """Run the tracing virtual machine on ``app``."""
        return self.machine.trace(app)

    # -- stage 2: overlap transformation ---------------------------------------
    def overlap(self, trace: Trace,
                pattern: ComputationPattern = ComputationPattern.IDEAL,
                mechanism: OverlapMechanism = OverlapMechanism.FULL) -> Trace:
        """Generate the overlapped (potential) trace of ``trace``."""
        from repro.core.overlap import OverlapTransformer
        transformer = OverlapTransformer(
            chunking=self.chunking, pattern=pattern, mechanism=mechanism)
        return transformer.transform(trace)

    # -- stage 3: replay ---------------------------------------------------------
    def simulate(self, trace: Trace, platform: Optional[Platform] = None,
                 bandwidth_mbps: Optional[float] = None,
                 label: Optional[str] = None) -> SimulationResult:
        """Replay ``trace`` on ``platform`` (optionally overriding bandwidth)."""
        platform = platform or self.platform
        if bandwidth_mbps is not None:
            platform = platform.with_bandwidth(bandwidth_mbps)
        return DimemasSimulator(platform).simulate(trace, label=label)

    # -- one-stop study -----------------------------------------------------------
    def study(self, app: "ApplicationModel",
              platform: Optional[Platform] = None,
              patterns: Iterable[ComputationPattern] = (
                  ComputationPattern.REAL, ComputationPattern.IDEAL),
              mechanism: OverlapMechanism = OverlapMechanism.FULL,
              jobs: Optional[int] = None) -> OverlapStudy:
        """Trace, transform and replay ``app``; return the assembled study.

        A thin wrapper over :func:`repro.core.study.batch_study` for a
        single application, so every study entry point shares the unified
        experiment pipeline (including variant-label validation and the
        ``jobs`` worker pool).
        """
        from repro.core.study import batch_study
        return batch_study(
            [app], patterns=patterns, mechanism=mechanism,
            environment=self, platform=platform or self.platform,
            jobs=jobs)[app.name]
