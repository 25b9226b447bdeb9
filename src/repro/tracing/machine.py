"""The tracing virtual machine.

The paper runs every MPI process on its own Valgrind virtual machine.  Here
the virtual machine executes the application model once per rank (the models
are SPMD and data-independent, so ranks can be traced one after another) and
assembles the per-rank traces into a :class:`~repro.tracing.trace.Trace`.
By default the trace is then checked with lint's structural rules
(:func:`repro.analysis.structure.trace_issues`) and the tracer's per-stream
message ordinals, so that an inconsistent application model is rejected at
tracing time rather than deadlocking the replay simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.structure import trace_issues
from repro.errors import MatchingError, TracingError
from repro.tracing.context import RankContext
from repro.tracing.timebase import DEFAULT_MIPS
from repro.tracing.trace import Trace
from repro.tracing.tracer import RankTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.apps.base import ApplicationModel


class TracingVirtualMachine:
    """Runs application models and produces annotated traces."""

    def __init__(self, validate: bool = True):
        self.validate = validate

    def trace(self, app: "ApplicationModel") -> Trace:
        """Trace ``app`` and return the annotated (original) trace."""
        num_ranks = app.num_ranks
        if num_ranks < 2:
            raise TracingError(
                f"application models need at least 2 ranks, got {num_ranks}")
        rank_traces = []
        for rank in range(num_ranks):
            tracer = RankTracer(rank, num_ranks)
            context = RankContext(rank, num_ranks, tracer)
            app.run(context)
            rank_traces.append(tracer.finalize())
        mips = getattr(app, "mips", DEFAULT_MIPS)
        trace = Trace(ranks=rank_traces, mips=mips, metadata=app.describe())
        if self.validate:
            issues = trace_issues(trace)
            if issues:
                raise MatchingError("; ".join(issues[:10]))
        return trace
