"""State timelines and communication lines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AnalysisError
from repro.paraver.states import ThreadState


@dataclass(frozen=True)
class StateInterval:
    """A rank spends [start, end) in ``state``."""

    rank: int
    start: float
    end: float
    state: ThreadState

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise AnalysisError(
                f"interval ends before it starts: [{self.start}, {self.end})")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CommunicationEvent:
    """A message drawn as a communication line between two ranks."""

    src: int
    dst: int
    size: int
    tag: int
    send_time: float
    recv_time: float

    @property
    def flight_time(self) -> float:
        return self.recv_time - self.send_time


@dataclass
class Timeline:
    """Per-rank state intervals plus communication lines.

    A timeline is also the pluggable *recorder* the replay engine writes
    into: callers that never consume timelines (bandwidth sweeps, parameter
    grids) replace it with a :class:`NullRecorder` so the hot loop skips
    every interval allocation.

    The raw lists keep recording order, which differs between replay
    walks; the time aggregates below are exactly rounded sums, so they do
    not.
    """

    num_ranks: int
    intervals: List[StateInterval] = field(default_factory=list)
    communications: List[CommunicationEvent] = field(default_factory=list)
    name: str = "timeline"

    #: Whether this recorder actually retains what is written into it.
    collects = True

    def add_interval(self, rank: int, start: float, end: float,
                     state: ThreadState) -> None:
        """Append a state interval (zero-length intervals are dropped)."""
        if not 0 <= rank < self.num_ranks:
            raise AnalysisError(f"rank {rank} outside timeline of {self.num_ranks} ranks")
        if end - start <= 0:
            return
        self.intervals.append(StateInterval(rank, start, end, state))

    def add_communication(self, src: int, dst: int, size: int, tag: int,
                          send_time: float, recv_time: float) -> None:
        """Append a communication line."""
        self.communications.append(
            CommunicationEvent(src, dst, size, tag, send_time, recv_time))

    # -- queries ----------------------------------------------------------
    @property
    def duration(self) -> float:
        """End of the latest interval (total reconstructed time)."""
        return max((interval.end for interval in self.intervals), default=0.0)

    def rank_intervals(self, rank: int) -> List[StateInterval]:
        """Intervals of one rank, ordered by start time."""
        return sorted((i for i in self.intervals if i.rank == rank),
                      key=lambda interval: (interval.start, interval.end))

    def time_in_state(self, state: ThreadState, rank: Optional[int] = None) -> float:
        """Total time spent in ``state`` (by one rank, or summed over all)."""
        return math.fsum(interval.duration for interval in self.intervals
                         if interval.state == state
                         and (rank is None or interval.rank == rank))

    def state_profile(self, rank: Optional[int] = None) -> Dict[ThreadState, float]:
        """Time per state (one rank, or summed over all ranks)."""
        durations: Dict[ThreadState, List[float]] = {
            state: [] for state in ThreadState}
        for interval in self.intervals:
            if rank is None or interval.rank == rank:
                durations[interval.state].append(interval.duration)
        return {state: math.fsum(values)
                for state, values in durations.items()}

    def compute_fraction(self) -> float:
        """Fraction of total rank-time spent computing (parallel efficiency)."""
        duration = self.duration
        if duration <= 0:
            return 0.0
        running = self.time_in_state(ThreadState.RUNNING)
        return running / (duration * self.num_ranks)

    def validate(self) -> None:
        """Check that intervals of each rank do not overlap."""
        for rank in range(self.num_ranks):
            previous_end = 0.0
            for interval in self.rank_intervals(rank):
                if interval.start < previous_end - 1e-12:
                    raise AnalysisError(
                        f"rank {rank} has overlapping intervals around t={interval.start}")
                previous_end = max(previous_end, interval.end)

    def state_at(self, rank: int, time: float) -> ThreadState:
        """State of ``rank`` at ``time`` (IDLE outside all intervals)."""
        for interval in self.rank_intervals(rank):
            if interval.start <= time < interval.end:
                return interval.state
        return ThreadState.IDLE


@dataclass
class NullRecorder(Timeline):
    """A timeline recorder that drops everything written into it.

    Used whenever the caller does not consume timelines (metric-only sweep
    tasks, grid cells of an experiment): the replay results then carry a
    structurally valid -- but empty -- :class:`Timeline`, and the replay hot
    loop never allocates a :class:`StateInterval`.  All query methods are
    inherited and report an empty timeline.
    """

    collects = False

    def add_interval(self, rank: int, start: float, end: float,
                     state: ThreadState) -> None:
        """Drop the interval (recording is disabled)."""

    def add_communication(self, src: int, dst: int, size: int, tag: int,
                          send_time: float, recv_time: float) -> None:
        """Drop the communication line (recording is disabled)."""
