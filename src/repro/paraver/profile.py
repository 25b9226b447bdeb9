"""Paraver-analyzer-style profiles of reconstructed timelines.

Paraver is not only a timeline browser: its analysis module turns the
timeline into tables (time per state per thread, communication matrices,
message-size histograms).  This module provides those views for the
reconstructed executions so the effect of overlap can be quantified rank by
rank, which is how the paper inspects *where* the waiting time goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import AnalysisError
from repro.paraver.states import ThreadState
from repro.paraver.timeline import Timeline


@dataclass
class StateProfile:
    """Time per state per rank, plus totals and percentages."""

    num_ranks: int
    duration: float
    per_rank: Dict[int, Dict[ThreadState, float]] = field(default_factory=dict)

    @property
    def totals(self) -> Dict[ThreadState, float]:
        totals: Dict[ThreadState, float] = {state: 0.0 for state in ThreadState}
        for profile in self.per_rank.values():
            for state, value in profile.items():
                totals[state] += value
        return totals

    def percentage(self, state: ThreadState, rank: int = None) -> float:
        """Share of the (rank-)time spent in ``state`` (0..100)."""
        if self.duration <= 0:
            return 0.0
        if rank is None:
            return 100.0 * self.totals[state] / (self.duration * self.num_ranks)
        return 100.0 * self.per_rank[rank].get(state, 0.0) / self.duration

    def imbalance(self, state: ThreadState = ThreadState.RUNNING) -> float:
        """Max-over-mean of the per-rank time in ``state`` (1.0 = balanced)."""
        values = [self.per_rank[rank].get(state, 0.0) for rank in range(self.num_ranks)]
        mean = sum(values) / len(values) if values else 0.0
        if mean <= 0:
            return 1.0
        return max(values) / mean

    def as_rows(self) -> List[List[object]]:
        """Rows (one per rank) for text reporting."""
        rows = []
        for rank in range(self.num_ranks):
            profile = self.per_rank.get(rank, {})
            rows.append([rank] + [profile.get(state, 0.0) for state in ThreadState])
        return rows


def state_profile(timeline: Timeline) -> StateProfile:
    """Compute the per-rank time-per-state profile of a timeline."""
    profile = StateProfile(num_ranks=timeline.num_ranks, duration=timeline.duration)
    for rank in range(timeline.num_ranks):
        profile.per_rank[rank] = timeline.state_profile(rank)
    return profile


def communication_matrix(timeline: Timeline) -> List[List[int]]:
    """Bytes sent from every rank to every rank (dense matrix)."""
    size = timeline.num_ranks
    matrix = [[0] * size for _ in range(size)]
    for comm in timeline.communications:
        if not (0 <= comm.src < size and 0 <= comm.dst < size):
            raise AnalysisError(
                f"communication {comm.src}->{comm.dst} outside {size} ranks")
        matrix[comm.src][comm.dst] += comm.size
    return matrix


def message_size_histogram(timeline: Timeline,
                           boundaries: Sequence[int] = (
                               1024, 8192, 65536, 262144, 1048576)) -> Dict[str, int]:
    """Histogram of message sizes using the given bucket boundaries."""
    boundaries = sorted(boundaries)
    labels = []
    previous = 0
    for boundary in boundaries:
        labels.append(f"{previous}-{boundary - 1}")
        previous = boundary
    labels.append(f">={previous}")
    histogram = {label: 0 for label in labels}
    for comm in timeline.communications:
        for index, boundary in enumerate(boundaries):
            if comm.size < boundary:
                histogram[labels[index]] += 1
                break
        else:
            histogram[labels[-1]] += 1
    return histogram


def flight_time_statistics(timeline: Timeline) -> Dict[str, float]:
    """Minimum / mean / maximum in-flight time of the drawn communications."""
    flights = [comm.flight_time for comm in timeline.communications]
    if not flights:
        return {"count": 0, "min": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(flights),
        "min": min(flights),
        "mean": math.fsum(flights) / len(flights),
        "max": max(flights),
    }


def overlap_efficiency(original: Timeline, overlapped: Timeline) -> Dict[str, float]:
    """How much of the original blocked time the overlapped execution removed.

    Returns the total blocked rank-seconds of both executions, the absolute
    reduction and the fraction of the original blocked time that was hidden
    (the paper's notion of exploited overlap potential).
    """
    blocking = ThreadState.blocking_states()
    original_blocked = sum(original.time_in_state(state) for state in blocking)
    overlapped_blocked = sum(overlapped.time_in_state(state) for state in blocking)
    hidden = original_blocked - overlapped_blocked
    return {
        "original_blocked": original_blocked,
        "overlapped_blocked": overlapped_blocked,
        "hidden": hidden,
        "hidden_fraction": (hidden / original_blocked) if original_blocked > 0 else 0.0,
    }
