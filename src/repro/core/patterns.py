"""Computation-pattern models.

The pattern by which an application produces and consumes the communicated
data decides how much automatic overlap can achieve.  The paper contrasts:

* the *real* (measured) pattern -- the store/load events the tracer actually
  observed on the message buffers; and
* the *ideal* (linear, sequential) pattern -- partial transfers uniformly
  distributed throughout the adjacent computation burst, modelling a code
  restructured to produce/consume data in sequential order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.core.chunking import Chunk
from repro.errors import TransformError
from repro.tracing.records import AccessEvent


class ComputationPattern(Enum):
    """Which production/consumption pattern the overlapped trace models."""

    REAL = "real"
    IDEAL = "ideal"

    @classmethod
    def from_label(cls, label: str) -> "ComputationPattern":
        try:
            return cls(label.lower())
        except ValueError:
            raise ValueError(f"unknown computation pattern {label!r}") from None


@dataclass(frozen=True)
class ChunkPoint:
    """Where (burst index + instruction offset) a chunk becomes available/needed.

    ``burst_index`` is an index into the rank's record list; ``None`` means
    the chunk has no usable point and the corresponding partial transfer must
    stay at the original communication call.
    """

    chunk: Chunk
    burst_index: Optional[int]
    offset: float = 0.0


def production_points(chunks: Sequence[Chunk], events: Sequence[AccessEvent],
                      pattern: ComputationPattern,
                      adjacent_burst_index: Optional[int],
                      burst_instructions: Dict[int, float]) -> List[ChunkPoint]:
    """Production point of every chunk of a message about to be sent.

    For the real pattern the production point of a chunk is the *last* store
    that touched it; chunks never stored (as far as the tracer saw) are
    treated as produced only at the send call itself.  For the ideal pattern
    chunk ``i`` of ``K`` is produced after ``(i+1)/K`` of the burst that
    immediately precedes the send.
    """
    if pattern is ComputationPattern.IDEAL:
        return _linear_points(chunks, adjacent_burst_index, burst_instructions,
                              consuming=False)
    latest: List[Optional[AccessEvent]] = [None] * len(chunks)
    for event in events:
        for position, chunk in enumerate(chunks):
            if chunk.overlaps(event.lo, event.hi):
                # Last store wins: later events overwrite earlier ones.
                latest[position] = event
    return _event_points(chunks, latest, burst_instructions)


def consumption_points(chunks: Sequence[Chunk], events: Sequence[AccessEvent],
                       pattern: ComputationPattern,
                       adjacent_burst_index: Optional[int],
                       burst_instructions: Dict[int, float]) -> List[ChunkPoint]:
    """Consumption point of every chunk of a message just received.

    For the real pattern the consumption point of a chunk is the *first*
    load that touched it; chunks never loaded are treated as needed
    immediately.  For the ideal pattern chunk ``i`` of ``K`` is needed after
    ``i/K`` of the burst that immediately follows the receive (or the wait).
    """
    if pattern is ComputationPattern.IDEAL:
        return _linear_points(chunks, adjacent_burst_index, burst_instructions,
                              consuming=True)
    first: List[Optional[AccessEvent]] = [None] * len(chunks)
    for event in events:
        for position, chunk in enumerate(chunks):
            if first[position] is None and chunk.overlaps(event.lo, event.hi):
                # First load wins.
                first[position] = event
    return _event_points(chunks, first, burst_instructions)


def _linear_points(chunks: Sequence[Chunk], adjacent_burst_index: Optional[int],
                   burst_instructions: Dict[int, float],
                   consuming: bool) -> List[ChunkPoint]:
    if adjacent_burst_index is None:
        return [ChunkPoint(chunk, None) for chunk in chunks]
    try:
        instructions = burst_instructions[adjacent_burst_index]
    except KeyError:
        raise TransformError(
            f"record {adjacent_burst_index} is not a computation burst") from None
    count = len(chunks)
    points = []
    for chunk in chunks:
        fraction = (chunk.index if consuming else chunk.index + 1) / count
        points.append(ChunkPoint(chunk, adjacent_burst_index, fraction * instructions))
    return points


def _event_points(chunks: Sequence[Chunk],
                  events: Sequence[Optional[AccessEvent]],
                  burst_instructions: Dict[int, float]) -> List[ChunkPoint]:
    """The point of every chunk at its access event, clamped into its burst.

    A chunk without an event, or whose event references a record that is not
    a burst in this trace, gets no usable point.
    """
    points: List[ChunkPoint] = []
    for chunk, event in zip(chunks, events):
        limit = (None if event is None
                 else burst_instructions.get(event.burst_index))
        if limit is None:
            points.append(ChunkPoint(chunk, None))
        else:
            points.append(ChunkPoint(chunk, event.burst_index,
                                     min(max(event.offset, 0.0), limit)))
    return points
