"""The overlap trace transformation.

This module reproduces the central capability of the paper's tracing tool:
from the original (non-overlapped) annotated trace it generates the trace of
the *potential* (overlapped) execution.  Every original point-to-point
message is split into chunks; partial (non-blocking) sends are injected at
the points where the chunks are produced, and partial waits are injected at
the points where the chunks are consumed.  The points come either from the
measured (real) pattern annotations or from the ideal (linear) pattern.

The transformation is purely local to each rank.  Chunk messages of the two
sides stay matched because (a) the chunking policy is a deterministic
function of the message size and (b) the chunk tag is derived from the
original tag, the per-pair message ordinal and the chunk index, which both
sides compute identically.
"""

from __future__ import annotations

from itertools import count as _counter
from typing import Dict, List, Optional, Tuple, Union

from repro.core.chunking import MAX_CHUNKS_PER_MESSAGE, Chunk, ChunkingPolicy, FixedSizeChunking
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import (
    ChunkPoint,
    ComputationPattern,
    consumption_points,
    production_points,
)
from repro.errors import ConfigurationError, TransformError
from repro.tracing.records import (
    CpuBurst,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace, Trace

#: Multiplier used to derive collision-free chunk tags (see :func:`chunk_tag`).
_TAG_STRIDE = 1_000_000


def resolve_overlap_request(pattern: Union[str, ComputationPattern],
                            mechanism: Union[str, OverlapMechanism]
                            ) -> Tuple[ComputationPattern, OverlapMechanism]:
    """Validate a requested (pattern, mechanism) combination up front.

    Accepts labels or the enum members themselves and returns the resolved
    pair.  Raises a clear :class:`ConfigurationError` (a ``ReproError``, so
    the CLI reports it instead of crashing) for unknown labels and for
    combinations that cannot produce an overlapped trace -- requesting an
    overlap with the ``none`` mechanism would silently return the original
    trace from deep inside the transform.
    """
    try:
        if not isinstance(pattern, ComputationPattern):
            pattern = ComputationPattern.from_label(pattern)
        if not isinstance(mechanism, OverlapMechanism):
            mechanism = OverlapMechanism.from_label(mechanism)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    if mechanism is OverlapMechanism.NONE:
        raise ConfigurationError(
            f"the {pattern.value!r} overlap pattern cannot be applied with "
            f"mechanism 'none' (no partial sends or receives would be "
            f"generated); choose 'full', 'early-send' or 'late-receive', "
            f"or drop the overlap request")
    return pattern, mechanism


def chunk_tag(tag: int, pair_seq: int, chunk_index: int) -> int:
    """Tag of a chunk message, identical on the sender and the receiver."""
    if chunk_index >= MAX_CHUNKS_PER_MESSAGE:
        raise TransformError(
            f"chunk index {chunk_index} exceeds the supported maximum")
    if pair_seq >= _TAG_STRIDE:
        raise TransformError(
            f"per-pair message ordinal {pair_seq} exceeds the supported maximum")
    return ((tag + 1) * _TAG_STRIDE + pair_seq) * MAX_CHUNKS_PER_MESSAGE + chunk_index


class OverlapTransformer:
    """Generates overlapped (potential) traces from original traces."""

    def __init__(self, chunking: Optional[ChunkingPolicy] = None,
                 pattern: ComputationPattern = ComputationPattern.IDEAL,
                 mechanism: OverlapMechanism = OverlapMechanism.FULL):
        self.chunking = chunking or FixedSizeChunking()
        self.pattern = pattern
        self.mechanism = mechanism

    # -- public -------------------------------------------------------------
    def transform(self, trace: Trace) -> Trace:
        """Return the overlapped variant of ``trace``."""
        if self.mechanism is OverlapMechanism.NONE:
            return trace.with_metadata(variant="original")
        # The chunking policy is a pure function of the message size and
        # chunks are frozen, so every message of one size shares one list.
        chunk_lists: Dict[int, List[Chunk]] = {}
        transformed = [self._transform_rank(rank_trace, chunk_lists)
                       for rank_trace in trace]
        return Trace(
            ranks=transformed,
            mips=trace.mips,
            metadata={
                **trace.metadata,
                "variant": f"overlapped-{self.pattern.value}-{self.mechanism.label}",
                "pattern": self.pattern.value,
                "mechanism": self.mechanism.label,
                "chunking": self.chunking.describe(),
            })

    # -- per-rank transformation ------------------------------------------------
    def _transform_rank(self, rank_trace: RankTrace,
                        chunk_lists: Dict[int, List[Chunk]]) -> RankTrace:
        records = rank_trace.records
        preceding_burst, following_burst = self._adjacent_bursts(records)
        burst_instructions = {
            index: record.instructions
            for index, record in enumerate(records) if isinstance(record, CpuBurst)
        }
        wait_position = self._wait_positions(records)

        injections: Dict[int, List[Tuple[float, int, Record]]] = {}
        replacements: Dict[int, List[Record]] = {}
        request_map: Dict[int, List[int]] = {}
        next_request = _counter(self._max_request(records) + 1)
        order = _counter()

        for position, record in enumerate(records):
            if isinstance(record, SendRecord):
                self._transform_send(position, record,
                                     self._chunks(record.size, chunk_lists),
                                     preceding_burst, burst_instructions,
                                     injections, replacements, request_map,
                                     next_request, order)
            elif isinstance(record, RecvRecord):
                self._transform_recv(position, record,
                                     self._chunks(record.size, chunk_lists),
                                     following_burst, burst_instructions,
                                     wait_position, injections, replacements,
                                     request_map, next_request, order)
            elif isinstance(record, WaitRecord):
                self._rewrite_wait(position, record, request_map, replacements)

        new_records = self._emit(records, injections, replacements)
        return RankTrace(rank=rank_trace.rank, records=new_records)

    # -- send side ---------------------------------------------------------------
    def _transform_send(self, position: int, record: SendRecord,
                        chunks: List[Chunk],
                        preceding_burst: List[Optional[int]],
                        burst_instructions: Dict[int, float],
                        injections: Dict[int, List[Tuple[float, int, Record]]],
                        replacements: Dict[int, List[Record]],
                        request_map: Dict[int, List[int]],
                        next_request, order) -> None:
        if len(chunks) <= 1:
            return
        if self.mechanism.transforms_sends:
            points = production_points(
                chunks, record.production, self.pattern,
                preceding_burst[position], burst_instructions)
        else:
            # Early sends disabled: the message is still chunked (the other
            # side may defer its waits) but every partial send stays at the
            # original send call.
            points = [ChunkPoint(chunk, None) for chunk in chunks]
        chunk_requests: List[int] = []
        at_call_point: List[Record] = []
        for chunk, point in zip(chunks, points):
            request_id = next(next_request)
            chunk_requests.append(request_id)
            partial = SendRecord(
                dst=record.dst, size=chunk.size,
                tag=chunk_tag(record.tag, record.pair_seq, chunk.index),
                blocking=False, request=request_id, buffer=None, pair_seq=0)
            if point.burst_index is None:
                at_call_point.append(partial)
            else:
                injections.setdefault(point.burst_index, []).append(
                    (point.offset, next(order), partial))
        if record.blocking:
            # The original blocking send returned only once the buffer was
            # reusable; preserve that by waiting for all partial sends here.
            replacements[position] = at_call_point + [WaitRecord(requests=chunk_requests)]
        else:
            replacements[position] = at_call_point
            request_map[record.request] = chunk_requests

    # -- receive side -----------------------------------------------------------
    def _transform_recv(self, position: int, record: RecvRecord,
                        chunks: List[Chunk],
                        following_burst: List[Optional[int]],
                        burst_instructions: Dict[int, float],
                        wait_position: Dict[int, int],
                        injections: Dict[int, List[Tuple[float, int, Record]]],
                        replacements: Dict[int, List[Record]],
                        request_map: Dict[int, List[int]],
                        next_request, order) -> None:
        if len(chunks) <= 1:
            return
        if self.mechanism.transforms_receives:
            reference_position = (
                position if record.blocking
                else wait_position.get(record.request, position))
            points = consumption_points(
                chunks, record.consumption, self.pattern,
                following_burst[reference_position], burst_instructions)
        else:
            # Late receives disabled: the message is still chunked (the other
            # side may inject early sends) but every partial receive is
            # waited for at the original receive/wait call.
            points = [ChunkPoint(chunk, None) for chunk in chunks]
        posted: List[Record] = []
        deferred: List[int] = []
        for chunk, point in zip(chunks, points):
            request_id = next(next_request)
            partial = RecvRecord(
                src=record.src, size=chunk.size,
                tag=chunk_tag(record.tag, record.pair_seq, chunk.index),
                blocking=False, request=request_id, buffer=None, pair_seq=0)
            posted.append(partial)
            if point.burst_index is None:
                deferred.append(request_id)
            else:
                injections.setdefault(point.burst_index, []).append(
                    (point.offset, next(order), WaitRecord(requests=[request_id])))
        if record.blocking:
            tail = [WaitRecord(requests=deferred)] if deferred else []
            replacements[position] = posted + tail
        else:
            replacements[position] = posted
            request_map[record.request] = deferred

    # -- waits --------------------------------------------------------------------
    @staticmethod
    def _rewrite_wait(position: int, record: WaitRecord,
                      request_map: Dict[int, List[int]],
                      replacements: Dict[int, List[Record]]) -> None:
        if not any(request in request_map for request in record.requests):
            return
        new_requests: List[int] = []
        for request in record.requests:
            if request in request_map:
                new_requests.extend(request_map.pop(request))
            else:
                new_requests.append(request)
        replacements[position] = (
            [WaitRecord(requests=new_requests)] if new_requests else [])

    # -- emission ----------------------------------------------------------------
    @staticmethod
    def _emit(records: List[Record],
              injections: Dict[int, List[Tuple[float, int, Record]]],
              replacements: Dict[int, List[Record]]) -> List[Record]:
        result: List[Record] = []
        for position, record in enumerate(records):
            if isinstance(record, CpuBurst):
                pieces = injections.get(position)
                if not pieces:
                    result.append(record)
                    continue
                # Orders are unique, so the records are never compared.
                pieces.sort()
                cursor = 0.0
                for offset, _order, injected in pieces:
                    offset = min(max(offset, 0.0), record.instructions)
                    if offset > cursor:
                        result.append(CpuBurst(instructions=offset - cursor))
                        cursor = offset
                    result.append(injected)
                if record.instructions > cursor:
                    result.append(CpuBurst(instructions=record.instructions - cursor))
                continue
            if position in replacements:
                result.extend(replacements[position])
            else:
                result.append(record)
        return result

    # -- helpers ----------------------------------------------------------------
    def _chunks(self, size: int, chunk_lists: Dict[int, List[Chunk]]) -> List[Chunk]:
        chunks = chunk_lists.get(size)
        if chunks is None:
            chunks = chunk_lists[size] = self.chunking.chunks(size)
        return chunks

    @staticmethod
    def _adjacent_bursts(records: List[Record]) -> Tuple[List[Optional[int]],
                                                          List[Optional[int]]]:
        """Nearest preceding / following computation burst of every position."""
        preceding: List[Optional[int]] = []
        latest: Optional[int] = None
        for index, record in enumerate(records):
            preceding.append(latest)
            if isinstance(record, CpuBurst):
                latest = index
        following: List[Optional[int]] = [None] * len(records)
        upcoming: Optional[int] = None
        for index in range(len(records) - 1, -1, -1):
            following[index] = upcoming
            if isinstance(records[index], CpuBurst):
                upcoming = index
        return preceding, following

    @staticmethod
    def _wait_positions(records: List[Record]) -> Dict[int, int]:
        """Position of the wait record of every non-blocking request."""
        positions: Dict[int, int] = {}
        for index, record in enumerate(records):
            if isinstance(record, WaitRecord):
                for request in record.requests:
                    positions.setdefault(request, index)
        return positions

    @staticmethod
    def _max_request(records: List[Record]) -> int:
        highest = -1
        for record in records:
            if isinstance(record, (SendRecord, RecvRecord)) and record.request is not None:
                highest = max(highest, record.request)
        return highest
