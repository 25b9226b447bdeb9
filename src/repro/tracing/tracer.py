"""The per-rank tracing tool.

The tracer mirrors the paper's Valgrind tool: it timestamps execution in
instructions, closes a computation burst whenever the application enters an
MPI call, and records on every point-to-point record the store events
(production) and load events (consumption) observed on the message buffer.

Clamping rules:

* production events are attributed to the closed computation burst in which
  the store actually happened, identified by its record index;
* consumption events are collected from the first *non-empty* computation
  burst that follows the receive (or the wait of a non-blocking receive);
  loads that happen later than that burst are ignored, which makes the
  estimate of the overlapping potential conservative.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TracingError
from repro.tracing.buffers import Buffer
from repro.tracing.records import (
    AccessEvent,
    CollectiveRecord,
    CpuBurst,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace


@dataclass
class _ClosedBurst:
    """Bookkeeping entry for an already emitted computation burst."""

    record_index: int
    start: float
    end: float


@dataclass
class _ConsumptionWatch:
    """Pending consumption annotation of a posted receive."""

    buffer_name: str
    record: RecvRecord
    reads: List[Tuple[float, float, float]] = field(default_factory=list)


class RankTracer:
    """Builds the annotated trace of a single rank."""

    def __init__(self, rank: int, num_ranks: int):
        if not 0 <= rank < num_ranks:
            raise TracingError(f"rank {rank} outside communicator of size {num_ranks}")
        self.rank = rank
        self.num_ranks = num_ranks
        self.records: List[Record] = []
        self._instructions = 0.0
        self._burst_instructions = 0.0
        self._burst_start = 0.0
        self._closed_bursts: List[_ClosedBurst] = []
        self._burst_starts: List[float] = []
        # Store events per buffer since that buffer's previous send.
        self._writes: Dict[str, List[Tuple[float, float, float]]] = {}
        # Consumption watches waiting for their following burst.
        self._armed_watches: List[_ConsumptionWatch] = []
        # Watches of non-blocking receives, armed at the matching wait.
        self._request_watches: Dict[int, _ConsumptionWatch] = {}
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._recv_seq: Dict[Tuple[int, int], int] = {}
        self._next_request = 0
        self._finalized = False

    # -- time ------------------------------------------------------------
    @property
    def instructions(self) -> float:
        """Instructions executed so far on this rank."""
        return self._instructions

    def compute(self, instructions: float) -> None:
        """Advance the instruction counter inside the current burst."""
        self._check_open()
        if instructions < 0:
            raise TracingError(f"negative computation length: {instructions!r}")
        self._instructions += float(instructions)
        self._burst_instructions += float(instructions)

    # -- memory accesses ---------------------------------------------------
    def write(self, buffer: Buffer, lo: float = 0.0, hi: float = 1.0) -> None:
        """Record a store on ``buffer`` covering the fraction ``[lo, hi)``."""
        self._check_open()
        self._check_range(lo, hi)
        self._writes.setdefault(buffer.name, []).append((self._instructions, lo, hi))

    def read(self, buffer: Buffer, lo: float = 0.0, hi: float = 1.0) -> None:
        """Record a load on ``buffer`` covering the fraction ``[lo, hi)``."""
        self._check_open()
        self._check_range(lo, hi)
        for watch in self._armed_watches:
            if watch.buffer_name == buffer.name:
                watch.reads.append((self._instructions, lo, hi))

    # -- point-to-point ------------------------------------------------------
    def send(self, dst: int, size: int, tag: int = 0,
             buffer: Optional[Buffer] = None, blocking: bool = True) -> Optional[int]:
        """Record a send; returns the request id for a non-blocking send."""
        self._check_open()
        self._check_peer(dst)
        self._close_burst()
        request = None if blocking else self._new_request()
        record = SendRecord(
            dst=dst, size=int(size), tag=int(tag), blocking=blocking,
            request=request, buffer=buffer.name if buffer is not None else None,
            pair_seq=self._next_seq(self._send_seq, dst, tag),
            production=self._collect_production(buffer))
        self.records.append(record)
        return request

    def recv(self, src: int, size: int, tag: int = 0,
             buffer: Optional[Buffer] = None, blocking: bool = True) -> Optional[int]:
        """Record a receive; returns the request id for a non-blocking receive."""
        self._check_open()
        self._check_peer(src)
        self._close_burst()
        request = None if blocking else self._new_request()
        record = RecvRecord(
            src=src, size=int(size), tag=int(tag), blocking=blocking,
            request=request, buffer=buffer.name if buffer is not None else None,
            pair_seq=self._next_seq(self._recv_seq, src, tag))
        self.records.append(record)
        if buffer is not None:
            watch = _ConsumptionWatch(buffer.name, record)
            if blocking:
                self._armed_watches.append(watch)
            else:
                self._request_watches[request] = watch
        return request

    def wait(self, requests: Sequence[int]) -> None:
        """Record a wait on previously issued non-blocking requests."""
        self._check_open()
        requests = list(requests)
        if not requests:
            raise TracingError("wait() needs at least one request")
        self._close_burst()
        self.records.append(WaitRecord(requests=requests))
        for request in requests:
            watch = self._request_watches.pop(request, None)
            if watch is not None:
                self._armed_watches.append(watch)

    # -- collectives ---------------------------------------------------------
    def collective(self, operation: str, size: int = 0, root: int = 0) -> None:
        """Record a collective operation."""
        self._check_open()
        self._close_burst()
        self.records.append(CollectiveRecord(
            operation=operation, size=int(size), root=int(root),
            comm_size=self.num_ranks))

    # -- lifecycle -------------------------------------------------------------
    def finalize(self) -> RankTrace:
        """Close the trace of this rank and return it."""
        self._check_open()
        self._close_burst()
        self._finalized = True
        return RankTrace(rank=self.rank, records=self.records)

    # -- internals ---------------------------------------------------------------
    def _check_open(self) -> None:
        if self._finalized:
            raise TracingError("the tracer has already been finalized")

    @staticmethod
    def _check_range(lo: float, hi: float) -> None:
        if not (0.0 <= lo < hi <= 1.0 + 1e-12):
            raise TracingError(f"invalid buffer fraction range [{lo}, {hi})")

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.num_ranks:
            raise TracingError(
                f"peer rank {peer} outside communicator of size {self.num_ranks}")
        if peer == self.rank:
            raise TracingError("a rank cannot send to or receive from itself")

    def _new_request(self) -> int:
        request = self._next_request
        self._next_request += 1
        return request

    @staticmethod
    def _next_seq(table: Dict[Tuple[int, int], int], peer: int, tag: int) -> int:
        seq = table.get((peer, tag), 0)
        table[(peer, tag)] = seq + 1
        return seq

    def _close_burst(self) -> None:
        """Emit the accumulated burst (if non-empty) and bind armed watches."""
        if self._burst_instructions <= 0.0:
            return
        index = len(self.records)
        self.records.append(CpuBurst(instructions=self._burst_instructions))
        self._closed_bursts.append(
            _ClosedBurst(record_index=index, start=self._burst_start,
                         end=self._instructions))
        self._burst_starts.append(self._burst_start)
        for watch in self._armed_watches:
            watch.record.consumption = [
                AccessEvent(burst_index=index, offset=instr - self._burst_start,
                            lo=lo, hi=hi)
                for (instr, lo, hi) in watch.reads
                if instr >= self._burst_start]
        self._armed_watches = []
        self._burst_instructions = 0.0
        self._burst_start = self._instructions

    def _collect_production(self, buffer: Optional[Buffer]) -> List[AccessEvent]:
        """Turn the store log of ``buffer`` into production events."""
        if buffer is None:
            return []
        writes = self._writes.pop(buffer.name, [])
        events: List[AccessEvent] = []
        for instr, lo, hi in writes:
            burst = self._find_burst(instr)
            if burst is None:
                continue
            events.append(AccessEvent(
                burst_index=burst.record_index,
                offset=min(instr - burst.start, burst.end - burst.start),
                lo=lo, hi=hi))
        return events

    def _find_burst(self, instruction: float) -> Optional[_ClosedBurst]:
        """The closed burst whose instruction interval contains ``instruction``."""
        if not self._closed_bursts:
            return None
        position = bisect_right(self._burst_starts, instruction) - 1
        if position < 0:
            return None
        # An access on the boundary between two bursts belongs to the earlier
        # one (the data was already produced when that burst ended).
        for index in (position - 1, position):
            if index < 0:
                continue
            candidate = self._closed_bursts[index]
            if candidate.start <= instruction <= candidate.end:
                return candidate
        # The access happened in a zero-length gap between bursts; attribute
        # it to the next burst at offset zero if one exists.
        if position + 1 < len(self._closed_bursts):
            following = self._closed_bursts[position + 1]
            return _ClosedBurst(record_index=following.record_index,
                                start=instruction, end=instruction)
        return None
