"""Trace records.

The tracing tool emits, per rank, an ordered list of records of two kinds
(the same two kinds the paper describes for the non-overlapped trace):

* *computation records* (:class:`CpuBurst`) specifying the length of a
  computation burst in instructions, and
* *communication records* (:class:`SendRecord`, :class:`RecvRecord`,
  :class:`WaitRecord`, :class:`CollectiveRecord`) specifying the message or
  collective parameters.

Point-to-point records additionally carry the *production* / *consumption*
annotations -- the memory-access events the tracer observed on the message
buffer -- which the overlap transformation (:mod:`repro.core.overlap`) uses
to place the partial transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import TraceFormatError

#: What parsing a malformed serialised value raises: a missing field, a
#: value of the wrong type, or one that does not convert.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def malformed(what: str, exc: Exception) -> TraceFormatError:
    """The :class:`TraceFormatError` for a parsing error ``exc`` in ``what``."""
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return TraceFormatError(f"malformed {what}: {detail}")

#: Names of the collective operations the simulator models.
COLLECTIVE_OPERATIONS = (
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
)


@dataclass
class AccessEvent:
    """A load or store observed on a message buffer.

    ``burst_index`` is the index (in the rank's record list) of the
    :class:`CpuBurst` during which the access happened, ``offset`` is the
    instruction offset from the start of that burst, and ``lo``/``hi``
    delimit the touched fraction of the message buffer (``0 <= lo < hi <= 1``).
    """

    burst_index: int
    offset: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo < self.hi <= 1.0 + 1e-12):
            raise TraceFormatError(
                f"invalid access range [{self.lo}, {self.hi})")
        if self.offset < 0:
            raise TraceFormatError(f"negative access offset {self.offset}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "burst_index": self.burst_index,
            "offset": self.offset,
            "lo": self.lo,
            "hi": self.hi,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AccessEvent":
        return cls(burst_index=int(data["burst_index"]), offset=float(data["offset"]),
                   lo=float(data["lo"]), hi=float(data["hi"]))


@dataclass
class Record:
    """Base class of all trace records."""

    #: Discriminator used by (de)serialisation; overridden by subclasses.
    kind = "record"

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Record":
        try:
            kind = data.get("kind")
            factory = _RECORD_KINDS.get(kind)
        except MALFORMED as exc:
            raise malformed("record", exc) from exc
        if factory is None:
            raise TraceFormatError(f"unknown record kind {kind!r}")
        try:
            return factory(data)
        except MALFORMED as exc:
            raise malformed(f"{kind} record", exc) from exc


@dataclass
class CpuBurst(Record):
    """A computation burst measured in instructions."""

    instructions: float
    kind = "cpu"

    def __post_init__(self) -> None:
        if not 0 <= self.instructions < math.inf:
            raise TraceFormatError(
                f"burst length must be finite and non-negative, "
                f"got {self.instructions}")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "instructions": self.instructions}


@dataclass
class SendRecord(Record):
    """A point-to-point send.

    ``production`` lists the store events observed on the message buffer
    since its previous send; chunk production times are derived from it by
    the overlap transformation.  ``pair_seq`` is the ordinal of this message
    among all messages this rank sends to ``dst`` with ``tag`` -- the
    matching receive carries the same ordinal, which gives both sides a
    consistent message identity without any global coordination.
    """

    dst: int
    size: int
    tag: int = 0
    blocking: bool = True
    request: Optional[int] = None
    buffer: Optional[str] = None
    pair_seq: int = 0
    production: List[AccessEvent] = field(default_factory=list)
    kind = "send"

    def __post_init__(self) -> None:
        if self.size < 0:
            raise TraceFormatError(f"negative message size: {self.size}")
        if self.dst < 0:
            raise TraceFormatError(f"negative destination rank: {self.dst}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "dst": self.dst,
            "size": self.size,
            "tag": self.tag,
            "blocking": self.blocking,
            "request": self.request,
            "buffer": self.buffer,
            "pair_seq": self.pair_seq,
            "production": [event.to_dict() for event in self.production],
        }


@dataclass
class RecvRecord(Record):
    """A point-to-point receive.

    ``consumption`` lists the load events observed on the message buffer in
    the computation burst that follows the receive (or the wait, for a
    non-blocking receive).
    """

    src: int
    size: int
    tag: int = 0
    blocking: bool = True
    request: Optional[int] = None
    buffer: Optional[str] = None
    pair_seq: int = 0
    consumption: List[AccessEvent] = field(default_factory=list)
    kind = "recv"

    def __post_init__(self) -> None:
        if self.size < 0:
            raise TraceFormatError(f"negative message size: {self.size}")
        if self.src < 0:
            raise TraceFormatError(f"negative source rank: {self.src}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "src": self.src,
            "size": self.size,
            "tag": self.tag,
            "blocking": self.blocking,
            "request": self.request,
            "buffer": self.buffer,
            "pair_seq": self.pair_seq,
            "consumption": [event.to_dict() for event in self.consumption],
        }


@dataclass
class WaitRecord(Record):
    """A wait on one or more non-blocking requests."""

    requests: List[int] = field(default_factory=list)
    kind = "wait"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "requests": list(self.requests)}


@dataclass
class CollectiveRecord(Record):
    """A collective operation entered by this rank."""

    operation: str
    size: int = 0
    root: int = 0
    comm_size: int = 0
    kind = "collective"

    def __post_init__(self) -> None:
        if self.operation not in COLLECTIVE_OPERATIONS:
            raise TraceFormatError(
                f"unknown collective operation {self.operation!r}")
        if self.size < 0:
            raise TraceFormatError(f"negative collective size: {self.size}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "operation": self.operation,
            "size": self.size,
            "root": self.root,
            "comm_size": self.comm_size,
        }


def _cpu_from_dict(data: Dict[str, Any]) -> CpuBurst:
    return CpuBurst(instructions=float(data["instructions"]))


def _send_from_dict(data: Dict[str, Any]) -> SendRecord:
    return SendRecord(
        dst=int(data["dst"]), size=int(data["size"]), tag=int(data.get("tag", 0)),
        blocking=bool(data.get("blocking", True)),
        request=data.get("request"), buffer=data.get("buffer"),
        pair_seq=int(data.get("pair_seq", 0)),
        production=[AccessEvent.from_dict(e) for e in data.get("production", [])])


def _recv_from_dict(data: Dict[str, Any]) -> RecvRecord:
    return RecvRecord(
        src=int(data["src"]), size=int(data["size"]), tag=int(data.get("tag", 0)),
        blocking=bool(data.get("blocking", True)),
        request=data.get("request"), buffer=data.get("buffer"),
        pair_seq=int(data.get("pair_seq", 0)),
        consumption=[AccessEvent.from_dict(e) for e in data.get("consumption", [])])


def _wait_from_dict(data: Dict[str, Any]) -> WaitRecord:
    return WaitRecord(requests=list(data.get("requests", [])))


def _collective_from_dict(data: Dict[str, Any]) -> CollectiveRecord:
    return CollectiveRecord(
        operation=data["operation"], size=int(data.get("size", 0)),
        root=int(data.get("root", 0)), comm_size=int(data.get("comm_size", 0)))


_RECORD_KINDS = {
    "cpu": _cpu_from_dict,
    "send": _send_from_dict,
    "recv": _recv_from_dict,
    "wait": _wait_from_dict,
    "collective": _collective_from_dict,
}
