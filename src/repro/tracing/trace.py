"""Trace containers and (de)serialisation."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type, Union

from repro.errors import TraceFormatError
from repro.tracing.records import (
    MALFORMED,
    CollectiveRecord,
    CpuBurst,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
    malformed,
)
from repro.tracing.timebase import DEFAULT_MIPS

# -- replay preparation --------------------------------------------------------
# Opcodes of the prepared (replay-ready) record stream.  The replay engine
# dispatches on these small integers instead of running an ``isinstance``
# chain per record; the mapping from record class to opcode is computed once
# per trace (see :meth:`Trace.prepared`), not once per replayed record.
OP_CPU = 0
OP_SEND = 1
OP_RECV = 2
OP_WAIT = 3
OP_COLLECTIVE = 4
#: Records of a type the replay engine does not know (surface at replay).
OP_UNKNOWN = -1

#: The precomputed record-type dispatch table.
RECORD_OPCODES: Dict[type, int] = {
    CpuBurst: OP_CPU,
    SendRecord: OP_SEND,
    RecvRecord: OP_RECV,
    WaitRecord: OP_WAIT,
    CollectiveRecord: OP_COLLECTIVE,
}


@dataclass(frozen=True)
class MessagePlan:
    """The one static pass over a prepared trace.

    **Pairing.**  Matching is FIFO per ``(src, dst, tag)`` stream and every
    record names its peer rank and tag, so the pairing is the same on every
    platform: the k-th send of a stream meets that stream's k-th receive.
    ``indices[rank][position]`` is the message index of the send or receive
    at that position of the rank's prepared stream.  A matched send and
    receive share one index; a posting without a counterpart has one of its
    own, and so has one whose peer rank lies outside the trace.  Indices run
    from 0 to ``count - 1``.

    **Waits.**  For a wait, ``indices[rank][position]`` is a tuple with one
    entry per non-blocking posting it completes, in the order of its
    request list: how many records before the wait that posting is (its
    plan index is ``indices[rank][position - distance]``).  Requests that
    are not outstanding are left out, and a request id reissued while
    outstanding is completed through its latest posting.  That is a TL303
    fault, and every walk refuses a trace with one before it replays
    anything.  Distances repeat from wait to wait, so each distinct tuple
    is stored once.  Every other op holds -1.

    **Structure.**  ``faults`` lists the structural defects the pass finds,
    each ``(code, rank, position, *detail)`` with a tracelint code.  Rank
    by rank, in record order: unknown records (TL501), out-of-range peers
    (TL103) and the request lifecycle (TL301; TL302 with the request id as
    detail; TL303 with the position of the posting still outstanding), a
    rank's dangling requests last.  Then, per stream in stream order, size
    mismatches (TL104, detail: the send's position), unreceived sends
    (TL101) and unsent receives (TL102).  ``collectives[rank]`` holds the
    positions of the rank's collective records, and ``misordered`` the
    ``(rank, position, ordinal)`` of every paired posting whose ``pair_seq``
    is not its ordinal in its stream.
    """

    indices: List[List[Any]]
    count: int
    faults: Tuple[Tuple[Any, ...], ...] = ()
    collectives: List[List[int]] = field(default_factory=list)
    misordered: Tuple[Tuple[int, int, int], ...] = ()

    @classmethod
    def compile(cls, ops: List[List[Tuple[int, Record]]]) -> "MessagePlan":
        num_ranks = len(ops)
        # Stream -> positions of its sends (receives) so far, in order.
        sends: Dict[Tuple[int, int, int], List[int]] = {}
        recvs: Dict[Tuple[int, int, int], List[int]] = {}
        faults: List[Tuple[Any, ...]] = []
        # (stream, group, ordinal, fault), sorted into stream order below.
        stream_faults: List[Tuple[Any, ...]] = []
        misordered = []
        indices: List[List[Any]] = []
        collectives: List[List[int]] = []
        # Each distinct wait tuple, stored once.
        shapes: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        count = 0
        for rank, rank_ops in enumerate(ops):
            row: List[Any] = []
            indices.append(row)
            coll_row: List[int] = []
            collectives.append(coll_row)
            # Request id -> [first issue, latest issue] while outstanding.
            outstanding: Dict[Any, List[int]] = {}
            for position, (op, record) in enumerate(rank_ops):
                if op == OP_CPU:
                    row.append(-1)
                    continue
                if op == OP_SEND:
                    peer = record.dst
                    key = (rank, peer, record.tag)
                    posted, counterparts = sends, recvs
                elif op == OP_RECV:
                    peer = record.src
                    key = (peer, rank, record.tag)
                    posted, counterparts = recvs, sends
                elif op == OP_WAIT:
                    distances = []
                    for request in record.requests:
                        issued = outstanding.pop(request, None)
                        if issued is None or request is None:
                            faults.append(("TL302", rank, position, request))
                        if issued is not None:
                            distances.append(position - issued[1])
                    shape = tuple(distances)
                    row.append(shapes.setdefault(shape, shape))
                    continue
                else:
                    if op == OP_COLLECTIVE:
                        coll_row.append(position)
                    else:
                        faults.append(("TL501", rank, position))
                    row.append(-1)
                    continue
                if 0 <= peer < num_ranks:
                    stream = posted.get(key)
                    if stream is None:
                        stream = posted[key] = []
                    ordinal = len(stream)
                    others = counterparts.get(key, ())
                    if ordinal < len(others):
                        mate_position = others[ordinal]
                        index = indices[peer][mate_position]
                        mate = ops[peer][mate_position][1]
                        if record.size != mate.size:
                            fault = (("TL104", rank, position, mate_position)
                                     if op == OP_RECV else
                                     ("TL104", peer, mate_position, position))
                            stream_faults.append((key, 0, ordinal, fault))
                        if record.pair_seq != ordinal:
                            misordered.append((rank, position, ordinal))
                        if mate.pair_seq != ordinal:
                            misordered.append((peer, mate_position, ordinal))
                    else:
                        index = count
                        count += 1
                    stream.append(position)
                else:
                    faults.append(("TL103", rank, position))
                    index = count
                    count += 1
                row.append(index)
                if not record.blocking:
                    request = record.request
                    issued = outstanding.get(request)
                    if request is None:
                        faults.append(("TL301", rank, position))
                    elif issued is not None:
                        faults.append(("TL303", rank, position, issued[0]))
                    if issued is None:
                        outstanding[request] = [position, position]
                    else:
                        # A wait completes the latest issue.
                        issued[1] = position
            if outstanding:
                for request, (position, _) in sorted(
                        outstanding.items(), key=lambda item: item[1][0]):
                    if request is not None:
                        faults.append(("TL301", rank, position))

        for key, stream in sends.items():
            for ordinal in range(len(recvs.get(key, ())), len(stream)):
                stream_faults.append(
                    (key, 1, ordinal, ("TL101", key[0], stream[ordinal])))
        for key, stream in recvs.items():
            for ordinal in range(len(sends.get(key, ())), len(stream)):
                stream_faults.append(
                    (key, 2, ordinal, ("TL102", key[1], stream[ordinal])))
        stream_faults.sort(key=lambda entry: entry[:3])
        faults.extend(entry[3] for entry in stream_faults)
        return cls(indices=indices, count=count, faults=tuple(faults),
                   collectives=collectives, misordered=tuple(misordered))


@dataclass
class PreparedTrace:
    """A trace normalised for replay: opcode-tagged record streams.

    ``ops[rank]`` is the rank's record list with every record paired with
    its dispatch opcode.  Prepared traces are built once per
    :class:`Trace` object and cached (:meth:`Trace.prepared`), so a sweep
    that replays the same trace on dozens of platforms normalises it once
    instead of once per task.
    """

    ops: List[List[Tuple[int, Record]]]
    _message_plan: Optional[MessagePlan] = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def compile(cls, trace: "Trace") -> "PreparedTrace":
        opcode_of = RECORD_OPCODES
        ops = [[(opcode_of.get(type(record), OP_UNKNOWN), record)
                for record in rank_trace.records]
               for rank_trace in trace.ranks]
        return cls(ops=ops)

    def message_plan(self) -> MessagePlan:
        """The static pass over these streams, built on first use.

        The trace-time checks, lint, the symbolic replay and every walk
        read it.  It is kept on the prepared trace, so all of them share
        one plan per trace content.
        """
        plan = self._message_plan
        if plan is None:
            plan = self._message_plan = MessagePlan.compile(self.ops)
        return plan


# -- digest-keyed preparation sharing ------------------------------------------
# Prepared record streams shared *by content* across Trace objects.  A sweep
# worker (or a long-running experiment process) that deserialises the same
# trace content repeatedly -- one Trace object per run -- reuses the prepared
# stream instead of recompiling it, as long as the content digest is known
# (either computed via :meth:`Trace.digest` or adopted from the producer of
# the serialized form via :meth:`Trace.adopt_digest`).  Records are never
# mutated after construction, so sharing by content is safe.
_PREPARED_BY_DIGEST: Dict[str, PreparedTrace] = {}

#: Cap on the shared-preparation memo; a long-running service replaying many
#: distinct traces must not grow it without bound (reset, not LRU -- the
#: memo is a fast-path, correctness never depends on a hit).
_PREPARED_MEMO_LIMIT = 128


def _share_prepared(digest: str, prepared: PreparedTrace) -> PreparedTrace:
    """Register (or return the already-shared) preparation for ``digest``."""
    shared = _PREPARED_BY_DIGEST.get(digest)
    if shared is not None:
        return shared
    if len(_PREPARED_BY_DIGEST) >= _PREPARED_MEMO_LIMIT:
        _PREPARED_BY_DIGEST.clear()
    _PREPARED_BY_DIGEST[digest] = prepared
    return prepared


@dataclass
class RankTrace:
    """The ordered record list of one MPI process."""

    rank: int
    records: List[Record] = field(default_factory=list)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    # -- aggregate views -------------------------------------------------
    def total_instructions(self) -> float:
        """Instructions over all computation bursts of this rank."""
        return sum(r.instructions for r in self.records if isinstance(r, CpuBurst))

    def bytes_sent(self) -> int:
        return sum(r.size for r in self.records if isinstance(r, SendRecord))

    def bytes_received(self) -> int:
        return sum(r.size for r in self.records if isinstance(r, RecvRecord))

    def count(self, record_type: Type[Record]) -> int:
        """Number of records of the given type."""
        return sum(1 for r in self.records if isinstance(r, record_type))

    def sends(self) -> List[SendRecord]:
        return [r for r in self.records if isinstance(r, SendRecord)]

    def recvs(self) -> List[RecvRecord]:
        return [r for r in self.records if isinstance(r, RecvRecord)]

    def collectives(self) -> List[CollectiveRecord]:
        return [r for r in self.records if isinstance(r, CollectiveRecord)]

    def bursts(self) -> List[CpuBurst]:
        return [r for r in self.records if isinstance(r, CpuBurst)]

    def waits(self) -> List[WaitRecord]:
        return [r for r in self.records if isinstance(r, WaitRecord)]

    def to_dict(self) -> Dict[str, Any]:
        return {"rank": self.rank, "records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RankTrace":
        try:
            rank = int(data["rank"])
            records = list(data.get("records", []))
        except MALFORMED as exc:
            raise malformed("rank trace", exc) from exc
        parsed = []
        for index, record in enumerate(records):
            try:
                parsed.append(Record.from_dict(record))
            except TraceFormatError as exc:
                raise TraceFormatError(
                    f"rank {rank}, record {index}: {exc}") from exc
        return cls(rank=rank, records=parsed)


@dataclass
class Trace:
    """A complete application trace: one :class:`RankTrace` per process."""

    ranks: List[RankTrace]
    mips: float = DEFAULT_MIPS
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.ranks:
            raise TraceFormatError("a trace must contain at least one rank")
        expected = list(range(len(self.ranks)))
        actual = [rank_trace.rank for rank_trace in self.ranks]
        if actual != expected:
            raise TraceFormatError(
                f"rank traces must be numbered 0..N-1 in order, got {actual}")
        if not 0 < self.mips < math.inf:
            raise TraceFormatError(
                f"MIPS rate must be positive and finite, got {self.mips!r}")

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    def __getitem__(self, rank: int) -> RankTrace:
        return self.ranks[rank]

    def __iter__(self) -> Iterator[RankTrace]:
        return iter(self.ranks)

    # -- aggregate views -------------------------------------------------
    def total_instructions(self) -> float:
        return sum(rank_trace.total_instructions() for rank_trace in self.ranks)

    def total_bytes(self) -> int:
        return sum(rank_trace.bytes_sent() for rank_trace in self.ranks)

    def total_messages(self) -> int:
        return sum(rank_trace.count(SendRecord) for rank_trace in self.ranks)

    def describe(self) -> Dict[str, Any]:
        """A small summary used by the CLI and the reports."""
        return {
            "name": self.metadata.get("name", "unknown"),
            "num_ranks": self.num_ranks,
            "mips": self.mips,
            "total_instructions": self.total_instructions(),
            "total_bytes": self.total_bytes(),
            "total_messages": self.total_messages(),
            "records": sum(len(rank_trace) for rank_trace in self.ranks),
        }

    # -- replay preparation -------------------------------------------------
    def prepared(self) -> PreparedTrace:
        """The replay-ready (opcode-tagged) form of this trace, cached.

        The first call compiles the record lists; later calls -- e.g. every
        further platform point of a sweep -- return the cached object.  The
        cache lives on the :class:`Trace` instance (records are never
        mutated after construction), so any executor or worker that keeps a
        trace alive reuses its preparation for free.
        """
        prepared = getattr(self, "_prepared", None)
        if prepared is None:
            digest = getattr(self, "_digest", None)
            if digest is not None:
                prepared = _PREPARED_BY_DIGEST.get(digest)
            if prepared is None:
                prepared = PreparedTrace.compile(self)
                if digest is not None:
                    prepared = _share_prepared(digest, prepared)
            self._prepared = prepared
        return prepared

    # -- content addressing --------------------------------------------------
    def digest(self) -> str:
        """A stable SHA-256 digest of the replay-relevant trace content.

        Computed from the canonical serialisation of the prepared record
        stream plus the trace's MIPS rate -- the two inputs that fully
        determine replay results -- and *not* from ``metadata`` (labels,
        provenance) or object identity: two traces with equal records hash
        equally no matter how they were built.  The digest is cached on the
        instance, and computing it registers this trace's prepared record
        stream in a process-wide content-keyed memo, so later objects with
        the same content (e.g. re-deserialised sweep variants) skip
        recompilation (see :meth:`adopt_digest`).
        """
        digest = getattr(self, "_digest", None)
        if digest is None:
            payload = {
                "mips": self.mips,
                "ranks": [[record.to_dict() for _, record in rank_ops]
                          for rank_ops in self.prepared().ops],
            }
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self._digest = digest
            self._prepared = _share_prepared(digest, self._prepared)
        return digest

    def adopt_digest(self, digest: str) -> "Trace":
        """Adopt a digest computed by the producer of this trace's content.

        Sweep workers receive serialized traces whose digest the parent
        process already computed; adopting it (instead of re-hashing) lets
        :meth:`prepared` reuse a content-identical prepared stream and makes
        the later :meth:`digest` call free.  The caller asserts the digest
        matches the content -- adopt only digests produced by
        :meth:`digest` on an equal trace.
        """
        self._digest = digest
        return self

    # -- (de)serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "mips": self.mips,
            "metadata": dict(self.metadata),
            "ranks": [rank_trace.to_dict() for rank_trace in self.ranks],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output.

        A malformed document raises :class:`TraceFormatError`; a bad record
        is named by its rank and its index in that rank's record list.
        """
        try:
            ranks = list(data.get("ranks", []))
            mips = float(data.get("mips", DEFAULT_MIPS))
            metadata = dict(data.get("metadata", {}))
        except MALFORMED as exc:
            raise malformed("trace", exc) from exc
        return cls(ranks=[RankTrace.from_dict(r) for r in ranks],
                   mips=mips, metadata=metadata)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace to a JSON file and return the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written with :meth:`save`."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise TraceFormatError(f"cannot read trace file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path} is not a valid trace file: {exc}") from exc
        return cls.from_dict(data)

    def with_metadata(self, **updates: Any) -> "Trace":
        """A shallow copy of the trace with extra metadata entries."""
        merged = dict(self.metadata)
        merged.update(updates)
        return Trace(ranks=self.ranks, mips=self.mips, metadata=merged)
