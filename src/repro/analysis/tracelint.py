"""Static trace analysis ("tracelint"): MPI correctness linting before replay.

:func:`analyze_trace` walks a trace's prepared record streams -- the same
opcode-tagged form the replay engine dispatches on -- **without**
instantiating the discrete-event simulator, and reports every defect the
replay would otherwise only discover mid-simulation (or worse, hang on):

* **point-to-point matching** (``TL101``/``TL102``/``TL103``/``TL104``):
  sends and receives are matched per (source, destination, tag) stream in
  FIFO order, exactly the semantics of
  :class:`repro.dimemas.matching.MessageMatcher`;
* **collective coherence** (``TL201``/``TL202``/``TL203``/``TL204``): the
  k-th collective of every rank must agree on operation, root and size, the
  root must exist, and every rank must participate;
* **request lifecycle** (``TL301``/``TL302``/``TL303``): every non-blocking
  request must be issued once and waited on exactly once;
* **deadlock search** (``TL401``): a zero-time symbolic replay drives every
  rank as far as matching semantics allow, then searches the wait-for graph
  of the stuck state for cycles.  The pass is parameterized by the eager
  threshold, because the blocking behaviour of a send depends on its
  protocol: the same trace can be clean when every send fits the eager
  protocol and deadlocked under rendezvous (``worst_case=True`` adds an
  all-rendezvous pass regardless of the threshold).

The symbolic replay is exact for this simulator's progress semantics:
whether a blocking operation eventually unblocks depends only on posting
order, never on simulated time, so a trace flagged here *will* wedge the
replay, and a trace that analyzes clean cannot deadlock on matching.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.dimemas.platform import Platform
from repro.tracing.trace import (
    OP_COLLECTIVE,
    OP_CPU,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    Trace,
)

#: Collective operations whose ``root`` parameter is meaningful; the others
#: (barrier, allreduce, allgather, alltoall) ignore it.
ROOTED_OPERATIONS = frozenset({"bcast", "reduce", "gather", "scatter"})

#: The eager threshold of the ``worst_case`` pass: no size is ``<= -1``, so
#: every send is treated as rendezvous.
ALL_RENDEZVOUS = -1


def analyze_trace(trace: Trace, platform: Optional[Platform] = None, *,
                  eager_threshold: Optional[int] = None,
                  worst_case: bool = False,
                  source: str = "") -> AnalysisReport:
    """Statically analyze ``trace`` and return the diagnostic report.

    ``platform`` (or the explicit ``eager_threshold`` override) supplies the
    protocol switch-over the deadlock search needs; everything else is
    platform-independent.  ``worst_case`` additionally runs the deadlock
    search with every send forced onto the rendezvous protocol, which is the
    adversarial setting: a trace clean under all-rendezvous is deadlock-free
    at *every* eager threshold.  ``source`` labels the diagnostics when
    several traces are analyzed into one merged report.
    """
    if eager_threshold is None:
        eager_threshold = (platform or Platform()).eager_threshold
    ops = trace.prepared().ops
    num_ranks = trace.num_ranks

    diagnostics: List[Diagnostic] = []
    _check_record_kinds(ops, source, diagnostics)
    _check_point_to_point(ops, num_ranks, source, diagnostics)
    _check_collectives(ops, num_ranks, source, diagnostics)
    _check_requests(ops, source, diagnostics)
    thresholds = [eager_threshold]
    if worst_case and ALL_RENDEZVOUS not in thresholds:
        thresholds.append(ALL_RENDEZVOUS)
    deadlocks: Dict[Diagnostic, None] = {}
    for threshold in thresholds:
        verdict = symbolic_verdict(trace, threshold)
        for diagnostic in _check_deadlock(verdict, threshold, source):
            deadlocks.setdefault(diagnostic)
    diagnostics.extend(deadlocks)

    metadata = {
        "trace": trace.metadata.get("name", "unknown"),
        "num_ranks": num_ranks,
        "records": sum(len(rank_ops) for rank_ops in ops),
        "eager_thresholds": thresholds,
        "source": source,
    }
    return AnalysisReport(diagnostics=tuple(diagnostics), metadata=metadata)


def _diag(out: List[Diagnostic], code: str, message: str, rank: Optional[int],
          record_index: Optional[int], source: str) -> None:
    out.append(Diagnostic(code=code, message=message, rank=rank,
                          record_index=record_index, source=source))


# -- record kinds --------------------------------------------------------------

_KNOWN_OPS = frozenset({OP_CPU, OP_SEND, OP_RECV, OP_WAIT, OP_COLLECTIVE})


def _check_record_kinds(ops, source: str, out: List[Diagnostic]) -> None:
    """TL501: records the replay engine would reject outright."""
    for rank, rank_ops in enumerate(ops):
        for index, (op, record) in enumerate(rank_ops):
            if op not in _KNOWN_OPS:
                _diag(out, "TL501",
                      f"record {record!r} is not replayable", rank, index, source)


# -- point-to-point matching ---------------------------------------------------

def _check_point_to_point(ops, num_ranks: int, source: str,
                          out: List[Diagnostic]) -> None:
    """TL101/TL102/TL103/TL104: per-stream FIFO send/recv matching."""
    sends: Dict[Tuple[int, int, int], List[Tuple[int, int, Any]]] = {}
    recvs: Dict[Tuple[int, int, int], List[Tuple[int, int, Any]]] = {}
    for rank, rank_ops in enumerate(ops):
        for index, (op, record) in enumerate(rank_ops):
            if op == OP_SEND:
                if not 0 <= record.dst < num_ranks:
                    _diag(out, "TL103",
                          f"send names destination rank {record.dst} "
                          f"outside 0..{num_ranks - 1}", rank, index, source)
                    continue
                key = (rank, record.dst, record.tag)
                sends.setdefault(key, []).append((rank, index, record))
            elif op == OP_RECV:
                if not 0 <= record.src < num_ranks:
                    _diag(out, "TL103",
                          f"receive names source rank {record.src} "
                          f"outside 0..{num_ranks - 1}", rank, index, source)
                    continue
                key = (record.src, rank, record.tag)
                recvs.setdefault(key, []).append((rank, index, record))

    for key in sorted(set(sends) | set(recvs)):
        src, dst, tag = key
        stream_sends = sends.get(key, [])
        stream_recvs = recvs.get(key, [])
        for (_, send_index, send), (_, recv_index, recv) in zip(stream_sends,
                                                                stream_recvs):
            if send.size != recv.size:
                _diag(out, "TL104",
                      f"receive of {recv.size} bytes from rank {src} "
                      f"(tag {tag}) is matched by a send of {send.size} "
                      f"bytes at rank {src}, record {send_index}",
                      dst, recv_index, source)
        for _, index, record in stream_sends[len(stream_recvs):]:
            _diag(out, "TL101",
                  f"send of {record.size} bytes to rank {dst} (tag {tag}) "
                  f"is never received", src, index, source)
        for _, index, record in stream_recvs[len(stream_sends):]:
            _diag(out, "TL102",
                  f"receive of {record.size} bytes from rank {src} "
                  f"(tag {tag}) is never sent", dst, index, source)


# -- collective coherence ------------------------------------------------------

def _check_collectives(ops, num_ranks: int, source: str,
                       out: List[Diagnostic]) -> None:
    """TL201/TL202/TL203/TL204: cross-rank collective agreement."""
    per_rank: List[List[Tuple[int, Any]]] = [
        [(index, record) for index, (op, record) in enumerate(rank_ops)
         if op == OP_COLLECTIVE]
        for rank_ops in ops]

    counts = [len(collectives) for collectives in per_rank]
    if len(set(counts)) > 1:
        # With mismatched participation the per-ordinal comparison below
        # would mis-align every later collective, so report the counts and
        # stop: the count mismatch *is* the defect.
        reference = _reference_count(counts)
        for rank, count in enumerate(counts):
            if count == reference:
                continue
            if count > reference:
                extra_index = per_rank[rank][reference][0]
                message = (f"has {count} collective records while other "
                           f"ranks have {reference} (first extra entry)")
                _diag(out, "TL203", message, rank, extra_index, source)
            else:
                _diag(out, "TL203",
                      f"has {count} collective records while other ranks "
                      f"have {reference}", rank, None, source)
        return

    for ordinal in range(counts[0] if counts else 0):
        entrants = [(rank, *per_rank[rank][ordinal])
                    for rank in range(num_ranks)]
        ref_rank, ref_index, ref = entrants[0]
        for rank, index, record in entrants[1:]:
            if record.operation != ref.operation:
                _diag(out, "TL201",
                      f"entered {record.operation!r} while rank {ref_rank} "
                      f"entered {ref.operation!r} (collective {ordinal})",
                      rank, index, source)
                continue
            if record.root != ref.root:
                _diag(out, "TL201",
                      f"entered {record.operation!r} with root {record.root} "
                      f"while rank {ref_rank} used root {ref.root} "
                      f"(collective {ordinal})", rank, index, source)
            if record.size != ref.size:
                _diag(out, "TL201",
                      f"entered {record.operation!r} with size {record.size} "
                      f"while rank {ref_rank} used size {ref.size} "
                      f"(collective {ordinal})", rank, index, source)
        for rank, index, record in entrants:
            if (record.operation in ROOTED_OPERATIONS
                    and not 0 <= record.root < num_ranks):
                _diag(out, "TL202",
                      f"{record.operation!r} names root {record.root} "
                      f"outside 0..{num_ranks - 1} (collective {ordinal})",
                      rank, index, source)
            if record.comm_size not in (0, num_ranks):
                _diag(out, "TL204",
                      f"{record.operation!r} records communicator size "
                      f"{record.comm_size} in a {num_ranks}-rank trace "
                      f"(collective {ordinal})", rank, index, source)


def _reference_count(counts: List[int]) -> int:
    """The participation count to compare against: the most common one."""
    frequency = Counter(counts)
    best = max(frequency.values())
    return max(count for count, times in frequency.items() if times == best)


# -- request lifecycle ---------------------------------------------------------

def _check_requests(ops, source: str, out: List[Diagnostic]) -> None:
    """TL301/TL302/TL303: issued -> waited exactly once, per rank."""
    for rank, rank_ops in enumerate(ops):
        outstanding: Dict[Any, Tuple[int, str]] = {}
        for index, (op, record) in enumerate(rank_ops):
            if op in (OP_SEND, OP_RECV) and not record.blocking:
                kind = "isend" if op == OP_SEND else "irecv"
                request = record.request
                if request is None:
                    _diag(out, "TL301",
                          f"non-blocking {kind} carries no request id and "
                          f"can never be waited on", rank, index, source)
                elif request in outstanding:
                    issued_at, issued_kind = outstanding[request]
                    _diag(out, "TL303",
                          f"{kind} reuses request id {request} while the "
                          f"{issued_kind} issued at record {issued_at} is "
                          f"still outstanding", rank, index, source)
                else:
                    outstanding[request] = (index, kind)
            elif op == OP_WAIT:
                for request in record.requests:
                    if request in outstanding:
                        del outstanding[request]
                    else:
                        _diag(out, "TL302",
                              f"waits on request {request}, which is not "
                              f"outstanding (never issued, or already "
                              f"waited on)", rank, index, source)
        for request, (index, kind) in sorted(outstanding.items(),
                                             key=lambda item: item[1][0]):
            _diag(out, "TL301",
                  f"{kind} request {request} is never waited on "
                  f"(its transfer would be dropped at end of trace)",
                  rank, index, source)


# -- deadlock search -----------------------------------------------------------

class _SymbolicMessage:
    """The matcher state of one message in the zero-time replay."""

    __slots__ = ("src", "dst", "size", "send_posted", "recv_posted",
                 "rendezvous")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.size = 0
        self.send_posted = False
        self.recv_posted = False
        self.rendezvous = False

    def send_complete(self) -> bool:
        return self.send_posted and (not self.rendezvous or self.recv_posted)

    def arrived(self) -> bool:
        # Once both sides are posted the simulated transfer always finishes
        # in finite time, so posting is the only progress condition.
        return self.send_posted


class _SymbolicReplay:
    """A zero-time replay of the matching semantics, used for deadlock search.

    Ranks advance greedily: a record either completes immediately (eager
    sends, CPU bursts) or blocks on a condition over peer postings
    (rendezvous sends, receives, waits, collectives).  Simulated time never
    appears -- only posting order does -- so the fixpoint of this replay
    blocks exactly where the discrete-event replay would stop progressing.
    """

    def __init__(self, ops, num_ranks: int, eager_threshold: int) -> None:
        self.ops = ops
        self.num_ranks = num_ranks
        self.eager_threshold = eager_threshold
        self.pcs = [0] * num_ranks
        #: Per-rank blocking state: ``None`` or ``(kind, payload, index)``
        #: where ``kind`` is ``send``/``recv``/``wait``/``collective``.
        self.blocked: List[Optional[Tuple[str, Any, int]]] = [None] * num_ranks
        self._pending_sends: Dict[Tuple[int, int, int],
                                  Deque[_SymbolicMessage]] = {}
        self._pending_recvs: Dict[Tuple[int, int, int],
                                  Deque[_SymbolicMessage]] = {}
        self._outstanding: List[Dict[Any, Tuple[str, _SymbolicMessage]]] = [
            {} for _ in range(num_ranks)]
        self._collective_arrived: List[set] = []
        self._collective_ordinal = [0] * num_ranks

    # -- matching ----------------------------------------------------------
    def _post_send(self, src: int, record) -> _SymbolicMessage:
        key = (src, record.dst, record.tag)
        queue = self._pending_recvs.get(key)
        if queue:
            message = queue.popleft()
        else:
            message = _SymbolicMessage(src, record.dst)
            self._pending_sends.setdefault(key, deque()).append(message)
        message.size = record.size
        message.send_posted = True
        message.rendezvous = record.size > self.eager_threshold
        return message

    def _post_recv(self, dst: int, record) -> _SymbolicMessage:
        key = (record.src, dst, record.tag)
        queue = self._pending_sends.get(key)
        if queue:
            message = queue.popleft()
        else:
            message = _SymbolicMessage(record.src, dst)
            self._pending_recvs.setdefault(key, deque()).append(message)
        message.recv_posted = True
        return message

    # -- blocking conditions -----------------------------------------------
    def _condition_met(self, rank: int) -> bool:
        state = self.blocked[rank]
        if state is None:
            return True
        kind, payload, _ = state
        if kind == "send":
            return payload.send_complete()
        if kind == "recv":
            return payload.arrived()
        if kind == "wait":
            return all(message.send_complete() if side == "isend"
                       else message.arrived()
                       for side, message in payload)
        # collective: payload is the ordinal
        return len(self._collective_arrived[payload]) == self.num_ranks

    # -- the walk ----------------------------------------------------------
    def _step(self, rank: int) -> bool:
        """Advance ``rank`` by one record if possible."""
        if self.blocked[rank] is not None:
            if not self._condition_met(rank):
                return False
            self.blocked[rank] = None
            self.pcs[rank] += 1
            return True
        rank_ops = self.ops[rank]
        index = self.pcs[rank]
        if index >= len(rank_ops):
            return False
        op, record = rank_ops[index]
        if op == OP_SEND:
            message = self._post_send(rank, record)
            if record.blocking:
                self.blocked[rank] = ("send", message, index)
                return self._step(rank)
            self._outstanding[rank][record.request] = ("isend", message)
        elif op == OP_RECV:
            message = self._post_recv(rank, record)
            if record.blocking:
                self.blocked[rank] = ("recv", message, index)
                return self._step(rank)
            self._outstanding[rank][record.request] = ("irecv", message)
        elif op == OP_WAIT:
            pending = []
            for request in record.requests:
                entry = self._outstanding[rank].pop(request, None)
                if entry is not None:
                    # Unknown requests are already TL302; skipping them here
                    # keeps the deadlock search from cascading on them.
                    pending.append(entry)
            self.blocked[rank] = ("wait", pending, index)
            return self._step(rank)
        elif op == OP_COLLECTIVE:
            ordinal = self._collective_ordinal[rank]
            self._collective_ordinal[rank] += 1
            while len(self._collective_arrived) <= ordinal:
                self._collective_arrived.append(set())
            self._collective_arrived[ordinal].add(rank)
            self.blocked[rank] = ("collective", ordinal, index)
            return self._step(rank)
        # CPU bursts (and unknown records, reported separately) just pass.
        self.pcs[rank] += 1
        return True

    def run(self) -> List[int]:
        """Drive every rank to its fixpoint; return the stuck ranks."""
        progressed = True
        while progressed:
            progressed = False
            for rank in range(self.num_ranks):
                while self._step(rank):
                    progressed = True
        return [rank for rank in range(self.num_ranks)
                if self.blocked[rank] is not None
                or self.pcs[rank] < len(self.ops[rank])]

    def unmatched_sends(self) -> int:
        """How many posted sends no receive has matched (after :meth:`run`)."""
        return sum(len(queue) for queue in self._pending_sends.values())

    # -- the wait-for graph ------------------------------------------------
    def wait_edges(self, rank: int) -> List[Tuple[int, str, int]]:
        """``(peer, kind, record_index)`` edges of a stuck rank."""
        state = self.blocked[rank]
        if state is None:
            return []
        kind, payload, index = state
        if kind == "send":
            return [(payload.dst, "send", index)]
        if kind == "recv":
            return [(payload.src, "recv", index)]
        if kind == "wait":
            edges = []
            for side, message in payload:
                if side == "isend" and not message.send_complete():
                    edges.append((message.dst, "wait-send", index))
                elif side == "irecv" and not message.arrived():
                    edges.append((message.src, "wait-recv", index))
            return edges
        arrived = self._collective_arrived[payload]
        return [(peer, "collective", index)
                for peer in range(self.num_ranks) if peer not in arrived]


@dataclass(frozen=True)
class SymbolicVerdict:
    """The fixpoint of one symbolic replay: all that its readers need.

    ``stuck`` lists the ranks that cannot finish, ``unmatched_sends``
    counts the posted sends no receive matched, and ``wait_edges`` holds
    the ``(peer, kind, record_index)`` edges of every stuck rank.
    """

    stuck: List[int]
    unmatched_sends: int
    wait_edges: Dict[int, List[Tuple[int, str, int]]]


def symbolic_verdict(trace: Trace, eager_threshold: int) -> SymbolicVerdict:
    """The symbolic replay's verdict on ``trace`` at ``eager_threshold``.

    Lint's deadlock search and the adaptive classifier
    (:mod:`repro.dimemas.windows`) both read it, so the verdict is memoized
    on the trace instance (records are never mutated after construction)
    and each (trace, eager threshold) is replayed once.  Only the verdict is
    kept: the replay's matcher state holds a queue per chunk stream.
    """
    verdicts = getattr(trace, "_symbolic_verdicts", None)
    if verdicts is None:
        verdicts = {}
        trace._symbolic_verdicts = verdicts
    verdict = verdicts.get(eager_threshold)
    if verdict is None:
        replay = _SymbolicReplay(trace.prepared().ops, trace.num_ranks,
                                 eager_threshold)
        stuck = replay.run()
        verdict = SymbolicVerdict(
            stuck=stuck, unmatched_sends=replay.unmatched_sends(),
            wait_edges={rank: replay.wait_edges(rank) for rank in stuck})
        verdicts[eager_threshold] = verdict
    return verdict


_EDGE_PHRASES = {
    "send": "blocking rendezvous send at record {index} to rank {peer}",
    "recv": "blocking receive at record {index} from rank {peer}",
    "wait-send": "wait at record {index} on a rendezvous send to rank {peer}",
    "wait-recv": "wait at record {index} on a receive from rank {peer}",
    "collective": "collective at record {index} missing rank {peer}",
}

_P2P_EDGES = frozenset({"send", "recv", "wait-send", "wait-recv"})


def _check_deadlock(verdict: SymbolicVerdict, eager_threshold: int,
                    source: str) -> List[Diagnostic]:
    """TL401: cycles in the wait-for graph of the symbolic replay's fixpoint."""
    if not verdict.stuck:
        return []
    edges = verdict.wait_edges
    cycles = _find_cycles({rank: [peer for peer, _, _ in rank_edges]
                           for rank, rank_edges in edges.items()})
    diagnostics: List[Diagnostic] = []
    seen: set = set()
    for cycle in cycles:
        # Ranks stuck on an absent partner (no cycle) are covered by the
        # structural checks; a cycle is only reported as a deadlock when at
        # least one point-to-point wait participates -- a pure collective
        # cycle is the TL203 count mismatch wearing its runtime face.
        members = frozenset(cycle)
        if members in seen:
            continue
        seen.add(members)
        cycle_edges = []
        for position, rank in enumerate(cycle):
            successor = cycle[(position + 1) % len(cycle)]
            edge = next((entry for entry in edges[rank]
                         if entry[0] == successor), None)
            if edge is not None:
                cycle_edges.append((rank, edge))
        if not any(edge[1] in _P2P_EDGES for _, edge in cycle_edges):
            continue
        anchor = min(cycle)
        anchor_index = next((edge[2] for rank, edge in cycle_edges
                             if rank == anchor), None)
        chain = "; ".join(
            f"rank {rank} " + _EDGE_PHRASES[kind].format(index=index, peer=peer)
            for rank, (peer, kind, index) in cycle_edges)
        ranks = "->".join(str(rank) for rank in cycle + [cycle[0]])
        threshold_note = ("every send rendezvous"
                          if eager_threshold < 0
                          else f"eager_threshold={eager_threshold}")
        diagnostics.append(Diagnostic(
            code="TL401",
            message=(f"ranks {ranks} wait on each other ({threshold_note}): "
                     f"{chain}"),
            rank=anchor, record_index=anchor_index, source=source))
    return diagnostics


def _find_cycles(graph: Dict[int, List[int]]) -> List[List[int]]:
    """Elementary cycles reachable in the stuck wait-for graph (DFS)."""
    cycles: List[List[int]] = []
    visited: set = set()

    def visit(node: int, stack: List[int], on_stack: Dict[int, int]) -> None:
        visited.add(node)
        on_stack[node] = len(stack)
        stack.append(node)
        for peer in graph.get(node, ()):
            if peer in on_stack:
                cycle = stack[on_stack[peer]:]
                anchor = cycle.index(min(cycle))
                cycles.append(cycle[anchor:] + cycle[:anchor])
            elif peer not in visited and peer in graph:
                visit(peer, stack, on_stack)
        stack.pop()
        del on_stack[node]

    for start in sorted(graph):
        if start not in visited:
            visit(start, [], {})
    return cycles
