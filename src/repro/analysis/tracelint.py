"""Static trace analysis ("tracelint"): MPI correctness linting before replay.

:func:`analyze_trace` reads a trace's message plan -- the one static pass
over the prepared record streams that pairs every send with its receive
(:class:`repro.tracing.trace.MessagePlan`) -- **without** instantiating the
discrete-event simulator, and reports every defect the replay would
otherwise only discover mid-simulation (or worse, hang on):

* **structure** (:mod:`repro.analysis.structure`): point-to-point matching
  (``TL101``-``TL104``), collective coherence (``TL201``-``TL204``), the
  request lifecycle (``TL301``-``TL303``) and unknown records (``TL501``);
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

from dataclasses import dataclass
from operator import gt
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.structure import structural_diagnostics
from repro.dimemas.platform import Platform
from repro.tracing.trace import (
    OP_COLLECTIVE,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    Trace,
)

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
    diagnostics = structural_diagnostics(trace, source)
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
        "num_ranks": trace.num_ranks,
        "records": sum(len(rank_ops) for rank_ops in trace.prepared().ops),
        "eager_thresholds": thresholds,
        "source": source,
    }
    return AnalysisReport(diagnostics=tuple(diagnostics), metadata=metadata)


# -- deadlock search -----------------------------------------------------------

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


def _symbolic_replay(ops, plan, eager_threshold: int) -> SymbolicVerdict:
    """A zero-time replay of the matching semantics, used for deadlock search.

    Ranks advance greedily: a record either completes immediately (eager
    sends, CPU bursts) or blocks on a condition over peer postings
    (rendezvous sends, receives, waits, collectives).  Simulated time never
    appears -- only posting order does -- so the fixpoint of this replay
    blocks exactly where the discrete-event replay would stop progressing.
    Postings only accumulate, so the fixpoint does not depend on the order
    in which ranks are advanced.

    Each message is a slot of the plan.  Once both sides are posted the
    simulated transfer always finishes in finite time, so a message has
    *arrived* once its send is posted, and a send is *complete* once it is
    posted and either eager or received.
    """
    num_ranks = len(ops)
    indices = plan.indices
    send_posted = bytearray(plan.count)
    recv_posted = bytearray(plan.count)
    rendezvous = bytearray(plan.count)
    pcs = [0] * num_ranks
    #: Whether the record at a rank's pc is posted and blocks it.
    waiting = [False] * num_ranks
    #: Collective ordinal -> ranks that entered it; rank -> next ordinal.
    arrivals: List[int] = []
    coll_next = [0] * num_ranks

    def incomplete(rank: int, position: int) -> bool:
        """Whether the non-blocking posting at ``position`` is not done."""
        index = indices[rank][position]
        if ops[rank][position][0] == OP_SEND:
            return rendezvous[index] and not recv_posted[index]
        return not send_posted[index]

    progressed = True
    while progressed:
        progressed = False
        for rank in range(num_ranks):
            rank_ops = ops[rank]
            row = indices[rank]
            pc = start = pcs[rank]
            n = len(rank_ops)
            while pc < n:
                op, record = rank_ops[pc]
                # Post the record -- again, harmlessly, while it blocks --
                # and stop where it blocks.  CPU bursts (and unknown
                # records, reported separately) just pass.
                if op == OP_SEND:
                    index = row[pc]
                    send_posted[index] = 1
                    if record.size > eager_threshold:
                        rendezvous[index] = 1
                        if record.blocking and not recv_posted[index]:
                            break
                elif op == OP_RECV:
                    index = row[pc]
                    recv_posted[index] = 1
                    if record.blocking and not send_posted[index]:
                        break
                elif op == OP_WAIT:
                    if any(incomplete(rank, pc - distance)
                           for distance in row[pc]):
                        break
                elif op == OP_COLLECTIVE:
                    if pc != start or not waiting[rank]:
                        ordinal = coll_next[rank]
                        coll_next[rank] = ordinal + 1
                        if ordinal == len(arrivals):
                            arrivals.append(0)
                        arrivals[ordinal] += 1
                    if arrivals[coll_next[rank] - 1] < num_ranks:
                        break
                pc += 1
            waiting[rank] = pc < n
            if pc != start:
                pcs[rank] = pc
                progressed = True

    stuck = [rank for rank in range(num_ranks) if waiting[rank]]
    wait_edges = {}
    for rank in stuck:
        pc = pcs[rank]
        op, record = ops[rank][pc]
        if op == OP_SEND:
            edges = [(record.dst, "send", pc)]
        elif op == OP_RECV:
            edges = [(record.src, "recv", pc)]
        elif op == OP_WAIT:
            edges = []
            for distance in indices[rank][pc]:
                if incomplete(rank, pc - distance):
                    side, posting = ops[rank][pc - distance]
                    edges.append((posting.dst, "wait-send", pc)
                                 if side == OP_SEND
                                 else (posting.src, "wait-recv", pc))
        else:
            ordinal = coll_next[rank] - 1
            edges = [(peer, "collective", pc) for peer in range(num_ranks)
                     if coll_next[peer] <= ordinal]
        wait_edges[rank] = edges
    return SymbolicVerdict(
        stuck=stuck,
        unmatched_sends=sum(map(gt, send_posted, recv_posted)),
        wait_edges=wait_edges)


def symbolic_verdict(trace: Trace, eager_threshold: int) -> SymbolicVerdict:
    """The symbolic replay's verdict on ``trace`` at ``eager_threshold``.

    Lint's deadlock search and the adaptive classifier
    (:mod:`repro.dimemas.windows`) both read it, so the verdict is memoized
    on the trace instance (records are never mutated after construction)
    and each (trace, eager threshold) is replayed once.
    """
    verdicts = getattr(trace, "_symbolic_verdicts", None)
    if verdicts is None:
        verdicts = {}
        trace._symbolic_verdicts = verdicts
    verdict = verdicts.get(eager_threshold)
    if verdict is None:
        prepared = trace.prepared()
        verdict = verdicts[eager_threshold] = _symbolic_replay(
            prepared.ops, prepared.message_plan(), eager_threshold)
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
