"""Structural trace checks: the diagnostics that need no replay.

Every check here reads the trace's message plan
(:meth:`repro.tracing.trace.PreparedTrace.message_plan`), the one static
pass that pairs each send with its receive, follows every non-blocking
request to its wait and notes each rank's collectives.  This module only
words what the plan found, in tracelint's order:

* unknown records (``TL501``);
* point-to-point matching (``TL103``, then per ``(src, dst, tag)`` stream
  in stream order ``TL104``, ``TL101`` and ``TL102``);
* collective coherence (``TL201``-``TL204``): the k-th collective of every
  rank must agree on operation, root and size, the root must exist, and
  every rank must take part;
* the request lifecycle (``TL301``-``TL303``).

:func:`repro.analysis.tracelint.analyze_trace` adds its deadlock search to
these.  The tracing virtual machine runs :func:`trace_issues` on every
traced application model, so this module loads without the analyzer, the
symbolic replay or the replay stack.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from repro.analysis.diagnostics import Diagnostic, format_defect
from repro.tracing.trace import OP_SEND, Trace

#: Collective operations whose ``root`` parameter is meaningful; the others
#: (barrier, allreduce, allgather, alltoall) ignore it.
ROOTED_OPERATIONS = frozenset({"bcast", "reduce", "gather", "scatter"})


def structural_diagnostics(trace: Trace, source: str = "") -> List[Diagnostic]:
    """Every structural diagnostic of ``trace``, in tracelint's order."""
    prepared = trace.prepared()
    ops = prepared.ops
    plan = prepared.message_plan()
    groups: Dict[str, List[Diagnostic]] = {"5": [], "1": [], "3": []}
    for fault in plan.faults:
        code, rank, position = fault[:3]
        groups[code[2]].append(Diagnostic(
            code=code, message=fault_message(ops, fault), rank=rank,
            record_index=position, source=source))
    out = groups["5"] + groups["1"]
    _check_collectives(ops, plan.collectives, source, out)
    out.extend(groups["3"])
    return out


def trace_issues(trace: Trace) -> List[str]:
    """What makes ``trace`` an inconsistent MPI program, one line each.

    The structural diagnostics, warnings included, and every paired
    posting whose ``pair_seq`` is not its ordinal in its stream.  The
    tracing virtual machine rejects a traced application model with any.
    """
    issues = [diagnostic.format()
              for diagnostic in structural_diagnostics(trace)]
    prepared = trace.prepared()
    for rank, position, ordinal in prepared.message_plan().misordered:
        op, record = prepared.ops[rank][position]
        src, dst = (rank, record.dst) if op == OP_SEND else (record.src, rank)
        issues.append(
            f"inconsistent pair sequence for message {ordinal} src={src} "
            f"dst={dst} tag={record.tag} (rank {rank}, record {position})")
    return issues


# -- wording of the plan's faults ----------------------------------------------

def fault_message(ops, fault) -> str:
    """The diagnostic text of one of the plan's ``faults`` on ``ops``."""
    code, rank, position, *detail = fault
    return _MESSAGES[code](ops, rank, position, *detail)


def first_defect(trace: Trace, code: str) -> Optional[str]:
    """The plan's first ``code`` fault of ``trace``, formatted as lint
    formats it, or None when the plan found none."""
    prepared = trace.prepared()
    for fault in prepared.message_plan().faults:
        if fault[0] == code:
            return format_defect(code, fault[1], fault[2],
                                 fault_message(prepared.ops, fault))
    return None


def _kind(op: int) -> str:
    return "isend" if op == OP_SEND else "irecv"


def _peer_out_of_range(ops, rank, position):
    op, record = ops[rank][position]
    if op == OP_SEND:
        return (f"send names destination rank {record.dst} "
                f"outside 0..{len(ops) - 1}")
    return (f"receive names source rank {record.src} "
            f"outside 0..{len(ops) - 1}")


def _size_mismatch(ops, rank, position, send_position):
    recv = ops[rank][position][1]
    send = ops[recv.src][send_position][1]
    return (f"receive of {recv.size} bytes from rank {recv.src} "
            f"(tag {recv.tag}) is matched by a send of {send.size} "
            f"bytes at rank {recv.src}, record {send_position}")


def _unreceived(ops, rank, position):
    record = ops[rank][position][1]
    return (f"send of {record.size} bytes to rank {record.dst} "
            f"(tag {record.tag}) is never received")


def _unsent(ops, rank, position):
    record = ops[rank][position][1]
    return (f"receive of {record.size} bytes from rank {record.src} "
            f"(tag {record.tag}) is never sent")


def _dangling(ops, rank, position):
    op, record = ops[rank][position]
    if record.request is None:
        return (f"non-blocking {_kind(op)} carries no request id and can "
                f"never be waited on")
    return (f"{_kind(op)} request {record.request} is never waited on "
            f"(its transfer would be dropped at end of trace)")


def _not_outstanding(ops, rank, position, request):
    return (f"waits on request {request}, which is not outstanding "
            f"(never issued, or already waited on)")


def _reused(ops, rank, position, issued_at):
    op, record = ops[rank][position]
    return (f"{_kind(op)} reuses request id {record.request} while the "
            f"{_kind(ops[rank][issued_at][0])} issued at record {issued_at} "
            f"is still outstanding")


def _unknown(ops, rank, position):
    return f"record {ops[rank][position][1]!r} is not replayable"


_MESSAGES = {
    "TL101": _unreceived,
    "TL102": _unsent,
    "TL103": _peer_out_of_range,
    "TL104": _size_mismatch,
    "TL301": _dangling,
    "TL302": _not_outstanding,
    "TL303": _reused,
    "TL501": _unknown,
}


# -- collective coherence ------------------------------------------------------

def _check_collectives(ops, positions: List[List[int]], source: str,
                       out: List[Diagnostic]) -> None:
    """TL201/TL202/TL203/TL204: cross-rank collective agreement."""
    num_ranks = len(ops)

    def diag(code: str, message: str, rank: int, index: Any) -> None:
        out.append(Diagnostic(code=code, message=message, rank=rank,
                              record_index=index, source=source))

    counts = [len(row) for row in positions]
    if len(set(counts)) > 1:
        # With mismatched participation the per-ordinal comparison below
        # would mis-align every later collective, so report the counts and
        # stop: the count mismatch *is* the defect.
        reference = _reference_count(counts)
        for rank, count in enumerate(counts):
            if count > reference:
                diag("TL203",
                     f"has {count} collective records while other ranks "
                     f"have {reference} (first extra entry)",
                     rank, positions[rank][reference])
            elif count < reference:
                diag("TL203",
                     f"has {count} collective records while other ranks "
                     f"have {reference}", rank, None)
        return

    for ordinal in range(counts[0] if counts else 0):
        entrants = [(rank, positions[rank][ordinal],
                     ops[rank][positions[rank][ordinal]][1])
                    for rank in range(num_ranks)]
        ref_rank, _, ref = entrants[0]
        for rank, index, record in entrants[1:]:
            if record.operation != ref.operation:
                diag("TL201",
                     f"entered {record.operation!r} while rank {ref_rank} "
                     f"entered {ref.operation!r} (collective {ordinal})",
                     rank, index)
                continue
            if record.root != ref.root:
                diag("TL201",
                     f"entered {record.operation!r} with root {record.root} "
                     f"while rank {ref_rank} used root {ref.root} "
                     f"(collective {ordinal})", rank, index)
            if record.size != ref.size:
                diag("TL201",
                     f"entered {record.operation!r} with size {record.size} "
                     f"while rank {ref_rank} used size {ref.size} "
                     f"(collective {ordinal})", rank, index)
        for rank, index, record in entrants:
            if (record.operation in ROOTED_OPERATIONS
                    and not 0 <= record.root < num_ranks):
                diag("TL202",
                     f"{record.operation!r} names root {record.root} "
                     f"outside 0..{num_ranks - 1} (collective {ordinal})",
                     rank, index)
            if record.comm_size not in (0, num_ranks):
                diag("TL204",
                     f"{record.operation!r} records communicator size "
                     f"{record.comm_size} in a {num_ranks}-rank trace "
                     f"(collective {ordinal})", rank, index)


def _reference_count(counts: List[int]) -> int:
    """The participation count to compare against: the most common one."""
    frequency = Counter(counts)
    best = max(frequency.values())
    return max(count for count, times in frequency.items() if times == best)
