"""Generated MPI record streams: the plan, lint and the replay agree.

The other property tests draw the registered app models.  This one draws
raw record streams: blocking and non-blocking point-to-point messages on
several tags, self-messages, waits over several requests, collectives and
bursts.  Every message is appended to its sender and its receiver at the
same step of one global schedule, and every wait comes after the postings
it completes, so a clean stream is deadlock-free at any eager threshold
and numbers every stream as the tracer does.

A stream may carry one injected defect: a dropped receive, a changed
receive size, a reused or a dangling request, an out-of-range peer, or a
head-to-head rendezvous exchange.  Then:

* :class:`MessagePlan` pairs what the FIFO reference of
  ``tests/replay_contract.py`` pairs, defect or not;
* a clean stream passes the trace-time checks, analyzes clean and replays
  bit-exact on both backends;
* on a defective stream, lint's first error names the defect, and the
  replay fails as lint says: both backends raise the same error, which
  carries lint's first error code and location, or reports a deadlock.
  A deadlock happens only on a stream lint rejects, and a ``TL401`` stream
  always wedges.  A size change is only a ``TL104`` warning: the stream
  replays bit-exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity, analyze_trace, format_defect
from repro.analysis.structure import trace_issues
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.errors import SimulationError
from repro.tracing.records import (
    COLLECTIVE_OPERATIONS,
    CollectiveRecord,
    CpuBurst,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace, Trace

from replay_contract import assert_bit_exact, fifo_pairs

SIZES = (0, 8, 1024, 70_000, 200_000)
#: Rendezvous at the default eager threshold (64 KiB).
BIG = 100_000
DEFECTS = ("drop-recv", "resize", "reuse", "dangle", "out-of-range",
           "head-to-head")


@st.composite
def clean_streams(draw):
    """Per-rank record lists of a deadlock-free program."""
    num_ranks = draw(st.integers(min_value=2, max_value=4))
    ranks = [[] for _ in range(num_ranks)]
    ordinals = {}
    next_request = [0] * num_ranks
    outstanding = [[] for _ in range(num_ranks)]
    rank = st.integers(min_value=0, max_value=num_ranks - 1)

    def message(src, dst, blocking_send, blocking_recv):
        tag = draw(st.integers(min_value=0, max_value=2))
        size = draw(st.sampled_from(SIZES))
        ordinal = ordinals.get((src, dst, tag), 0)
        ordinals[(src, dst, tag)] = ordinal + 1
        for side, blocking, records in ((SendRecord, blocking_send, ranks[src]),
                                        (RecvRecord, blocking_recv, ranks[dst])):
            owner = src if side is SendRecord else dst
            request = None
            if not blocking:
                request = next_request[owner]
                next_request[owner] += 1
                outstanding[owner].append(request)
            peer = {"dst": dst} if side is SendRecord else {"src": src}
            records.append(side(size=size, tag=tag, blocking=blocking,
                                request=request, pair_seq=ordinal, **peer))

    # The first step is a blocking message between two ranks, so every
    # stream has a receive a defect can drop.
    src = draw(rank)
    message(src, (src + 1) % num_ranks, True, True)
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        step = draw(st.sampled_from(("p2p", "p2p", "p2p", "collective",
                                     "burst", "wait")))
        if step == "p2p":
            src, dst = draw(rank), draw(rank)
            # A self-message posts its send first and non-blocking.
            message(src, dst, src != dst and draw(st.booleans()),
                    draw(st.booleans()))
        elif step == "collective":
            record = CollectiveRecord(
                operation=draw(st.sampled_from(sorted(COLLECTIVE_OPERATIONS))),
                size=draw(st.sampled_from((0, 8, 4096))),
                root=draw(rank), comm_size=num_ranks)
            for records in ranks:
                records.append(record)
        elif step == "burst":
            ranks[draw(rank)].append(CpuBurst(
                instructions=draw(st.sampled_from((10.0, 1e4, 1e6)))))
        else:
            waiter = draw(rank)
            if outstanding[waiter]:
                count = draw(st.integers(min_value=1,
                                         max_value=len(outstanding[waiter])))
                ranks[waiter].append(
                    WaitRecord(requests=outstanding[waiter][:count]))
                del outstanding[waiter][:count]
    for waiter, requests in enumerate(outstanding):
        if requests:
            ranks[waiter].append(WaitRecord(requests=list(requests)))
    return ranks


def _trace(ranks):
    return Trace(ranks=[RankTrace(rank=rank, records=list(records))
                        for rank, records in enumerate(ranks)])


@st.composite
def defective_streams(draw):
    """A clean stream with one defect injected; returns (ranks, defect)."""
    ranks = draw(clean_streams())
    num_ranks = len(ranks)
    defect = draw(st.sampled_from(DEFECTS))
    a = draw(st.integers(min_value=0, max_value=num_ranks - 1))
    b = (a + draw(st.integers(min_value=1, max_value=num_ranks - 1))) \
        % num_ranks

    def pick(predicate):
        spots = [(rank, position) for rank, records in enumerate(ranks)
                 for position, record in enumerate(records)
                 if predicate(record)]
        return draw(st.sampled_from(spots)) if spots else None

    if defect == "drop-recv":
        rank, position = pick(lambda r: isinstance(r, RecvRecord)
                              and r.blocking)
        del ranks[rank][position]
    elif defect == "resize":
        rank, position = pick(lambda r: isinstance(r, RecvRecord))
        record = ranks[rank][position]
        ranks[rank][position] = RecvRecord(
            src=record.src, size=record.size + 1, tag=record.tag,
            blocking=record.blocking, request=record.request,
            pair_seq=record.pair_seq)
    elif defect == "reuse":
        ranks[a] += [SendRecord(dst=b, size=8, tag=7, blocking=False,
                                request=100),
                     SendRecord(dst=b, size=8, tag=7, blocking=False,
                                request=100),
                     WaitRecord(requests=[100])]
        ranks[b] += [RecvRecord(src=a, size=8, tag=7, pair_seq=0),
                     RecvRecord(src=a, size=8, tag=7, pair_seq=1)]
    elif defect == "dangle":
        spot = pick(lambda r: isinstance(r, WaitRecord))
        if spot is None:
            ranks[a].append(RecvRecord(src=b, size=8, tag=8, blocking=False,
                                       request=100))
            ranks[b].append(SendRecord(dst=a, size=8, tag=8))
        else:
            rank, position = spot
            requests = list(ranks[rank][position].requests)
            del requests[draw(st.integers(min_value=0,
                                          max_value=len(requests) - 1))]
            ranks[rank][position] = WaitRecord(requests=requests)
    elif defect == "out-of-range":
        beyond = num_ranks + draw(st.integers(min_value=0, max_value=2))
        if draw(st.booleans()):
            # An eager send nothing can receive: every rank still finishes.
            ranks[a].append(SendRecord(dst=beyond, size=8, tag=5))
        else:
            # Its counterpart now waits forever.
            rank, position = pick(lambda r: isinstance(r, (SendRecord,
                                                           RecvRecord)))
            record = ranks[rank][position]
            fields = dict(size=record.size, tag=record.tag,
                          blocking=record.blocking, request=record.request)
            ranks[rank][position] = (SendRecord(dst=beyond, **fields)
                                     if isinstance(record, SendRecord)
                                     else RecvRecord(src=beyond, **fields))
    else:
        ranks[a] += [SendRecord(dst=b, size=BIG, tag=9),
                     RecvRecord(src=b, size=BIG, tag=9)]
        ranks[b] += [SendRecord(dst=a, size=BIG, tag=9),
                     RecvRecord(src=a, size=BIG, tag=9)]
    return ranks, defect


def _plan_pairs(trace):
    """The plan's pairing, in the reference's form."""
    prepared = trace.prepared()
    plan = prepared.message_plan()
    sides = {}
    for rank, rank_ops in enumerate(prepared.ops):
        for position, (_, record) in enumerate(rank_ops):
            if isinstance(record, (SendRecord, RecvRecord)):
                index = plan.indices[rank][position]
                sides.setdefault(index, {})[type(record)] = (rank, position)
    assert sorted(sides) == list(range(plan.count))
    return {both[SendRecord]: both[RecvRecord] for both in sides.values()
            if len(both) == 2}


def _replay_error(trace, backend):
    """The replay's error text on ``backend``, or None when it finishes."""
    try:
        ReplayEngine(trace, Platform(replay_backend=backend)).run()
    except SimulationError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(stream=st.one_of(clean_streams(),
                        defective_streams().map(lambda drawn: drawn[0])))
def test_the_plan_pairs_what_the_fifo_reference_pairs(stream):
    trace = _trace(stream)
    assert _plan_pairs(trace) == fifo_pairs(trace)


@settings(max_examples=120, deadline=None)
@given(ranks=clean_streams(), uncontended=st.booleans(),
       eager_threshold=st.sampled_from((0, 1024, 65536)))
def test_a_clean_stream_analyzes_clean_and_replays_bit_exact(
        ranks, uncontended, eager_threshold):
    trace = _trace(ranks)
    assert trace_issues(trace) == []
    assert analyze_trace(trace, worst_case=True).ok
    links = {"input_links": 0, "output_links": 0} if uncontended else {}
    assert_bit_exact(trace, Platform(eager_threshold=eager_threshold, **links))


@settings(max_examples=200, deadline=None)
@given(drawn=defective_streams())
def test_a_defective_stream_fails_as_lint_says(drawn):
    ranks, defect = drawn
    trace = _trace(ranks)
    errors = [diagnostic for diagnostic in analyze_trace(trace).diagnostics
              if diagnostic.severity is Severity.ERROR]
    if defect == "resize":
        assert errors == []
        assert_bit_exact(trace, Platform())
        return
    assert errors, defect
    first = errors[0]
    event = _replay_error(trace, "event")
    assert event is not None, (defect, first.format())
    assert _replay_error(trace, "adaptive") == event
    if any(error.code == "TL401" for error in errors):
        assert event.startswith("replay deadlocked: ")
    if not event.startswith("replay deadlocked: "):
        location = format_defect(first.code, first.rank, first.record_index,
                                 "")
        assert event.startswith(location), (event, first.format())
