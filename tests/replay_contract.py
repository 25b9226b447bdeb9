"""The adaptive backend's contract, shared by its example and property tests.

A cell replayed by the adaptive backend must match the event backend bit
for bit: total time, every ``RankStats`` field, the network statistics,
the timeline's state profile, intervals and communications.  One
representational difference is tolerated: the *order* of the raw timeline
lists (the paced walk appends intervals in its own order, and records a
transfer when its wire slot ends, the event backend one event generation
later).  Timeline content is therefore compared sorted.

Adaptive replays each cell twice, recording a timeline and metric-only,
because the two can take different walks: a proven cell runs the paced
walk when it records a timeline and the lane walk when it does not.
Both runs must meet the contract, so they also agree with each other.

:func:`fifo_pairs` is a short pairing reference written apart from
:class:`repro.tracing.trace.MessagePlan`, so that the plan every walk
matches through is not checked against itself.
"""

from repro.apps.registry import create_application
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.replay import ReplayEngine
from repro.tracing.records import RecvRecord, SendRecord

_TRACES = {}

#: The original trace, or an overlap (pattern, mechanism) variant.
VARIANTS = ((None, "full"),) + tuple(
    (pattern, mechanism) for pattern in ("real", "ideal")
    for mechanism in ("full", "early-send", "late-receive"))


def app_trace(app_name, overlap=None, mechanism="full", ranks=4,
              iterations=2):
    """The traced run of a registered app, optionally overlapped with the
    ``overlap`` pattern and ``mechanism`` (memoized per process)."""
    key = (app_name, overlap, mechanism, ranks, iterations)
    if key not in _TRACES:
        environment = OverlapStudyEnvironment(
            chunking=FixedCountChunking(count=4))
        trace = environment.trace(create_application(
            app_name, num_ranks=ranks, iterations=iterations))
        if overlap is not None:
            trace = environment.overlap(
                trace, pattern=ComputationPattern.from_label(overlap),
                mechanism=OverlapMechanism.from_label(mechanism))
        _TRACES[key] = trace
    return _TRACES[key]


def _run(trace, platform, backend, collect_timeline=True):
    engine = ReplayEngine(trace, platform.with_replay_backend(backend),
                          collect_timeline=collect_timeline)
    return engine, engine.run()


def _interval_key(interval):
    return (interval.rank, interval.start, interval.end, interval.state)


def _communication_key(comm):
    return (comm.src, comm.dst, comm.send_time, comm.recv_time,
            comm.size, comm.tag)


def assert_bit_exact(trace, platform):
    """Replay ``trace`` on ``platform`` through both backends, assert the
    contract, and return the timeline-recording adaptive engine (for its
    summary)."""
    engine, adaptive = _run(trace, platform, "adaptive")
    _, metric_only = _run(trace, platform, "adaptive", collect_timeline=False)
    _, event = _run(trace, platform, "event")
    event_time, event_stats, event_timeline, event_network = event
    for total_time, stats, _, network in (adaptive, metric_only):
        assert total_time == event_time
        assert stats == event_stats  # dataclass equality, every field
        assert network == event_network
    adaptive_timeline = adaptive[2]
    assert adaptive_timeline.state_profile() == event_timeline.state_profile()
    assert (sorted(adaptive_timeline.intervals, key=_interval_key)
            == sorted(event_timeline.intervals, key=_interval_key))
    assert (sorted(adaptive_timeline.communications, key=_communication_key)
            == sorted(event_timeline.communications, key=_communication_key))
    return engine


def fifo_pairs(trace):
    """``{(send rank, position): (receive rank, position)}`` of every matched
    message: per ``(src, dst, tag)`` stream, the k-th send meets the k-th
    receive."""
    sends, recvs = {}, {}
    for rank_trace in trace:
        rank = rank_trace.rank
        for position, record in enumerate(rank_trace.records):
            if isinstance(record, SendRecord):
                sends.setdefault((rank, record.dst, record.tag),
                                 []).append((rank, position))
            elif isinstance(record, RecvRecord):
                recvs.setdefault((record.src, rank, record.tag),
                                 []).append((rank, position))
    return {send: recv for stream, stream_sends in sends.items()
            for send, recv in zip(stream_sends, recvs.get(stream, ()))}
