"""The static message plan every walk matches through.

Matching is FIFO per ``(src, dst, tag)`` stream, so the k-th send of a
stream meets that stream's k-th receive on every platform.  The plan
fixes that pairing once per prepared trace; every walk indexes a per-cell
message slot with it, and releases the slot as soon as both sides have
posted.
"""

import pytest

from repro.apps.registry import create_application
from repro.core.environment import OverlapStudyEnvironment
from repro.dimemas import replay
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.errors import SimulationError
from repro.tracing.records import CpuBurst, RecvRecord, SendRecord, WaitRecord
from repro.tracing.trace import MessagePlan, RankTrace, Trace


def _trace(*ranks):
    return Trace(ranks=[RankTrace(rank=rank, records=list(records))
                        for rank, records in enumerate(ranks)])


class TestMessagePlan:
    def test_the_kth_send_of_a_stream_meets_its_kth_receive(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, tag=0),
             CpuBurst(instructions=10),
             SendRecord(dst=1, size=8, tag=1),
             SendRecord(dst=1, size=8, tag=0)],
            [RecvRecord(src=0, size=8, tag=1),
             RecvRecord(src=0, size=8, tag=0),
             RecvRecord(src=0, size=8, tag=0)])
        plan = trace.prepared().message_plan()
        sends, recvs = plan.indices
        assert sends[1] == -1
        # Stream (0, 1, 0): first send <-> first receive, second <-> second.
        assert (sends[0], sends[3]) == (recvs[1], recvs[2])
        # Stream (0, 1, 1) is paired although it is received first.
        assert sends[2] == recvs[0]
        assert plan.count == 3
        assert sorted(sends[i] for i in (0, 2, 3)) == [0, 1, 2]

    def test_a_posting_without_counterpart_has_its_own_index(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, tag=0, blocking=False, request=1),
             WaitRecord(requests=(1,))],
            [RecvRecord(src=0, size=8, tag=0),
             RecvRecord(src=0, size=8, tag=0)])
        plan = trace.prepared().message_plan()
        # The wait holds how far back the isend it completes is.
        assert plan.indices == [[0, (1,)], [0, 1]]
        assert plan.count == 2

    def test_waits_of_one_shape_share_their_tuple(self):
        exchange = [SendRecord(dst=1, size=8, blocking=False, request=1),
                    RecvRecord(src=1, size=8, blocking=False, request=2),
                    WaitRecord(requests=(1, 2))]
        trace = _trace(exchange * 2, [RecvRecord(src=0, size=8),
                                      SendRecord(dst=0, size=8)] * 2)
        row = trace.prepared().message_plan().indices[0]
        assert row[2] == (2, 1)
        assert row[5] is row[2]

    def test_a_reissued_request_is_completed_through_its_latest_posting(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, tag=0, blocking=False, request=4),
             SendRecord(dst=1, size=8, tag=1, blocking=False, request=4),
             WaitRecord(requests=(4, 9))],
            [RecvRecord(src=0, size=8, tag=0),
             RecvRecord(src=0, size=8, tag=1)])
        plan = trace.prepared().message_plan()
        assert plan.indices[0] == [0, 1, (1,)]
        assert plan.faults == (("TL303", 0, 1, 0), ("TL302", 0, 2, 9))

    def test_out_of_range_peers_are_left_out_of_pairing(self):
        trace = _trace(
            [SendRecord(dst=5, size=8, tag=0), SendRecord(dst=1, size=8)],
            [RecvRecord(src=7, size=8, tag=0), RecvRecord(src=0, size=8)])
        plan = trace.prepared().message_plan()
        assert plan.indices == [[0, 1], [2, 1]]
        assert plan.faults == (("TL103", 0, 0), ("TL103", 1, 0))

    def test_ordinals_are_checked_against_pair_seq(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, pair_seq=0),
             SendRecord(dst=1, size=8, pair_seq=0)],
            [RecvRecord(src=0, size=8, pair_seq=0),
             RecvRecord(src=0, size=8, pair_seq=1)])
        assert trace.prepared().message_plan().misordered == ((0, 1, 1),)

    def test_the_plan_is_built_once_per_prepared_trace(self, monkeypatch):
        calls = []
        original = MessagePlan.compile.__func__

        def counting(cls, ops):
            calls.append(ops)
            return original(cls, ops)

        monkeypatch.setattr(MessagePlan, "compile", classmethod(counting))
        trace = _nas_cg()
        for bandwidth in (50.0, 500.0):
            ReplayEngine(trace, Platform(bandwidth_mbps=bandwidth)).run()
        assert len(calls) == 1
        assert trace.prepared().message_plan() is trace.prepared().message_plan()

    def test_the_paced_walk_reports_postings_left_in_their_slots(self):
        # Both ranks block on a posting the other never reaches; the
        # classifier would send this trace to the event walk, so the paced
        # walk is driven directly.
        trace = _trace(
            [RecvRecord(src=1, size=8, tag=0),
             SendRecord(dst=1, size=8, tag=0)],
            [SendRecord(dst=0, size=10**6, tag=5),
             RecvRecord(src=0, size=8, tag=0)])
        engine = ReplayEngine(trace, Platform())
        with pytest.raises(SimulationError, match=(
                r"replay deadlocked: rank 0 stuck at record 0 .*"
                r"unmatched postings: \{'sends': 1, 'recvs': 1\}")):
            engine._run_adaptive(trace.prepared())


def _nas_cg():
    environment = OverlapStudyEnvironment()
    return environment.trace(
        create_application("nas-cg", num_ranks=4, iterations=8))


class _Census:
    """Live and peak instance counts of a message class."""

    def __init__(self):
        self.created = 0
        self.live = 0
        self.peak = 0

    def counting(self, base):
        census = self

        class Counted(base):
            def __init__(self, *args):
                base.__init__(self, *args)
                census.created += 1
                census.live += 1
                census.peak = max(census.peak, census.live)

            def __del__(self):
                census.live -= 1

        return Counted


class TestNoMatchedMessageKeptAlive:
    """A slot gives its message up once both sides have posted, so a
    walk holds only the messages in flight, never all of them."""

    @pytest.mark.parametrize("walk, message_class, platform", [
        ("paced", "_FastMessage", Platform()),
        ("lane", "_GridMessage", Platform(input_links=0, output_links=0)),
    ], ids=["paced", "lane"])
    def test_peak_live_messages_stay_below_half(self, monkeypatch, walk,
                                                message_class, platform):
        trace = _nas_cg()
        messages = trace.prepared().message_plan().count
        assert messages == 64
        census = _Census()
        monkeypatch.setattr(replay, message_class,
                            census.counting(getattr(replay, message_class)))
        engine = ReplayEngine(trace, platform, collect_timeline=False)
        engine.run()
        assert engine.adaptive_summary["proven_exact"] is (walk == "lane")
        assert census.created == messages
        assert census.peak < messages / 2
        assert census.live == 0
