"""Unit tests for eager/rendezvous protocol selection."""

from repro.dimemas.platform import Platform
from repro.dimemas.protocol import Protocol, select_protocol


class TestProtocolSelection:
    def test_small_message_is_eager(self):
        platform = Platform(eager_threshold=65536)
        assert select_protocol(1024, platform) is Protocol.EAGER

    def test_threshold_is_inclusive(self):
        platform = Platform(eager_threshold=65536)
        assert select_protocol(65536, platform) is Protocol.EAGER

    def test_large_message_is_rendezvous(self):
        platform = Platform(eager_threshold=65536)
        assert select_protocol(65537, platform) is Protocol.RENDEZVOUS

    def test_zero_threshold_forces_rendezvous(self):
        platform = Platform(eager_threshold=0)
        assert select_protocol(1, platform) is Protocol.RENDEZVOUS
        assert select_protocol(0, platform) is Protocol.EAGER


class TestPostingAgreesWithSelectProtocol:
    """The event walk's send posting inlines the protocol decision (hoisted
    threshold); it must never diverge from the public
    :func:`select_protocol` helper."""

    def test_posted_messages_carry_the_selected_protocol(self):
        from repro.dimemas.replay import ReplayEngine
        from repro.tracing.records import SendRecord
        from repro.tracing.trace import RankTrace, Trace

        for threshold in (0, 1024, 65536):
            platform = Platform(eager_threshold=threshold)
            sends = [SendRecord(dst=1, size=size, tag=size)
                     for size in (0, threshold, threshold + 1,
                                  10 * threshold + 7)]
            trace = Trace(ranks=[RankTrace(rank=0, records=sends),
                                 RankTrace(rank=1)])
            engine = ReplayEngine(trace, platform)
            plan = trace.prepared().message_plan()
            for record, index in zip(sends, plan.indices[0]):
                message = engine.post_send(0, record, index)
                assert message.protocol is select_protocol(
                    record.size, platform), (threshold, record.size)
