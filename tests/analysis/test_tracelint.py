"""Tests for the static trace analyzer: seeded defects, the eager/rendezvous
deadlock split, the registered-app no-false-positive sweep, and agreement
between static diagnostics and runtime replay errors."""

import re

import pytest

from repro.analysis import ALL_RENDEZVOUS, Severity, analyze_trace
from repro.apps.registry import APPLICATIONS, create_application
from repro.core.chunking import FixedCountChunking, FixedSizeChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.overlap import resolve_overlap_request
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.errors import SimulationError
from repro.tracing.records import (
    CollectiveRecord,
    CpuBurst,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace, Trace


def _trace(*rank_records):
    return Trace(ranks=[RankTrace(rank=rank, records=list(records))
                        for rank, records in enumerate(rank_records)])


def _only(report, code):
    """The single diagnostic of ``report``, asserted to carry ``code``."""
    assert report.codes() == [code], report.render_text()
    diagnostics = report.by_code(code)
    assert len(diagnostics) == 1, report.render_text()
    return diagnostics[0]


IDLE = CpuBurst(instructions=1.0)


class TestCleanTraces:
    def test_matched_exchange_is_clean(self):
        trace = _trace(
            [CpuBurst(instructions=100.0),
             SendRecord(dst=1, size=64, tag=3),
             RecvRecord(src=1, size=64, tag=4),
             CollectiveRecord(operation="allreduce", size=8)],
            [CpuBurst(instructions=100.0),
             RecvRecord(src=0, size=64, tag=3),
             SendRecord(dst=0, size=64, tag=4),
             CollectiveRecord(operation="allreduce", size=8)])
        report = analyze_trace(trace)
        assert report.ok and report.exit_code() == 0

    def test_nonblocking_lifecycle_is_clean(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, blocking=False, request=1),
             RecvRecord(src=1, size=8, blocking=False, request=2),
             WaitRecord(requests=[1, 2])],
            [SendRecord(dst=0, size=8, blocking=False, request=1),
             RecvRecord(src=0, size=8, blocking=False, request=2),
             WaitRecord(requests=[1, 2])])
        assert analyze_trace(trace, worst_case=True).ok

    def test_metadata_describes_the_pass(self):
        trace = _trace([IDLE], [IDLE])
        report = analyze_trace(trace, eager_threshold=1024, worst_case=True,
                               source="fixture")
        assert report.metadata["num_ranks"] == 2
        assert report.metadata["records"] == 2
        assert report.metadata["eager_thresholds"] == [1024, ALL_RENDEZVOUS]
        assert report.metadata["source"] == "fixture"


class TestPointToPoint:
    def test_unmatched_send_is_tl101(self):
        trace = _trace([IDLE, SendRecord(dst=1, size=64, tag=5)], [IDLE])
        diagnostic = _only(analyze_trace(trace), "TL101")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)
        assert "tag 5" in diagnostic.message
        assert diagnostic.severity is Severity.ERROR

    def test_unmatched_recv_is_tl102(self):
        trace = _trace([IDLE], [RecvRecord(src=0, size=64)])
        diagnostic = _only(analyze_trace(trace), "TL102")
        assert (diagnostic.rank, diagnostic.record_index) == (1, 0)

    def test_peer_out_of_range_is_tl103(self):
        trace = _trace([SendRecord(dst=9, size=8)],
                       [RecvRecord(src=7, size=8)])
        report = analyze_trace(trace)
        assert report.codes() == ["TL103"]
        locations = {(d.rank, d.record_index) for d in report.diagnostics}
        assert locations == {(0, 0), (1, 0)}

    def test_size_mismatch_is_a_tl104_warning(self):
        trace = _trace([SendRecord(dst=1, size=100)],
                       [RecvRecord(src=0, size=200)])
        report = analyze_trace(trace)
        diagnostic = _only(report, "TL104")
        assert (diagnostic.rank, diagnostic.record_index) == (1, 0)
        assert "send of 100 bytes" in diagnostic.message
        assert report.exit_code() == 1

    def test_fifo_matching_pairs_by_stream_order(self):
        # Two sends on the same (src, dst, tag) stream, one receive: the
        # receive matches the *first* send, the second is the unmatched one.
        trace = _trace(
            [SendRecord(dst=1, size=10), SendRecord(dst=1, size=20)],
            [RecvRecord(src=0, size=10)])
        diagnostic = _only(analyze_trace(trace), "TL101")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)
        assert "send of 20 bytes" in diagnostic.message


class TestCollectives:
    def test_operation_mismatch_is_tl201(self):
        trace = _trace([CollectiveRecord(operation="allreduce", size=64)],
                       [CollectiveRecord(operation="reduce", size=64)])
        diagnostic = _only(analyze_trace(trace), "TL201")
        assert (diagnostic.rank, diagnostic.record_index) == (1, 0)
        assert "entered 'reduce' while rank 0 entered 'allreduce'" \
            in diagnostic.message

    def test_root_mismatch_is_tl201(self):
        trace = _trace([CollectiveRecord(operation="bcast", size=64, root=0)],
                       [CollectiveRecord(operation="bcast", size=64, root=1)])
        diagnostic = _only(analyze_trace(trace), "TL201")
        assert "root 1 while rank 0 used root 0" in diagnostic.message

    def test_size_mismatch_is_tl201(self):
        trace = _trace([CollectiveRecord(operation="allreduce", size=64)],
                       [CollectiveRecord(operation="allreduce", size=128)])
        diagnostic = _only(analyze_trace(trace), "TL201")
        assert "size 128 while rank 0 used size 64" in diagnostic.message

    def test_root_out_of_range_is_tl202_on_every_rank(self):
        trace = _trace([CollectiveRecord(operation="bcast", size=8, root=5)],
                       [CollectiveRecord(operation="bcast", size=8, root=5)])
        report = analyze_trace(trace)
        assert report.codes() == ["TL202"]
        assert {d.rank for d in report.diagnostics} == {0, 1}

    def test_unrooted_collectives_ignore_the_root_field(self):
        trace = _trace([CollectiveRecord(operation="barrier", root=5)],
                       [CollectiveRecord(operation="barrier", root=5)])
        assert analyze_trace(trace).ok

    def test_missing_collective_is_tl203_without_an_index(self):
        trace = _trace(
            [CollectiveRecord(operation="barrier"),
             CollectiveRecord(operation="barrier")],
            [CollectiveRecord(operation="barrier")])
        diagnostic = _only(analyze_trace(trace), "TL203")
        assert (diagnostic.rank, diagnostic.record_index) == (1, None)
        assert "has 1 collective records while other ranks have 2" \
            in diagnostic.message

    def test_extra_collective_is_tl203_at_the_first_extra_record(self):
        trace = _trace(
            [CollectiveRecord(operation="barrier"),
             CollectiveRecord(operation="barrier")],
            [CollectiveRecord(operation="barrier")],
            [CollectiveRecord(operation="barrier")])
        diagnostic = _only(analyze_trace(trace), "TL203")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)
        assert "first extra entry" in diagnostic.message

    def test_count_mismatch_suppresses_per_ordinal_checks(self):
        # With mismatched participation, comparing ordinals would misalign;
        # only the count mismatch is reported.
        trace = _trace(
            [CollectiveRecord(operation="barrier"),
             CollectiveRecord(operation="allreduce", size=64)],
            [CollectiveRecord(operation="allreduce", size=64)])
        assert analyze_trace(trace).codes() == ["TL203"]

    def test_wrong_comm_size_is_a_tl204_warning(self):
        trace = _trace([CollectiveRecord(operation="barrier", comm_size=4)],
                       [CollectiveRecord(operation="barrier", comm_size=4)])
        report = analyze_trace(trace)
        assert report.codes() == ["TL204"]
        assert report.exit_code() == 1

    def test_comm_size_zero_means_unrecorded(self):
        trace = _trace([CollectiveRecord(operation="barrier", comm_size=0)],
                       [CollectiveRecord(operation="barrier", comm_size=2)])
        assert analyze_trace(trace).ok


class TestRequests:
    def test_nonblocking_without_request_id_is_tl301(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, blocking=False, request=None)],
            [RecvRecord(src=0, size=8)])
        diagnostic = _only(analyze_trace(trace), "TL301")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 0)
        assert "carries no request id" in diagnostic.message

    def test_never_waited_request_is_tl301_at_its_issue_record(self):
        trace = _trace(
            [RecvRecord(src=1, size=8, blocking=False, request=7), IDLE],
            [SendRecord(dst=0, size=8)])
        diagnostic = _only(analyze_trace(trace), "TL301")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 0)
        assert "irecv request 7 is never waited on" in diagnostic.message

    def test_wait_on_unknown_request_is_tl302(self):
        trace = _trace([IDLE, WaitRecord(requests=[5])], [IDLE])
        diagnostic = _only(analyze_trace(trace), "TL302")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)
        assert "request 5" in diagnostic.message

    def test_double_wait_is_tl302_at_the_second_wait(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, blocking=False, request=3),
             WaitRecord(requests=[3]),
             WaitRecord(requests=[3])],
            [RecvRecord(src=0, size=8)])
        diagnostic = _only(analyze_trace(trace), "TL302")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 2)

    def test_request_reuse_is_tl303(self):
        trace = _trace(
            [SendRecord(dst=1, size=8, blocking=False, request=5),
             SendRecord(dst=1, size=8, blocking=False, request=5),
             WaitRecord(requests=[5])],
            [RecvRecord(src=0, size=8), RecvRecord(src=0, size=8)])
        diagnostic = _only(analyze_trace(trace), "TL303")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)
        assert "reuses request id 5" in diagnostic.message
        assert "issued at record 0" in diagnostic.message


class _AlienRecord(Record):
    """A record kind the replay engine does not know."""

    kind = "alien"

    def to_dict(self):
        return {"kind": self.kind}


class TestUnknownRecords:
    def test_unreplayable_record_is_tl501(self):
        trace = _trace([IDLE, _AlienRecord()], [IDLE])
        diagnostic = _only(analyze_trace(trace), "TL501")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)


def _head_to_head(size):
    """Both ranks send-then-receive: clean eager, deadlocked rendezvous."""
    return _trace(
        [SendRecord(dst=1, size=size), RecvRecord(src=1, size=size)],
        [SendRecord(dst=0, size=size), RecvRecord(src=0, size=size)])


class TestDeadlockSearch:
    def test_rendezvous_exchange_deadlocks_below_the_threshold(self):
        report = analyze_trace(_head_to_head(100_000), eager_threshold=65536)
        diagnostic = _only(report, "TL401")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 0)
        assert "ranks 0->1->0 wait on each other" in diagnostic.message
        assert "eager_threshold=65536" in diagnostic.message
        assert ("rank 0 blocking rendezvous send at record 0 to rank 1"
                in diagnostic.message)

    def test_same_trace_is_clean_above_the_threshold(self):
        assert analyze_trace(_head_to_head(100_000),
                             eager_threshold=1_000_000).ok

    def test_threshold_defaults_to_the_platform(self):
        trace = _head_to_head(100_000)
        assert analyze_trace(trace, Platform(eager_threshold=200_000)).ok
        assert not analyze_trace(trace, Platform(eager_threshold=1024)).ok

    def test_worst_case_adds_the_all_rendezvous_pass(self):
        trace = _head_to_head(10)
        assert analyze_trace(trace).ok
        diagnostic = _only(analyze_trace(trace, worst_case=True), "TL401")
        assert "every send rendezvous" in diagnostic.message

    def test_wait_on_rendezvous_send_joins_the_cycle(self):
        trace = _trace(
            [SendRecord(dst=1, size=100_000, blocking=False, request=1),
             WaitRecord(requests=[1]),
             RecvRecord(src=1, size=100_000)],
            [SendRecord(dst=0, size=100_000, blocking=False, request=1),
             WaitRecord(requests=[1]),
             RecvRecord(src=0, size=100_000)])
        diagnostic = _only(analyze_trace(trace, eager_threshold=65536), "TL401")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 1)
        assert "wait at record 1 on a rendezvous send to rank 1" \
            in diagnostic.message

    def test_blocking_receive_ordering_deadlock_needs_no_rendezvous(self):
        # recv-before-send on both sides deadlocks at any threshold; the
        # matcher-level defect (every message is matched) is invisible to
        # the structural checks, only the symbolic replay sees it.
        trace = _trace(
            [RecvRecord(src=1, size=8), SendRecord(dst=1, size=8)],
            [RecvRecord(src=0, size=8), SendRecord(dst=0, size=8)])
        diagnostic = _only(analyze_trace(trace, eager_threshold=1 << 30),
                           "TL401")
        assert "blocking receive at record 0" in diagnostic.message

    def test_three_rank_cycle_is_anchored_at_the_lowest_rank(self):
        trace = _trace(
            [RecvRecord(src=2, size=8), SendRecord(dst=1, size=8)],
            [RecvRecord(src=0, size=8), SendRecord(dst=2, size=8)],
            [RecvRecord(src=1, size=8), SendRecord(dst=0, size=8)])
        diagnostic = _only(analyze_trace(trace), "TL401")
        assert (diagnostic.rank, diagnostic.record_index) == (0, 0)
        assert "ranks 0->2->1->0 wait on each other" in diagnostic.message

    def test_worst_case_reports_both_thresholds_once_each(self):
        report = analyze_trace(_head_to_head(100_000), eager_threshold=1024,
                               worst_case=True)
        assert report.codes() == ["TL401"]
        notes = [d.message for d in report.diagnostics]
        assert len(notes) == 2
        assert any("eager_threshold=1024" in note for note in notes)
        assert any("every send rendezvous" in note for note in notes)


class TestNoFalsePositives:
    """Every registered app, overlapped every way, must analyze clean."""

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    @pytest.mark.parametrize("chunking", [
        FixedSizeChunking(chunk_bytes=16384, max_chunks=64),
        FixedCountChunking(count=4),
    ], ids=["fixed-size", "fixed-count"])
    def test_app_and_all_variants_are_clean(self, name, chunking):
        options = {"num_ranks": 4}
        if name == "random-exchange":
            options["seed"] = 3
        environment = OverlapStudyEnvironment(chunking=chunking)
        original = environment.trace(create_application(name, **options))
        traces = [(f"{name}:original", original)]
        for mechanism_label in ("full", "early-send", "late-receive"):
            for pattern_label in ("real", "ideal"):
                pattern, mechanism = resolve_overlap_request(
                    pattern_label, mechanism_label)
                traces.append((
                    f"{name}:{pattern_label}+{mechanism_label}",
                    environment.overlap(original, pattern=pattern,
                                        mechanism=mechanism)))
        for label, trace in traces:
            report = analyze_trace(trace, worst_case=True, source=label)
            assert report.ok, f"{label}:\n{report.render_text()}"


_LOCATION = re.compile(r"at rank (\d+), record (\d+)")


def _runtime_location(trace, backend, pattern=_LOCATION):
    """Replay ``trace`` on ``backend``; the (rank, record) its
    SimulationError names."""
    with pytest.raises(SimulationError) as excinfo:
        ReplayEngine(trace, Platform(replay_backend=backend)).run()
    match = pattern.search(str(excinfo.value))
    assert match is not None, str(excinfo.value)
    return int(match.group(1)), int(match.group(2))


@pytest.mark.parametrize("backend", ["event", "adaptive"])
class TestStaticRuntimeAgreement:
    """The static diagnostic and the runtime error name the same location,
    on either backend."""

    def test_wait_unknown_request_locations_agree(self, backend):
        trace = _trace([IDLE, WaitRecord(requests=[9])], [IDLE])
        static = _only(analyze_trace(trace), "TL302")
        assert _runtime_location(trace, backend) == \
            (static.rank, static.record_index)

    def test_dangling_request_locations_agree(self, backend):
        trace = _trace(
            [RecvRecord(src=1, size=8, blocking=False, request=7), IDLE],
            [SendRecord(dst=0, size=8)])
        static = _only(analyze_trace(trace), "TL301")
        assert _runtime_location(trace, backend) == \
            (static.rank, static.record_index)

    def test_collective_mismatch_locations_agree(self, backend):
        # The burst delays rank 1, so the runtime coordinator sees rank 0's
        # entry first and anchors the mismatch on rank 1 -- the same rank
        # the static pass compares against its rank-0 reference.
        trace = _trace(
            [CollectiveRecord(operation="allreduce", size=64)],
            [CpuBurst(instructions=1000.0),
             CollectiveRecord(operation="reduce", size=64)])
        static = _only(analyze_trace(trace), "TL201")
        assert _runtime_location(trace, backend) == \
            (static.rank, static.record_index)

    @pytest.mark.parametrize("dst, code", [(1, "TL101"), (7, "TL103")],
                             ids=["never-received", "out-of-range"])
    def test_unmatched_send_locations_agree(self, dst, code, backend):
        # Every rank finishes, so only the unmatched-send check can fail
        # the replay: rank 0's eager send has no receive (TL101), or names
        # a rank the trace does not have (TL103).
        trace = _trace([IDLE, SendRecord(dst=dst, size=10, tag=0)], [IDLE])
        static = _only(analyze_trace(trace), code)
        located = re.compile(code + r" \S+ at rank (\d+), record (\d+)")
        assert _runtime_location(trace, backend, located) == \
            (static.rank, static.record_index)

    def test_deadlock_locations_agree(self, backend):
        trace = _head_to_head(100_000)
        static = _only(analyze_trace(trace), "TL401")
        stuck = re.compile(r"rank (\d+) stuck at record (\d+)")
        assert _runtime_location(trace, backend, stuck) == \
            (static.rank, static.record_index)
