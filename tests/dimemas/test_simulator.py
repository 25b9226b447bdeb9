"""Unit and behavioural tests for the replay simulator, on both backends."""

import pytest

from repro.dimemas import DimemasSimulator, Platform
from repro.errors import SimulationError
from repro.paraver.states import ThreadState
from repro.tracing.records import (
    CollectiveRecord,
    CpuBurst,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace, Trace

MIPS = 1000.0
INSTRUCTIONS_PER_MS = MIPS * 1.0e6 / 1000.0


@pytest.fixture(params=["event", "adaptive"])
def simulate(request):
    """Replay a trace through the simulator on each backend."""
    def run(trace, platform, label=None):
        platform = platform.with_replay_backend(request.param)
        return DimemasSimulator(platform).simulate(trace, label=label)
    return run


def _trace(rank_records, mips=MIPS, name="unit"):
    ranks = [RankTrace(rank=r, records=list(records))
             for r, records in enumerate(rank_records)]
    return Trace(ranks=ranks, mips=mips, metadata={"name": name})


class TestComputeOnly:
    def test_burst_duration_scaled_by_mips(self, simulate):
        trace = _trace([[CpuBurst(instructions=2.0e6)], [CpuBurst(instructions=1.0e6)]])
        result = simulate(trace, Platform())
        assert result.total_time == pytest.approx(0.002)
        assert result.rank(0).compute_time == pytest.approx(0.002)
        assert result.rank(1).compute_time == pytest.approx(0.001)

    def test_relative_cpu_speed_scales_time(self, simulate):
        trace = _trace([[CpuBurst(instructions=2.0e6)], [CpuBurst(instructions=2.0e6)]])
        slow = simulate(trace, Platform(relative_cpu_speed=1.0))
        fast = simulate(trace, Platform(relative_cpu_speed=2.0))
        assert fast.total_time == pytest.approx(slow.total_time / 2)

    def test_total_time_is_max_over_ranks(self, simulate):
        trace = _trace([[CpuBurst(instructions=5.0e6)], [CpuBurst(instructions=1.0e6)]])
        result = simulate(trace, Platform())
        assert result.total_time == pytest.approx(0.005)

    def test_ranks_sharing_a_node_compute_at_once(self, simulate):
        # A node hosts one rank per processor, so four ranks on one node
        # run their bursts side by side: no burst waits for another.
        trace = _trace([[CpuBurst(instructions=3.0e6)]] * 4)
        result = simulate(trace, Platform(processors_per_node=4))
        assert result.total_time == pytest.approx(0.003)
        assert [rank.compute_time for rank in result.ranks] == [
            pytest.approx(0.003)] * 4


class TestPointToPoint:
    def _pingpong(self, size):
        return _trace([
            [SendRecord(dst=1, size=size, tag=0)],
            [RecvRecord(src=0, size=size, tag=0)],
        ])

    def test_eager_transfer_time(self, simulate):
        platform = Platform(latency=1.0e-5, bandwidth_mbps=100.0, eager_threshold=10**6)
        result = simulate(self._pingpong(100_000), platform)
        expected = 1.0e-5 + 100_000 / 1.0e8
        assert result.total_time == pytest.approx(expected)
        assert result.rank(1).recv_wait_time == pytest.approx(expected)

    def test_eager_sender_does_not_block(self, simulate):
        platform = Platform(latency=1.0e-5, bandwidth_mbps=100.0, eager_threshold=10**6)
        result = simulate(self._pingpong(100_000), platform)
        assert result.rank(0).send_wait_time == pytest.approx(0.0, abs=1e-9)

    def test_rendezvous_sender_blocks_until_delivery(self, simulate):
        platform = Platform(latency=1.0e-5, bandwidth_mbps=100.0, eager_threshold=0)
        result = simulate(self._pingpong(100_000), platform)
        expected = 1.0e-5 + 100_000 / 1.0e8
        assert result.rank(0).send_wait_time == pytest.approx(expected)

    def test_rendezvous_waits_for_late_receiver(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=0)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=0)],
            [CpuBurst(instructions=5.0e6), RecvRecord(src=0, size=1_000_000, tag=0)],
        ])
        result = simulate(trace, platform)
        # Transfer (10 ms) starts only after the receiver posts at 5 ms.
        assert result.total_time == pytest.approx(0.005 + 0.01)

    def test_eager_transfer_overlaps_receiver_compute(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=0)],
            [CpuBurst(instructions=5.0e6), RecvRecord(src=0, size=1_000_000, tag=0)],
        ])
        result = simulate(trace, platform)
        # Transfer finishes at 10 ms while the receiver computes until 5 ms.
        assert result.total_time == pytest.approx(0.01)

    def test_infinite_bandwidth_leaves_only_latency(self, simulate):
        platform = Platform(latency=3.0e-6, bandwidth_mbps=0.0)
        result = simulate(self._pingpong(10**8), platform)
        assert result.total_time == pytest.approx(3.0e-6)

    def test_messages_matched_by_tag(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=1),
             SendRecord(dst=1, size=100, tag=2)],
            [RecvRecord(src=0, size=100, tag=2),
             RecvRecord(src=0, size=1_000_000, tag=1)],
        ])
        result = simulate(trace, platform)
        # The two transfers serialise on the single output link: the small
        # tag-2 message leaves only after the large tag-1 message.
        assert result.total_time == pytest.approx(0.01 + 100 / 1.0e8)

    def test_nonblocking_wait_semantics(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=0, blocking=False, request=0),
             CpuBurst(instructions=20.0e6), WaitRecord(requests=[0])],
            [RecvRecord(src=0, size=1_000_000, tag=0, blocking=False, request=0),
             CpuBurst(instructions=2.0e6), WaitRecord(requests=[0])],
        ])
        result = simulate(trace, platform)
        # Receiver: irecv at t=0, compute 2 ms, wait until transfer ends (10 ms).
        assert result.rank(1).finish_time == pytest.approx(0.01)
        assert result.rank(1).request_wait_time == pytest.approx(0.008)
        # Sender computes 20 ms and never waits.
        assert result.rank(0).finish_time == pytest.approx(0.02)

    def test_bidirectional_exchange(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7)
        trace = _trace([
            [SendRecord(dst=1, size=500_000, tag=0), RecvRecord(src=1, size=500_000, tag=0)],
            [SendRecord(dst=0, size=500_000, tag=0), RecvRecord(src=0, size=500_000, tag=0)],
        ])
        result = simulate(trace, platform)
        assert result.total_time == pytest.approx(0.005)
        assert result.network["transfers"] == 2


class TestContention:
    def test_output_link_serializes_sends(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7,
                            output_links=1, input_links=0, num_buses=0)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=0),
             SendRecord(dst=2, size=1_000_000, tag=0)],
            [RecvRecord(src=0, size=1_000_000, tag=0)],
            [RecvRecord(src=0, size=1_000_000, tag=0)],
        ])
        result = simulate(trace, platform)
        assert result.total_time == pytest.approx(0.02)

    def test_unlimited_links_allow_parallel_sends(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7,
                            output_links=0, input_links=0, num_buses=0)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=0),
             SendRecord(dst=2, size=1_000_000, tag=0)],
            [RecvRecord(src=0, size=1_000_000, tag=0)],
            [RecvRecord(src=0, size=1_000_000, tag=0)],
        ])
        result = simulate(trace, platform)
        assert result.total_time == pytest.approx(0.01)

    def test_buses_limit_global_concurrency(self, simulate):
        platform = Platform(latency=0.0, bandwidth_mbps=100.0, eager_threshold=10**7,
                            output_links=0, input_links=0, num_buses=1)
        trace = _trace([
            [SendRecord(dst=2, size=1_000_000, tag=0)],
            [SendRecord(dst=3, size=1_000_000, tag=0)],
            [RecvRecord(src=0, size=1_000_000, tag=0)],
            [RecvRecord(src=1, size=1_000_000, tag=0)],
        ])
        result = simulate(trace, platform)
        assert result.total_time == pytest.approx(0.02)

    def test_intranode_messages_skip_the_network(self, simulate):
        platform = Platform(latency=1.0, bandwidth_mbps=100.0,
                            processors_per_node=2, eager_threshold=10**7,
                            intranode_latency=1.0e-6,
                            intranode_bandwidth_mbps=1000.0)
        trace = _trace([
            [SendRecord(dst=1, size=1_000_000, tag=0)],
            [RecvRecord(src=0, size=1_000_000, tag=0)],
        ])
        result = simulate(trace, platform)
        assert result.total_time == pytest.approx(1.0e-6 + 0.001)
        assert result.network["intranode_transfers"] == 1


class TestCollectivesAndErrors:
    def test_collective_synchronizes_all_ranks(self, simulate):
        platform = Platform(latency=1.0e-5, bandwidth_mbps=100.0)
        trace = _trace([
            [CpuBurst(instructions=1.0e6), CollectiveRecord(operation="barrier", comm_size=2)],
            [CpuBurst(instructions=3.0e6), CollectiveRecord(operation="barrier", comm_size=2)],
        ])
        result = simulate(trace, platform)
        assert result.rank(0).finish_time == pytest.approx(result.rank(1).finish_time)
        assert result.rank(0).collective_time > result.rank(1).collective_time

    def test_collective_operation_mismatch_raises(self, simulate):
        trace = _trace([
            [CollectiveRecord(operation="barrier", comm_size=2)],
            [CollectiveRecord(operation="allreduce", comm_size=2)],
        ])
        with pytest.raises(SimulationError):
            simulate(trace, Platform())

    def test_deadlock_reported(self, simulate):
        trace = _trace([
            [RecvRecord(src=1, size=100, tag=0)],
            [RecvRecord(src=0, size=100, tag=0)],
        ])
        with pytest.raises(SimulationError, match="deadlock"):
            simulate(trace, Platform())

    def test_wait_on_unknown_request_raises(self, simulate):
        trace = _trace([
            [WaitRecord(requests=[5])],
            [CpuBurst(instructions=1.0)],
        ])
        with pytest.raises(SimulationError):
            simulate(trace, Platform())


class TestResultContents:
    def test_timeline_and_stats_consistent(self, small_loop, environment, simulate):
        trace = environment.trace(small_loop)
        result = simulate(trace, Platform())
        result.timeline.validate()
        assert result.timeline.duration == pytest.approx(result.total_time)
        running = result.timeline.time_in_state(ThreadState.RUNNING)
        assert running == pytest.approx(result.total_compute_time(), rel=1e-6)
        assert 0.0 < result.parallel_efficiency() <= 1.0

    def test_bytes_accounted(self, small_loop, environment, simulate):
        trace = environment.trace(small_loop)
        result = simulate(trace, Platform())
        expected = sum(rank.bytes_sent() for rank in trace)
        assert sum(r.bytes_sent for r in result.ranks) == expected
        assert result.network["bytes_transferred"] == expected

    def test_label_recorded(self, small_loop, environment, simulate):
        trace = environment.trace(small_loop)
        result = simulate(trace, Platform(), label="my-label")
        assert result.metadata["label"] == "my-label"
        assert result.describe()["label"] == "my-label"
