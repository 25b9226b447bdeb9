"""Golden regression: FlatBus replays are bit-identical to the old fabric.

The topology refactor turned ``NetworkFabric._transfer`` into a generic
multi-hop pipeline; the default :class:`FlatBus` topology must reproduce the
pre-refactor single-hop fabric *bit for bit* -- same event ordering, same
float arithmetic, same statistics.  ``_LegacyNetworkFabric`` below is a
verbatim replica of the fabric as it stood before the refactor (PR 1 state:
fixed acquisition order, try/finally release); every scenario replays a full
trace through both fabrics on the event walk and compares the complete
simulation results with exact ``==``, never ``approx``.  The replica's
statistics aggregate by the current rule (exactly rounded sums), and its
communications must come out in the same completion order.
"""

import math

import pytest

from repro.des import Resource
from repro.des.resources import InfiniteResource
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.simulator import DimemasSimulator

import repro.dimemas.replay as replay_module


class _LegacyNetworkStatistics:
    """The pre-refactor counters, aggregated as exactly rounded sums."""

    def __init__(self):
        self.transfers = 0
        self.bytes_transferred = 0
        self.transfer_times = []
        self.queue_times = []
        self.intranode_transfers = 0

    def record(self, size, queue_time, transfer_time, intranode):
        self.transfers += 1
        self.bytes_transferred += size
        self.queue_times.append(queue_time)
        self.transfer_times.append(transfer_time)
        if intranode:
            self.intranode_transfers += 1

    @property
    def mean_queue_time(self):
        if not self.transfers:
            return 0.0
        return math.fsum(self.queue_times) / self.transfers

    @property
    def mean_transfer_time(self):
        if not self.transfers:
            return 0.0
        return math.fsum(self.transfer_times) / self.transfers

    @property
    def intranode_share(self):
        return self.intranode_transfers / self.transfers if self.transfers else 0.0

    def summary(self):
        return {
            "transfers": self.transfers,
            "bytes_transferred": self.bytes_transferred,
            "mean_queue_time": self.mean_queue_time,
            "mean_transfer_time": self.mean_transfer_time,
            "intranode_transfers": self.intranode_transfers,
            "intranode_share": self.intranode_share,
        }


class _LegacyNetworkFabric:
    """Replica of the flat-bus fabric exactly as it was before the refactor."""

    def __init__(self, env, platform, num_ranks, timeline=None):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self.timeline = timeline
        self.statistics = _LegacyNetworkStatistics()
        self._buses = self._make_resource(platform.num_buses, "buses")
        self._output_links = {}
        self._input_links = {}
        # The replay engine reads per-hop accumulators off the statistics;
        # the legacy fabric never recorded those.
        self.statistics.hop_queue_time = {}
        self.statistics.hop_transfers = {}

    def _make_resource(self, capacity, name):
        if capacity == 0:
            return InfiniteResource(self.env, name=name)
        return Resource(self.env, capacity=capacity, name=name)

    def _output_link(self, node):
        if node not in self._output_links:
            self._output_links[node] = self._make_resource(
                self.platform.output_links, f"out[{node}]")
        return self._output_links[node]

    def _input_link(self, node):
        if node not in self._input_links:
            self._input_links[node] = self._make_resource(
                self.platform.input_links, f"in[{node}]")
        return self._input_links[node]

    def start_transfer(self, message):
        self.env.process(self._transfer(message), name="transfer")

    def _transfer(self, message):
        platform = self.platform
        src_node = platform.node_of(message.src)
        dst_node = platform.node_of(message.dst)
        intranode = src_node == dst_node
        requested_at = self.env.now
        requests = []
        try:
            if not intranode:
                for resource in (self._output_link(src_node),
                                 self._input_link(dst_node), self._buses):
                    request = self.env.event()
                    resource.acquire(request)
                    requests.append((resource, request))
                    yield request
            message.transfer_start = self.env.now
            queue_time = self.env.now - requested_at
            duration = platform.transfer_time(message.size, intranode=intranode)
            yield self.env.timeout(duration)
        finally:
            for resource, request in requests:
                resource.release(request)
        message.arrival_time = self.env.now
        message.arrived.succeed(self.env.now)
        self.statistics.record(message.size, queue_time, duration, intranode)
        if self.timeline is not None:
            self.timeline.add_communication(
                src=message.src, dst=message.dst, size=message.size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)


def _legacy_simulate(trace, platform, monkeypatch):
    """Replay ``trace`` through the legacy fabric."""
    monkeypatch.setattr(replay_module, "NetworkFabric", _LegacyNetworkFabric)
    engine = ReplayEngine(trace, platform.with_replay_backend("event"))
    return engine.run()


def _current_simulate(trace, platform):
    engine = ReplayEngine(trace, platform.with_replay_backend("event"))
    return engine.run()


def _trace(app_name="nas-bt", ranks=8, iterations=2, overlap=False):
    from repro.apps.registry import create_application
    from repro.core.environment import OverlapStudyEnvironment
    from repro.core.patterns import ComputationPattern

    environment = OverlapStudyEnvironment()
    trace = environment.trace(
        create_application(app_name, num_ranks=ranks, iterations=iterations))
    if overlap:
        trace = environment.overlap(trace, pattern=ComputationPattern.IDEAL)
    return trace


SCENARIOS = {
    # Small messages stay below the default threshold -> all eager.
    "eager": Platform(bandwidth_mbps=250.0),
    # Threshold 0 forces every message through rendezvous.
    "rendezvous": Platform(bandwidth_mbps=250.0, eager_threshold=0),
    # Several ranks per node -> a mix of intranode and network transfers.
    "intranode": Platform(bandwidth_mbps=100.0, processors_per_node=4,
                          intranode_bandwidth_mbps=1000.0),
    # One bus and single links -> heavy queueing on every resource.
    "contended": Platform(bandwidth_mbps=25.0, num_buses=1,
                          input_links=1, output_links=1),
}


class TestFlatBusGolden:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("overlap", [False, True], ids=["original", "overlapped"])
    def test_replay_bit_identical_to_legacy_fabric(self, scenario, overlap,
                                                   monkeypatch):
        platform = SCENARIOS[scenario]
        trace = _trace(overlap=overlap)
        new_time, new_stats, new_timeline, new_network = _current_simulate(
            trace, platform)
        old_time, old_stats, old_timeline, old_network = _legacy_simulate(
            trace, platform, monkeypatch)

        assert new_time == old_time
        assert new_stats == old_stats  # dataclass equality, every field exact
        assert new_timeline.state_profile() == old_timeline.state_profile()
        assert new_timeline.communications == old_timeline.communications
        for key in ("transfers", "bytes_transferred", "mean_queue_time",
                    "mean_transfer_time", "intranode_transfers",
                    "intranode_share", "messages_matched"):
            assert new_network[key] == old_network[key], key

    def test_simulation_result_matches_legacy_totals(self, monkeypatch):
        """End-to-end through the simulator facade on the contended platform."""
        platform = SCENARIOS["contended"]
        trace = _trace(ranks=4, iterations=3)
        result = DimemasSimulator(
            platform.with_replay_backend("event")).simulate(trace)
        legacy_time, legacy_stats, _, _ = _legacy_simulate(
            trace, platform, monkeypatch)
        assert result.total_time == legacy_time
        assert result.ranks == legacy_stats
