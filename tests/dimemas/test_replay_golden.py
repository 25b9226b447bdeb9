"""Golden regression: the fast-path replay core is bit-identical to the
pre-refactor engine.

The fast-path refactor rebuilt the DES kernel (``__slots__`` events, lazy
names, ``schedule_timeout``, tightened drain loop), the per-rank replay loop
(opcode dispatch through prepared traces, hoisted lookups) and the matcher /
fabric hot paths.  The acceptance contract: simulation outputs -- total
time, per-rank statistics, network statistics and (when enabled) timelines
-- must match the pre-refactor engine *exactly*, across applications,
topologies and overlap mechanisms.

The reference is the embedded legacy-engine replica that also anchors
``benchmarks/bench_replay_core.py``: a verbatim copy of the pre-refactor
DES kernel, replay loop, matcher and fabric.  It is loaded by file path, so
these tests exercise the identical baseline the benchmark measures against.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.apps.registry import create_application
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine

_BENCH_PATH = (Path(__file__).resolve().parents[2]
               / "benchmarks" / "bench_replay_core.py")
_spec = importlib.util.spec_from_file_location("_bench_replay_core", _BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


APPS = ("nas-bt", "nas-cg", "sweep3d")
TOPOLOGIES = ("flat", "tree:radix=2", "torus:torus_width=2")
MECHANISMS = ("full", "early-send", "late-receive")


def _trace(app_name, overlap=None, mechanism="full", ranks=4, iterations=2):
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=4))
    trace = environment.trace(
        create_application(app_name, num_ranks=ranks, iterations=iterations))
    if overlap is not None:
        trace = environment.overlap(
            trace, pattern=ComputationPattern.from_label(overlap),
            mechanism=OverlapMechanism.from_label(mechanism))
    return trace


def _run_fast(trace, platform, collect_timeline=True):
    # The replica is an event-walk oracle, compared down to raw interval
    # order, so the production side runs the event walk too.
    engine = ReplayEngine(trace, platform.with_replay_backend("event"),
                          collect_timeline=collect_timeline)
    total_time, stats, timeline, network = engine.run()
    return total_time, stats, timeline, network


def _run_legacy(trace, platform):
    engine = bench.LegacyReplayEngine(trace, platform)
    total_time, stats, timeline = engine.run()
    statistics = engine.network.statistics
    network = dict(statistics.summary())
    network["messages_matched"] = engine.matcher.messages_matched
    network["topology"] = platform.topology.kind
    network["hop_queue_time"] = dict(statistics.hop_queue_time)
    network["hop_transfers"] = dict(statistics.hop_transfers)
    return total_time, stats, timeline, network


def _assert_identical(trace, platform):
    """Replay through both engines and compare the full result surface."""
    new_time, new_stats, new_timeline, new_network = _run_fast(trace, platform)
    old_time, old_stats, old_timeline, old_network = _run_legacy(trace, platform)
    assert new_time == old_time
    assert new_stats == old_stats  # dataclass equality, every field exact
    assert new_network == old_network
    assert new_timeline.intervals == old_timeline.intervals
    assert new_timeline.communications == old_timeline.communications


class TestGoldenAcrossAppsAndTopologies:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", APPS)
    def test_original_trace_bit_identical(self, app, topology):
        _assert_identical(_trace(app),
                          Platform(bandwidth_mbps=100.0, topology=topology))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", APPS)
    def test_overlapped_trace_bit_identical(self, app, topology):
        _assert_identical(_trace(app, overlap="ideal"),
                          Platform(bandwidth_mbps=100.0, topology=topology))


class TestGoldenAcrossMechanisms:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("pattern", ["real", "ideal"])
    def test_mechanism_variants_bit_identical(self, pattern, mechanism):
        trace = _trace("nas-bt", overlap=pattern, mechanism=mechanism)
        _assert_identical(trace, Platform(bandwidth_mbps=250.0))
        _assert_identical(trace, Platform(bandwidth_mbps=250.0,
                                          topology="tree:radix=2"))


class TestGoldenPlatformCorners:
    def test_rendezvous_protocol(self):
        _assert_identical(
            _trace("nas-cg"), Platform(bandwidth_mbps=100.0, eager_threshold=0))

    def test_contended_buses_and_links(self):
        _assert_identical(
            _trace("sweep3d"),
            Platform(bandwidth_mbps=25.0, num_buses=1, input_links=1,
                     output_links=1))

    def test_intranode_traffic(self):
        _assert_identical(
            _trace("nas-bt"),
            Platform(bandwidth_mbps=100.0, processors_per_node=4,
                     intranode_bandwidth_mbps=1000.0))

    def test_ideal_network(self):
        _assert_identical(_trace("nas-cg"), Platform.ideal_network())


class TestTimelineFreeReplay:
    def test_scalars_identical_with_null_recorder(self):
        trace = _trace("nas-bt", overlap="ideal")
        platform = Platform(bandwidth_mbps=100.0, topology="torus:torus_width=2")
        fast_time, fast_stats, fast_timeline, fast_network = _run_fast(
            trace, platform, collect_timeline=False)
        old_time, old_stats, _, old_network = _run_legacy(trace, platform)
        assert fast_time == old_time
        assert fast_stats == old_stats
        assert fast_network == old_network
        # The recorder dropped everything but stayed structurally valid.
        assert fast_timeline.collects is False
        assert fast_timeline.intervals == []
        assert fast_timeline.communications == []


class TestMpiOverheadAccountingSplit:
    """The overhead split keeps the old totals: compute + overhead = legacy
    compute, and the time behaviour itself is untouched."""

    def _platform(self):
        return Platform(bandwidth_mbps=100.0, mpi_overhead=2.0e-5)

    def test_total_time_and_timeline_unchanged(self):
        trace = _trace("nas-bt", overlap="ideal")
        new_time, _, new_timeline, new_network = _run_fast(trace, self._platform())
        old_time, _, old_timeline, old_network = _run_legacy(trace, self._platform())
        assert new_time == old_time
        assert new_network == old_network
        assert new_timeline.intervals == old_timeline.intervals

    def test_split_preserves_the_old_sum(self):
        trace = _trace("nas-bt", overlap="ideal")
        _, new_stats, _, _ = _run_fast(trace, self._platform())
        _, old_stats, _, _ = _run_legacy(trace, self._platform())
        for new, old in zip(new_stats, old_stats):
            # The legacy engine lumped the library cost into compute_time.
            assert new.mpi_overhead_time > 0.0
            assert old.mpi_overhead_time == 0.0
            assert new.busy_time == pytest.approx(old.compute_time, rel=1e-12)
            assert new.compute_time < old.compute_time
            # Everything else is exact.
            assert new.finish_time == old.finish_time
            assert new.send_wait_time == old.send_wait_time
            assert new.recv_wait_time == old.recv_wait_time
            assert new.request_wait_time == old.request_wait_time
            assert new.collective_time == old.collective_time
            assert new.bytes_sent == old.bytes_sent
            assert new.bytes_received == old.bytes_received
