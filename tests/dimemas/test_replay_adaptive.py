"""Acceptance tests of the adaptive replay backend.

The adaptive backend (``replay_backend="adaptive"``) classifies a cell's
replay into windows and fast-forwards them with closed-form per-rank time
recurrences; cells it cannot fast-forward (decomposed collectives, CPU
contention, defective traces, contended cells under a zero error bound)
run the event backend's own walk.  Its contract is weaker than
bit-identity to the event backend, and these tests pin exactly that
contract:

* every cell's total time is within the configured
  ``max_relative_error`` of the event backend (contended or not);
* on *proven* contention-free cells (no finite buses or links, or an
  ideal network) the results are bit-identical: total time, per-rank
  statistics and timeline intervals match the event backend exactly;
* a matrix of platform corners, collective models and overlap
  mechanisms -- fast-forwarded and DES-fallback alike -- matches the
  event backend bit for bit, and defective traces raise the event
  backend's errors;
* parallel sweeps (``jobs>1``) are deterministic and identical to the
  serial run.

Two representational differences are tolerated everywhere: the global
*order* of the recorded communications may differ (the adaptive backend
records a transfer when its wire slot ends, the event backend one event
generation later), and aggregate network statistics may differ in the
last ulp from float summation order.  Content is compared sorted, and
aggregates with a 1e-9 relative tolerance; the per-rank simulated
numbers themselves are compared exactly.
"""

import pytest

from repro.apps.registry import APPLICATIONS, create_application
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.simulator import DimemasSimulator
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import Experiment, run_experiment
from repro.tracing.records import CpuBurst, RecvRecord, SendRecord, WaitRecord
from repro.tracing.trace import RankTrace, Trace

ALL_APPS = tuple(sorted(APPLICATIONS))
TOPOLOGIES = ("flat", "tree:radix=2", "torus:torus_width=2")
MECHANISMS = ("full", "early-send", "late-receive")

#: Contended grid point: finite links force transfers through the queues.
CONTENDED = {
    "flat": Platform(bandwidth_mbps=50.0, input_links=1, output_links=1),
    "tree:radix=2": Platform(bandwidth_mbps=50.0,
                             topology="tree:radix=2,links=1"),
    "torus:torus_width=2": Platform(bandwidth_mbps=50.0,
                                    topology="torus:torus_width=2,links=1"),
}

#: Proven contention-free grid point for the same three shapes.
PROVEN = {
    "flat": Platform(bandwidth_mbps=50.0, num_buses=0,
                     input_links=0, output_links=0),
    "tree:radix=2": Platform(bandwidth_mbps=50.0,
                             topology="tree:radix=2,links=0"),
    "torus:torus_width=2": Platform(bandwidth_mbps=50.0,
                                    topology="torus:torus_width=2,links=0"),
}

_TRACES = {}


def _trace(app_name, overlap=None, mechanism="full", ranks=4, iterations=2):
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


def _run(trace, platform, backend):
    engine = ReplayEngine(trace, platform.with_replay_backend(backend))
    return engine, engine.run()


def _interval_key(interval):
    return (interval.rank, interval.start, interval.end, interval.state)


def _communication_key(comm):
    return (comm.src, comm.dst, comm.send_time, comm.recv_time,
            comm.size, comm.tag)


def _assert_network_close(adaptive, event):
    """Aggregate network statistics, allowing last-ulp summation noise."""
    assert adaptive.keys() == event.keys()
    for key, expected in event.items():
        got = adaptive[key]
        if isinstance(expected, dict):
            assert got.keys() == expected.keys()
            for hop, hop_value in expected.items():
                assert got[hop] == pytest.approx(hop_value, rel=1e-9, abs=0.0)
        elif isinstance(expected, float):
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0)
        else:
            assert got == expected


def _assert_within_bound(trace, platform):
    engine, adaptive = _run(trace, platform, "adaptive")
    _, event = _run(trace, platform, "event")
    adaptive_time, adaptive_stats = adaptive[0], adaptive[1]
    event_time, event_stats = event[0], event[1]
    summary = engine.adaptive_summary
    assert summary is not None and summary["backend"] == "adaptive"
    bound = summary["error_bound"]
    assert bound <= platform.max_relative_error
    assert adaptive_time == pytest.approx(event_time, rel=max(bound, 1e-12))
    for got, expected in zip(adaptive_stats, event_stats):
        assert got.finish_time == pytest.approx(expected.finish_time,
                                                rel=max(bound, 1e-12))
    return engine, adaptive, event


def _assert_bit_exact(trace, platform):
    engine, adaptive = _run(trace, platform, "adaptive")
    _, event = _run(trace, platform, "event")
    adaptive_time, adaptive_stats, adaptive_timeline, adaptive_network = adaptive
    event_time, event_stats, event_timeline, event_network = event
    assert adaptive_time == event_time
    assert adaptive_stats == event_stats  # dataclass equality, every field
    assert (sorted(adaptive_timeline.intervals, key=_interval_key)
            == sorted(event_timeline.intervals, key=_interval_key))
    assert (sorted(adaptive_timeline.communications, key=_communication_key)
            == sorted(event_timeline.communications, key=_communication_key))
    _assert_network_close(adaptive_network, event_network)
    return engine


class TestAdaptiveWithinBoundAcrossApps:
    """Every registered app, contended and proven, on all three shapes."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_contended_original_trace_within_bound(self, app, topology):
        _assert_within_bound(_trace(app), CONTENDED[topology])

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_contended_overlapped_trace_within_bound(self, app, topology):
        _assert_within_bound(_trace(app, overlap="ideal"), CONTENDED[topology])


class TestAdaptiveAcrossMechanisms:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_mechanism_variants_within_bound(self, topology, mechanism):
        trace = _trace("nas-bt", overlap="ideal", mechanism=mechanism)
        _assert_within_bound(trace, CONTENDED[topology])

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_mechanism_variants_exact_when_proven(self, mechanism):
        trace = _trace("nas-cg", overlap="ideal", mechanism=mechanism)
        engine = _assert_bit_exact(trace, PROVEN["flat"])
        assert engine.adaptive_summary["proven_exact"] is True


class TestProvenWindowsExact:
    """No finite buses or links: every window is proven contention-free and
    the fast-forward must be bit-identical, not merely within the bound."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_proven_cells_bit_exact(self, app, topology):
        engine = _assert_bit_exact(_trace(app), PROVEN[topology])
        summary = engine.adaptive_summary
        assert summary["proven_exact"] is True
        assert summary["error_bound"] == 0.0
        assert summary["proven_windows"] == summary["windows"]

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_ideal_network_bit_exact(self, app):
        engine = _assert_bit_exact(_trace(app), Platform.ideal_network())
        assert engine.adaptive_summary["proven_exact"] is True


class TestPlatformCorners:
    """Corners the adaptive walk fast-forwards: bit-identical to event."""

    def _assert_fast_forward_exact(self, trace, platform):
        engine = _assert_bit_exact(trace, platform)
        assert engine.adaptive_summary["mode"] == "fast-forward"

    def test_mpi_overhead(self):
        self._assert_fast_forward_exact(
            _trace("nas-bt", overlap="ideal"),
            Platform(bandwidth_mbps=100.0, mpi_overhead=2.0e-5))

    def test_rendezvous_protocol(self):
        self._assert_fast_forward_exact(
            _trace("nas-cg"),
            Platform(bandwidth_mbps=100.0, eager_threshold=0))

    def test_contended_buses_and_links(self):
        self._assert_fast_forward_exact(
            _trace("sweep3d"),
            Platform(bandwidth_mbps=25.0, num_buses=1, input_links=1,
                     output_links=1))

    def test_ideal_network(self):
        self._assert_fast_forward_exact(
            _trace("nas-cg"), Platform.ideal_network())

    def test_equal_intranode_timing(self):
        # Intranode and internode transfers of the same size complete at
        # the same instant: adversarial for any reordering of same-time
        # completions.
        self._assert_fast_forward_exact(
            _trace("sweep3d"),
            Platform(bandwidth_mbps=100.0, latency=1.0e-6,
                     processors_per_node=2,
                     intranode_bandwidth_mbps=100.0,
                     intranode_latency=1.0e-6))


class TestDesFallbackCorners:
    """Cells adaptive cannot fast-forward run the event walk itself."""

    def _assert_fallback_exact(self, trace, platform):
        engine = _assert_bit_exact(trace, platform)
        assert engine.adaptive_summary["mode"] == "des-fallback"
        return engine.adaptive_summary["fallback_reason"]

    def test_decomposed_collectives_on_a_torus(self):
        reason = self._assert_fallback_exact(
            _trace("nas-cg", overlap="ideal"),
            Platform(bandwidth_mbps=100.0, collective_model="decomposed",
                     topology="torus:torus_width=2"))
        assert "decomposed collectives" in reason

    def test_cpu_contention_with_intranode_traffic(self):
        reason = self._assert_fallback_exact(
            _trace("nas-bt"),
            Platform(bandwidth_mbps=100.0, processors_per_node=4,
                     cpu_contention=True, intranode_bandwidth_mbps=1000.0))
        assert "CPU contention" in reason

    def test_zero_error_bound_on_a_contended_cell(self):
        reason = self._assert_fallback_exact(
            _trace("sweep3d"),
            Platform(bandwidth_mbps=25.0, num_buses=1, input_links=1,
                     output_links=1, max_relative_error=0.0))
        assert reason.startswith("max_relative_error=0")


class TestAcrossCollectiveModels:
    """``analytical`` collectives fast-forward; ``decomposed`` ones route
    collective traffic through the fabric and run the event walk.  Both
    must match the event backend bit for bit."""

    @pytest.mark.parametrize("model, mode", [("analytical", "fast-forward"),
                                             ("decomposed", "des-fallback")])
    @pytest.mark.parametrize("app", ("nas-bt", "nas-cg", "sweep3d"))
    def test_collective_models_bit_exact(self, app, model, mode):
        engine = _assert_bit_exact(
            _trace(app), Platform(bandwidth_mbps=100.0, collective_model=model))
        assert engine.adaptive_summary["mode"] == mode


class TestDesFallbackAcrossMechanisms:
    """Overlapped traces of every pattern and mechanism, on both DES-fallback
    causes that a well-formed trace can hit: CPU contention with mixed
    intra- and internode traffic, and decomposed collectives on a tree."""

    FALLBACK_PLATFORMS = (
        Platform(bandwidth_mbps=250.0, processors_per_node=2,
                 cpu_contention=True, intranode_bandwidth_mbps=1000.0),
        Platform(bandwidth_mbps=250.0, topology="tree:radix=2",
                 collective_model="decomposed"),
    )

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("pattern", ["real", "ideal"])
    def test_mechanism_variants_bit_exact(self, pattern, mechanism):
        trace = _trace("nas-bt", overlap=pattern, mechanism=mechanism)
        for platform in self.FALLBACK_PLATFORMS:
            engine = _assert_bit_exact(trace, platform)
            assert engine.adaptive_summary["mode"] == "des-fallback"


class TestLeftoverRequests:
    """A non-blocking request never waited on is a malformed trace; both
    backends must name the rank and the dangling request ids."""

    def _trace_with_dangling_request(self):
        return Trace(ranks=[
            RankTrace(rank=0, records=[
                CpuBurst(instructions=1.0e6),
                SendRecord(dst=1, size=1000, tag=0, blocking=False, request=7),
                SendRecord(dst=1, size=1000, tag=1, blocking=False, request=9),
                CpuBurst(instructions=1.0e6),
            ]),
            RankTrace(rank=1, records=[
                RecvRecord(src=0, size=1000, tag=0),
                RecvRecord(src=0, size=1000, tag=1),
            ]),
        ], mips=1000.0, metadata={"name": "dangling"})

    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_dangling_requests_raise(self, backend):
        platform = Platform(bandwidth_mbps=100.0, replay_backend=backend)
        engine = ReplayEngine(self._trace_with_dangling_request(), platform)
        with pytest.raises(SimulationError,
                           match=r"TL301 dangling-request at rank 0, "
                                 r"record 1: .*7, 9"):
            engine.run()

    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_waited_requests_do_not_raise(self, backend):
        trace = Trace(ranks=[
            RankTrace(rank=0, records=[
                SendRecord(dst=1, size=1000, tag=0, blocking=False, request=7),
                WaitRecord(requests=[7]),
            ]),
            RankTrace(rank=1, records=[RecvRecord(src=0, size=1000, tag=0)]),
        ], mips=1000.0, metadata={"name": "waited"})
        ReplayEngine(trace, Platform(bandwidth_mbps=100.0,
                                     replay_backend=backend)).run()


class TestReplayBackendKnob:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="replay_backend"):
            Platform(replay_backend="bytecode")

    def test_with_replay_backend_round_trip(self):
        platform = Platform(bandwidth_mbps=100.0)
        assert platform.replay_backend == "event"
        adaptive = platform.with_replay_backend("adaptive")
        assert adaptive.replay_backend == "adaptive"
        assert adaptive.bandwidth_mbps == platform.bandwidth_mbps

    def test_builder_sets_the_backend(self):
        spec = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                .bandwidths(100.0)
                .replay_backend("adaptive")
                .build())
        assert spec.platform_dict()["replay_backend"] == "adaptive"


class TestAdaptiveMetadata:
    def test_simulator_attaches_the_summary(self):
        platform = CONTENDED["flat"].with_replay_backend("adaptive")
        result = DimemasSimulator(platform).simulate(_trace("nas-bt"))
        summary = result.metadata["adaptive"]
        assert summary["backend"] == "adaptive"
        assert summary["mode"] in ("fast-forward", "des-fallback")
        assert summary["error_bound"] <= platform.max_relative_error

    def test_exact_backends_attach_nothing(self):
        result = DimemasSimulator(
            CONTENDED["flat"]).simulate(_trace("nas-bt"))
        assert "adaptive" not in result.metadata

    def test_zero_bound_forces_exact_results(self):
        # max_relative_error=0.0 still fast-forwards proven windows; on
        # contended cells the achieved bound must also be 0.0 (the backend
        # may not approximate when the user forbids it).
        platform = CONTENDED["flat"].with_max_relative_error(0.0)
        engine, adaptive, event = _assert_within_bound(
            _trace("sweep3d"), platform)
        assert engine.adaptive_summary["error_bound"] == 0.0
        assert adaptive[0] == event[0]

    def test_experiment_rows_carry_the_replay_metadata(self):
        spec = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                .patterns("ideal")
                .chunk_count(4)
                .bandwidths(100.0)
                .replay_backend("adaptive")
                .max_relative_error(0.005)
                .build())
        result = run_experiment(spec)
        assert result.metadata["replay"] == {
            "backend": "adaptive", "max_relative_error": 0.005}


class TestParallelSweepDeterminism:
    def test_jobs_gt_one_is_deterministic_and_matches_serial(self):
        def rows(jobs):
            spec = (Experiment.for_app("sancho-loop", num_ranks=4,
                                       iterations=2)
                    .patterns("ideal")
                    .chunk_count(4)
                    .bandwidths(50.0, 500.0, 5000.0)
                    .topologies("flat", "tree:radix=2,links=1")
                    .replay_backend("adaptive")
                    .jobs(jobs)
                    .build())
            return [{key: value for key, value in row.items()
                     if key != "task_seconds"}
                    for row in run_experiment(spec).to_rows()]

        first_parallel = rows(2)
        assert first_parallel == rows(2)  # deterministic across runs
        assert first_parallel == rows(1)  # and identical to serial
