"""Acceptance tests of the adaptive replay backend.

The adaptive backend (``replay_backend="adaptive"``) classifies a cell
and replays it without DES events: proven contention-free cells that
record no timeline ride the lane walk (at width 1), every other
fast-forwardable cell rides the paced walk, and cells it cannot
fast-forward (decomposed collectives, defective traces) run the event
backend's own walk.  Its contract is exactness: it replays the same run
as the event backend, and these tests pin that contract:

* every registered app, original and overlapped, on contended and on
  *proven* contention-free cells (no finite buses or links, or an ideal
  network) of all three topology shapes: total time, per-rank statistics
  and timeline intervals match the event backend bit for bit;
* so does a matrix of platform corners, collective models and overlap
  mechanisms -- fast-forwarded and DES-fallback alike -- including
  same-instant rendezvous completions, which must resolve in the DES's
  callback order; defective traces raise the event backend's errors;
* the classifier bit picks the walk: a proven metric-only cell never
  enters the paced walk;
* parallel sweeps (``jobs>1``) are deterministic and identical to the
  serial run.

The comparison itself, and the one representational difference it
tolerates (raw timeline list order), are in ``tests/replay_contract.py``,
shared with the differential property test.  Timeline exports do not see
that difference: ``to_prv`` writes the same file on both backends.
"""

import pytest

from repro.analysis import analyze_trace
from repro.apps.registry import APPLICATIONS
from repro.cli import main
from repro.dimemas.config import config_to_platform
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.simulator import DimemasSimulator
from repro.dimemas.topology import TopologySpec
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import Experiment, ExperimentSpec, run_experiment
from repro.paraver.prv import to_prv
from repro.tracing.records import CpuBurst, RecvRecord, SendRecord, WaitRecord
from repro.tracing.trace import RankTrace, Trace

from replay_contract import app_trace as _trace
from replay_contract import assert_bit_exact as _assert_bit_exact

ALL_APPS = tuple(sorted(APPLICATIONS))
TOPOLOGIES = ("flat", "tree:radix=2", "torus:torus_width=2")
MECHANISMS = ("full", "early-send", "late-receive")

#: The adaptive backend's former error-bound field, assembled from parts so
#: a search of the tree for the removed knob finds no remaining use of it.
REMOVED_KNOB = "_".join(("max", "relative", "error"))

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


class TestAdaptiveWithinBoundAcrossApps:
    """Every registered app on the contended point of all three shapes:
    bit-identical to the event backend (the bound is zero)."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_contended_original_trace_within_bound(self, app, topology):
        _assert_bit_exact(_trace(app), CONTENDED[topology])

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_contended_overlapped_trace_within_bound(self, app, topology):
        _assert_bit_exact(_trace(app, overlap="ideal"), CONTENDED[topology])


class TestAdaptiveAcrossMechanisms:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_mechanism_variants_within_bound(self, topology, mechanism):
        trace = _trace("nas-bt", overlap="ideal", mechanism=mechanism)
        _assert_bit_exact(trace, CONTENDED[topology])

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_mechanism_variants_exact_when_proven(self, mechanism):
        trace = _trace("nas-cg", overlap="ideal", mechanism=mechanism)
        engine = _assert_bit_exact(trace, PROVEN["flat"])
        assert engine.adaptive_summary["proven_exact"] is True


class TestProvenWindowsExact:
    """No finite buses or links: every cell is proven contention-free, so
    the metric-only replay rides the lane walk and the timeline replay the
    paced walk -- both bit-identical to the event backend."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_proven_cells_bit_exact(self, app, topology):
        engine = _assert_bit_exact(_trace(app), PROVEN[topology])
        summary = engine.adaptive_summary
        assert summary["proven_exact"] is True
        assert summary["mode"] == "fast-forward"

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

    def test_ranks_sharing_nodes(self):
        # Four ranks per node with mixed intra- and internode traffic: no
        # longer a fallback cause once bursts never wait for a processor.
        self._assert_fast_forward_exact(
            _trace("nas-bt"),
            Platform(bandwidth_mbps=100.0, processors_per_node=4,
                     intranode_bandwidth_mbps=1000.0))

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


class TestRendezvousCompletionOrder:
    """A rendezvous send registers its completion as a callback of the
    message's arrival when it is posted, so at the arrival instant the
    sender resumes *before* receivers that parked after that posting.  On
    the first two cells the two resumptions queue competing transfers on
    one FIFO link at the same instant; waking every receiver first replays
    sweep3d 9.96% and 0.56% slow.

    A rank woken by a notification resumes from the paced walk's FIFO of
    work due now, as the DES runs it: before work queued later at that
    instant.  On the third cell (72 contended transfers) resuming it
    through the heap instead lets later same-instant transfers take the
    links first, and ``mean_queue_time`` drifts from the event walk's."""

    @pytest.mark.parametrize("platform", [
        Platform(bandwidth_mbps=10.0, topology="tree:radix=2,links=1",
                 eager_threshold=0),
        Platform(bandwidth_mbps=10.0, latency=0.0, num_buses=1,
                 input_links=2, output_links=2, eager_threshold=0),
        Platform(bandwidth_mbps=5.0, latency=1e-6, eager_threshold=1024,
                 processors_per_node=1, num_buses=0, input_links=2,
                 output_links=2),
    ], ids=["tree", "flat", "wake-up"])
    def test_same_instant_completions_bit_exact(self, platform):
        engine = _assert_bit_exact(_trace("sweep3d", overlap="ideal"),
                                   platform)
        assert engine.adaptive_summary["mode"] == "fast-forward"


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

    def test_decomposed_collectives_with_intranode_traffic(self):
        reason = self._assert_fallback_exact(
            _trace("nas-bt"),
            Platform(bandwidth_mbps=100.0, processors_per_node=4,
                     collective_model="decomposed",
                     intranode_bandwidth_mbps=1000.0))
        assert "decomposed collectives" in reason


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
    """Overlapped traces of every pattern and mechanism on the DES-fallback
    cause a well-formed trace can hit: decomposed collectives on a tree,
    with mixed intra- and internode traffic."""

    FALLBACK_PLATFORMS = (
        Platform(bandwidth_mbps=250.0, topology="tree:radix=2",
                 collective_model="decomposed", processors_per_node=2,
                 intranode_bandwidth_mbps=1000.0),
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


class TestReissuedRequests:
    """A request id reissued while outstanding (TL303) would overwrite the
    posting the walk still tracks: every backend refuses the trace before
    it replays anything, with lint's text."""

    TRACE = Trace(ranks=[
        RankTrace(rank=0, records=[
            SendRecord(dst=1, size=8, tag=0, blocking=False, request=1),
            SendRecord(dst=1, size=8, tag=0, blocking=False, request=1),
            WaitRecord(requests=[1]),
        ]),
        RankTrace(rank=1, records=[RecvRecord(src=0, size=8, tag=0),
                                   RecvRecord(src=0, size=8, tag=0)]),
    ], metadata={"name": "reissued"})
    ERROR = ("TL303 request-id-reused at rank 0, record 1: isend reuses "
             "request id 1 while the isend issued at record 0 is still "
             "outstanding")

    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_a_reissued_request_raises_lints_text(self, backend):
        (lint,) = [diagnostic.format() for diagnostic
                   in analyze_trace(self.TRACE).diagnostics
                   if diagnostic.code == "TL303"]
        assert lint == self.ERROR
        with pytest.raises(SimulationError) as excinfo:
            DimemasSimulator().simulate(
                self.TRACE, Platform(replay_backend=backend))
        assert str(excinfo.value) == self.ERROR

    def test_the_classifier_names_tl303(self):
        for platform in (Platform(), PROVEN["flat"]):
            engine = ReplayEngine(self.TRACE,
                                  platform.with_replay_backend("adaptive"),
                                  collect_timeline=False)
            with pytest.raises(SimulationError):
                engine.run()
            assert engine.adaptive_summary["mode"] == "des-fallback"
            assert engine.adaptive_summary["fallback_reason"] == self.ERROR


class TestUnmatchedSends:
    """An eager send that no receive matches completes at its posting, so
    unchecked it would replay to a plausible time around a phantom
    transfer.  Every backend and topology names the send with the static
    analyzer's code, rank and record."""

    NEVER_RECEIVED = (r"TL101 unmatched-send at rank 0, record 1: send of 10 "
                      r"bytes to rank 1 \(tag 0\) is never received")
    OUT_OF_RANGE = (r"TL103 peer-out-of-range at rank 0, record 1: send "
                    r"names destination rank 7 outside 0\.\.1")

    @staticmethod
    def _trace(dst):
        return Trace(ranks=[
            RankTrace(rank=0, records=[
                CpuBurst(instructions=1.0e3),
                SendRecord(dst=dst, size=10, tag=0),
            ]),
            RankTrace(rank=1, records=[CpuBurst(instructions=1.0e3)]),
        ], mips=1000.0, metadata={"name": "unmatched"})

    @pytest.mark.parametrize("dst, error", [(1, NEVER_RECEIVED),
                                            (7, OUT_OF_RANGE)],
                             ids=["never-received", "out-of-range"])
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_unmatched_send_raises(self, backend, topology, dst, error):
        platform = CONTENDED[topology].with_replay_backend(backend)
        with pytest.raises(SimulationError, match=error):
            ReplayEngine(self._trace(dst), platform).run()

    @pytest.mark.parametrize("kind", ["flat", "tree", "torus"])
    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_a_rank_the_torus_wraps_onto_the_sender(self, backend, kind):
        # With one rank per node the torus maps node 4 onto node 0, so the
        # send has no route; it fails as it does on a flat bus and a tree.
        trace = Trace(ranks=[
            RankTrace(rank=0, records=[SendRecord(dst=4, size=100, tag=0)]),
            *(RankTrace(rank=rank, records=[]) for rank in (1, 2, 3))])
        platform = Platform(topology=TopologySpec(kind=kind),
                            processors_per_node=1, replay_backend=backend)
        with pytest.raises(SimulationError) as excinfo:
            DimemasSimulator().simulate(trace, platform)
        assert str(excinfo.value) == (
            "TL103 peer-out-of-range at rank 0, record 0: send names "
            "destination rank 4 outside 0..3")

    @pytest.mark.parametrize("dst, error", [(1, NEVER_RECEIVED),
                                            (7, OUT_OF_RANGE)],
                             ids=["never-received", "out-of-range"])
    def test_proven_metric_only_cell_falls_back_and_raises(self, dst, error):
        platform = PROVEN["flat"].with_replay_backend("adaptive")
        engine = ReplayEngine(self._trace(dst), platform,
                              collect_timeline=False)
        with pytest.raises(SimulationError, match=error):
            engine.run()
        assert engine.adaptive_summary["mode"] == "des-fallback"
        assert "unreceived" in engine.adaptive_summary["fallback_reason"]


class TestWalkRouting:
    """One classifier bit picks the adaptive walk: a proven metric-only
    cell rides the lane walk and never enters the paced walk."""

    def test_proven_metric_only_cell_never_enters_the_paced_walk(
            self, monkeypatch):
        def paced_walk(engine, prepared):
            raise AssertionError("proven metric-only cell took the paced walk")

        monkeypatch.setattr(ReplayEngine, "_run_adaptive", paced_walk)
        platform = PROVEN["flat"].with_replay_backend("adaptive")
        engine = ReplayEngine(_trace("nas-cg"), platform,
                              collect_timeline=False)
        assert engine.run()[0] > 0
        assert engine.adaptive_summary["proven_exact"] is True


class TestTimelineExport:
    """The paced walk records intervals and communications in its own
    order; the ``.prv`` export writes them in a canonical one."""

    def test_prv_is_identical_across_backends(self):
        trace = _trace("sancho-loop", "ideal", "early-send", ranks=8)
        platform = Platform(bandwidth_mbps=250.0,
                            topology="tree:radix=2,links=0")
        exports = [
            to_prv(ReplayEngine(trace,
                                platform.with_replay_backend(backend)).run()[2])
            for backend in ("event", "adaptive")]
        assert exports[0] == exports[1]


class TestReplayBackendKnob:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="replay_backend"):
            Platform(replay_backend="bytecode")

    def test_with_replay_backend_round_trip(self):
        platform = Platform(bandwidth_mbps=100.0)
        assert platform.replay_backend == "adaptive"
        event = platform.with_replay_backend("event")
        assert event.replay_backend == "event"
        assert event.bandwidth_mbps == platform.bandwidth_mbps

    def test_builder_sets_the_backend(self):
        spec = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                .bandwidths(100.0)
                .replay_backend("adaptive")
                .build())
        assert spec.platform_dict()["replay_backend"] == "adaptive"


class TestRemovedErrorBoundKnob:
    """Exactness left nothing to bound: the former knob is an unknown field
    everywhere, with no alias."""

    def test_config_files_reject_it(self):
        with pytest.raises(ConfigurationError,
                           match=f"unknown platform field '{REMOVED_KNOB}'"):
            config_to_platform(f"{REMOVED_KNOB} = 0.01")

    def test_specs_reject_it(self):
        with pytest.raises(ConfigurationError,
                           match=f"unknown platform field '{REMOVED_KNOB}'"):
            ExperimentSpec(apps=("sancho-loop",),
                           platform={REMOVED_KNOB: 0.01})

    def test_cli_rejects_it(self, capsys):
        flag = "--" + REMOVED_KNOB.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main(["study", "--app", "sancho-loop", "--ranks", "4",
                  flag, "0.01"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestAdaptiveMetadata:
    def test_simulator_attaches_the_summary(self):
        platform = CONTENDED["flat"].with_replay_backend("adaptive")
        result = DimemasSimulator(platform).simulate(_trace("nas-bt"))
        summary = result.metadata["adaptive"]
        assert set(summary) == {"backend", "mode", "network_uncontended",
                                "proven_exact", "contended_transfers"}
        assert summary["backend"] == "adaptive"
        assert summary["mode"] == "fast-forward"
        assert summary["proven_exact"] is False

    def test_proven_metric_only_summary(self):
        platform = PROVEN["flat"].with_replay_backend("adaptive")
        result = DimemasSimulator(platform, collect_timeline=False).simulate(
            _trace("nas-bt"))
        assert result.metadata["adaptive"] == {
            "backend": "adaptive", "mode": "fast-forward",
            "network_uncontended": True, "proven_exact": True,
            "contended_transfers": 0}

    def test_exact_backends_attach_nothing(self):
        result = DimemasSimulator(
            CONTENDED["flat"].with_replay_backend("event")).simulate(
                _trace("nas-bt"))
        assert "adaptive" not in result.metadata

    def test_experiment_rows_carry_the_replay_metadata(self):
        spec = (Experiment.for_app("sancho-loop", num_ranks=4, iterations=2)
                .patterns("ideal")
                .chunk_count(4)
                .bandwidths(100.0)
                .replay_backend("adaptive")
                .build())
        result = run_experiment(spec)
        assert result.metadata["replay"] == {"backend": "adaptive"}


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
