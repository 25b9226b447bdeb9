"""End-to-end integration tests of the full environment (paper Figure 1)."""

import pytest

from repro.analysis.structure import trace_issues
from repro.core import ComputationPattern, OverlapMechanism, OverlapStudyEnvironment
from repro.core.chunking import FixedCountChunking
from repro.dimemas import Platform
from repro.paraver.compare import compare_timelines
from repro.paraver.prv import to_prv


class TestFullPipeline:
    def test_trace_transform_replay_visualize(self, environment, small_bt, tmp_path):
        """The complete tool chain: tracer -> transformer -> Dimemas -> Paraver."""
        original_trace = environment.trace(small_bt)
        overlapped_trace = environment.overlap(original_trace)

        # Both traces are valid MPI programs.
        assert trace_issues(original_trace) == []
        assert trace_issues(overlapped_trace) == []

        # Both traces replay on the same platform.
        original = environment.simulate(original_trace, label="original")
        overlapped = environment.simulate(overlapped_trace, label="overlapped")
        assert original.total_time > 0 and overlapped.total_time > 0

        # The reconstructed behaviours can be compared quantitatively ...
        comparison = compare_timelines(original.timeline, overlapped.timeline)
        assert comparison.speedup == pytest.approx(
            original.total_time / overlapped.total_time)

        # ... and exported for qualitative (visual) inspection.
        prv = to_prv(overlapped.timeline)
        assert prv.startswith("#Paraver")
        path = original_trace.save(tmp_path / "bt.json")
        assert path.exists()

    def test_traces_survive_serialisation_through_the_pipeline(
            self, environment, small_loop, tmp_path):
        from repro.tracing.trace import Trace
        trace = environment.trace(small_loop)
        reloaded = Trace.load(trace.save(tmp_path / "loop.json"))
        direct = environment.simulate(trace)
        via_file = environment.simulate(reloaded)
        assert via_file.total_time == pytest.approx(direct.total_time)

    def test_same_study_is_reproducible(self, small_loop):
        first = OverlapStudyEnvironment(chunking=FixedCountChunking(4)).study(small_loop)
        second = OverlapStudyEnvironment(chunking=FixedCountChunking(4)).study(small_loop)
        assert first.original_result.total_time == pytest.approx(
            second.original_result.total_time)
        assert first.speedup("ideal") == pytest.approx(second.speedup("ideal"))

    def test_mechanisms_compose(self, environment, small_loop):
        """Early-send + late-receive separately never beat the full mechanism much."""
        platform = Platform(bandwidth_mbps=100.0)
        trace = environment.trace(small_loop)
        original = environment.simulate(trace, platform=platform).total_time
        times = {}
        for mechanism in (OverlapMechanism.EARLY_SEND, OverlapMechanism.LATE_RECEIVE,
                          OverlapMechanism.FULL):
            overlapped = environment.overlap(trace, pattern=ComputationPattern.IDEAL,
                                             mechanism=mechanism)
            times[mechanism.label] = environment.simulate(
                overlapped, platform=platform).total_time
        assert times["full"] <= min(times["early-send"], times["late-receive"]) * 1.05
        assert all(time <= original * 1.05 for time in times.values())

    def test_cpu_speed_scales_compute_dominated_apps(self, environment, small_loop):
        trace = environment.trace(small_loop)
        fast_cpu = environment.simulate(
            trace, platform=Platform(relative_cpu_speed=2.0, bandwidth_mbps=0.0))
        slow_cpu = environment.simulate(
            trace, platform=Platform(relative_cpu_speed=1.0, bandwidth_mbps=0.0))
        assert fast_cpu.total_time == pytest.approx(slow_cpu.total_time / 2, rel=0.05)
