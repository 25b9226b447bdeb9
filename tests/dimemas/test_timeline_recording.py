"""Pluggable timeline recording: the NullRecorder and its wiring.

``collect_timeline`` flows from the entry points down to the replay engine:
metric-only sweeps replay with the null recorder, full-result
executions (studies) always record, the experiment spec exposes
``collect_timelines``, and the interactive ``simulate`` path keeps
recording by default.
"""

import pytest

from repro.core.analysis import ORIGINAL
from repro.core.environment import OverlapStudyEnvironment
from repro.core.executor import SweepExecutor
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.simulator import DimemasSimulator
from repro.errors import AnalysisError
from repro.experiments import ExperimentSpec, run_experiment
from repro.paraver.states import ThreadState
from repro.paraver.timeline import NullRecorder, Timeline


@pytest.fixture
def trace(small_loop):
    return OverlapStudyEnvironment().trace(small_loop)


class TestNullRecorder:
    def test_drops_intervals_and_communications(self):
        recorder = NullRecorder(num_ranks=2)
        recorder.add_interval(0, 0.0, 1.0, ThreadState.RUNNING)
        recorder.add_communication(0, 1, 100, 0, 0.0, 1.0)
        assert recorder.intervals == []
        assert recorder.communications == []
        assert recorder.duration == 0.0
        assert recorder.collects is False
        assert Timeline(num_ranks=2).collects is True

    def test_queries_stay_valid(self):
        recorder = NullRecorder(num_ranks=2)
        assert recorder.time_in_state(ThreadState.RUNNING) == 0.0
        assert recorder.state_at(0, 0.5) == ThreadState.IDLE
        recorder.validate()  # no overlap in an empty timeline


@pytest.mark.parametrize("backend", ["event", "adaptive"])
class TestEngineFlag:
    def test_default_records(self, trace, backend):
        engine = ReplayEngine(trace, Platform(replay_backend=backend))
        _, _, timeline, _ = engine.run()
        assert timeline.collects is True
        assert timeline.intervals

    def test_disabled_recording_returns_empty_timeline(self, trace, backend):
        engine = ReplayEngine(trace, Platform(replay_backend=backend),
                              collect_timeline=False)
        total_time, stats, timeline, _ = engine.run()
        assert isinstance(timeline, NullRecorder)
        assert timeline.intervals == []
        assert total_time > 0
        # The network fabric was not handed a recorder either.
        assert engine.network.timeline is None

    def test_simulator_flag(self, trace, backend):
        simulator = DimemasSimulator(Platform(replay_backend=backend))
        recording = simulator.simulate(trace)
        bare = simulator.simulate(trace, collect_timeline=False)
        assert recording.timeline.intervals
        assert bare.timeline.intervals == []
        assert bare.total_time == recording.total_time
        assert bare.ranks == recording.ranks
        assert bare.network == recording.network


class TestExecutorWiring:
    def test_metric_tasks_default_to_null_recorder(self, trace, platform,
                                                   monkeypatch):
        from repro.core import executor as executor_module

        simulate = executor_module._simulate
        recorded = []

        def recording(task, trace, collect_timeline):
            recorded.append(collect_timeline)
            return simulate(task, trace, collect_timeline)

        monkeypatch.setattr(executor_module, "_simulate", recording)
        tasks = SweepExecutor.expand({ORIGINAL: trace}, [platform])
        SweepExecutor().execute(tasks, {ORIGINAL: trace})
        assert recorded == [False]

    def test_full_results_select_the_recording_replay(self, trace, platform,
                                                      monkeypatch):
        from repro.core import executor as executor_module

        simulate = executor_module._simulate
        recorded = []

        def recording(task, trace, collect_timeline):
            recorded.append(collect_timeline)
            return simulate(task, trace, collect_timeline)

        monkeypatch.setattr(executor_module, "_simulate", recording)
        tasks = SweepExecutor.expand({ORIGINAL: trace}, [platform])
        SweepExecutor().execute(tasks, {ORIGINAL: trace}, full_results=True)
        assert recorded == [True]

    def test_full_results_always_carry_timelines(self, trace, platform):
        tasks = SweepExecutor.expand({ORIGINAL: trace}, [platform])
        results = SweepExecutor().execute(tasks, {ORIGINAL: trace},
                                          full_results=True)
        assert results[0].timeline.intervals


class TestSpecWiring:
    def test_spec_defaults_off_and_round_trips(self):
        spec = ExperimentSpec(apps=("nas-bt",))
        assert spec.collect_timelines is False
        enabled = spec.with_collect_timelines()
        assert enabled.collect_timelines is True
        assert ExperimentSpec.from_toml(enabled.to_toml()) == enabled
        assert ExperimentSpec.from_json(enabled.to_json()) == enabled
        # The default stays out of the serialized form.
        assert "collect_timelines" not in spec.to_toml()

    def test_run_experiment_keeps_full_results_when_enabled(self):
        spec = ExperimentSpec(
            apps=("sancho-loop",), app_options={"num_ranks": 4, "iterations": 2},
            patterns=("ideal",), collect_timelines=True)
        result = run_experiment(spec)
        assert result.simulation_results is not None
        assert all(r.timeline.intervals for r in result.simulation_results)

    def test_run_experiment_discards_timelines_by_default(self):
        spec = ExperimentSpec(
            apps=("sancho-loop",), app_options={"num_ranks": 4, "iterations": 2},
            patterns=("ideal",))
        result = run_experiment(spec)
        assert result.simulation_results is None

    def test_scalar_results_identical_either_way(self):
        base = ExperimentSpec(
            apps=("sancho-loop",), app_options={"num_ranks": 4, "iterations": 2},
            bandwidths=(20.0, 2000.0), patterns=("real", "ideal"))
        fast = run_experiment(base)
        recorded = run_experiment(base.with_collect_timelines())
        fast_points, recorded_points = fast.sweep().points, recorded.sweep().points
        assert [p.times for p in fast_points] == [p.times for p in recorded_points]
        assert [p.network for p in fast_points] == [p.network for p in recorded_points]
        assert ([p.original_communication_fraction for p in fast_points]
                == [p.original_communication_fraction for p in recorded_points])

    def test_timeline_still_guards_rank_bounds(self):
        timeline = Timeline(num_ranks=1)
        with pytest.raises(AnalysisError):
            timeline.add_interval(5, 0.0, 1.0, ThreadState.RUNNING)
