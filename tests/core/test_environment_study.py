"""Tests for the study environment facade, study objects and reporting."""

import pytest

from repro.core import ComputationPattern
from repro.core.analysis import ORIGINAL
from repro.core.reporting import format_table, peak_speedup_table, reduction_table, sweep_table
from repro.errors import AnalysisError
from repro.experiments import ExperimentSpec, run_experiment


def _sweep(environment, app, bandwidths, **spec_fields):
    """``app``'s bandwidth sweep on ``environment``, run as one spec."""
    spec = ExperimentSpec(apps=(app.name,), bandwidths=bandwidths, **spec_fields)
    return run_experiment(spec, environment=environment, apps=[app]).sweep()


class TestEnvironmentFacade:
    def test_trace_then_overlap_then_simulate(self, environment, small_loop):
        trace = environment.trace(small_loop)
        overlapped = environment.overlap(trace)
        original = environment.simulate(trace)
        faster = environment.simulate(overlapped)
        assert faster.total_time < original.total_time

    def test_simulate_with_bandwidth_override(self, environment, small_loop):
        trace = environment.trace(small_loop)
        slow = environment.simulate(trace, bandwidth_mbps=10.0)
        fast = environment.simulate(trace, bandwidth_mbps=10000.0)
        assert slow.total_time > fast.total_time

    def test_study_contains_both_patterns(self, environment, small_loop):
        study = environment.study(small_loop)
        assert set(study.patterns()) == {"real", "ideal"}
        assert study.speedup("ideal") >= study.speedup("real") - 0.02

    def test_study_with_single_pattern(self, environment, small_loop):
        study = environment.study(small_loop, patterns=[ComputationPattern.IDEAL])
        assert study.patterns() == ["ideal"]
        with pytest.raises(AnalysisError):
            study.result("real")

    def test_study_summary_and_gantt(self, environment, small_loop):
        study = environment.study(small_loop)
        summary = study.summary()
        assert small_loop.name in summary and "speedup" in summary
        gantt = study.gantt("ideal", width=30)
        assert "rank" in gantt

    def test_comparison_matches_speedup(self, environment, small_loop):
        study = environment.study(small_loop)
        comparison = study.comparison("ideal")
        assert comparison.speedup == pytest.approx(study.speedup("ideal"), rel=1e-9)


class TestSweeps:
    def test_bandwidth_sweep_structure(self, environment, small_loop):
        sweep = _sweep(environment, small_loop, [50.0, 500.0])
        assert sweep.app_name == small_loop.name
        assert set(sweep.variants) == {ORIGINAL, "real", "ideal"}
        assert len(sweep.points) == 2
        for point in sweep.points:
            assert point.time(ORIGINAL) > 0

    def test_sweep_speedup_higher_at_moderate_bandwidth(self, environment, small_loop):
        sweep = _sweep(environment, small_loop, [50.0, 50000.0],
                       patterns=("ideal",))
        moderate = sweep.speedup_at(50.0, "ideal")
        fast = sweep.speedup_at(50000.0, "ideal")
        assert moderate > fast

    def test_mechanism_sweep(self, environment, small_loop):
        sweep = _sweep(environment, small_loop, [250.0], patterns=("ideal",),
                       mechanisms=("early-send", "late-receive", "full"))
        point = sweep.points[0]
        assert sweep.variants == [ORIGINAL, "early-send", "late-receive", "full"]
        assert point.speedup("full") >= max(point.speedup("early-send"),
                                            point.speedup("late-receive")) - 0.05


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bb", 2.0]], title="t")
        lines = table.split("\n")
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_sweep_and_summary_tables(self, environment, small_loop):
        sweep = _sweep(environment, small_loop, [100.0, 1000.0])
        text = sweep_table(sweep)
        assert "bandwidth" in text and small_loop.name in text
        peak = peak_speedup_table({small_loop.name: sweep},
                                  paper_values={small_loop.name: 40.0})
        assert "intermediate" in peak
        reduction = reduction_table({small_loop.name: sweep})
        assert "reduction factor" in reduction
