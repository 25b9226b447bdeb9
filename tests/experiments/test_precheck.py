"""Tests of the fail-fast static-analysis hook in the experiment pipeline.

The defective specimen is a head-to-head blocking exchange above the eager
threshold: it traces cleanly (every message is matched, so the tracing VM's
validator passes) but rendezvous-deadlocks at replay time -- exactly the
class of defect only the static analyzer catches before the simulator
wedges on it.
"""

import gc

import pytest

from repro.apps.base import ApplicationModel
from repro.errors import AnalysisError, SimulationError, TraceLintError
from repro.experiments import (
    ExperimentSpec,
    analyze_tasks,
    preview_experiment,
    run_experiment,
)
from repro.experiments.plan import plan_experiment


class HeadToHeadExchange(ApplicationModel):
    """Both ranks send before they receive: deadlocks under rendezvous."""

    name = "head-to-head"

    def __init__(self, num_ranks=2, iterations=1, message_bytes=200_000,
                 **kwargs):
        super().__init__(num_ranks=num_ranks, iterations=iterations, **kwargs)
        self.message_bytes = message_bytes

    def run(self, ctx):
        peer = ctx.rank ^ 1
        halo = ctx.buffer("halo", self.message_bytes)
        for _ in range(self.iterations):
            ctx.compute_producing(halo, 1_000_000.0)
            ctx.send(peer, halo)
            ctx.recv(peer, size=self.message_bytes)


def _spec(**overrides):
    options = {"apps": ("head-to-head",), "bandwidths": (100.0,)}
    options.update(overrides)
    return ExperimentSpec(**options)


@pytest.fixture
def deadlock_app():
    return HeadToHeadExchange()


@pytest.fixture
def eager_app():
    """The same exchange below the eager threshold: clean everywhere."""
    return HeadToHeadExchange(message_bytes=1024)


class TestRunExperimentPrecheck:
    def test_defective_spec_is_rejected_before_any_replay(self, deadlock_app):
        with pytest.raises(TraceLintError) as excinfo:
            run_experiment(_spec(), apps=[deadlock_app])
        message = str(excinfo.value)
        assert "before any replay started" in message
        assert "--no-precheck" in message
        assert "TL401" in message

    def test_the_error_carries_the_structured_report(self, deadlock_app):
        with pytest.raises(TraceLintError) as excinfo:
            run_experiment(_spec(), apps=[deadlock_app])
        report = excinfo.value.report
        assert report is not None and report.errors > 0
        assert "TL401" in report.codes()
        assert any(d.source.startswith("head-to-head/")
                   for d in report.diagnostics)

    def test_a_rejected_run_restores_the_collector(self, deadlock_app):
        # run_experiment pauses the cyclic collector for the call; an error
        # raised mid-run must not leave it paused.
        with pytest.raises(TraceLintError):
            run_experiment(_spec(), apps=[deadlock_app])
        assert gc.isenabled()

    def test_tracelint_error_is_an_analysis_error(self):
        assert issubclass(TraceLintError, AnalysisError)

    def test_opting_out_reproduces_the_runtime_failure(self, deadlock_app):
        # precheck=False hands the defective trace to the simulator, which
        # hits the deadlock mid-replay instead.
        with pytest.raises(SimulationError, match="replay deadlocked"):
            run_experiment(_spec(), apps=[deadlock_app], precheck=False)

    def test_clean_spec_records_the_precheck_in_metadata(self, eager_app):
        result = run_experiment(_spec(), apps=[eager_app])
        assert result.metadata["lint"] == {"enabled": True}

    def test_opt_out_is_recorded_in_metadata(self, eager_app):
        result = run_experiment(_spec(), apps=[eager_app], precheck=False)
        assert result.metadata["lint"] == {"enabled": False}

    def test_sweeping_past_the_threshold_unlocks_the_spec(self, deadlock_app):
        # With every grid point above the message size the sends are eager
        # and the same app runs fine -- the precheck is threshold-aware.
        spec = _spec(eager_thresholds=(1_000_000,))
        result = run_experiment(spec, apps=[deadlock_app])
        assert result.metadata["lint"] == {"enabled": True}
        assert len(result.to_rows()) > 0


class TestPreviewPrecheck:
    def test_dry_run_reports_diagnostics_without_raising(self, deadlock_app):
        preview = preview_experiment(_spec(), apps=[deadlock_app])
        assert preview.lint is not None
        assert preview.lint.codes() == ["TL401"]

    def test_preview_lint_can_be_disabled(self, deadlock_app):
        preview = preview_experiment(_spec(), apps=[deadlock_app],
                                     precheck=False)
        assert preview.lint is None

    def test_clean_preview_is_clean(self, eager_app):
        preview = preview_experiment(_spec(), apps=[eager_app])
        assert preview.lint is not None and preview.lint.ok


class TestAnalyzeTasks:
    def test_covers_every_variant_the_tasks_replay(self, deadlock_app):
        plan = plan_experiment(_spec(), apps=[deadlock_app])
        report = analyze_tasks(plan, plan.tasks)
        assert report.errors > 0
        assert report.metadata["tasks"] == len(plan.tasks)
        assert any(key.endswith("/original")
                   for key in report.metadata["traces"])

    def test_analyzes_each_distinct_eager_threshold(self, deadlock_app):
        spec = _spec(eager_thresholds=(1024, 1_000_000))
        plan = plan_experiment(spec, apps=[deadlock_app])
        report = analyze_tasks(plan, plan.tasks)
        # Deadlocked at 1024, clean at 1_000_000: the merged report keeps
        # the defective threshold's findings.
        assert "TL401" in report.codes()
        assert any("eager_threshold=1024" in d.message
                   for d in report.by_code("TL401"))

    def test_clean_tasks_merge_to_a_clean_report(self, eager_app):
        plan = plan_experiment(_spec(), apps=[eager_app])
        assert analyze_tasks(plan, plan.tasks).ok
