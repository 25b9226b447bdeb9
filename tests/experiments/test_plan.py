"""Experiment planning: keyed task expansion and lazy trace
materialisation (a warm run must transform and replay nothing)."""

import dataclasses

import pytest

from repro.core.environment import OverlapStudyEnvironment
from repro.experiments import (
    ExperimentSpec,
    plan_experiment,
    preview_experiment,
    run_experiment,
)
from repro.store import FileResultStore

SPEC = ExperimentSpec(
    apps=("sancho-loop",),
    app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(50.0, 500.0),
    patterns=("ideal",),
    chunking={"policy": "fixed-count", "count": 4})


@pytest.fixture
def no_overlap(monkeypatch):
    """Make any overlap transformation an error."""
    def forbidden(self, trace, **kwargs):
        raise AssertionError("overlap transformation ran")

    monkeypatch.setattr(OverlapStudyEnvironment, "overlap", forbidden)


class TestPlanStructure:
    def test_tasks_are_point_major_variant_minor(self):
        plan = plan_experiment(SPEC)
        assert [task.index for task in plan.tasks] == list(range(4))
        assert [task.variant for task in plan.tasks] == \
            ["original", "ideal", "original", "ideal"]
        assert [task.platform.bandwidth_mbps for task in plan.tasks] == \
            [50.0, 50.0, 500.0, 500.0]
        assert plan.variant_labels == ["original", "ideal"]
        assert plan.app_labels == ["sancho-loop"]

    def test_cell_keys_align_with_tasks(self):
        plan = plan_experiment(SPEC)
        keys = plan.cell_keys()
        assert len(keys) == len(plan.tasks)
        assert len({key.digest for key in keys}) == len(keys)
        # Same trace content behind every key of the app...
        assert len({key.trace_digest for key in keys}) == 1
        # ...and the variant recorded as its canonical derivation id.
        assert keys[0].variant == "original"
        assert keys[1].variant.startswith("pattern=ideal,mechanism=full,")

    def test_cell_keys_are_reproducible_across_plans(self):
        first = [key.digest for key in plan_experiment(SPEC).cell_keys()]
        second = [key.digest for key in plan_experiment(SPEC).cell_keys()]
        assert first == second

    def test_variant_ids_pin_the_derivation_not_the_label(self):
        # The same (pattern, mechanism) pair gets spec-dependent display
        # labels but one canonical derivation id.
        by_pattern = plan_experiment(SPEC)
        relabelled = plan_experiment(ExperimentSpec(
            apps=SPEC.apps, app_options=SPEC.app_options_dict(),
            bandwidths=SPEC.bandwidths, patterns=("ideal",),
            mechanisms=("full", "early-send"),
            chunking=SPEC.chunking_dict()))
        assert by_pattern.variant_ids()["ideal"] == \
            relabelled.variant_ids()["full"]


class TestLazyMaterialisation:
    def test_planning_traces_nothing(self, monkeypatch, no_overlap):
        def forbidden(self, app):
            raise AssertionError("tracing ran during planning")

        plan = plan_experiment(SPEC)
        monkeypatch.setattr(OverlapStudyEnvironment, "trace", forbidden)
        assert len(plan.tasks) == 4  # planning itself touched no trace

    def test_cell_keys_need_no_overlap_transformation(self, no_overlap):
        plan = plan_experiment(SPEC)
        assert len(plan.cell_keys()) == 4

    def test_preview_needs_no_overlap_transformation(self, tmp_path,
                                                     no_overlap):
        preview = preview_experiment(SPEC, store=FileResultStore(tmp_path))
        assert preview.misses == 4 and preview.hits == 0

    def test_warm_run_performs_zero_transformations(self, tmp_path,
                                                    monkeypatch):
        store = FileResultStore(tmp_path)
        cold = run_experiment(SPEC, store=store)

        def forbidden(self, trace, **kwargs):
            raise AssertionError("overlap transformation ran on a warm run")

        monkeypatch.setattr(OverlapStudyEnvironment, "overlap", forbidden)
        warm = run_experiment(SPEC, store=store)
        assert warm.to_rows() == cold.to_rows()

    def test_variant_traces_are_transformed_once(self):
        plan = plan_experiment(SPEC)
        assert plan.variant_trace("sancho-loop", "ideal") is \
            plan.variant_trace("sancho-loop", "ideal")
        assert plan.original_trace("sancho-loop") is \
            plan.variant_trace("sancho-loop", "original")


class TestPreview:
    def test_statuses_track_the_store(self, tmp_path):
        store = FileResultStore(tmp_path)
        assert preview_experiment(SPEC).statuses == ["uncached"] * 4

        cold = preview_experiment(SPEC, store=store)
        assert cold.statuses == ["miss"] * 4 and cold.misses == 4

        run_experiment(SPEC, store=store)
        warm = preview_experiment(SPEC, store=store)
        assert warm.statuses == ["hit"] * 4 and warm.hits == 4


class TestCohortGrouping:
    """group_cohorts batches adaptive grid slices; everything else is inert."""

    ADAPTIVE_SPEC = ExperimentSpec(
        apps=("sancho-loop",),
        app_options={"num_ranks": 4, "iterations": 2},
        bandwidths=(50.0, 500.0, 5000.0),
        chunking={"policy": "fixed-count", "count": 4},
        platform={"replay_backend": "adaptive", "num_buses": 0,
                  "input_links": 0, "output_links": 0})

    def test_adaptive_grid_becomes_one_cohort_per_variant(self):
        from repro.core.executor import CohortTask
        from repro.experiments.plan import group_cohorts

        plan = plan_experiment(self.ADAPTIVE_SPEC)
        traces = plan.traces_for(plan.tasks)
        units = group_cohorts(plan.tasks, traces)
        cohorts = [unit for unit in units if isinstance(unit, CohortTask)]
        assert len(cohorts) == len(plan.variant_labels)
        assert all(cohort.width == 3 for cohort in cohorts)
        grouped = {task.index for cohort in cohorts for task in cohort.tasks}
        assert grouped == {task.index for task in plan.tasks}

    def test_event_backend_stays_per_cell(self):
        from repro.experiments.plan import group_cohorts

        spec = dataclasses.replace(
            self.ADAPTIVE_SPEC,
            platform={**self.ADAPTIVE_SPEC.platform_dict(),
                      "replay_backend": "event"})
        plan = plan_experiment(spec)
        traces = plan.traces_for(plan.tasks)
        assert group_cohorts(plan.tasks, traces) == list(plan.tasks)

    def test_contended_adaptive_grid_stays_per_cell(self):
        from repro.experiments.plan import group_cohorts

        spec = dataclasses.replace(
            self.ADAPTIVE_SPEC,
            platform={"replay_backend": "adaptive", "input_links": 1,
                      "output_links": 1})
        plan = plan_experiment(spec)
        traces = plan.traces_for(plan.tasks)
        assert group_cohorts(plan.tasks, traces) == list(plan.tasks)

    def test_one_bandwidth_proven_grid_yields_width_one_cohorts(self):
        from repro.core.executor import CohortTask
        from repro.experiments.plan import group_cohorts

        spec = dataclasses.replace(self.ADAPTIVE_SPEC, bandwidths=(500.0,))
        plan = plan_experiment(spec)
        traces = plan.traces_for(plan.tasks)
        units = group_cohorts(plan.tasks, traces)
        assert units == [CohortTask(tasks=(task,)) for task in plan.tasks]

    def test_grid_run_matches_per_cell_run(self):
        from repro.core.executor import SweepExecutor
        from repro.experiments.plan import group_cohorts

        def stable(results):
            return [dataclasses.replace(result, elapsed_seconds=0.0)
                    for result in results]

        plan = plan_experiment(self.ADAPTIVE_SPEC)
        traces = plan.traces_for(plan.tasks)
        executor = SweepExecutor(jobs=1)
        grid = executor.execute(group_cohorts(plan.tasks, traces), traces)
        cell = executor.execute(plan.tasks, traces)
        assert stable(grid) == stable(cell)
