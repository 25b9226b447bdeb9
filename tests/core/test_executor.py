"""Tests for the parallel sweep executor.

The key invariant: a parallel execution (``jobs`` > 1) produces results
bit-identical to the serial one, because every replay task is independent
and the merge step only depends on task metadata, never on completion order.
"""

import gc
import json
import multiprocessing
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.apps import NasBT, NasCG
from repro.core.analysis import ORIGINAL
from repro.core.executor import (
    CohortTask,
    SweepExecutor,
    SweepTask,
    SweepTaskResult,
    collector_paused,
    validate_variant_labels,
)
from repro.core.study import batch_study
from repro.dimemas.platform import Platform
from repro.errors import AnalysisError, ConfigurationError
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.plan import group_cohorts, plan_experiment
from repro.tracing.trace import Trace

BANDWIDTHS = [10.0, 100.0, 1000.0]


@pytest.fixture
def small_cg():
    return NasCG(num_ranks=4, iterations=2)


def _sweep(environment, app, bandwidths, jobs=1, **spec_fields):
    """``app``'s bandwidth sweep on ``environment``, run as one spec."""
    spec = ExperimentSpec(apps=(app.name,), bandwidths=bandwidths, jobs=jobs,
                          **spec_fields)
    return run_experiment(spec, environment=environment, apps=[app]).sweep()


def _sweep_fingerprint(sweep):
    """Everything a sweep computed, for exact serial/parallel comparison."""
    return (
        sweep.app_name,
        sweep.variants,
        [p.bandwidth_mbps for p in sweep.points],
        [p.times for p in sweep.points],
        [p.original_communication_fraction for p in sweep.points],
        [p.original_compute_time for p in sweep.points],
    )


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("app_fixture", ["small_bt", "small_cg"])
    def test_bandwidth_sweep_bit_identical(self, app_fixture, request, environment):
        app = request.getfixturevalue(app_fixture)
        serial = _sweep(environment, app, BANDWIDTHS)
        parallel = _sweep(environment, app, BANDWIDTHS, jobs=4)
        assert _sweep_fingerprint(serial) == _sweep_fingerprint(parallel)
        assert parallel.metadata["jobs"] == 4

    def test_mechanism_sweep_bit_identical(self, small_bt, environment):
        mechanisms = ("early-send", "late-receive", "full")
        serial = _sweep(environment, small_bt, [100.0], patterns=("ideal",),
                        mechanisms=mechanisms)
        parallel = _sweep(environment, small_bt, [100.0], jobs=2,
                          patterns=("ideal",), mechanisms=mechanisms)
        assert serial.variants == [ORIGINAL, *mechanisms]
        assert _sweep_fingerprint(serial) == _sweep_fingerprint(parallel)

    def test_batch_study_matches_environment_study(self, small_bt, environment):
        reference = environment.study(small_bt)
        for jobs in (1, 2):
            study = batch_study([small_bt], environment=environment,
                                jobs=jobs)[small_bt.name]
            assert study.original_result.total_time == \
                reference.original_result.total_time
            for pattern in reference.patterns():
                assert study.result(pattern).total_time == \
                    reference.result(pattern).total_time
            # Full results came back: the study can render its timelines.
            assert study.summary()
            assert study.gantt("ideal")

    def test_batch_study_many_apps(self, small_bt, small_cg, environment):
        serial = batch_study([small_bt, small_cg], environment=environment)
        parallel = batch_study([small_bt, small_cg], environment=environment,
                               jobs=3)
        assert sorted(serial) == sorted([small_bt.name, small_cg.name])
        for name, study in serial.items():
            other = parallel[name]
            assert study.original_result.total_time == \
                other.original_result.total_time
            assert study.speedup("ideal") == other.speedup("ideal")


class TestExecutor:
    def test_jobs_validation(self):
        assert SweepExecutor().jobs == 1
        assert SweepExecutor(jobs=3).jobs == 3
        assert SweepExecutor(jobs=0).jobs >= 1
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=-1)

    def test_expand_covers_the_grid(self, environment, small_bt, platform):
        trace = environment.trace(small_bt)
        variants = {ORIGINAL: trace, "ideal": environment.overlap(trace)}
        platforms = [platform.with_bandwidth(b) for b in BANDWIDTHS]
        tasks = SweepExecutor.expand(variants, platforms, app_name="bt")
        assert len(tasks) == len(variants) * len(platforms)
        assert [t.index for t in tasks] == list(range(len(tasks)))
        assert {(t.variant, t.platform.bandwidth_mbps) for t in tasks} == {
            (v, b) for v in variants for b in BANDWIDTHS}

    def test_run_sweep_requires_original(self, environment, small_bt, platform):
        trace = environment.trace(small_bt)
        with pytest.raises(AnalysisError):
            SweepExecutor().run_sweep({"ideal": trace}, platform, BANDWIDTHS)

    def test_unknown_trace_key_is_reported(self, environment, small_bt, platform):
        trace = environment.trace(small_bt)
        task = SweepTask(index=0, variant=ORIGINAL, trace_key="missing",
                         platform=platform, label="x")
        with pytest.raises(AnalysisError):
            SweepExecutor().execute([task], {ORIGINAL: trace})

    def test_merge_is_order_independent(self):
        results = []
        index = 0
        for point, bandwidth in enumerate(BANDWIDTHS):
            for variant in (ORIGINAL, "ideal"):
                results.append(SweepTaskResult(
                    index=index, variant=variant, bandwidth_mbps=bandwidth,
                    total_time=1.0 / (index + 1),
                    communication_fraction=0.5, max_compute_time=0.2,
                    elapsed_seconds=0.01, worker_pid=0, point=point))
                index += 1
        shuffled = list(results)
        random.Random(7).shuffle(shuffled)
        assert SweepExecutor.merge(results) == SweepExecutor.merge(shuffled)

    def test_duplicate_bandwidths_stay_separate_points(self, small_bt, environment):
        # A degenerate grid (min == max) must keep one row per requested
        # point; grouping is by grid ordinal, not by bandwidth value.
        sweep = _sweep(environment, small_bt, [100.0, 100.0, 100.0])
        assert len(sweep.points) == 3
        assert [p.bandwidth_mbps for p in sweep.points] == [100.0] * 3
        assert sweep.points[0].times == sweep.points[1].times == sweep.points[2].times

    def test_points_carry_task_timings(self, small_bt, environment):
        sweep = _sweep(environment, small_bt, BANDWIDTHS)
        for point in sweep.points:
            assert set(point.task_seconds) == set(sweep.variants)
            assert point.replay_seconds() > 0.0
        assert sweep.metadata["replay_wall_seconds"] > 0.0


class _RecordingStore:
    """A store stand-in that records which keys each batch wrote."""

    def __init__(self):
        self.batches = []

    @contextmanager
    def batch(self):
        self.batches.append([])
        yield

    def put(self, key, payload):
        self.batches[-1].append(key)

    def close(self):
        pass


class TestUnitRunner:
    def test_pool_returns_full_results_in_unit_order(
            self, small_bt, environment, platform):
        # The pool submits the largest unit first; full results are not
        # sorted by index afterwards, so the pool itself must put them
        # back in unit order.
        small = environment.trace(small_bt)
        large = environment.trace(NasBT(num_ranks=4, iterations=4,
                                        face_bytes=60_000,
                                        instructions_per_phase=1.0e6))
        assert sum(map(len, large)) > sum(map(len, small))
        variants = {ORIGINAL: small, "large": large}
        tasks = SweepExecutor.expand(variants, [platform])
        serial = SweepExecutor().execute(tasks, variants, full_results=True)
        pooled = SweepExecutor(jobs=2).execute(tasks, variants,
                                               full_results=True)
        labels = [task.label for task in tasks]
        assert [result.metadata["label"] for result in pooled] == labels
        assert [result.metadata["label"] for result in serial] == labels
        assert ([result.total_time for result in pooled]
                == [result.total_time for result in serial])

    def test_a_unit_writes_its_metrics_through_in_one_batch(
            self, small_cg, environment):
        trace = environment.trace(small_cg)
        platforms = [Platform(bandwidth_mbps=bandwidth, num_buses=0,
                              input_links=0, output_links=0)
                     for bandwidth in (10.0, 100.0, 1000.0, 5000.0)]
        tasks = SweepExecutor.expand({ORIGINAL: trace}, platforms)
        units = [CohortTask(tuple(tasks[:3])), tasks[3]]
        store = _RecordingStore()
        results = SweepExecutor().execute(
            units, {ORIGINAL: trace}, store=store,
            cache_keys={task.index: f"cell-{task.index}" for task in tasks})
        assert store.batches == [["cell-0", "cell-1", "cell-2"], ["cell-3"]]
        assert [result.index for result in results] == [0, 1, 2, 3]


#: One app on two topologies: the tree without link limits is proven, so
#: its cells replay as cohort units, and the flat bus is contended, so its
#: cells replay one by one.
START_METHOD_SPEC = ExperimentSpec(
    apps=("nas-cg",), app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(50.0, 500.0), topologies=("flat", "tree:links=0"),
    chunking={"policy": "fixed-count", "count": 4})

#: Runs in a fresh interpreter (``-c``, so spawn and forkserver workers do
#: not run it again) under the start method ``argv[1]``: the spec
#: ``argv[3]`` at jobs=2 and at jobs=1, each into its own store below
#: ``argv[2]``.  Prints, per jobs count, the tidy rows without
#: ``task_seconds`` and the store's rows without ``elapsed_seconds``.
START_METHOD_RUN = """
import contextlib, json, multiprocessing, sqlite3, sys
from dataclasses import replace
from pathlib import Path

multiprocessing.set_start_method(sys.argv[1])
from repro.experiments import ExperimentSpec, run_experiment
from repro.store import STORE_FORMAT, FileResultStore

spec = ExperimentSpec.from_dict(json.loads(sys.argv[3]))
runs = {}
for jobs in (2, 1):
    root = Path(sys.argv[2]) / str(jobs)
    with FileResultStore(root) as store:
        result = run_experiment(replace(spec, jobs=jobs), store=store)
    database = root / f"v{STORE_FORMAT}" / "results.sqlite"
    with contextlib.closing(sqlite3.connect(database)) as connection:
        entries = connection.execute(
            "SELECT digest, variant, trace_digest, payload FROM entries "
            "ORDER BY digest").fetchall()
    stored = []
    for digest, variant, trace_digest, payload in entries:
        payload = json.loads(payload)
        del payload["elapsed_seconds"]
        stored.append([digest, variant, trace_digest, payload])
    rows = [{key: value for key, value in row.items()
             if key != "task_seconds"} for row in result.to_rows()]
    runs[jobs] = {"rows": rows, "stored": stored}
print(json.dumps(runs))
"""


class TestStartMethods:
    """The pool gives jobs=1's results under every start method; under
    fork its workers inherit the parent's traces instead of rebuilding
    them."""

    def test_the_spec_runs_cohort_and_per_cell_units(self):
        plan = plan_experiment(START_METHOD_SPEC)
        units = group_cohorts(plan.tasks, plan.traces_for(plan.tasks))
        assert {type(unit) for unit in units} == {CohortTask, SweepTask}

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_a_pooled_run_matches_the_serial_one(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} is not available on this platform")
        source = str(Path(repro.__file__).resolve().parents[1])
        paths = [source, os.environ.get("PYTHONPATH", "")]
        completed = subprocess.run(
            [sys.executable, "-c", START_METHOD_RUN, method, str(tmp_path),
             json.dumps(START_METHOD_SPEC.to_dict())],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join(filter(None, paths))))
        assert completed.returncode == 0, completed.stderr
        runs = json.loads(completed.stdout)
        assert len(runs["1"]["rows"]) == len(runs["1"]["stored"]) == 12
        assert runs["2"] == runs["1"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only forked workers inherit the traces")
    def test_forked_workers_rebuild_no_trace(self, small_cg, environment,
                                             monkeypatch):
        trace = environment.trace(small_cg)
        variants = {ORIGINAL: trace, "ideal": environment.overlap(trace)}
        tasks = SweepExecutor.expand(
            variants, [Platform(bandwidth_mbps=bandwidth)
                       for bandwidth in BANDWIDTHS])
        serial = SweepExecutor().execute(tasks, variants)

        def rebuilt(cls, data):
            raise AssertionError("a pool worker rebuilt a trace")

        monkeypatch.setattr(Trace, "from_dict", classmethod(rebuilt))
        pooled = SweepExecutor(jobs=2).execute(tasks, variants)
        assert ([result.total_time for result in pooled]
                == [result.total_time for result in serial])


class TestSerialReentrancy:
    def test_serial_execution_ignores_worker_globals(
            self, small_bt, environment, platform):
        # The worker-side module globals belong to pool workers only; a
        # serial run must neither read nor clobber them, so concurrent
        # in-process executions cannot interfere.
        from repro.core import executor as executor_module

        executor_module._init_worker({ORIGINAL: {"bogus": "table"}})
        try:
            trace = environment.trace(small_bt)
            results = SweepExecutor().execute(
                SweepExecutor.expand({ORIGINAL: trace}, [platform]),
                {ORIGINAL: trace})
            assert results[0].total_time > 0
            assert executor_module._TRACES == {ORIGINAL: {"bogus": "table"}}
        finally:
            executor_module._init_worker({})
            gc.enable()


class TestCollectorPause:
    """``run_experiment`` runs with the cyclic garbage collector paused and
    leaves it as it found it; pool workers run without it."""

    SPEC = ExperimentSpec(apps=("nas-cg",), app_options={"num_ranks": 4,
                                                         "iterations": 2},
                          bandwidths=(100.0,))

    def test_the_collector_is_off_during_a_run(self, monkeypatch):
        from repro.experiments import runner

        seen = {}
        plan = runner.plan_experiment
        execute = SweepExecutor.execute

        def planning(*args, **kwargs):
            seen["plan"] = gc.isenabled()
            return plan(*args, **kwargs)

        def executing(*args, **kwargs):
            seen["execute"] = gc.isenabled()
            return execute(*args, **kwargs)

        monkeypatch.setattr(runner, "plan_experiment", planning)
        monkeypatch.setattr(SweepExecutor, "execute", executing)
        run_experiment(self.SPEC)
        assert seen == {"plan": False, "execute": False}
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_finds_it_disabled(self):
        gc.disable()
        try:
            run_experiment(self.SPEC)
            with collector_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_the_cache_dir_path_restores_the_collector(self, tmp_path):
        result = run_experiment(self.SPEC, cache_dir=tmp_path)
        assert result.cache_stats()["misses"] == 3
        assert gc.isenabled()

    def test_init_worker_disables_the_collector(self):
        from repro.core import executor as executor_module

        try:
            executor_module._init_worker({})
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestLabelValidation:
    def test_accepts_distinct_labels(self):
        assert validate_variant_labels(["real", "ideal"]) == ["real", "ideal"]

    def test_rejects_duplicates(self):
        with pytest.raises(AnalysisError):
            validate_variant_labels(["ideal", "ideal"])

    def test_rejects_the_reserved_label(self):
        with pytest.raises(AnalysisError):
            validate_variant_labels(["real", ORIGINAL])
