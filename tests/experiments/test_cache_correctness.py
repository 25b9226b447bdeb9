"""Golden cache-correctness tests: results are bit-identical with the
cache disabled, cold and warm, at any jobs count; warm runs simulate
nothing; interrupted sweeps resume from the finished units."""

import dataclasses
import os
import pickle

import pytest

from repro.core import executor as executor_module
from repro.core.executor import SweepTaskResult
from repro.errors import StoreError
from repro.experiments import (
    ExperimentSpec,
    plan_experiment,
    preview_experiment,
    run_experiment,
)
from repro.experiments.runner import _lookup
from repro.store import FileResultStore
from repro.store.serde import CACHED_RESULT_FIELDS

SPEC = ExperimentSpec(
    apps=("sancho-loop",),
    app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(50.0, 500.0, 5000.0),
    chunking={"policy": "fixed-count", "count": 4})

#: The same grid on a network without limited resources: each variant's
#: three cells replay as one cohort, so the run has three units.
PROVEN = dataclasses.replace(SPEC, platform={"input_links": 0,
                                             "output_links": 0})


def stable_rows(result):
    """Tidy rows minus wall-clock timing (not reproducible across runs)."""
    return [{key: value for key, value in row.items()
             if key != "task_seconds"}
            for row in result.to_rows()]


@pytest.fixture
def count_simulations(monkeypatch):
    """Count in-process replays (serial path runs in this process)."""
    calls = []
    original = executor_module._simulate

    def counting(task, trace, collect_timeline):
        calls.append(task.label)
        return original(task, trace, collect_timeline)

    monkeypatch.setattr(executor_module, "_simulate", counting)
    return calls


class TestGoldenEquivalence:
    def test_disabled_cold_and_warm_agree(self, store):
        uncached = run_experiment(SPEC)
        cold = run_experiment(SPEC, store=store)
        warm = run_experiment(SPEC, store=store)

        # Scalars agree everywhere; task_seconds is the producing run's
        # wall clock, so only independent executions (uncached vs cold)
        # differ on it.
        assert stable_rows(cold) == stable_rows(uncached)
        assert stable_rows(warm) == stable_rows(uncached)
        # A warm run replays the cold run's timings too: byte-identical.
        assert warm.to_rows() == cold.to_rows()
        assert warm.to_json() == cold.to_json()
        assert warm.to_csv() == cold.to_csv()

    def test_rows_identical_across_jobs_counts(self, tmp_path):
        with FileResultStore(tmp_path / "serial") as serial_store, \
                FileResultStore(tmp_path / "pool") as pool_store:
            serial = run_experiment(SPEC.with_jobs(1), store=serial_store)
            parallel = run_experiment(SPEC.with_jobs(2), store=pool_store)

            assert stable_rows(parallel) == stable_rows(serial)
            # Both stores hold the same entries under the same keys.
            assert set(serial_store.keys()) == set(pool_store.keys())
            # And a warm serial run is served from the pool-written store.
            warm = run_experiment(SPEC.with_jobs(1), store=pool_store)
        assert warm.cache_stats()["hits"] == len(warm.provenance)
        assert stable_rows(warm) == stable_rows(serial)

    def test_warm_run_simulates_nothing(self, store, tmp_path, count_simulations):
        run_experiment(SPEC, store=store)
        assert len(count_simulations) == 9  # 3 bandwidths x 3 variants

        count_simulations.clear()
        warm = run_experiment(SPEC, store=store)
        assert count_simulations == []
        assert warm.cache_stats() == {
            "enabled": True, "hits": 9, "misses": 0,
            "location": str(tmp_path)}


class TestResumability:
    def test_interrupted_sweep_resumes_from_finished_cells(
            self, store, count_simulations):
        # First invocation "completed" only the low-bandwidth cells before
        # being interrupted: simulate that by running a narrower spec.
        partial = ExperimentSpec(
            apps=SPEC.apps, app_options=SPEC.app_options_dict(),
            bandwidths=SPEC.bandwidths[:1], chunking=SPEC.chunking_dict())
        run_experiment(partial, store=store)
        assert len(count_simulations) == 3

        count_simulations.clear()
        resumed = run_experiment(SPEC, store=store)
        # Only the unfinished cells were replayed.
        assert len(count_simulations) == 6
        assert resumed.cache_stats()["hits"] == 3
        assert resumed.cache_stats()["misses"] == 6
        assert stable_rows(resumed) == stable_rows(run_experiment(SPEC))

    @pytest.mark.parametrize("spec", [SPEC, PROVEN], ids=["cells", "cohorts"])
    def test_workers_write_through_immediately(self, store, spec):
        """Every completed cell is persisted even when run on a pool."""
        run_experiment(spec.with_jobs(2), store=store)
        assert store.stats().entries == 9

    def test_a_failing_unit_keeps_the_units_before_it(self, tmp_path,
                                                      monkeypatch):
        widths = []
        replay = executor_module._run_cohort

        def third_unit_fails(cohort, trace):
            widths.append(cohort.width)
            if len(widths) == 3:
                raise RuntimeError("interrupted")
            return replay(cohort, trace)

        monkeypatch.setattr(executor_module, "_run_cohort", third_unit_fails)
        with FileResultStore(tmp_path) as store, \
                pytest.raises(RuntimeError, match="interrupted"):
            run_experiment(PROVEN, store=store)
        with FileResultStore(tmp_path) as reopened:
            assert reopened.verify() == (widths[0] + widths[1], [])
        assert widths[0] + widths[1] == 6

    def test_a_unit_whose_writes_fail_part_way_leaves_none_of_its_cells(
            self, tmp_path, monkeypatch):
        put = FileResultStore.put
        keys = []

        def second_write_fails(store, key, payload):
            keys.append(key)
            if len(keys) == 2:
                store._connection().execute("PRAGMA query_only = ON")
            put(store, key, payload)

        monkeypatch.setattr(FileResultStore, "put", second_write_fails)
        with FileResultStore(tmp_path) as store, \
                pytest.raises(StoreError, match="cannot write"):
            run_experiment(PROVEN, store=store)
        with FileResultStore(tmp_path) as reopened:
            assert reopened.stats().entries == 0
            assert keys[0] not in reopened


class TestProvenance:
    def test_cold_run_reports_every_task_simulated(self, store):
        cold = run_experiment(SPEC, store=store)
        assert cold.provenance is not None
        assert len(cold.provenance) == 9
        assert all(not entry.cached for entry in cold.provenance)
        assert cold.cached_tasks() == []
        assert sorted(entry.index for entry in cold.provenance) == \
            list(range(9))

    def test_warm_run_reports_every_task_cached(self, store):
        run_experiment(SPEC, store=store)
        warm = run_experiment(SPEC, store=store)
        assert all(entry.cached for entry in warm.provenance)
        assert len(warm.cached_tasks()) == 9
        assert all(len(entry.key) == 64 for entry in warm.provenance)

    def test_uncached_run_has_no_provenance(self):
        result = run_experiment(SPEC)
        assert result.provenance is None
        assert result.cache_stats()["enabled"] is False
        assert result.cache_stats()["misses"] == 9

    def test_summary_reports_the_cache(self, store):
        run_experiment(SPEC, store=store)
        warm = run_experiment(SPEC, store=store)
        assert "result cache: 9 hit(s), 0 simulated" in warm.summary()


class TestFullResultsBypass:
    def test_studies_bypass_the_cache(self, store):
        single = ExperimentSpec(
            apps=SPEC.apps, app_options=SPEC.app_options_dict(),
            chunking=SPEC.chunking_dict())
        result = run_experiment(single, full_results=True, store=store)
        assert result.metadata["cache"]["enabled"] is False
        assert "bypassed" in result.metadata["cache"]
        assert store.stats().entries == 0  # timelines are never cached
        assert result.studies()  # the full-results path still works

    def test_corrupt_entry_degrades_to_a_miss(self, store, store_rows,
                                              count_simulations):
        run_experiment(SPEC, store=store)
        store_rows(store.root).execute(
            "UPDATE entries SET payload = CAST('{broken' AS BLOB)")
        count_simulations.clear()
        rerun = run_experiment(SPEC, store=store)
        assert len(count_simulations) == 9  # everything re-simulated
        assert rerun.cache_stats()["hits"] == 0

    def test_undecodable_entry_is_a_miss_and_rewritten(self, store,
                                                       store_rows,
                                                       count_simulations):
        cold = run_experiment(SPEC, store=store)
        victim = next(store.keys())
        store_rows(store.root).execute(
            "UPDATE entries SET payload = ? WHERE digest = ?",
            (b"\xff\xfe\x00garbage", victim))
        count_simulations.clear()
        rerun = run_experiment(SPEC, store=store)
        assert len(count_simulations) == 1
        assert rerun.cache_stats()["hits"] == 8
        assert stable_rows(rerun) == stable_rows(cold)
        assert store.verify() == (9, [])  # the entry was rewritten


class TestLookup:
    """What a run serves from the store, and how a hit is rebuilt."""

    def test_preview_reports_what_the_run_serves(self, store, store_rows):
        run_experiment(SPEC, store=store)
        victim = next(store.keys())
        # A damaged row still exists, but its checksum no longer holds.
        store_rows(store.root).execute(
            "UPDATE entries SET checksum = 'damaged' WHERE digest = ?",
            (victim,))
        preview = preview_experiment(SPEC, store=store, precheck=False)
        rerun = run_experiment(SPEC, store=store)
        assert preview.statuses == ["hit" if entry.cached else "miss"
                                    for entry in rerun.provenance]
        assert (preview.hits, preview.misses) == (8, 1)
        assert [key.digest for key, status
                in zip(preview.keys, preview.statuses)
                if status == "miss"] == [victim]

    def test_a_hit_equals_the_constructed_result(self, store):
        run_experiment(SPEC, store=store)
        plan = plan_experiment(SPEC)
        keys = plan.cell_keys()
        served = _lookup(plan.tasks, keys, store)
        assert sorted(served) == list(range(len(plan.tasks)))
        for task, key in zip(plan.tasks, keys):
            payload = store.get(key)
            built = SweepTaskResult(
                index=task.index, variant=task.variant, point=task.point,
                worker_pid=os.getpid(),
                **{field: payload[field] for field in CACHED_RESULT_FIELDS})
            hit = served[task.index]
            assert hit == built and repr(hit) == repr(built)
            # Same attributes in the same order: the same pickle bytes.
            assert pickle.dumps(hit) == pickle.dumps(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                hit.total_time = 0.0

    def test_a_hit_carries_the_readers_pid(self, tmp_path):
        # Pool workers fill the store; the reading process binds its pid.
        run_experiment(dataclasses.replace(SPEC, jobs=2), cache_dir=tmp_path)
        plan = plan_experiment(SPEC)
        with FileResultStore(tmp_path) as store:
            served = _lookup(plan.tasks, plan.cell_keys(), store)
        assert len(served) == len(plan.tasks)
        assert {hit.worker_pid for hit in served.values()} == {os.getpid()}

    def test_unknown_payload_keys_are_ignored(self, store):
        cold = run_experiment(SPEC, store=store)
        plan = plan_experiment(SPEC)
        keys = plan.cell_keys()
        before = _lookup(plan.tasks, keys, store)
        for key in keys:
            store.put(key, {**store.get(key), "from_a_later_format": [1]})
        after = _lookup(plan.tasks, keys, store)
        assert after == before and len(after) == len(plan.tasks)
        fields = {field.name for field in dataclasses.fields(SweepTaskResult)}
        for hit in after.values():
            assert not hasattr(hit, "from_a_later_format")
            assert vars(hit).keys() == fields
        warm = run_experiment(SPEC, store=store)
        assert warm.cache_stats()["hits"] == len(plan.tasks)
        assert warm.to_rows() == cold.to_rows()


class TestSharedNamespace:
    def test_event_filled_store_serves_adaptive(self, store,
                                                count_simulations):
        event = run_experiment(
            dataclasses.replace(SPEC, platform={"replay_backend": "event"}),
            store=store)
        count_simulations.clear()
        adaptive = run_experiment(
            dataclasses.replace(SPEC, platform={"replay_backend": "adaptive"}),
            store=store)
        assert count_simulations == []
        assert adaptive.cache_stats()["hits"] == len(adaptive.provenance)
        assert adaptive.to_rows() == event.to_rows()
