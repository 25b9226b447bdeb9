"""Acceptance tests of the grid-vectorized cohort replay path.

``replay_cohort`` evaluates a whole platform cohort -- cells sharing one
trace and the structural platform axes, differing only in scalars like
bandwidth or CPU speed -- in a single structural walk over the trace,
carrying one clock vector per rank.  Its contract is strict:

* on proven contention-free cells the per-lane results are identical to
  the per-cell adaptive backend (the same lane walk at width 1) and to
  the event backend: total time, per-rank statistics and the full
  network-statistics dict;
* cells that are contended, protocol-divergent or otherwise unprovable
  peel off into the existing per-cell path inside the same call, so a
  mixed cohort still returns exactly what per-cell execution would;
* executing cohort batches populates the result cache with byte-identical
  payloads (modulo the producing run's wall clock) under the same cell
  keys as executing the same tasks one by one, at any jobs count.
"""

import dataclasses

import pytest

from repro.apps.registry import APPLICATIONS, create_application
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.executor import CohortTask, SweepExecutor, SweepTask
from repro.dimemas.gridreplay import cohort_signature, replay_cohort
from repro.dimemas.platform import Platform
from repro.dimemas.simulator import DimemasSimulator
from repro.errors import AnalysisError, SimulationError
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.plan import group_cohorts, plan_experiment
from repro.store import FileResultStore
from repro.tracing.records import CpuBurst, SendRecord
from repro.tracing.trace import RankTrace, Trace

ALL_APPS = tuple(sorted(APPLICATIONS))
TOPOLOGIES = ("flat", "tree:radix=2", "torus:torus_width=2")

#: Proven contention-free base platforms (adaptive backend) per topology.
PROVEN = {
    "flat": Platform(bandwidth_mbps=50.0, num_buses=0, input_links=0,
                     output_links=0, replay_backend="adaptive"),
    "tree:radix=2": Platform(bandwidth_mbps=50.0,
                             topology="tree:radix=2,links=0",
                             replay_backend="adaptive"),
    "torus:torus_width=2": Platform(bandwidth_mbps=50.0,
                                    topology="torus:torus_width=2,links=0",
                                    replay_backend="adaptive"),
}

_TRACES = {}


def _trace(app_name, ranks=4, iterations=2):
    key = (app_name, ranks, iterations)
    if key not in _TRACES:
        environment = OverlapStudyEnvironment(
            chunking=FixedCountChunking(count=4))
        _TRACES[key] = environment.trace(create_application(
            app_name, num_ranks=ranks, iterations=iterations))
    return _TRACES[key]


def _cohort_of(base, bandwidths):
    return [dataclasses.replace(base, bandwidth_mbps=bandwidth)
            for bandwidth in bandwidths]


def _simulate(trace, platform):
    return DimemasSimulator(collect_timeline=False).simulate(
        trace, platform=platform)


def _assert_cell_equal(got, expected):
    assert got.total_time == expected.total_time
    assert got.ranks == expected.ranks
    assert got.network == expected.network


class TestCohortBitExactness:
    """Batched results == per-cell adaptive == event backend, per lane."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("app_name", ALL_APPS)
    def test_matches_per_cell_and_event(self, app_name, topology):
        trace = _trace(app_name)
        platforms = _cohort_of(PROVEN[topology], (10.0, 50.0, 250.0, 5000.0))
        batched = replay_cohort(trace, platforms)
        assert len(batched) == len(platforms)
        for got, platform in zip(batched, platforms):
            _assert_cell_equal(got, _simulate(trace, platform))
            event = _simulate(
                trace, platform.with_replay_backend("event"))
            assert got.total_time == event.total_time
            assert got.ranks == event.ranks
            assert got.network == event.network
        # The batch is marked as such in the per-cell provenance.
        for got in batched:
            summary = got.metadata["adaptive"]
            assert summary["grid_width"] == len(platforms)
            assert summary["proven_exact"] is True

    def test_cpu_speed_and_latency_lanes(self):
        """Scalar axes beyond bandwidth vectorize in the same walk."""
        trace = _trace("nas-cg")
        base = PROVEN["flat"]
        platforms = [
            dataclasses.replace(base, bandwidth_mbps=25.0),
            dataclasses.replace(base, latency=5.0e-4),
            dataclasses.replace(base, relative_cpu_speed=2.0),
            dataclasses.replace(base, mpi_overhead=2.0e-5),
        ]
        for got, platform in zip(replay_cohort(trace, platforms), platforms):
            _assert_cell_equal(got, _simulate(trace, platform))

    def test_labels_flow_into_metadata(self):
        trace = _trace("nas-cg")
        platforms = _cohort_of(PROVEN["flat"], (10.0, 100.0))
        labels = ["cell-a", "cell-b"]
        for got, label in zip(replay_cohort(trace, platforms, labels), labels):
            assert got.metadata["label"] == label


class TestMixedCohorts:
    """Unprovable lanes peel off to the per-cell path inside the batch."""

    def test_contended_members_fall_back(self):
        trace = _trace("sweep3d")
        proven = _cohort_of(PROVEN["flat"], (25.0, 250.0))
        contended = [
            Platform(bandwidth_mbps=25.0, input_links=1, output_links=1,
                     replay_backend="adaptive"),
            Platform(bandwidth_mbps=25.0, num_buses=2,
                     replay_backend="adaptive"),
        ]
        platforms = [proven[0], contended[0], proven[1], contended[1]]
        for got, platform in zip(replay_cohort(trace, platforms), platforms):
            _assert_cell_equal(got, _simulate(trace, platform))

    def test_protocol_boundary_splits_lanes(self):
        """Thresholds straddling a message size are distinct cohorts."""
        trace = _trace("nas-cg")
        sizes = sorted({record.size for rank_trace in trace
                        for record in rank_trace
                        if getattr(record, "size", None) is not None
                        and hasattr(record, "dst")})
        assert sizes, "workload must send point-to-point messages"
        boundary = sizes[len(sizes) // 2]
        base = PROVEN["flat"]
        eager = dataclasses.replace(base, eager_threshold=boundary)
        rendezvous = dataclasses.replace(base, eager_threshold=boundary - 1)
        assert (cohort_signature(trace, eager)
                != cohort_signature(trace, rendezvous))
        platforms = [eager, rendezvous,
                     dataclasses.replace(eager, bandwidth_mbps=500.0),
                     dataclasses.replace(rendezvous, bandwidth_mbps=500.0)]
        for got, platform in zip(replay_cohort(trace, platforms), platforms):
            _assert_cell_equal(got, _simulate(trace, platform))

    def test_single_member_cohort_rides_the_lane_walk(self):
        trace = _trace("nas-cg")
        platform = PROVEN["flat"]
        (got,) = replay_cohort(trace, [platform])
        _assert_cell_equal(got, _simulate(trace, platform))
        assert got.metadata["adaptive"]["grid_width"] == 1

    def test_unreceived_send_raises_the_event_error(self):
        """A defective trace is never batched: it peels off to the event
        walk, which names the send no receive matches."""
        trace = Trace(ranks=[
            RankTrace(rank=0, records=[CpuBurst(instructions=1.0e3),
                                       SendRecord(dst=1, size=10, tag=0)]),
            RankTrace(rank=1, records=[CpuBurst(instructions=1.0e3)]),
        ], mips=1000.0, metadata={"name": "unmatched"})
        with pytest.raises(SimulationError,
                           match=r"TL101 unmatched-send at rank 0, record 1"):
            replay_cohort(trace, _cohort_of(PROVEN["flat"], (10.0, 100.0)))


class TestCohortGrouping:
    """group_cohorts batches exactly the provably-vectorizable tasks."""

    @staticmethod
    def _tasks(platforms, trace_key="app:original"):
        return [SweepTask(index=index, variant="original",
                          trace_key=trace_key, platform=platform,
                          label=f"cell-{index}", point=index)
                for index, platform in enumerate(platforms)]

    def test_groups_scalar_axes_into_one_cohort(self):
        trace = _trace("nas-cg")
        tasks = self._tasks(_cohort_of(PROVEN["flat"],
                                       (10.0, 50.0, 250.0, 1000.0)))
        units = group_cohorts(tasks, {"app:original": trace})
        assert len(units) == 1
        assert isinstance(units[0], CohortTask)
        assert units[0].width == 4
        assert [task.index for task in units[0].tasks] == [0, 1, 2, 3]

    def test_event_backend_never_batches(self):
        trace = _trace("nas-cg")
        platforms = [dataclasses.replace(p, replay_backend="event")
                     for p in _cohort_of(PROVEN["flat"], (10.0, 50.0))]
        tasks = self._tasks(platforms)
        assert group_cohorts(tasks, {"app:original": trace}) == tasks

    def test_contended_tasks_stay_per_cell(self):
        trace = _trace("nas-cg")
        contended = [Platform(bandwidth_mbps=bandwidth, input_links=1,
                              output_links=1, replay_backend="adaptive")
                     for bandwidth in (10.0, 50.0, 250.0)]
        tasks = self._tasks(contended)
        assert group_cohorts(tasks, {"app:original": trace}) == tasks

    def test_units_keep_first_task_order(self):
        trace = _trace("nas-cg")
        proven = _cohort_of(PROVEN["flat"], (10.0, 50.0))
        event = dataclasses.replace(PROVEN["flat"],
                                    replay_backend="event")
        tasks = self._tasks([event, proven[0], proven[1]])
        units = group_cohorts(tasks, {"app:original": trace})
        assert units[0] is tasks[0]
        assert isinstance(units[1], CohortTask)
        assert len(units) == 2

    def test_timeline_tasks_stay_per_cell(self):
        # Full-result runs record timelines, which only per-cell replays
        # do: on a grid of proven cells the runner must not group them.
        full = run_experiment(SWEEP_SPEC, full_results=True)
        assert all(result.timeline.intervals
                   for result in full.simulation_results)
        assert _stable_rows(full) == _stable_rows(run_experiment(SWEEP_SPEC))

    def test_cohort_task_validation(self):
        tasks = self._tasks(_cohort_of(PROVEN["flat"], (10.0, 50.0)))
        with pytest.raises(AnalysisError):
            CohortTask(tasks=())
        other = dataclasses.replace(tasks[1], trace_key="other:original")
        with pytest.raises(AnalysisError):
            CohortTask(tasks=(tasks[0], other))


SWEEP_SPEC = ExperimentSpec(
    apps=("nas-cg", "sweep3d"),
    app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(25.0, 100.0, 400.0, 1600.0),
    patterns=("ideal",),
    chunking={"policy": "fixed-count", "count": 4},
    platform={"replay_backend": "adaptive", "num_buses": 0,
              "input_links": 0, "output_links": 0})


def _stable_rows(result):
    return [{key: value for key, value in row.items()
             if key != "task_seconds"}
            for row in result.to_rows()]


def _stable_payloads(store, keys):
    """Stored payloads keyed by cell digest, minus the producing wall clock."""
    assert set(store.keys()) == {key.digest for key in keys.values()}
    payloads = {}
    for key in keys.values():
        payload = dict(store.get(key))
        payload.pop("elapsed_seconds", None)
        payloads[key.digest] = payload
    return payloads


def _executed(tasks, traces, store, keys):
    """Result rows of ``tasks`` executed in-process, wall clock dropped."""
    results = SweepExecutor().execute(tasks, traces, store=store,
                                      cache_keys=keys)
    return [dataclasses.replace(result, elapsed_seconds=0.0)
            for result in results]


class TestSweepIntegration:
    """Cohort batching through the executor: rows and cache unchanged."""

    @staticmethod
    def _plan():
        plan = plan_experiment(SWEEP_SPEC)
        return plan, plan.traces_for(plan.tasks)

    def test_cache_entries_byte_identical_to_per_cell(self, tmp_path):
        plan, traces = self._plan()
        keys = dict(enumerate(plan.cell_keys()))
        units = group_cohorts(plan.tasks, traces)
        assert all(isinstance(unit, CohortTask) for unit in units)
        with FileResultStore(tmp_path / "grid") as grid_store, \
                FileResultStore(tmp_path / "cell") as cell_store:
            grid = _executed(units, traces, grid_store, keys)
            cell = _executed(plan.tasks, traces, cell_store, keys)
            assert grid == cell
            assert (_stable_payloads(grid_store, keys)
                    == _stable_payloads(cell_store, keys))

    def test_parallel_equals_serial(self):
        serial = run_experiment(SWEEP_SPEC.with_jobs(1))
        parallel = run_experiment(SWEEP_SPEC.with_jobs(2))
        assert _stable_rows(parallel) == _stable_rows(serial)

    def test_parallel_equals_serial_on_a_proven_tree(self):
        spec = dataclasses.replace(SWEEP_SPEC, platform={
            "replay_backend": "adaptive", "topology": "tree:radix=2,links=0"})
        plan = plan_experiment(spec)
        units = group_cohorts(plan.tasks, plan.traces_for(plan.tasks))
        assert all(isinstance(unit, CohortTask) for unit in units)
        serial = run_experiment(spec.with_jobs(1))
        parallel = run_experiment(spec.with_jobs(2))
        assert _stable_rows(parallel) == _stable_rows(serial)
        assert any(row["transfers"] for row in _stable_rows(serial))

    def test_warm_run_serves_grid_written_entries(self, store):
        run_experiment(SWEEP_SPEC, store=store)
        warm = run_experiment(SWEEP_SPEC, store=store)
        stats = warm.cache_stats()
        assert stats["hits"] == len(warm.provenance)
        assert stats["misses"] == 0
