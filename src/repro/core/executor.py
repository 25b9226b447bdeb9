"""Parallel sweep execution.

The paper's methodology is embarrassingly parallel: one traced run is
replayed on many configurable platforms (bandwidths x patterns x mechanisms
x applications), and every replay is independent of the others.  The
:class:`SweepExecutor` exploits that:

1. a sweep is *expanded* into self-contained :class:`SweepTask` units, one
   per (trace variant, platform point) pair;
2. the tasks are *executed* either serially in-process (``jobs=1``, the
   default, so a plain sweep stays deterministic and dependency-free) or
   fanned out over a :class:`concurrent.futures.ProcessPoolExecutor`;
3. the per-task results are *merged* back deterministically, grouped by
   platform point and sorted in bandwidth order, so a parallel sweep is
   bit-identical to the serial one.

Variant traces are transformed once in the parent process, serialised once
(:meth:`Trace.to_dict`) and shipped to every worker at pool start-up via the
pool initializer; each worker deserialises a variant at most once and caches
the :class:`Trace` for all the tasks it runs.  Tasks therefore only carry a
key into the variant table, which keeps the per-task pickling cost constant
regardless of the trace size.
"""

from __future__ import annotations

import inspect
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

from repro.core.analysis import ORIGINAL, SweepPoint
from repro.dimemas.gridreplay import replay_cohort
from repro.dimemas.platform import Platform
from repro.dimemas.results import SimulationResult
from repro.dimemas.simulator import DimemasSimulator
from repro.dimemas.windows import export_facts, seed_facts
from repro.errors import AnalysisError, ConfigurationError
from repro.store.serde import payload_of
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.base import ResultStore
    from repro.store.keys import CellKey


def validate_variant_labels(labels: Iterable[str]) -> List[str]:
    """Reject duplicate variant labels and collisions with ``original``.

    Sweeps key their variant traces by label; a duplicate label (or a label
    equal to the reserved :data:`ORIGINAL`) would silently clobber an
    earlier variant and corrupt the sweep.
    """
    seen: List[str] = []
    for label in labels:
        if label == ORIGINAL:
            raise AnalysisError(
                f"variant label {label!r} collides with the reserved "
                f"label of the non-overlapped execution")
        if label in seen:
            raise AnalysisError(f"duplicate variant label {label!r} in sweep")
        seen.append(label)
    return seen


@dataclass(frozen=True)
class SweepTask:
    """One self-contained replay unit: one trace variant on one platform.

    ``point`` is the ordinal of the platform point within the sweep grid;
    :meth:`SweepExecutor.merge` groups by it, so two grid points that happen
    to share a bandwidth value stay separate sweep rows.

    ``collect_timeline`` selects the timeline recorder for metric-only
    replays: sweeps discard timelines, so it defaults off and the replay
    skips the recording cost entirely (every metric is bit-identical).
    Full-result executions (studies) always record.
    """

    index: int
    variant: str
    trace_key: str
    platform: Platform
    label: str
    point: int = 0
    collect_timeline: bool = False


@dataclass(frozen=True)
class CohortTask:
    """A batch of sweep tasks replayed together by the grid-vectorized path.

    Every member shares one trace variant and the structural platform axes
    (see :func:`repro.dimemas.gridreplay.cohort_signature`); only scalar
    axes like bandwidth, latency or CPU speed differ, so one vectorized
    walk evaluates all members at once.  A batch may hold a single task.
    Members keep their own indices, labels and cache keys: results split
    back out per cell, and write-through caching is indistinguishable from
    per-cell execution.  Cohorts are metric-only -- full-result (timeline)
    replays never batch.
    """

    tasks: Tuple[SweepTask, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise AnalysisError("a cohort task needs at least one member")
        keys = {task.trace_key for task in self.tasks}
        if len(keys) > 1:
            raise AnalysisError(
                f"cohort members must share one trace variant, got {keys}")

    @property
    def trace_key(self) -> str:
        return self.tasks[0].trace_key

    @property
    def width(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class SweepTaskResult:
    """Scalar metrics of one replayed task (cheap to ship across processes)."""

    index: int
    variant: str
    bandwidth_mbps: float
    total_time: float
    communication_fraction: float
    max_compute_time: float
    elapsed_seconds: float
    worker_pid: int
    point: int = 0
    topology: str = "flat"
    collective_model: str = "analytical"
    transfers: int = 0
    bytes_transferred: int = 0
    mean_queue_time: float = 0.0
    mean_transfer_time: float = 0.0
    intranode_share: float = 0.0
    collective_transfers: int = 0
    collective_bytes: int = 0
    collective_share: float = 0.0

    def network_summary(self) -> Dict[str, float]:
        """The network counters this task carries, keyed like the fabric's."""
        return {
            "transfers": self.transfers,
            "bytes_transferred": self.bytes_transferred,
            "mean_queue_time": self.mean_queue_time,
            "mean_transfer_time": self.mean_transfer_time,
            "intranode_share": self.intranode_share,
            "collective_transfers": self.collective_transfers,
            "collective_bytes": self.collective_bytes,
            "collective_share": self.collective_share,
        }


# -- task execution (both sides) ----------------------------------------------

# Custom simulators predate the collect_timeline kwarg and only promise
# ``simulate(trace, platform=..., label=...)``; probe whether a simulator
# accepts the recorder toggle before passing it.  The result is cached per
# underlying ``simulate`` callable (one entry per class for ordinary
# methods, one per callable for instance-attribute simulate functions), so
# two instances never share a wrong answer.
_COLLECT_KWARG_SUPPORT: Dict[Any, bool] = {}


def _supports_collect_timeline(simulator: DimemasSimulator) -> bool:
    simulate = getattr(simulator, "simulate", None)
    probe_key = getattr(simulate, "__func__", simulate)
    supported = _COLLECT_KWARG_SUPPORT.get(probe_key)
    if supported is None:
        try:
            parameters = inspect.signature(simulate).parameters
            supported = ("collect_timeline" in parameters
                         or any(parameter.kind is parameter.VAR_KEYWORD
                                for parameter in parameters.values()))
        except (TypeError, ValueError):
            supported = False
        _COLLECT_KWARG_SUPPORT[probe_key] = supported
    return supported


def _simulate(task: SweepTask, trace: Trace,
              simulator: Optional[DimemasSimulator],
              collect_timeline: bool) -> SimulationResult:
    """Replay one task, honouring a custom simulator when one is supplied."""
    simulator = simulator or DimemasSimulator(task.platform)
    if _supports_collect_timeline(simulator):
        return simulator.simulate(trace, platform=task.platform,
                                  label=task.label,
                                  collect_timeline=collect_timeline)
    return simulator.simulate(trace, platform=task.platform, label=task.label)


def _replay(task: SweepTask, trace: Trace,
            simulator: Optional[DimemasSimulator]) -> SimulationResult:
    """Full-result replay: shipped results carry timelines by contract."""
    return _simulate(task, trace, simulator, collect_timeline=True)


def _task_result(task: SweepTask, result: SimulationResult,
                 elapsed_seconds: float) -> SweepTaskResult:
    """The scalar metrics of one finished task (shared by both paths)."""
    network = result.network
    return SweepTaskResult(
        index=task.index,
        variant=task.variant,
        bandwidth_mbps=task.platform.bandwidth_mbps,
        total_time=result.total_time,
        communication_fraction=result.communication_fraction(),
        max_compute_time=result.max_compute_time(),
        elapsed_seconds=elapsed_seconds,
        worker_pid=os.getpid(),
        point=task.point,
        topology=task.platform.topology.kind,
        collective_model=task.platform.collective_model.to_string(),
        transfers=network.get("transfers", 0),
        bytes_transferred=network.get("bytes_transferred", 0),
        mean_queue_time=network.get("mean_queue_time", 0.0),
        mean_transfer_time=network.get("mean_transfer_time", 0.0),
        intranode_share=network.get("intranode_share", 0.0),
        collective_transfers=network.get("collective_transfers", 0),
        collective_bytes=network.get("collective_bytes", 0),
        collective_share=network.get("collective_share", 0.0))


def _metrics(task: SweepTask, trace: Trace,
             simulator: Optional[DimemasSimulator]) -> SweepTaskResult:
    start = time.perf_counter()
    result = _simulate(task, trace, simulator,
                       collect_timeline=task.collect_timeline)
    return _task_result(task, result, time.perf_counter() - start)


def _run_cohort(cohort: CohortTask, trace: Trace) -> List[SweepTaskResult]:
    """Replay one cohort batch; the batch wall time is apportioned evenly.

    Per-cell ``elapsed_seconds`` cannot be attributed exactly (the point of
    the batch is that the cells share one walk), so each member reports the
    batch time divided by the width -- the aggregate sweep timing stays
    truthful and cached rows keep a meaningful per-cell cost.
    """
    tasks = cohort.tasks
    start = time.perf_counter()
    results = replay_cohort(trace, [task.platform for task in tasks],
                            [task.label for task in tasks])
    elapsed = (time.perf_counter() - start) / len(tasks)
    return [_task_result(task, result, elapsed)
            for task, result in zip(tasks, results)]


def _lookup_trace(traces: Dict[str, Any], key: str) -> Any:
    try:
        return traces[key]
    except KeyError:
        raise AnalysisError(
            f"task references unknown trace variant {key!r}") from None


# -- worker side --------------------------------------------------------------
# The serialised variant table (and the optional custom simulator) is
# installed once per worker process through the pool initializer, so it is
# pickled once per worker rather than once per task; tasks reference it by
# key, and each worker deserialises a variant at most once.  The serial path
# never touches these globals, so in-process execution is reentrant.

_TRACE_TABLE: Dict[str, Dict[str, Any]] = {}
_TRACE_CACHE: Dict[str, Trace] = {}
_TRACE_DIGESTS: Dict[str, str] = {}
_SIMULATOR: Optional[DimemasSimulator] = None
_STORE: Optional["ResultStore"] = None
_CACHE_KEYS: Dict[int, "CellKey"] = {}


def _init_worker(table: Dict[str, Dict[str, Any]],
                 simulator: Optional[DimemasSimulator] = None,
                 store: Optional["ResultStore"] = None,
                 cache_keys: Optional[Dict[int, "CellKey"]] = None,
                 digests: Optional[Dict[str, str]] = None,
                 facts: Optional[List[Tuple[Any, ...]]] = None) -> None:
    global _TRACE_TABLE, _TRACE_CACHE, _TRACE_DIGESTS
    global _SIMULATOR, _STORE, _CACHE_KEYS
    _TRACE_TABLE = table
    _TRACE_CACHE = {}
    _TRACE_DIGESTS = digests or {}
    _SIMULATOR = simulator
    _STORE = store
    _CACHE_KEYS = cache_keys or {}
    if facts:
        # Classification facts the parent already proved, keyed by
        # content digest: seeding them means no worker re-runs the
        # symbolic matchability proof for a trace the parent classified.
        seed_facts(facts)


def _worker_trace(key: str) -> Trace:
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        serialized = _lookup_trace(_TRACE_TABLE, key)
        trace = Trace.from_dict(serialized)
        # Adopt the content digest the parent already computed (store-backed
        # runs ship it): preparation is then shared by content, so a worker
        # that sees the same trace content again -- under another variant
        # key or across resumed sweeps -- never recompiles it.
        digest = _TRACE_DIGESTS.get(key)
        if digest is not None:
            trace.adopt_digest(digest)
        # Normalise once per worker: every task this worker runs against the
        # variant reuses the prepared (opcode-tagged) record stream.
        trace.prepared()
        _TRACE_CACHE[key] = trace
    return trace


def _store_results(tasks: Sequence[SweepTask],
                   results: Sequence[SweepTaskResult],
                   store: Optional["ResultStore"],
                   cache_keys: Dict[int, "CellKey"]) -> None:
    """Write one finished unit back through the result store (if keyed).

    A unit's results are persisted the moment they exist -- in the worker
    process, before anything is shipped back -- and commit together, so an
    interrupted sweep keeps every completed unit and a re-run only replays
    the unfinished ones.
    """
    if store is None:
        return
    with store.batch():
        for task, result in zip(tasks, results):
            key = cache_keys.get(task.index)
            if key is not None:
                store.put(key, payload_of(result))


def _run_task_full(task: SweepTask) -> SimulationResult:
    return _replay(task, _worker_trace(task.trace_key), _SIMULATOR)


def _run_task_metrics(task: SweepTask) -> SweepTaskResult:
    result = _metrics(task, _worker_trace(task.trace_key), _SIMULATOR)
    _store_results((task,), (result,), _STORE, _CACHE_KEYS)
    return result


def _run_cohort_metrics(cohort: CohortTask) -> List[SweepTaskResult]:
    results = _run_cohort(cohort, _worker_trace(cohort.trace_key))
    _store_results(cohort.tasks, results, _STORE, _CACHE_KEYS)
    return results


def _run_unit_metrics(unit: Union[SweepTask, "CohortTask"]
                      ) -> List[SweepTaskResult]:
    """Pool worker for mixed task/cohort streams: always returns a batch."""
    if type(unit) is CohortTask:
        return _run_cohort_metrics(unit)
    return [_run_task_metrics(unit)]


class SweepExecutor:
    """Executes sweep tasks serially or on a multi-process worker pool.

    ``jobs=1`` (the default) replays every task in-process, preserving the
    behaviour of the original serial drivers; ``jobs=N`` fans the tasks out
    over ``N`` worker processes; ``jobs=0`` uses every available core.
    """

    def __init__(self, jobs: Optional[int] = None):
        if jobs is None:
            jobs = 1
        elif jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(
                f"jobs must be >= 1 (or 0 for all cores), got {jobs!r}")
        self.jobs = int(jobs)

    # -- expansion ---------------------------------------------------------
    @staticmethod
    def expand(variants: Dict[str, Trace], platforms: Sequence[Platform],
               app_name: str = "trace") -> List[SweepTask]:
        """Expand a variant x platform grid into self-contained tasks.

        Expanded tasks are metric-only and run timeline-free (the
        :class:`SweepTask` default); callers that need recorded timelines
        execute with ``full_results`` or build tasks with
        ``collect_timeline=True`` themselves.
        """
        tasks: List[SweepTask] = []
        for point, platform in enumerate(platforms):
            for variant in variants:
                label = f"{app_name}:{variant}@{platform.bandwidth_mbps}MBps"
                if platform.topology.kind != "flat":
                    label += f"/{platform.topology.kind}"
                if platform.collective_model.kind != "analytical":
                    label += f"/{platform.collective_model.kind}"
                tasks.append(SweepTask(
                    index=len(tasks),
                    variant=variant,
                    trace_key=variant,
                    platform=platform,
                    label=label,
                    point=point))
        return tasks

    # -- execution ---------------------------------------------------------
    def execute(self, tasks: Sequence[Union[SweepTask, CohortTask]],
                traces: Dict[str, Trace],
                full_results: bool = False,
                simulator: Optional[DimemasSimulator] = None,
                store: Optional["ResultStore"] = None,
                cache_keys: Optional[Dict[int, "CellKey"]] = None
                ) -> Union[List[SweepTaskResult], List[SimulationResult]]:
        """Run every task and return the results in task order.

        With ``full_results`` the workers ship back whole
        :class:`SimulationResult` objects (timelines included) instead of the
        scalar :class:`SweepTaskResult` metrics; batch studies need the
        former, bandwidth sweeps only the latter.  ``simulator`` replays the
        tasks through a caller-supplied (picklable) simulator instead of a
        fresh :class:`DimemasSimulator` per task.

        ``store`` plus ``cache_keys`` (task index -> :class:`CellKey`)
        enables write-through: the process that computed a unit (a cohort
        or a single task) commits its metric results in one store batch as
        soon as the unit finishes, which is what makes interrupted sweeps
        resumable.  Full-result replays are never written through
        (timelines are not cached).

        The sequence may mix :class:`SweepTask` units with
        :class:`CohortTask` batches (metric mode only).  When it does, the
        flattened per-cell results come back sorted by task index -- batch
        execution order is a scheduling detail, never an output order --
        and parallel runs submit units largest-first (estimated trace
        records x cohort width) so one fat batch cannot serialize the tail
        of the sweep.
        """
        cache_keys = cache_keys or {}
        if full_results or not cache_keys:
            store = None
        units = list(tasks)
        cohorts_present = any(type(unit) is CohortTask for unit in units)
        if cohorts_present:
            if full_results:
                raise AnalysisError(
                    "cohort batch tasks are metric-only; expand them into "
                    "per-cell tasks for full results")
            if simulator is not None and type(simulator) is not DimemasSimulator:
                raise AnalysisError(
                    "cohort batch tasks replay through the stock simulator; "
                    "custom simulators need per-cell tasks")
        flat_tasks: List[SweepTask] = []
        for unit in units:
            if type(unit) is CohortTask:
                flat_tasks.extend(unit.tasks)
            else:
                flat_tasks.append(unit)
        if self.jobs == 1 or len(units) <= 1:
            # Warm the preparation cache up front so the first task of a
            # variant is not charged for the normalisation of all of them.
            # Nothing here hashes trace content: cell keys need only the
            # originals' digests (the plan computes those), and within one
            # run every memo lives on the trace objects themselves.
            for task in flat_tasks:
                _lookup_trace(traces, task.trace_key).prepared()
            results: List[Any] = []
            for unit in units:
                if type(unit) is CohortTask:
                    batch = _run_cohort(
                        unit, _lookup_trace(traces, unit.trace_key))
                    _store_results(unit.tasks, batch, store, cache_keys)
                    results.extend(batch)
                elif full_results:
                    results.append(_replay(
                        unit, _lookup_trace(traces, unit.trace_key),
                        simulator))
                else:
                    result = _metrics(
                        unit, _lookup_trace(traces, unit.trace_key),
                        simulator)
                    _store_results((unit,), (result,), store, cache_keys)
                    results.append(result)
            if cohorts_present:
                results.sort(key=lambda result: result.index)
            return results
        table = {key: trace.to_dict() for key, trace in traces.items()}
        # Ship the classification facts the parent has (or can cheaply
        # re-derive from its memo) for every adaptive cell, so no worker
        # re-proves what the parent already proved.  Facts are
        # digest-keyed, so shipping them requires shipping digests too.
        facts_rows: List[Tuple[Any, ...]] = []
        facts_seen = set()
        if not full_results:
            for task in flat_tasks:
                platform = task.platform
                if (platform.replay_backend != "adaptive"
                        or platform.cpu_contention):
                    continue
                fact_key = (task.trace_key, platform.eager_threshold,
                            platform.processors_per_node)
                if fact_key in facts_seen:
                    continue
                facts_seen.add(fact_key)
                trace = _lookup_trace(traces, task.trace_key)
                trace.digest()
                row = export_facts(trace, platform.eager_threshold,
                                   platform.processors_per_node)
                if row is not None:
                    facts_rows.append(row)
        digests = ({key: trace.digest() for key, trace in traces.items()}
                   if store is not None or facts_rows else None)
        if store is not None:
            # A store connection must not cross fork: workers open their own.
            store.close()
        initargs = (table, simulator, store, cache_keys, digests, facts_rows)
        if cohorts_present:
            sizes = {key: sum(len(rank_trace) for rank_trace in trace)
                     for key, trace in traces.items()}

            def _estimate(unit) -> int:
                records = sizes.get(unit.trace_key, 1)
                if type(unit) is CohortTask:
                    return records * unit.width
                return records

            def _first_index(unit) -> int:
                return (unit.tasks[0].index if type(unit) is CohortTask
                        else unit.index)

            ordered = sorted(units, key=lambda unit: (-_estimate(unit),
                                                      _first_index(unit)))
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(units)),
                                     initializer=_init_worker,
                                     initargs=initargs) as pool:
                results = [result
                           for batch in pool.map(_run_unit_metrics, ordered)
                           for result in batch]
            results.sort(key=lambda result: result.index)
            return results
        worker = _run_task_full if full_results else _run_task_metrics
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(units)),
                                 initializer=_init_worker,
                                 initargs=initargs) as pool:
            return list(pool.map(worker, units))

    # -- merging -----------------------------------------------------------
    @staticmethod
    def merge(results: Sequence[SweepTaskResult]) -> List[SweepPoint]:
        """Merge task metrics into sweep points, sorted in bandwidth order.

        Results are grouped by their grid-point ordinal (so duplicate
        bandwidth values stay separate rows) and the grouping only depends
        on task metadata, never on completion order, so serial and parallel
        executions merge identically.
        """
        grouped: Dict[int, List[SweepTaskResult]] = {}
        for result in sorted(results, key=lambda r: r.index):
            grouped.setdefault(result.point, []).append(result)
        points: List[SweepPoint] = []
        for group in grouped.values():
            original = next((r for r in group if r.variant == ORIGINAL), None)
            points.append(SweepPoint(
                bandwidth_mbps=group[0].bandwidth_mbps,
                times={r.variant: r.total_time for r in group},
                original_communication_fraction=(
                    original.communication_fraction if original else 0.0),
                original_compute_time=(
                    original.max_compute_time if original else 0.0),
                task_seconds={r.variant: r.elapsed_seconds for r in group},
                network={r.variant: r.network_summary() for r in group}))
        points.sort(key=lambda point: point.bandwidth_mbps)
        return points

    # -- convenience -------------------------------------------------------
    def run_sweep(self, variants: Dict[str, Trace], base_platform: Platform,
                  bandwidths_mbps: Sequence[float], app_name: str = "trace",
                  simulator: Optional[DimemasSimulator] = None
                  ) -> Tuple[List[SweepPoint], float]:
        """Replay every variant at every bandwidth and merge the results.

        Returns the bandwidth-ordered sweep points plus the wall-clock time
        of the replay section (the part the worker pool accelerates).
        """
        if ORIGINAL not in variants:
            raise AnalysisError(
                f"sweep variants must include the {ORIGINAL!r} trace")
        platforms = [base_platform.with_bandwidth(bandwidth)
                     for bandwidth in bandwidths_mbps]
        tasks = self.expand(variants, platforms, app_name=app_name)
        start = time.perf_counter()
        results = self.execute(tasks, variants, simulator=simulator)
        wall_seconds = time.perf_counter() - start
        return self.merge(results), wall_seconds
