"""One cache-aware runner for every experiment shape.

:func:`run_experiment` is the single execution path behind every sweep,
grid, ablation and study, the CLI and the fluent builder.  It runs a
four-stage pipeline:

1. **plan** -- :func:`~repro.experiments.plan.plan_experiment` expands the
   spec into the keyed (apps x platform grid x variants) task cross-product
   without tracing or replaying anything;
2. **lookup** -- with a result store attached (``store=`` or ``cache_dir=``),
   every task's :class:`~repro.store.keys.CellKey` is consulted and cached
   results are rehydrated without simulating;
3. **execute** -- only the *missing* tasks flow into one
   :class:`~repro.core.executor.SweepExecutor` pass (a worker pool shared
   across every axis); workers commit each finished unit's results to the
   store in one transaction, so an interrupted sweep resumes from the
   finished units on the next invocation of the same spec;
4. **assemble** -- cached and fresh results are folded back, in task order,
   into an :class:`~repro.experiments.result.ExperimentResult` with
   per-task hit/miss provenance.

The merge only depends on task indices, never on where a result came from,
so the assembled scalars are bit-identical with the cache disabled, cold and
warm, at any ``jobs`` count (the cache-correctness golden tests pin this).

Grid expansion order is part of the contract: collective model is the
outermost axis, then topology, node mapping, latency, eager threshold and
CPU speed, with bandwidth innermost.  A spec that only sweeps bandwidth
therefore replays exactly the platform list of the pre-redesign bandwidth
sweep, and a spec that sweeps topologies x bandwidths that of the topology
sweep; the golden-equivalence tests pin both against replicas of those
drivers.
"""

from __future__ import annotations

import operator
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING, Union

from repro._collector import collector_paused
from repro.core.analysis import BandwidthSweep
from repro.core.executor import (
    SweepExecutor,
    SweepTask,
    SweepTaskResult,
    _task_result,
)
from repro.core.mechanisms import OverlapMechanism
from repro.dimemas.platform import Platform
from repro.dimemas.results import SimulationResult
from repro.errors import TraceLintError
from repro.experiments.plan import (  # noqa: F401  (re-exported legacy surface)
    ExperimentPlan,
    VariantPlan,
    analyze_tasks,
    build_chunking,
    build_environment,
    build_platform,
    create_apps,
    expand_grid,
    group_cohorts,
    plan_experiment,
    variant_plans,
)
from repro.experiments.result import (
    ExperimentCell,
    ExperimentResult,
    TaskProvenance,
)
from repro.experiments.spec import ExperimentSpec
from repro.store import CellKey, ResultStore, open_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.diagnostics import AnalysisReport
    from repro.apps.base import ApplicationModel
    from repro.core.environment import OverlapStudyEnvironment


#: A task result's fields in declaration order: the cached fields and the
#: run-local ``index``, ``variant``, ``worker_pid`` and ``point``.
_RESULT_FIELDS = tuple(field.name for field in fields(SweepTaskResult))
_result_values = operator.itemgetter(*_RESULT_FIELDS)


def _lookup(tasks: Sequence[SweepTask], keys: Sequence[CellKey],
            store: ResultStore) -> Dict[int, SweepTaskResult]:
    """The results ``store`` serves for ``tasks``, by task index.

    One ``get`` per task; the store answers a damaged entry with ``None``,
    so a task is served exactly when its result is here.  A hit binds the
    payload's :data:`~repro.store.serde.CACHED_RESULT_FIELDS`, and no other
    key of it, with the task's run-local fields and this process's pid into
    a frozen :class:`SweepTaskResult`, without running its constructor.
    The fields go in in declaration order, so the instance shares its
    class's attribute-key table as a constructed one does.
    """
    pid = os.getpid()
    served: Dict[int, SweepTaskResult] = {}
    for task, key in zip(tasks, keys):
        payload = store.get(key)
        if payload is None:
            continue
        result = object.__new__(SweepTaskResult)
        result.__dict__.update(zip(_RESULT_FIELDS, _result_values(dict(
            payload, index=task.index, variant=task.variant,
            worker_pid=pid, point=task.point))))
        served[task.index] = result
    return served


@dataclass(frozen=True)
class ExperimentPreview:
    """What ``run --dry-run`` shows: the keyed grid and its cache status.

    ``statuses`` is index-aligned with ``plan.tasks`` and ``keys``; each
    entry is ``"hit"``, ``"miss"`` or (without a store) ``"uncached"``.
    ``lint`` is the static-analysis report over the original traces (the
    dry-run never transforms variants; the full per-variant check runs in
    :func:`run_experiment`'s precheck or ``repro-overlap check --spec``), or
    ``None`` when previewed with ``precheck=False``.
    """

    plan: ExperimentPlan
    keys: List[CellKey]
    statuses: List[str]
    lint: Optional[AnalysisReport] = None

    @property
    def hits(self) -> int:
        return sum(1 for status in self.statuses if status == "hit")

    @property
    def misses(self) -> int:
        return sum(1 for status in self.statuses if status == "miss")


def preview_experiment(spec: ExperimentSpec,
                       environment: Optional["OverlapStudyEnvironment"] = None,
                       platform: Optional[Platform] = None,
                       apps: Optional[Sequence["ApplicationModel"]] = None,
                       store: Optional[ResultStore] = None,
                       cache_dir: Optional[Union[str, Path]] = None,
                       precheck: bool = True
                       ) -> ExperimentPreview:
    """Plan ``spec`` and report per-task cache status without simulating.

    Traces the apps (their content digests feed the keys) but never runs
    an overlap transformation or a replay.  With ``precheck`` (the default)
    the already-materialised original traces are additionally run through
    the static analyzer at every eager threshold of the grid, so the dry
    run reports diagnostic counts next to the cache stats.
    """
    if store is None and cache_dir is not None:
        with open_store(cache_dir) as opened:
            return preview_experiment(spec, environment, platform, apps,
                                      store=opened, precheck=precheck)
    plan = plan_experiment(spec, environment=environment, platform=platform,
                           apps=apps)
    keys = plan.cell_keys()
    if store is None:
        statuses = ["uncached"] * len(keys)
    else:
        served = _lookup(plan.tasks, keys, store)
        statuses = ["hit" if task.index in served else "miss"
                    for task in plan.tasks]
    lint = None
    if precheck:
        from repro.analysis import AnalysisReport, analyze_trace

        thresholds = dict.fromkeys(
            p.eager_threshold for p in plan.flat_platforms)
        lint = AnalysisReport.merged(
            (analyze_trace(plan.original_trace(label),
                           eager_threshold=eager, source=label)
             for label in plan.app_labels for eager in thresholds),
            metadata={"apps": plan.app_labels,
                      "eager_thresholds": list(thresholds)})
    return ExperimentPreview(plan=plan, keys=keys, statuses=statuses,
                             lint=lint)


@collector_paused()
def run_experiment(spec: ExperimentSpec,
                   environment: Optional["OverlapStudyEnvironment"] = None,
                   platform: Optional[Platform] = None,
                   apps: Optional[Sequence["ApplicationModel"]] = None,
                   full_results: bool = False,
                   store: Optional[ResultStore] = None,
                   cache_dir: Optional[Union[str, Path]] = None,
                   precheck: bool = True
                   ) -> ExperimentResult:
    """Execute ``spec`` and return the typed result.

    ``environment``, ``platform`` and ``apps`` supply already-built objects
    in place of the spec's sections.  An environment (its platform and
    chunking policy) replaces the ``[platform]`` and
    ``[chunking]`` sections; a platform replaces the environment's as the
    grid's base; app instances, labelled by their names, replace the apps
    the ``apps`` and ``[app]`` sections would create.  When omitted,
    everything is constructed from the spec.

    With ``full_results`` the replays additionally ship whole
    :class:`SimulationResult` objects back (timelines included), which
    :meth:`ExperimentResult.studies` needs -- metric rows then carry no
    per-task timing.  A spec with
    ``collect_timelines`` set implies ``full_results``; otherwise the
    replays run with the null timeline recorder (no timeline cost, and
    every metric stays bit-identical).

    ``store`` (or ``cache_dir``, which opens a
    :class:`~repro.store.filestore.FileResultStore`, closed again before
    returning) attaches the persistent result cache: cached cells are
    returned without simulating, missing cells are replayed and written
    back.  Full-results runs bypass the cache (timelines are not cached) but
    still record why in the result metadata.

    ``precheck`` (the default) statically analyzes every trace the missing
    tasks would replay *before* the executor spins up and raises
    :class:`~repro.errors.TraceLintError` on any error-severity diagnostic;
    pass ``precheck=False`` to opt out (e.g. to reproduce a runtime failure).
    The traces are the ones execution needs anyway, so a clean precheck
    costs no extra tracing or transformation.

    Missing proven adaptive-backend tasks are grouped into platform
    cohorts (:func:`~repro.experiments.plan.group_cohorts`), so one pass
    over each trace evaluates a whole grid slice at once; results are
    reassembled by task index and are identical to the per-cell path's.
    Full-results runs replay every task per cell.  Every replay runs the
    stock :class:`~repro.dimemas.simulator.DimemasSimulator` model.

    The whole call -- planning, tracing, the overlap transform, the
    precheck, every replay, the store writes and the assembly -- runs with
    Python's cyclic garbage collector paused
    (:func:`~repro._collector.collector_paused`): the pipeline makes no
    reference cycles, so a collection would only walk the live traces
    again.  The pause is process-wide, and the collector's state is
    restored when the call returns or raises.
    """
    if store is None and cache_dir is not None:
        with open_store(cache_dir) as opened:
            return run_experiment(spec, environment, platform, apps,
                                  full_results, store=opened,
                                  precheck=precheck)
    full_results = full_results or spec.collect_timelines
    plan = plan_experiment(spec, environment=environment, platform=platform,
                           apps=apps)
    environment = plan.environment
    use_cache = store is not None and not full_results

    start = time.perf_counter()

    # -- lookup ------------------------------------------------------------
    keys: Optional[List[CellKey]] = None
    cached: Dict[int, SweepTaskResult] = {}
    if use_cache:
        keys = plan.cell_keys()
        cached = _lookup(plan.tasks, keys, store)
    missing = [task for task in plan.tasks if task.index not in cached]

    # -- execute -----------------------------------------------------------
    executor = SweepExecutor(jobs=spec.jobs)
    traces = plan.traces_for(missing)
    # The lint metadata must not depend on the hit/miss split (a warm run
    # analyzes nothing), or warm and cold results would stop being
    # byte-identical -- so it records only whether the precheck was on.
    lint_meta: Dict[str, object] = {"enabled": bool(precheck)}
    if precheck and missing:
        report = analyze_tasks(plan, missing, traces)
        if report.errors:
            raise TraceLintError(
                f"static trace analysis rejected the experiment before any "
                f"replay started ({report.summary()}; rerun with "
                f"precheck=False / --no-precheck to bypass):\n"
                + report.render_text(), report=report)
    raw: Sequence[object] = []
    if missing:
        # Grouping classifies every cell, which loads the replay stack; a
        # fully warm run has nothing to group or execute.
        units = missing if full_results else group_cohorts(missing, traces)
        raw = executor.execute(
            units, traces, full_results=full_results,
            store=store if use_cache else None,
            cache_keys=({task.index: keys[task.index] for task in missing}
                        if use_cache else None))
    wall_seconds = time.perf_counter() - start

    # -- assemble ----------------------------------------------------------
    if full_results:
        simulation_results: Optional[Tuple[SimulationResult, ...]] = tuple(raw)
        task_results = [_task_result(task, result, 0.0)
                        for task, result in zip(plan.tasks, raw)]
    else:
        simulation_results = None
        # Fresh results cover only the missing tasks, so the merge keys on
        # the index carried by each result.
        fresh = {result.index: result for result in raw}
        task_results = [cached[index] if index in cached else fresh[index]
                        for index in range(len(plan.tasks))]

    mechanism_label = "+".join(spec.mechanisms)
    topology_keys = [cell.topology for cell in plan.cells]
    collective_model_keys = [cell.collective_model for cell in plan.cells]
    cache_meta: Dict[str, object] = {"enabled": use_cache}
    if store is not None:
        cache_meta["location"] = getattr(store, "location", str(store))
        if full_results:
            cache_meta["bypassed"] = "full-results runs are not cached"
    if use_cache:
        cache_meta["hits"] = len(cached)
        cache_meta["misses"] = len(missing)
    metadata = {
        "mechanism": mechanism_label,
        "chunking": environment.chunking.describe(),
        "platform": plan.base_platform.name,
        "jobs": executor.jobs,
        "replay": {"backend": plan.base_platform.replay_backend},
        "replay_wall_seconds": wall_seconds,
        "cache": cache_meta,
        "lint": lint_meta,
    }

    provenance: Optional[Tuple[TaskProvenance, ...]] = None
    if use_cache:
        provenance = tuple(
            TaskProvenance(index=task.index, label=task.label,
                           key=keys[task.index].digest,
                           cached=task.index in cached)
            for task in plan.tasks)

    result_cells: List[ExperimentCell] = []
    num_variants = len(plan.variant_labels)
    total_points = plan.total_points
    points_per_cell = plan.points_per_cell
    for app_index, (app_label, app) in enumerate(plan.app_pairs):
        app_base = app_index * total_points * num_variants
        for cell_index, dims in enumerate(plan.cells):
            # Tasks are emitted point-major, variant-minor, apps contiguous,
            # so a cell's results occupy one contiguous slice.
            first = app_base + cell_index * points_per_cell * num_variants
            subset = task_results[first:first + points_per_cell * num_variants]
            sweep = BandwidthSweep(
                app_name=app_label,
                variants=list(plan.variant_labels),
                points=executor.merge(subset),
                metadata={
                    **metadata,
                    "num_ranks": app.num_ranks,
                    "topology": dims.topology,
                    "topologies": list(dict.fromkeys(topology_keys)),
                    "collective_model": dims.collective_model,
                    "collective_models": list(
                        dict.fromkeys(collective_model_keys)),
                })
            result_cells.append(ExperimentCell(app=app_label, dims=dims,
                                               sweep=sweep))

    studies = None
    if full_results and total_points == 1 and len(spec.mechanisms) == 1:
        studies = _assemble_studies(
            plan.app_pairs, plan.plans, simulation_results, plan.base_platform,
            plan.original_traces(), plan.overlapped_traces(),
            OverlapMechanism.from_label(spec.mechanisms[0]))

    return ExperimentResult(
        spec=spec,
        variants=plan.variant_labels,
        cells=tuple(result_cells),
        metadata={**metadata, "apps": plan.app_labels,
                  "grid_points": total_points},
        simulation_results=simulation_results,
        studies_by_app=studies,
        provenance=provenance)


def _assemble_studies(app_pairs, plans, results, base_platform,
                      original_traces, overlapped_traces, mechanism):
    """Fold full per-task results into one legacy study per application."""
    from repro.core.study import OverlapStudy

    per_app = 1 + len(plans)
    studies: Dict[str, OverlapStudy] = {}
    for app_index, (app_label, _app) in enumerate(app_pairs):
        cursor = app_index * per_app
        original_result = results[cursor]
        overlapped_results = {
            plan.label: results[cursor + 1 + offset]
            for offset, plan in enumerate(plans)}
        studies[app_label] = OverlapStudy(
            app_name=app_label,
            platform=base_platform,
            mechanism=mechanism,
            original_trace=original_traces[app_label],
            original_result=original_result,
            overlapped_traces=overlapped_traces[app_label],
            overlapped_results=overlapped_results)
    return studies
