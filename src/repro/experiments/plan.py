"""Experiment planning: spec -> keyed replay tasks, before anything runs.

The cache-aware pipeline splits :func:`~repro.experiments.runner.run_experiment`
into four stages -- *plan*, *lookup*, *execute*, *assemble* -- and this
module owns the first: :func:`plan_experiment` expands a spec into the full
(apps x platform grid x variants) task cross-product **without replaying or
even tracing anything**, and the resulting :class:`ExperimentPlan` can then

* address every task with a content-addressed :class:`~repro.store.keys.CellKey`
  (:meth:`ExperimentPlan.cell_keys`) so a result store can be consulted
  before execution, and
* materialise traces *lazily* (:meth:`ExperimentPlan.traces_for`): the
  original trace of an app is only produced when some task needs its digest
  or its replay, and an overlapped variant is only transformed when at
  least one of its cells actually misses the cache -- a fully warm run
  performs zero overlap transformations and zero replays.

Grid expansion order is part of the contract (collective model outermost,
then topology, node mapping, latency, eager threshold, CPU speed, bandwidth
innermost; variants emitted original-first per platform point): it is what
keeps the unified API bit-identical to the pre-redesign sweep drivers, and
the golden-equivalence tests pin it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.apps.registry import create_application
from repro.core.analysis import ORIGINAL
from repro.core.chunking import ChunkingPolicy, FixedCountChunking, FixedSizeChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.executor import (
    CohortTask,
    SweepTask,
    task_label,
    validate_variant_labels,
)
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.errors import AnalysisError
from repro.experiments.result import CellDims
from repro.experiments.spec import ExperimentSpec
from repro.store.keys import (
    CellKey,
    platform_key_state,
    variant_id,
    variant_key_bytes,
)
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import ApplicationModel


@dataclass(frozen=True)
class VariantPlan:
    """One overlapped variant: its sweep label and how to generate it."""

    label: str
    pattern: ComputationPattern
    mechanism: OverlapMechanism


def variant_plans(spec: ExperimentSpec) -> List[VariantPlan]:
    """The overlapped variants of a spec, in pattern-major order.

    With a single mechanism the label is the pattern value (bandwidth
    sweeps), with a single pattern and several mechanisms it is the
    mechanism label (mechanism sweeps), and with both axes swept it is
    ``pattern+mechanism``.
    """
    patterns = [ComputationPattern.from_label(p) for p in spec.patterns]
    mechanisms = [OverlapMechanism.from_label(m) for m in spec.mechanisms]
    plans = []
    for pattern in patterns:
        for mechanism in mechanisms:
            if len(mechanisms) == 1:
                label = pattern.value
            elif len(patterns) == 1:
                label = mechanism.label
            else:
                label = f"{pattern.value}+{mechanism.label}"
            plans.append(VariantPlan(label, pattern, mechanism))
    validate_variant_labels(plan.label for plan in plans)
    return plans


def build_chunking(spec: ExperimentSpec) -> ChunkingPolicy:
    """The chunking policy a spec's ``[chunking]`` section describes."""
    options = spec.chunking_dict()
    policy = options.pop("policy", "fixed-size")
    if policy == "fixed-count":
        return FixedCountChunking(**options)
    return FixedSizeChunking(**options)


def build_platform(spec: ExperimentSpec) -> Platform:
    """The base platform a spec's ``[platform]`` section describes."""
    return Platform(**spec.platform_dict())


def build_environment(spec: ExperimentSpec) -> "OverlapStudyEnvironment":
    """A study environment configured from the spec's platform and chunking."""
    return OverlapStudyEnvironment(platform=build_platform(spec),
                                   chunking=build_chunking(spec))


def create_apps(spec: ExperimentSpec) -> List[Tuple[str, "ApplicationModel"]]:
    """Instantiate the spec's apps (seed-expanded) as ``(label, app)`` pairs."""
    options = spec.app_options_dict()
    pairs: List[Tuple[str, "ApplicationModel"]] = []
    for name in spec.apps:
        if spec.seeds:
            for seed in spec.seeds:
                pairs.append((f"{name}@seed={seed}",
                              _create(name, dict(options, seed=seed))))
        else:
            pairs.append((name, _create(name, options)))
    return pairs


def _create(name: str, options: Dict[str, object]) -> "ApplicationModel":
    return create_application(name, **options)


def expand_grid(spec: ExperimentSpec, base: Platform
                ) -> Tuple[List[CellDims], List[Platform], int]:
    """Expand the platform grid: cells, flat platform list, points per cell.

    A *cell* fixes every axis but bandwidth; its platforms occupy one
    contiguous slice of the flat list, ``points_per_cell`` long, so task
    ``point`` ordinals map back to cells by integer division.
    """
    collective_models = (spec.collective_models
                         or (base.collective_model.to_string(),))
    topologies = spec.topologies or (base.topology.to_string(),)
    node_mappings = spec.node_mappings or (base.processors_per_node,)
    latencies = spec.latencies or (base.latency,)
    eager_thresholds = spec.eager_thresholds or (base.eager_threshold,)
    cpu_speeds = spec.cpu_speeds or (base.relative_cpu_speed,)
    bandwidths = spec.bandwidths or (base.bandwidth_mbps,)

    cells: List[CellDims] = []
    platforms: List[Platform] = []
    for collective_model in collective_models:
        on_model = base.with_collective_model(collective_model)
        for topology in topologies:
            on_topology = on_model.with_topology(topology)
            for node_mapping in node_mappings:
                mapped = on_topology.with_processors_per_node(node_mapping)
                for latency in latencies:
                    with_latency = mapped.with_latency(latency)
                    for eager in eager_thresholds:
                        with_eager = with_latency.with_eager_threshold(eager)
                        for cpu_speed in cpu_speeds:
                            cell_platform = with_eager.with_cpu_speed(cpu_speed)
                            cells.append(CellDims(
                                topology=topology,
                                processors_per_node=node_mapping,
                                latency=latency,
                                eager_threshold=eager,
                                cpu_speed=cpu_speed,
                                collective_model=collective_model))
                            platforms.extend(
                                cell_platform.with_bandwidth(bandwidth)
                                for bandwidth in bandwidths)
    return cells, platforms, len(bandwidths)


def _trace_key(app_label: str, variant: str) -> str:
    return f"{app_label}/{variant}"


def _split_trace_key(trace_key: str) -> Tuple[str, str]:
    app_label, _, variant = trace_key.rpartition("/")
    return app_label, variant


@dataclass
class ExperimentPlan:
    """Everything :func:`plan_experiment` decided, before any execution.

    Holds the expanded task list plus *lazy* trace materialisation: apps are
    traced on first use and overlapped variants transformed on first use, so
    consulting the result store (which only needs original-trace digests)
    never pays for transformations whose cells are fully cached.
    """

    spec: ExperimentSpec
    environment: "OverlapStudyEnvironment"
    base_platform: Platform
    app_pairs: List[Tuple[str, "ApplicationModel"]]
    plans: List[VariantPlan]
    variant_labels: List[str]
    cells: List[CellDims]
    flat_platforms: List[Platform]
    points_per_cell: int
    tasks: List[SweepTask]
    _apps_by_label: Dict[str, "ApplicationModel"] = field(default_factory=dict)
    _plans_by_label: Dict[str, VariantPlan] = field(default_factory=dict)
    _original_traces: Dict[str, Trace] = field(default_factory=dict)
    _overlapped_traces: Dict[str, Dict[str, Trace]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._apps_by_label = dict(self.app_pairs)
        self._plans_by_label = {plan.label: plan for plan in self.plans}

    # -- sizes -------------------------------------------------------------
    @property
    def total_points(self) -> int:
        return len(self.flat_platforms)

    @property
    def app_labels(self) -> List[str]:
        return [label for label, _ in self.app_pairs]

    # -- lazy trace materialisation ----------------------------------------
    def original_trace(self, app_label: str) -> Trace:
        """The traced original of one app (traced once, then cached)."""
        trace = self._original_traces.get(app_label)
        if trace is None:
            try:
                app = self._apps_by_label[app_label]
            except KeyError:
                raise AnalysisError(
                    f"plan has no application {app_label!r}") from None
            trace = self.environment.trace(app)
            self._original_traces[app_label] = trace
            self._overlapped_traces.setdefault(app_label, {})
        return trace

    def variant_trace(self, app_label: str, variant: str) -> Trace:
        """One (possibly overlapped) trace variant, transformed on demand."""
        if variant == ORIGINAL:
            return self.original_trace(app_label)
        original = self.original_trace(app_label)
        cached = self._overlapped_traces[app_label].get(variant)
        if cached is not None:
            return cached
        try:
            plan = self._plans_by_label[variant]
        except KeyError:
            raise AnalysisError(
                f"plan has no variant {variant!r} "
                f"(known: {sorted(self._plans_by_label)})") from None
        overlapped = self.environment.overlap(
            original, pattern=plan.pattern, mechanism=plan.mechanism)
        self._overlapped_traces[app_label][variant] = overlapped
        return overlapped

    def trace_for(self, trace_key: str) -> Trace:
        """The trace a task's ``trace_key`` references (materialising it)."""
        app_label, variant = _split_trace_key(trace_key)
        return self.variant_trace(app_label, variant)

    def traces_for(self, tasks: Sequence[SweepTask]) -> Dict[str, Trace]:
        """The variant table covering exactly ``tasks`` (executor input)."""
        return {key: self.trace_for(key)
                for key in dict.fromkeys(task.trace_key for task in tasks)}

    def original_traces(self) -> Dict[str, Trace]:
        """All original traces, materialised (full-results/studies path)."""
        return {label: self.original_trace(label) for label in self.app_labels}

    def overlapped_traces(self) -> Dict[str, Dict[str, Trace]]:
        """All overlapped variants, materialised (full-results/studies path)."""
        return {label: {plan.label: self.variant_trace(label, plan.label)
                        for plan in self.plans}
                for label in self.app_labels}

    # -- content addressing -------------------------------------------------
    def variant_ids(self) -> Dict[str, str]:
        """``{variant label: canonical derivation id}`` for key computation.

        The id pins *how* a variant is derived from the original trace
        (pattern, mechanism, chunking policy) rather than its display label,
        which depends on which axes a spec happens to sweep.
        """
        chunking = self.environment.chunking.describe()
        ids = {ORIGINAL: variant_id()}
        for plan in self.plans:
            ids[plan.label] = variant_id(pattern=plan.pattern.value,
                                         mechanism=plan.mechanism.label,
                                         chunking=chunking)
        return ids

    def cell_keys(self, salt: Optional[str] = None) -> List[CellKey]:
        """One :class:`CellKey` per task, index-aligned with ``self.tasks``.

        Needs the original trace of every app (for its content digest) but
        no overlapped variant: the key addresses the variant by its
        derivation, so a warm lookup never runs the overlap transformation.
        Each platform point's hash prefix and each trace key's suffix are
        serialized once, so a key costs one copy and one update of a hash
        (the bytes are :meth:`CellKey.compute`'s).
        """
        ids = self.variant_ids()
        digests = {label: self.original_trace(label).digest()
                   for label in self.app_labels}
        prefixes = [platform_key_state(platform, salt)
                    for platform in self.flat_platforms]
        suffixes = {
            _trace_key(label, variant): (
                variant_key_bytes(digests[label], ids[variant]),
                digests[label], ids[variant])
            for label in self.app_labels for variant in self.variant_labels}
        keys: List[CellKey] = []
        total_points = self.total_points
        for task in self.tasks:
            suffix, trace_digest, derivation = suffixes[task.trace_key]
            state = prefixes[task.point % total_points].copy()
            state.update(suffix)
            keys.append(CellKey(state.hexdigest(), trace_digest, derivation))
        return keys


def analyze_tasks(plan: ExperimentPlan, tasks: Sequence[SweepTask],
                  traces: Optional[Dict[str, Trace]] = None):
    """Statically analyze every trace the given ``tasks`` would replay.

    Each distinct trace is analyzed once per distinct eager threshold among
    its tasks' platforms (the deadlock search depends on the eager/rendezvous
    protocol split; every other check is platform-independent), and the
    per-threshold reports are merged with duplicate diagnostics dropped.
    Returns a :class:`repro.analysis.AnalysisReport`; the import is local so
    planning stays import-light for callers that never precheck.
    """
    from repro.analysis import AnalysisReport, analyze_trace

    if traces is None:
        traces = plan.traces_for(tasks)
    thresholds: Dict[str, Dict[int, None]] = {}
    for task in tasks:
        thresholds.setdefault(task.trace_key, {}).setdefault(
            task.platform.eager_threshold)
    reports = []
    for key, trace in traces.items():
        for eager in thresholds.get(key, {}) or (None,):
            reports.append(analyze_trace(trace, eager_threshold=eager,
                                         source=key))
    return AnalysisReport.merged(
        reports, metadata={"tasks": len(tasks), "traces": sorted(traces)})


def group_cohorts(tasks: Sequence[SweepTask],
                  traces: Dict[str, Trace]) -> List[object]:
    """Group missing sweep tasks into grid-vectorizable cohort batches.

    Exactly the proven tasks batch: tasks sharing one trace
    variant and one structural signature (topology shape, node mapping,
    collective model, eager protocol class -- see
    :func:`repro.dimemas.gridreplay.cohort_signature`) whose cells the
    classifier proves contention-free become one :class:`CohortTask`, at
    any width -- a lone proven cell is a width-1 cohort.  Every other task
    stays a per-cell task, so the worker pool balances contended cells
    one by one.

    The returned unit list is deterministic: units appear in the order of
    their first task, and each cohort's members keep task order.  Grouping
    never changes results -- only how many walks compute them -- because
    every member keeps its own index, label and cache key.
    """
    from repro.dimemas.gridreplay import cohort_signature
    from repro.dimemas.windows import classify

    groups: Dict[Tuple, List[SweepTask]] = {}
    placement: Dict[int, Tuple] = {}
    for task in tasks:
        trace = traces.get(task.trace_key)
        if trace is None:
            continue
        signature = cohort_signature(trace, task.platform)
        if (signature is None
                or not classify(trace, task.platform).proven_exact):
            continue
        key = (task.trace_key, signature)
        groups.setdefault(key, []).append(task)
        placement[task.index] = key
    units: List[object] = []
    emitted = set()
    for task in tasks:
        key = placement.get(task.index)
        if key is None:
            units.append(task)
        elif key not in emitted:
            emitted.add(key)
            units.append(CohortTask(tasks=tuple(groups[key])))
    return units


def plan_experiment(spec: ExperimentSpec,
                    environment: Optional["OverlapStudyEnvironment"] = None,
                    platform: Optional[Platform] = None,
                    apps: Optional[Sequence["ApplicationModel"]] = None
                    ) -> ExperimentPlan:
    """Expand ``spec`` into a keyed task plan without tracing or replaying.

    ``environment``, ``platform`` and ``apps`` replace the spec's sections
    with already-built objects, as on
    :func:`~repro.experiments.runner.run_experiment`; when omitted,
    everything is built from the spec.
    """
    plans = variant_plans(spec)
    if environment is None:
        environment = build_environment(spec)
    base_platform = platform or environment.platform

    app_pairs = ([(app.name, app) for app in apps]
                 if apps is not None else create_apps(spec))
    labels = [label for label, _ in app_pairs]
    if len(set(labels)) != len(labels):
        raise AnalysisError(f"duplicate application names in batch: {labels}")

    cells, flat_platforms, points_per_cell = expand_grid(spec, base_platform)
    total_points = len(flat_platforms)
    variant_labels = [ORIGINAL] + [plan.label for plan in plans]

    tasks: List[SweepTask] = []
    for app_index, (app_label, _) in enumerate(app_pairs):
        for offset, task_platform in enumerate(flat_platforms):
            for variant in variant_labels:
                tasks.append(SweepTask(
                    index=len(tasks),
                    variant=variant,
                    trace_key=_trace_key(app_label, variant),
                    platform=task_platform,
                    label=task_label(app_label, variant, task_platform),
                    point=app_index * total_points + offset))

    return ExperimentPlan(
        spec=spec,
        environment=environment,
        base_platform=base_platform,
        app_pairs=app_pairs,
        plans=plans,
        variant_labels=variant_labels,
        cells=cells,
        flat_platforms=flat_platforms,
        points_per_cell=points_per_cell,
        tasks=tasks)
