"""Study objects: the assembled original-versus-overlapped comparison.

:class:`OverlapStudy` is the one-application report object, and
:func:`batch_study` assembles one per application through the unified
experiment API (see :mod:`repro.experiments`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.core.executor import validate_variant_labels
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.dimemas.results import SimulationResult
from repro.errors import AnalysisError
from repro.paraver.compare import TimelineComparison, compare_timelines, side_by_side
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import ApplicationModel
    from repro.core.environment import OverlapStudyEnvironment


@dataclass
class OverlapStudy:
    """Everything the environment produced for one application on one platform."""

    app_name: str
    platform: Platform
    mechanism: OverlapMechanism
    original_trace: Trace
    original_result: SimulationResult
    overlapped_traces: Dict[str, Trace] = field(default_factory=dict)
    overlapped_results: Dict[str, SimulationResult] = field(default_factory=dict)

    # -- quantitative ------------------------------------------------------
    def patterns(self) -> List[str]:
        return list(self.overlapped_results)

    def result(self, pattern: str) -> SimulationResult:
        try:
            return self.overlapped_results[pattern]
        except KeyError:
            raise AnalysisError(
                f"pattern {pattern!r} was not part of this study "
                f"(available: {self.patterns()})") from None

    def speedup(self, pattern: str = "ideal") -> float:
        """Speedup of the overlapped execution with ``pattern`` over the original."""
        overlapped = self.result(pattern)
        if overlapped.total_time <= 0:
            raise AnalysisError("overlapped execution has zero duration")
        return self.original_result.total_time / overlapped.total_time

    def improvement_percent(self, pattern: str = "ideal") -> float:
        return (self.speedup(pattern) - 1.0) * 100.0

    def comparison(self, pattern: str = "ideal") -> TimelineComparison:
        """Quantitative timeline comparison for ``pattern``."""
        return compare_timelines(self.original_result.timeline,
                                 self.result(pattern).timeline)

    # -- qualitative --------------------------------------------------------
    def gantt(self, pattern: str = "ideal", width: int = 60) -> str:
        """Side-by-side ASCII Gantt of the original and overlapped executions."""
        return side_by_side(self.original_result.timeline,
                            self.result(pattern).timeline, width=width)

    def summary(self) -> str:
        """Human-readable summary of the study."""
        lines = [
            f"application: {self.app_name}",
            f"platform:    {self.platform.name} "
            f"(bandwidth {self.platform.bandwidth_mbps} MB/s, "
            f"latency {self.platform.latency * 1e6:.1f} us)",
            f"mechanism:   {self.mechanism.label}",
            f"original execution time: {self.original_result.total_time:.6f} s "
            f"(communication fraction "
            f"{self.original_result.communication_fraction() * 100:.1f} %)",
        ]
        for pattern in self.patterns():
            result = self.result(pattern)
            lines.append(
                f"overlapped ({pattern:>5} pattern): {result.total_time:.6f} s "
                f"-> speedup {self.speedup(pattern):.3f}x "
                f"({self.improvement_percent(pattern):+.1f} %)")
        return "\n".join(lines)


def batch_study(apps: Sequence["ApplicationModel"],
                patterns: Iterable[ComputationPattern] = (
                    ComputationPattern.REAL, ComputationPattern.IDEAL),
                mechanism: OverlapMechanism = OverlapMechanism.FULL,
                environment: Optional["OverlapStudyEnvironment"] = None,
                platform: Optional[Platform] = None,
                jobs: Optional[int] = None) -> Dict[str, OverlapStudy]:
    """Assemble one :class:`OverlapStudy` per application.

    One single-point spec over ``apps`` runs through
    :func:`~repro.experiments.runner.run_experiment` with full results: the
    replays (applications x variants) form one executor batch, merged back
    in application order, so parallel batches match serial ones exactly.
    """
    from repro.core.environment import OverlapStudyEnvironment
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    environment = environment or OverlapStudyEnvironment(platform=platform)
    patterns = list(patterns)
    validate_variant_labels(pattern.value for pattern in patterns)
    names = [app.name for app in apps]
    if len(set(names)) != len(names):
        raise AnalysisError(f"duplicate application names in batch: {names}")
    spec = ExperimentSpec(
        apps=tuple(names),
        patterns=tuple(pattern.value for pattern in patterns),
        mechanisms=(mechanism.label,),
        jobs=1 if jobs is None else jobs)
    result = run_experiment(spec, environment=environment, platform=platform,
                            apps=list(apps), full_results=True)
    return result.studies()
