"""Fluent construction of experiment specs.

The builder is sugar over :class:`~repro.experiments.spec.ExperimentSpec`:
every method sets one spec field and returns the builder, and
:meth:`Experiment.build` produces exactly the spec a hand-written
constructor call (or a loaded JSON/TOML file) would -- the two paths are
interchangeable by design::

    from repro.experiments import Experiment, log_spaced
    from repro.core.patterns import ComputationPattern

    result = (Experiment.for_app("nas-bt", num_ranks=16)
              .bandwidths(log_spaced(2, 20000, 9))
              .topologies("flat", "tree:radix=8")
              .patterns(ComputationPattern.REAL, ComputationPattern.IDEAL)
              .jobs(4)
              .run())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING, Union

from repro.core.analysis import geometric_bandwidths
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.experiments.spec import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.environment import OverlapStudyEnvironment
    from repro.experiments.result import ExperimentResult
    from repro.store.base import ResultStore


def log_spaced(minimum: float, maximum: float, samples: int) -> List[float]:
    """Log-spaced axis values (inclusive endpoints); the paper's sweep shape."""
    return geometric_bandwidths(minimum, maximum, samples)


def _flatten(values: tuple) -> List[Any]:
    """Allow both ``bandwidths(1, 2)`` and ``bandwidths([1, 2])``."""
    if len(values) == 1 and isinstance(values[0], (list, tuple)):
        return list(values[0])
    return list(values)


def _label(value: Union[str, ComputationPattern, OverlapMechanism]) -> str:
    if isinstance(value, ComputationPattern):
        return value.value
    if isinstance(value, OverlapMechanism):
        return value.label
    return str(value)


class Experiment:
    """Fluent builder for :class:`ExperimentSpec` (see the module docstring)."""

    def __init__(self) -> None:
        self._kwargs: Dict[str, Any] = {}

    # -- app selection -----------------------------------------------------
    @classmethod
    def for_app(cls, name: str, **options: Any) -> "Experiment":
        """Start an experiment on one registered application."""
        return cls().apps(name, **options)

    def apps(self, *names: str, **options: Any) -> "Experiment":
        """Select the applications (shared ``options`` configure them all)."""
        self._kwargs["apps"] = _flatten(names)
        if options:
            self._kwargs["app_options"] = dict(
                self._kwargs.get("app_options", {}), **options)
        return self

    def app_options(self, **options: Any) -> "Experiment":
        """Add shared application options (``num_ranks``, ``iterations``, ...)."""
        self._kwargs["app_options"] = dict(
            self._kwargs.get("app_options", {}), **options)
        return self

    def seeds(self, *seeds: int) -> "Experiment":
        """Expand every app into one instance per seed (generated workloads)."""
        self._kwargs["seeds"] = _flatten(seeds)
        return self

    # -- platform grid axes ------------------------------------------------
    def bandwidths(self, *values: float) -> "Experiment":
        self._kwargs["bandwidths"] = _flatten(values)
        return self

    def latencies(self, *values: float) -> "Experiment":
        self._kwargs["latencies"] = _flatten(values)
        return self

    def topologies(self, *specs: str) -> "Experiment":
        self._kwargs["topologies"] = _flatten(specs)
        return self

    def collective_models(self, *specs: str) -> "Experiment":
        """Sweep collective cost models (``analytical``, ``decomposed:...``)."""
        self._kwargs["collective_models"] = _flatten(specs)
        return self

    def collective_model(self, spec: str) -> "Experiment":
        return self.collective_models(spec)

    def node_mappings(self, *processors_per_node: int) -> "Experiment":
        self._kwargs["node_mappings"] = _flatten(processors_per_node)
        return self

    def eager_thresholds(self, *thresholds: int) -> "Experiment":
        self._kwargs["eager_thresholds"] = _flatten(thresholds)
        return self

    def cpu_speeds(self, *speeds: float) -> "Experiment":
        self._kwargs["cpu_speeds"] = _flatten(speeds)
        return self

    # -- variant axes ------------------------------------------------------
    def patterns(self, *patterns: Union[str, ComputationPattern]) -> "Experiment":
        self._kwargs["patterns"] = [_label(p) for p in _flatten(patterns)]
        return self

    def mechanisms(self, *mechanisms: Union[str, OverlapMechanism]) -> "Experiment":
        self._kwargs["mechanisms"] = [_label(m) for m in _flatten(mechanisms)]
        return self

    def mechanism(self, mechanism: Union[str, OverlapMechanism]) -> "Experiment":
        return self.mechanisms(mechanism)

    # -- platform / chunking / execution ----------------------------------
    def platform(self, **overrides: Any) -> "Experiment":
        """Base-platform overrides (any platform-config field)."""
        self._kwargs["platform"] = dict(
            self._kwargs.get("platform", {}), **overrides)
        return self

    def chunking(self, policy: str, **options: Any) -> "Experiment":
        self._kwargs["chunking"] = {"policy": policy, **options}
        return self

    def chunk_bytes(self, chunk_bytes: int, max_chunks: int = 64) -> "Experiment":
        return self.chunking("fixed-size", chunk_bytes=chunk_bytes,
                             max_chunks=max_chunks)

    def chunk_count(self, count: int, min_chunk_bytes: int = 256) -> "Experiment":
        return self.chunking("fixed-count", count=count,
                             min_chunk_bytes=min_chunk_bytes)

    def jobs(self, jobs: int) -> "Experiment":
        """Replay worker processes (1 = serial, 0 = all cores)."""
        self._kwargs["jobs"] = jobs
        return self

    def replay_backend(self, backend: str) -> "Experiment":
        """Select the replay backend (``adaptive``, the default, or ``event``).

        ``event`` walks every record through the DES.  ``adaptive``
        replays the same run to the same results, faster: it fast-forwards
        cells without DES events, contended ones through a FIFO resource
        model paced in the DES's event order, and runs the ``event`` walk
        for cells it cannot fast-forward.
        """
        return self.platform(replay_backend=backend)

    def collect_timelines(self, collect: bool = True) -> "Experiment":
        """Keep full per-replay results (timelines included) on the result."""
        self._kwargs["collect_timelines"] = collect
        return self

    # -- terminal operations ----------------------------------------------
    def build(self) -> ExperimentSpec:
        """The immutable, serializable spec this builder describes."""
        return ExperimentSpec(**self._kwargs)

    def run(self, environment: Optional["OverlapStudyEnvironment"] = None,
            full_results: bool = False, store: Optional["ResultStore"] = None,
            cache_dir: Optional[str] = None) -> "ExperimentResult":
        """Build the spec and execute it in one step.

        ``store``/``cache_dir`` attach the persistent result cache exactly
        as on :func:`~repro.experiments.runner.run_experiment`.
        """
        from repro.experiments.runner import run_experiment
        return run_experiment(self.build(), environment=environment,
                              full_results=full_results, store=store,
                              cache_dir=cache_dir)
