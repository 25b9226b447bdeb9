"""The declarative, serializable experiment specification.

An :class:`ExperimentSpec` is one value describing a whole experiment: which
application(s) to trace, the platform grid to replay on (bandwidth, latency,
topology, node-mapping, eager-threshold and CPU-speed axes -- each a scalar
or a sweep), which overlap variants to generate (pattern and mechanism axes)
and how to execute (worker processes, workload seeds).  The same spec can be
built fluently (:class:`repro.experiments.builder.Experiment`), loaded from a
JSON or TOML file, or constructed directly; all three produce equal values,
and :func:`repro.experiments.runner.run_experiment` turns any of them into an
:class:`~repro.experiments.result.ExperimentResult`.

Every collection field is normalised to a tuple (scalars are accepted and
wrapped), so specs are immutable, hashable-by-parts, picklable and comparable
with ``==`` -- the property the JSON/TOML round-trip tests rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Tuple, Union

from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.collectives import CollectiveSpec
from repro.dimemas.config import PLATFORM_FIELDS
from repro.dimemas.topology import TopologySpec
from repro.errors import ConfigurationError
from repro.experiments import _toml

#: Chunking policies a spec may name, with the options each accepts.
CHUNKING_POLICIES: Dict[str, Tuple[str, ...]] = {
    "fixed-size": ("chunk_bytes", "max_chunks"),
    "fixed-count": ("count", "min_chunk_bytes"),
}

#: The serialized form's sections, and which spec fields live in each.
_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "experiment": ("apps", "seeds", "bandwidths", "latencies", "topologies",
                   "collective_models", "node_mappings", "eager_thresholds",
                   "cpu_speeds", "patterns", "mechanisms", "jobs",
                   "collect_timelines"),
    "app": ("app_options",),
    "platform": ("platform",),
    "chunking": ("chunking",),
}

_Items = Tuple[Tuple[str, Any], ...]


def _tuple_of(value: Any, kind, field: str) -> Tuple[Any, ...]:
    """Normalise ``value`` (scalar or iterable) into a tuple of ``kind``."""
    if value is None:
        return ()
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        value = (value,)
    items = []
    for item in value:
        if isinstance(item, bool) and kind is not bool:
            raise ConfigurationError(
                f"{field}: expected {kind.__name__}, got boolean {item!r}")
        if kind is int and not isinstance(item, int):
            # int() would truncate 2.5 to 2 or parse "3" without a word.
            raise ConfigurationError(f"{field}: expected int, got {item!r}")
        try:
            items.append(kind(item))
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{field}: cannot interpret {item!r} as {kind.__name__}") from None
    return tuple(items)


def _items_of(value: Any, field: str) -> _Items:
    """Normalise a mapping (or item tuple) into sorted, scalar-valued items."""
    if value is None:
        return ()
    pairs = value.items() if isinstance(value, Mapping) else tuple(value)
    items = []
    for key, item in pairs:
        if not isinstance(key, str):
            raise ConfigurationError(f"{field}: option names must be strings, "
                                     f"got {key!r}")
        if not isinstance(item, (str, int, float, bool)):
            raise ConfigurationError(
                f"{field}: option {key!r} must be a string, number or "
                f"boolean, got {type(item).__name__}")
        items.append((key, item))
    return tuple(sorted(items))


def _unique(values: Tuple[Any, ...], field: str) -> None:
    if len(set(values)) != len(values):
        raise ConfigurationError(f"duplicate values in {field}: {list(values)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: apps x platform grid x overlap variants.

    Axis semantics:

    * ``bandwidths``/``latencies``/``topologies``/``collective_models``/
      ``node_mappings``/``eager_thresholds``/``cpu_speeds`` form the
      platform grid.  An empty axis means "the base platform's value"; the
      grid is the cross-product of the non-empty axes, expanded
      collective-model-outermost (then topology) and bandwidth-innermost so
      a single-axis spec reproduces the pre-redesign sweep drivers point for
      point.
    * ``patterns`` and ``mechanisms`` form the variant axis: every traced
      run is replayed as ``original`` plus one overlapped trace per
      (pattern, mechanism) combination.
    * ``seeds`` expands each app into one instance per seed (the app must
      accept a ``seed`` option -- e.g. the registered ``random-exchange``
      generated workload).
    * ``platform`` holds base-platform overrides (any
      :data:`repro.dimemas.config.PLATFORM_FIELDS` key); axis values win
      over the base value for their field.
    * ``chunking`` selects the overlap-transformation chunking policy
      (see :data:`CHUNKING_POLICIES`).
    * ``jobs`` is the replay worker-pool width (1 = serial, 0 = all cores);
      results are bit-identical across jobs counts.
    * ``collect_timelines`` keeps full per-replay simulation results --
      per-rank timelines included -- on the :class:`ExperimentResult`.  It
      defaults off: sweeps and grids only consume scalar metrics, and a
      timeline-free replay runs measurably faster while producing
      bit-identical metrics.
    """

    apps: Tuple[str, ...] = ()
    app_options: _Items = ()
    seeds: Tuple[int, ...] = ()
    bandwidths: Tuple[float, ...] = ()
    latencies: Tuple[float, ...] = ()
    topologies: Tuple[str, ...] = ()
    collective_models: Tuple[str, ...] = ()
    node_mappings: Tuple[int, ...] = ()
    eager_thresholds: Tuple[int, ...] = ()
    cpu_speeds: Tuple[float, ...] = ()
    patterns: Tuple[str, ...] = ("real", "ideal")
    mechanisms: Tuple[str, ...] = ("full",)
    platform: _Items = ()
    chunking: _Items = ()
    jobs: int = 1
    collect_timelines: bool = False

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "apps", _tuple_of(self.apps, str, "apps"))
        set_(self, "app_options", _items_of(self.app_options, "app"))
        set_(self, "seeds", _tuple_of(self.seeds, int, "seeds"))
        set_(self, "bandwidths", _tuple_of(self.bandwidths, float, "bandwidths"))
        set_(self, "latencies", _tuple_of(self.latencies, float, "latencies"))
        set_(self, "topologies", tuple(
            TopologySpec.parse(t).to_string()
            for t in _tuple_of(self.topologies, str, "topologies")))
        set_(self, "collective_models", tuple(
            CollectiveSpec.parse(m).to_string()
            for m in _tuple_of(self.collective_models, str, "collective_models")))
        set_(self, "node_mappings", _tuple_of(self.node_mappings, int, "node_mappings"))
        set_(self, "eager_thresholds",
             _tuple_of(self.eager_thresholds, int, "eager_thresholds"))
        set_(self, "cpu_speeds", _tuple_of(self.cpu_speeds, float, "cpu_speeds"))
        set_(self, "patterns", _tuple_of(self.patterns, str, "patterns"))
        set_(self, "mechanisms", _tuple_of(self.mechanisms, str, "mechanisms"))
        set_(self, "platform", _items_of(self.platform, "platform"))
        set_(self, "chunking", _items_of(self.chunking, "chunking"))
        set_(self, "collect_timelines", bool(self.collect_timelines))
        self._validate()

    # -- validation --------------------------------------------------------
    def _validate(self) -> None:
        if not self.apps:
            raise ConfigurationError("an experiment needs at least one app")
        _unique(self.apps, "apps")
        _unique(self.seeds, "seeds")
        for field, values in (("bandwidths", self.bandwidths),
                              ("latencies", self.latencies)):
            if any(value < 0 for value in values):
                raise ConfigurationError(f"{field} must be non-negative")
        _unique(self.latencies, "latencies")
        _unique(self.topologies, "topologies")
        _unique(self.collective_models, "collective_models")
        _unique(self.node_mappings, "node_mappings")
        _unique(self.eager_thresholds, "eager_thresholds")
        _unique(self.cpu_speeds, "cpu_speeds")
        if any(value < 1 for value in self.node_mappings):
            raise ConfigurationError("node_mappings must be >= 1")
        if any(value < 0 for value in self.eager_thresholds):
            raise ConfigurationError("eager_thresholds must be non-negative")
        if any(value <= 0 for value in self.cpu_speeds):
            raise ConfigurationError("cpu_speeds must be positive")
        if not self.patterns:
            raise ConfigurationError("an experiment needs at least one pattern")
        if not self.mechanisms:
            raise ConfigurationError("an experiment needs at least one mechanism")
        for label in self.patterns:
            try:
                ComputationPattern.from_label(label)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
        for label in self.mechanisms:
            try:
                OverlapMechanism.from_label(label)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
        _unique(self.patterns, "patterns")
        _unique(self.mechanisms, "mechanisms")
        for key, _ in self.platform:
            if key not in PLATFORM_FIELDS:
                raise ConfigurationError(
                    f"unknown platform field {key!r} "
                    f"(known: {sorted(PLATFORM_FIELDS)})")
        self._validate_chunking()
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise ConfigurationError(f"jobs: expected int, got {self.jobs!r}")
        if self.jobs < 0:
            raise ConfigurationError(
                f"jobs must be >= 1 (or 0 for all cores), got {self.jobs!r}")

    def _validate_chunking(self) -> None:
        if not self.chunking:
            return
        options = self.chunking_dict()
        policy = options.pop("policy", None)
        if policy not in CHUNKING_POLICIES:
            raise ConfigurationError(
                f"chunking needs a 'policy' of {sorted(CHUNKING_POLICIES)}, "
                f"got {policy!r}")
        allowed = CHUNKING_POLICIES[policy]
        for key in options:
            if key not in allowed:
                raise ConfigurationError(
                    f"unknown option {key!r} for chunking policy {policy!r} "
                    f"(allowed: {sorted(allowed)})")

    # -- mapping views -----------------------------------------------------
    def app_options_dict(self) -> Dict[str, Any]:
        return dict(self.app_options)

    def platform_dict(self) -> Dict[str, Any]:
        return dict(self.platform)

    def chunking_dict(self) -> Dict[str, Any]:
        return dict(self.chunking)

    def with_jobs(self, jobs: int) -> "ExperimentSpec":
        """A copy of this spec with a different worker count."""
        return replace(self, jobs=jobs)

    def with_collect_timelines(self, collect: bool = True) -> "ExperimentSpec":
        """A copy of this spec with timeline collection toggled."""
        return replace(self, collect_timelines=collect)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """The canonical nested-dict form (inverse of :meth:`from_dict`)."""
        experiment: Dict[str, Any] = {"apps": list(self.apps)}
        for field in ("seeds", "bandwidths", "latencies", "topologies",
                      "collective_models", "node_mappings",
                      "eager_thresholds", "cpu_speeds"):
            values = getattr(self, field)
            if values:
                experiment[field] = list(values)
        experiment["patterns"] = list(self.patterns)
        experiment["mechanisms"] = list(self.mechanisms)
        experiment["jobs"] = self.jobs
        if self.collect_timelines:
            experiment["collect_timelines"] = True
        data: Dict[str, Dict[str, Any]] = {"experiment": experiment}
        if self.app_options:
            data["app"] = self.app_options_dict()
        if self.platform:
            data["platform"] = self.platform_dict()
        if self.chunking:
            data["chunking"] = self.chunking_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from the nested-dict form, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"experiment spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(_SECTIONS)
        if unknown:
            raise ConfigurationError(
                f"unknown spec section(s) {sorted(unknown)} "
                f"(known: {sorted(_SECTIONS)})")
        kwargs: Dict[str, Any] = {}
        experiment = data.get("experiment", {})
        if not isinstance(experiment, Mapping):
            raise ConfigurationError("[experiment] must be a table")
        known = set(_SECTIONS["experiment"])
        unknown = set(experiment) - known
        if unknown:
            raise ConfigurationError(
                f"unknown [experiment] key(s) {sorted(unknown)} "
                f"(known: {sorted(known)})")
        kwargs.update(experiment)
        for section, field in (("app", "app_options"), ("platform", "platform"),
                               ("chunking", "chunking")):
            if section in data:
                if not isinstance(data[section], Mapping):
                    raise ConfigurationError(f"[{section}] must be a table")
                kwargs[field] = data[section]
        return cls(**kwargs)

    # -- files -------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def to_toml(self) -> str:
        return "# repro experiment specification\n" + _toml.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON spec: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        try:
            data = _toml.loads(text)
        except _toml.TomlError as exc:
            raise ConfigurationError(f"invalid TOML spec: {exc}") from exc
        return cls.from_dict(data)

    def to_file(self, path: Union[str, Path]) -> Path:
        """Write the spec to ``path`` (format chosen by the file suffix)."""
        path = Path(path)
        text = self.to_toml() if path.suffix == ".toml" else (
            self.to_json() if path.suffix == ".json" else None)
        if text is None:
            raise ConfigurationError(
                f"spec files must end in .json or .toml, got {path.name!r}")
        path.write_text(text, encoding="utf-8")
        return path

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Read a spec previously written with :meth:`to_file`."""
        path = Path(path)
        if path.suffix not in (".json", ".toml"):
            raise ConfigurationError(
                f"spec files must end in .json or .toml, got {path.name!r}")
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot read spec file {path}: {exc}") from exc
        if path.suffix == ".toml":
            return cls.from_toml(text)
        return cls.from_json(text)

    # -- introspection -----------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """A compact summary used by reports and the CLI."""
        axes = {field: len(getattr(self, field)) or 1
                for field in ("bandwidths", "latencies", "topologies",
                              "collective_models", "node_mappings",
                              "eager_thresholds", "cpu_speeds")}
        grid_points = 1
        for size in axes.values():
            grid_points *= size
        num_apps = len(self.apps) * max(1, len(self.seeds))
        variants = 1 + len(self.patterns) * len(self.mechanisms)
        return {
            "apps": num_apps,
            "grid_points": grid_points,
            "variants": variants,
            "replays": num_apps * grid_points * variants,
            "jobs": self.jobs,
        }


#: Fields of :class:`ExperimentSpec`, for builder/runner introspection.
SPEC_FIELDS = tuple(field.name for field in fields(ExperimentSpec))


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Module-level convenience alias of :meth:`ExperimentSpec.from_file`."""
    return ExperimentSpec.from_file(path)
