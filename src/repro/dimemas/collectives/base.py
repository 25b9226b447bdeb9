"""The collective-model interface and its declarative spec.

A *collective model* decides what happens between the moment the last rank
enters a collective and the moment each rank leaves it.  The
:class:`~repro.dimemas.replay.CollectiveCoordinator` owns exactly one model
per replay and calls :meth:`CollectiveModel.launch` once per collective,
when the last rank has arrived; everything else (arrival synchronisation,
trace-consistency checks) stays in the coordinator.

Which model runs is part of the platform description:
:class:`CollectiveSpec` is a frozen, picklable value stored in
``Platform.collective_model``, serialized through configuration files and
experiment specs in a compact string form::

    analytical
    decomposed
    decomposed:bcast=ring,allreduce=binomial

The optional ``operation=algorithm`` pairs override the per-operation
algorithm defaults of the ``decomposed`` backend (see
:mod:`repro.dimemas.collectives.schedules`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, TYPE_CHECKING, Union

from repro.dimemas.collectives.schedules import (
    ALGORITHMS,
    DEFAULT_ALGORITHMS,
    supported_algorithms,
)
from repro.errors import ConfigurationError
from repro.tracing.records import COLLECTIVE_OPERATIONS

if TYPE_CHECKING:  # pragma: no cover
    from repro.des import Environment
    from repro.dimemas.network import NetworkFabric
    from repro.dimemas.platform import Platform

#: Names of the selectable collective-model kinds.
ANALYTICAL = "analytical"
DECOMPOSED = "decomposed"

#: The kinds ``CollectiveSpec.kind`` accepts (the registry of model classes
#: is in ``registry.py``, which keeps this module import-light).
MODEL_KINDS = (ANALYTICAL, DECOMPOSED)


@dataclass(frozen=True)
class CollectiveSpec:
    """Declarative description of how collectives are costed.

    * ``kind`` -- ``analytical`` (the default: closed-form Dimemas
      formulas, topology-blind) or ``decomposed`` (per-algorithm schedules
      of point-to-point phases routed through the network fabric);
    * ``algorithms`` -- sorted ``(operation, algorithm)`` overrides for the
      decomposed backend; operations without an override use
      :data:`~repro.dimemas.collectives.schedules.DEFAULT_ALGORITHMS`.
    """

    kind: str = ANALYTICAL
    algorithms: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"unknown collective model {self.kind!r} "
                f"(choose from {sorted(MODEL_KINDS)})")
        items = tuple(sorted(dict(self.algorithms).items()))
        for operation, algorithm in items:
            if operation not in COLLECTIVE_OPERATIONS:
                raise ConfigurationError(
                    f"unknown collective operation {operation!r} "
                    f"(known: {sorted(COLLECTIVE_OPERATIONS)})")
            if algorithm not in ALGORITHMS:
                raise ConfigurationError(
                    f"unknown collective algorithm {algorithm!r} "
                    f"(known: {sorted(ALGORITHMS)})")
            if operation not in ALGORITHMS[algorithm]:
                raise ConfigurationError(
                    f"algorithm {algorithm!r} cannot lower {operation!r} "
                    f"(supported: {supported_algorithms(operation)})")
        if items and self.kind != DECOMPOSED:
            raise ConfigurationError(
                f"algorithm overrides ({dict(items)}) only apply to the "
                f"{DECOMPOSED!r} collective model, not {self.kind!r}")
        object.__setattr__(self, "algorithms", items)

    # -- string form -------------------------------------------------------
    @classmethod
    def parse(cls, text: Union[str, "CollectiveSpec"]) -> "CollectiveSpec":
        """Parse the compact string form, e.g. ``decomposed:bcast=ring``.

        The form is ``kind`` or ``kind:op=algorithm,op=algorithm``; it is
        what ``--collective-model`` accepts and what platform configuration
        files store.
        """
        if isinstance(text, CollectiveSpec):
            return text
        kind, _, options = text.strip().partition(":")
        algorithms: Dict[str, str] = {}
        if options:
            for item in options.split(","):
                operation, sep, algorithm = item.partition("=")
                if not sep:
                    raise ConfigurationError(
                        f"bad collective-model option {item!r} in {text!r} "
                        f"(expected operation=algorithm)")
                algorithms[operation.strip()] = algorithm.strip()
        return cls(kind=kind.strip(), algorithms=tuple(algorithms.items()))

    def to_string(self) -> str:
        """Inverse of :meth:`parse` (defaults omitted)."""
        if not self.algorithms:
            return self.kind
        options = ",".join(f"{operation}={algorithm}"
                           for operation, algorithm in self.algorithms)
        return f"{self.kind}:{options}"

    def with_kind(self, kind: str) -> "CollectiveSpec":
        return replace(self, kind=kind)

    def algorithm_for(self, operation: str) -> str:
        """The algorithm lowering ``operation`` under this spec."""
        for candidate, algorithm in self.algorithms:
            if candidate == operation:
                return algorithm
        try:
            return DEFAULT_ALGORITHMS[operation]
        except KeyError:
            raise ConfigurationError(
                f"unknown collective operation {operation!r} "
                f"(known: {sorted(COLLECTIVE_OPERATIONS)})") from None


def split_collective_list(text: str) -> List[str]:
    """Split a comma-separated list of collective-model specs.

    Spec options themselves contain commas
    (``decomposed:bcast=ring,allreduce=binomial``), so the list is split
    only at commas that start a new spec -- i.e. where the next segment
    begins with a known model kind.  Used by ``sweep --collective-models``.
    """
    specs: List[str] = []
    for segment in text.split(","):
        segment = segment.strip()
        if not segment:
            continue
        if segment.partition(":")[0] in MODEL_KINDS or not specs:
            specs.append(segment)
        else:
            specs[-1] += "," + segment
    return specs


class CollectiveModel:
    """Interface of a pluggable collective cost model.

    ``launch(instance)`` is called by the coordinator exactly once per
    collective, at the simulated instant the last rank arrives.  The model
    must succeed ``instance.all_arrived`` and either

    * set ``instance.finish_time`` and leave ``instance.completions`` as
      ``None`` -- every rank then sits out the remaining duration (the
      analytical contract), or
    * set ``instance.completions`` to one event per rank and succeed each
      when that rank may leave (the decomposed contract).
    """

    kind: str = "abstract"

    def __init__(self, env: "Environment", platform: "Platform",
                 num_ranks: int, fabric: "NetworkFabric" = None):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self.fabric = fabric
        self.spec = platform.collective_model

    def launch(self, instance) -> None:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Structural summary used by reports and benchmarks."""
        return {"kind": self.kind, "ranks": self.num_ranks}
