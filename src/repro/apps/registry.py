"""Registry of the paper's evaluated applications."""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.apps.alya import Alya
from repro.apps.base import ApplicationModel
from repro.apps.collective_loop import AllreduceRing
from repro.apps.nas_bt import NasBT
from repro.apps.nas_cg import NasCG
from repro.apps.pop import Pop
from repro.apps.specfem import Specfem
from repro.apps.sweep3d import Sweep3D
from repro.apps.synthetic import SanchoLoop
from repro.errors import ConfigurationError


def _random_exchange(**options: Any) -> ApplicationModel:
    """The seeded ``random-exchange`` generator, imported on first use.

    :mod:`repro.workloads` builds its models on :mod:`repro.apps.base`, so
    importing it while :mod:`repro.apps` initialises would make the two
    packages import each other.
    """
    from repro.workloads.generator import generate_workload

    return generate_workload(**options)


#: All application models by name.  The seeded synthetic-workload generator
#: registers alongside the paper applications, so experiment specs and the
#: CLI can name generated workloads (``random-exchange`` plus a ``seed``
#: option) exactly like built-in apps.
APPLICATIONS: Dict[str, Callable[..., ApplicationModel]] = {
    NasBT.name: NasBT,
    NasCG.name: NasCG,
    Pop.name: Pop,
    Alya.name: Alya,
    Specfem.name: Specfem,
    Sweep3D.name: Sweep3D,
    SanchoLoop.name: SanchoLoop,
    AllreduceRing.name: AllreduceRing,
    "random-exchange": _random_exchange,
}

#: Speedup percentages the paper reports at intermediate bandwidth with the
#: ideal computation pattern (Section III).
PAPER_IDEAL_SPEEDUP_PERCENT: Dict[str, float] = {
    NasBT.name: 30.0,
    NasCG.name: 10.0,
    Pop.name: 10.0,
    Alya.name: 40.0,
    Specfem.name: 65.0,
    Sweep3D.name: 160.0,
}


def create_application(name: str, **overrides: Any) -> ApplicationModel:
    """Instantiate a registered application model by name."""
    try:
        factory = APPLICATIONS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown application {name!r}; available: {sorted(APPLICATIONS)}") from None
    try:
        return factory(**overrides)
    except TypeError as exc:
        raise ConfigurationError(
            f"application {name!r} does not accept options "
            f"{sorted(overrides)}: {exc}") from exc


def paper_applications(num_ranks: int = 16, scale: float = 1.0) -> List[ApplicationModel]:
    """The six applications of the paper's evaluation, with default sizing.

    ``scale`` multiplies the iteration counts (1.0 keeps the fast defaults
    used by the test-suite; the benchmark harness uses larger values).
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale!r}")

    def _iterations(base: int) -> int:
        return max(1, int(round(base * scale)))

    return [
        NasBT(num_ranks=num_ranks, iterations=_iterations(4)),
        NasCG(num_ranks=num_ranks, iterations=_iterations(6)),
        Pop(num_ranks=num_ranks, iterations=_iterations(4)),
        Alya(num_ranks=num_ranks, iterations=_iterations(4)),
        Specfem(num_ranks=num_ranks, iterations=_iterations(4)),
        Sweep3D(num_ranks=num_ranks, iterations=_iterations(2)),
    ]
