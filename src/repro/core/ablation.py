"""Ablation studies of the overlap mechanism's design choices.

The paper's tool fixes several design choices whose influence the environment
can quantify.  Each function here runs one such ablation for a given
application and returns a mapping from the varied parameter to the resulting
ideal-pattern speedup:

* chunking policy / chunk size (how finely messages are partitioned);
* the eager/rendezvous threshold of the MPI layer;
* the relative CPU speed of the target machine (the paper's future-work
  "faster nodes make overlap more valuable" argument).

.. deprecated::
    The helpers are thin adapters over the unified experiment API: the
    eager-threshold and CPU-speed ablations are single specs with an
    ``eager_thresholds`` / ``cpu_speeds`` platform axis, and the chunking
    ablations run one single-point spec per policy.  New code should build
    the specs directly (:class:`repro.experiments.Experiment`).
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional, Sequence, TYPE_CHECKING

from repro.core.chunking import ChunkingPolicy
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import ApplicationModel


def _deprecated(name: str) -> None:
    warnings.warn(
        f"{name} is deprecated; build an ExperimentSpec and use "
        f"repro.experiments.run_experiment instead",
        DeprecationWarning, stacklevel=3)


def _platform_overrides(platform: Platform) -> Dict[str, object]:
    """A platform's full field set, as experiment-spec overrides."""
    from repro.dimemas.config import PLATFORM_FIELDS

    overrides = {}
    for field in PLATFORM_FIELDS:
        value = getattr(platform, field)
        if field in ("topology", "collective_model"):
            value = value.to_string()
        overrides[field] = value
    return overrides


def _ablation_spec(app: "ApplicationModel", platform: Platform,
                   pattern: ComputationPattern, **axes):
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec(
        apps=(app.name,),
        patterns=(pattern.value,),
        mechanisms=("full",),
        platform=_platform_overrides(platform),
        chunking={"policy": "fixed-size", "chunk_bytes": 16384,
                  "max_chunks": 64},
        **axes)


def chunk_size_ablation(app: "ApplicationModel",
                        chunk_sizes: Sequence[int] = (4096, 16384, 65536, 262144),
                        platform: Optional[Platform] = None,
                        pattern: ComputationPattern = ComputationPattern.IDEAL) -> Dict[int, float]:
    """Ideal-pattern speedup as a function of the chunk size in bytes.

    Small chunks pipeline better but pay more per-message latency; very large
    chunks degenerate into the original single message.

    The chunking policy shapes the overlap transform itself, so each size is
    one single-point experiment and the (deterministic) trace is regenerated
    per size -- tracing is cheap next to the replays at ablation scale.
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    _deprecated("chunk_size_ablation")
    platform = platform or Platform()
    results: Dict[int, float] = {}
    for chunk_bytes in chunk_sizes:
        spec = ExperimentSpec(
            apps=(app.name,),
            patterns=(pattern.value,),
            mechanisms=("full",),
            platform=_platform_overrides(platform),
            chunking={"policy": "fixed-size", "chunk_bytes": chunk_bytes,
                      "max_chunks": 256})
        outcome = run_experiment(spec, apps=[app])
        results[chunk_bytes] = outcome.sweep().points[0].speedup(pattern.value)
    return results


def chunking_policy_ablation(app: "ApplicationModel",
                             policies: Dict[str, ChunkingPolicy],
                             platform: Optional[Platform] = None) -> Dict[str, float]:
    """Ideal-pattern speedup for arbitrary named chunking policies.

    One single-point experiment per policy (the policy shapes the overlap
    transform, so the traced app is regenerated deterministically each time).
    """
    from repro.core.environment import OverlapStudyEnvironment
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    _deprecated("chunking_policy_ablation")
    platform = platform or Platform()
    spec = ExperimentSpec(
        apps=(app.name,),
        patterns=(ComputationPattern.IDEAL.value,),
        mechanisms=("full",),
        platform=_platform_overrides(platform))
    results: Dict[str, float] = {}
    for name, policy in policies.items():
        # Arbitrary policy objects cannot be serialised into a spec; inject
        # them through a caller-configured environment instead.
        environment = OverlapStudyEnvironment(platform=platform, chunking=policy)
        outcome = run_experiment(spec, environment=environment, apps=[app])
        results[name] = outcome.sweep().points[0].speedup("ideal")
    return results


def eager_threshold_ablation(app: "ApplicationModel",
                             thresholds: Sequence[int] = (0, 16384, 65536, 1 << 20),
                             platform: Optional[Platform] = None) -> Dict[int, float]:
    """Ideal-pattern speedup as a function of the eager/rendezvous threshold.

    With a tiny threshold every chunk needs a rendezvous with the (not yet
    posted) receive, which delays the early transfers and eats most of the
    overlap; a generous threshold lets chunks flow as soon as they are
    produced.  One spec with an ``eager_thresholds`` axis replays the traced
    run (original and overlapped) at every threshold.
    """
    from repro.experiments.runner import run_experiment

    _deprecated("eager_threshold_ablation")
    platform = platform or Platform()
    spec = _ablation_spec(app, platform, ComputationPattern.IDEAL,
                          eager_thresholds=tuple(thresholds))
    outcome = run_experiment(spec, apps=[app])
    return {cell.dims.eager_threshold: cell.sweep.points[0].speedup("ideal")
            for cell in outcome.cells}


def cpu_speed_ablation(app: "ApplicationModel",
                       cpu_speeds: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                       platform: Optional[Platform] = None) -> Dict[float, float]:
    """Ideal-pattern speedup as a function of the relative CPU speed.

    Faster CPUs shrink the computation, so a fixed network looks relatively
    slower and the benefit of hiding it grows -- the scaling argument behind
    the paper's conclusion that overlap relaxes network requirements.
    """
    from repro.experiments.runner import run_experiment

    _deprecated("cpu_speed_ablation")
    platform = platform or Platform()
    spec = _ablation_spec(app, platform, ComputationPattern.IDEAL,
                          cpu_speeds=tuple(float(s) for s in cpu_speeds))
    outcome = run_experiment(spec, apps=[app])
    return {cell.dims.cpu_speed: cell.sweep.points[0].speedup("ideal")
            for cell in outcome.cells}
