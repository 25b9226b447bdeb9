"""repro -- reproduction of the ISPASS 2010 overlap-of-communication-and-computation study.

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.des``
    A small discrete-event-simulation kernel (events, generator-based
    processes, resources) on which the replay simulator is built.
``repro.tracing``
    The tracing tool: a deterministic per-rank virtual machine that executes
    application models and records instruction-counted computation bursts,
    communication records and the memory-access (production/consumption)
    patterns on communication buffers.
``repro.mpi``
    Synthetic MPI abstractions: datatypes and process topologies.
``repro.apps``
    Parameterised synthetic application models (NAS BT, NAS CG, Sweep3D,
    POP, Alya, SPECFEM and a Sancho-style synthetic loop).
``repro.dimemas``
    The trace-driven network replay simulator with the Dimemas machine model
    (relative CPU speed, latency, bandwidth, buses, links, eager/rendezvous,
    collective cost models).
``repro.paraver``
    State/communication timelines, ``.prv`` export, ASCII Gantt rendering and
    timeline comparison.
``repro.core``
    The overlap study itself: chunking policies, computation-pattern models,
    overlap mechanisms, the trace transformation that produces the overlapped
    traces, the study environment facade, analysis and parameter sweeps.
``repro.experiments``
    The unified declarative experiment API: one serializable
    :class:`ExperimentSpec` (built fluently or loaded from JSON/TOML), one
    runner expanding the full apps x platform-grid x variants cross-product,
    one typed :class:`ExperimentResult`.

``import repro`` loads none of these packages.  Every package namespace
exports lazily (PEP 562): a public name such as ``repro.run_experiment``
loads its defining module when it is first used, so a command loads only
the modules it runs.
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.environment": ("OverlapStudyEnvironment",),
    ".core.mechanisms": ("OverlapMechanism",),
    ".core.patterns": ("ComputationPattern",),
    ".dimemas.platform": ("Platform",),
    ".dimemas.simulator": ("DimemasSimulator",),
    ".experiments.builder": ("Experiment",),
    ".experiments.result": ("ExperimentResult",),
    ".experiments.runner": ("run_experiment",),
    ".experiments.spec": ("ExperimentSpec",),
    ".tracing.machine": ("TracingVirtualMachine",),
})

__all__ = [
    "__version__",
    "ComputationPattern",
    "DimemasSimulator",
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "OverlapMechanism",
    "OverlapStudyEnvironment",
    "Platform",
    "TracingVirtualMachine",
    "run_experiment",
]
