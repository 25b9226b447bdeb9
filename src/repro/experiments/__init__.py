"""The unified declarative experiment API: one spec, one runner, one result.

The paper's methodology -- trace once, replay on many configurable
platforms -- used to surface through several parallel driver functions,
each with its own argument plumbing and return shape.  This package
replaces them with a single composable entry point:

* :class:`~repro.experiments.spec.ExperimentSpec` -- a declarative,
  serializable (JSON/TOML) description of one experiment: the app(s), the
  platform grid (bandwidth / latency / topology / node-mapping /
  eager-threshold / CPU-speed axes), the overlap variants (pattern and
  mechanism axes) and execution options (``jobs``, workload ``seeds``);
* :class:`~repro.experiments.builder.Experiment` -- a fluent builder that
  produces the same specs programmatically;
* :func:`~repro.experiments.runner.run_experiment` -- the one runner that
  expands any spec into a single task cross-product over the shared
  :class:`~repro.core.executor.SweepExecutor`;
* :class:`~repro.experiments.result.ExperimentResult` -- the typed result:
  per-cell bandwidth sweeps, tidy row/JSON/CSV exports and accessors the
  :mod:`repro.core.reporting` tables consume directly.

Bandwidth, topology and mechanism sweeps, the design-choice ablations and
batch studies are all specs: one axis each, or a ``[chunking]`` section.
The runner stays bit-identical to the pre-redesign drivers, ``jobs > 1``
included.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".builder": ("Experiment", "log_spaced"),
    ".plan": ("ExperimentPlan", "analyze_tasks", "plan_experiment"),
    ".result": ("CellDims", "ExperimentCell", "ExperimentResult",
                "TaskProvenance"),
    ".runner": ("ExperimentPreview", "preview_experiment", "run_experiment"),
    ".spec": ("CHUNKING_POLICIES", "ExperimentSpec", "load_spec"),
})

__all__ = [
    "CHUNKING_POLICIES",
    "CellDims",
    "Experiment",
    "ExperimentCell",
    "ExperimentPlan",
    "ExperimentPreview",
    "ExperimentResult",
    "ExperimentSpec",
    "TaskProvenance",
    "analyze_tasks",
    "load_spec",
    "log_spaced",
    "plan_experiment",
    "preview_experiment",
    "run_experiment",
]
