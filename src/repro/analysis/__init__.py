"""Static trace analysis: MPI correctness linting before any replay runs.

The package has three parts:

* :mod:`repro.analysis.diagnostics` -- the typed result surface
  (:class:`Diagnostic`, :class:`AnalysisReport`, the stable ``TL*`` code
  registry and the :func:`format_defect` formatting the replay engine
  shares for its runtime errors);
* :mod:`repro.analysis.structure` -- the structural checks, worded from
  the trace's message plan; the tracing virtual machine runs them on every
  traced application model;
* :mod:`repro.analysis.tracelint` -- :func:`analyze_trace`, which adds the
  symbolic deadlock search, without instantiating the DES.

Entry points elsewhere: the ``repro-overlap check`` CLI subcommand, the
fail-fast precheck in :func:`repro.experiments.runner.run_experiment`, and
the CI gate asserting every registered app analyzes clean.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".diagnostics": ("CODES", "AnalysisReport", "CodeInfo", "Diagnostic",
                     "Severity", "code_table", "format_defect", "location"),
    ".tracelint": ("ALL_RENDEZVOUS", "analyze_trace"),
})

__all__ = [
    "ALL_RENDEZVOUS",
    "AnalysisReport",
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "Severity",
    "analyze_trace",
    "code_table",
    "format_defect",
    "location",
]
