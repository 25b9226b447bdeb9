"""Paraver-like visualisation substrate.

The paper uses Paraver to inspect the reconstructed time behaviours of the
original and overlapped executions, both qualitatively (Gantt views) and
quantitatively (time spent per state).  This package provides:

* :mod:`repro.paraver.states`   -- the thread-state semantics;
* :mod:`repro.paraver.timeline` -- state intervals and communication lines;
* :mod:`repro.paraver.prv`      -- export to the Paraver ``.prv`` text format;
* :mod:`repro.paraver.ascii`    -- ASCII Gantt rendering for terminals;
* :mod:`repro.paraver.compare`  -- quantitative comparison of two timelines.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ascii": ("render_gantt",),
    ".compare": ("TimelineComparison", "compare_timelines"),
    ".prv": ("export_prv", "to_prv"),
    ".states": ("ThreadState",),
    ".timeline": ("CommunicationEvent", "NullRecorder", "StateInterval",
                  "Timeline"),
})

__all__ = [
    "CommunicationEvent",
    "NullRecorder",
    "StateInterval",
    "ThreadState",
    "Timeline",
    "TimelineComparison",
    "compare_timelines",
    "export_prv",
    "render_gantt",
    "to_prv",
]
