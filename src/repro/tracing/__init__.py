"""The tracing tool substrate.

In the paper the tracing tool is built on Valgrind: every MPI process runs on
its own Valgrind virtual machine, MPI calls are wrapped, and loads/stores on
communication buffers are tracked so the tool knows *when* every chunk of a
message is produced (last store before the send) and consumed (first load
after the receive).  Timestamps are instruction counts scaled by an average
MIPS rate.

This package reproduces that functionality for synthetic application models:

* :mod:`repro.tracing.records` -- the Dimemas-style trace records plus the
  production/consumption annotations;
* :mod:`repro.tracing.buffers` -- communication-buffer handles;
* :mod:`repro.tracing.tracer`  -- the per-rank tracing tool;
* :mod:`repro.tracing.context` -- the API application models program against
  (compute / load / store / MPI calls);
* :mod:`repro.tracing.machine` -- the virtual machine that runs an
  application model on every rank, assembles the full trace and checks it;
* :mod:`repro.tracing.trace`   -- trace containers, (de)serialisation and
  the message plan, the one static pass over a trace;
* :mod:`repro.tracing.timebase` -- the instruction/MIPS time model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".buffers": ("Buffer",),
    ".context": ("RankContext",),
    ".machine": ("TracingVirtualMachine",),
    ".records": ("AccessEvent", "CollectiveRecord", "CpuBurst", "RecvRecord",
                 "Record", "SendRecord", "WaitRecord"),
    ".trace": ("RankTrace", "Trace"),
    ".tracer": ("RankTracer",),
    ".timebase": ("TimeBase",),
})

__all__ = [
    "AccessEvent",
    "Buffer",
    "CollectiveRecord",
    "CpuBurst",
    "RankContext",
    "RankTrace",
    "RankTracer",
    "Record",
    "RecvRecord",
    "SendRecord",
    "TimeBase",
    "Trace",
    "TracingVirtualMachine",
    "WaitRecord",
]
