"""A small discrete-event-simulation kernel.

The kernel follows the classic process-interaction style (similar to SimPy,
but written from scratch for this reproduction): an :class:`Environment`
owns a time-ordered event queue, processes are Python generators that yield
events, and resources provide contention points (the Dimemas network model
uses them for buses and per-node links).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("AllOf", "Event", "Timeout"),
    ".core": ("Environment", "Process"),
    ".exceptions": ("DesError", "StopProcess"),
    ".resources": ("Resource",),
})

__all__ = [
    "AllOf",
    "DesError",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "StopProcess",
    "Timeout",
]
