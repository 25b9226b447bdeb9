"""A small discrete-event-simulation kernel.

The kernel follows the classic process-interaction style (similar to SimPy,
but written from scratch for this reproduction): an :class:`Environment`
owns a time-ordered event queue, processes are Python generators that yield
events, and resources provide contention points (the Dimemas network model
uses them for buses and per-node links).
"""

from repro.des.events import AllOf, Condition, Event, Timeout
from repro.des.core import Environment, Process
from repro.des.exceptions import DesError, StopProcess
from repro.des.resources import Resource

__all__ = [
    "AllOf",
    "Condition",
    "DesError",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "StopProcess",
    "Timeout",
]
