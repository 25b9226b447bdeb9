"""Event primitives for the DES kernel.

An :class:`Event` moves through three states:

* *pending* -- created, not yet triggered;
* *triggered* -- :meth:`Event.succeed` or :meth:`Event.fail` has been called
  and the event sits in the environment queue;
* *processed* -- the environment popped the event and ran its callbacks.

Processes (see :mod:`repro.des.core`) wait on events by yielding them.

Events are the unit currency of the replay hot loop (every timeout, resource
grant and message-life-cycle notification is one), so the classes here are
tuned for allocation speed: every class carries ``__slots__`` (no per-event
``__dict__``) and display names are computed *lazily* -- an event that is
never printed never pays for its name string.

Triggering schedules the event at the current instant: at
:data:`PRIORITY_URGENT` or :data:`PRIORITY_NORMAL` it joins the
environment's FIFO of same-instant work of that priority, never the
time-ordered heap, which holds only future events (see
:class:`~repro.des.core.Environment`).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Sequence

from repro.des.exceptions import EventAlreadyTriggered

#: Sentinel for "the event has no value yet".
PENDING = object()

#: Scheduling priority used for resource grants and process bootstraps so
#: they run before ordinary timeouts scheduled at the same instant.  It is
#: the most urgent priority there is: urgent work triggered at the current
#: instant runs from a FIFO, in trigger order, before anything else
#: scheduled for that instant.
PRIORITY_URGENT = 0
#: Default scheduling priority.
PRIORITY_NORMAL = 1


def priority_error(priority: int) -> ValueError:
    """The error for a priority more urgent than :data:`PRIORITY_URGENT`.

    Urgent work at the current instant runs from a FIFO ahead of the heap,
    which is only exact if nothing may outrank it.
    """
    return ValueError(
        f"priority {priority!r} is more urgent than PRIORITY_URGENT "
        f"({PRIORITY_URGENT})")


class Event:
    """A condition a process can wait for."""

    __slots__ = ("env", "callbacks", "_name", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment", name: Optional[str] = None):
        self.env = env
        self._name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    # -- naming --------------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Display name (computed on first access for unnamed events)."""
        if self._name is None:
            return self._default_name()
        return self._name

    @name.setter
    def name(self, value: Optional[str]) -> None:
        self._name = value

    def _default_name(self) -> Optional[str]:
        return None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has executed the event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was succeeded (or failed) with."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully and schedule it for processing."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        # Inline of ``env.schedule(self, delay=0.0, priority=priority)``:
        # triggering is the second-hottest path after the drain loop, and a
        # zero delay needs no validation.
        env = self.env
        if priority == PRIORITY_NORMAL:
            env._normal.append(self)
        elif priority == PRIORITY_URGENT:
            env._urgent.append(self)
        elif priority > PRIORITY_URGENT:
            heappush(env._queue, (env._now, priority, next(env._eid), self))
        else:
            raise priority_error(priority)
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the event.
        If nothing ever waits on a failed event the environment raises the
        exception at processing time so errors never pass silently.
        """
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.env.schedule(self, priority=priority)
        self._ok = False
        self._value = exception
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled outside a process."""
        self._defused = True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after its creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        Event.__init__(self, env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay, priority=PRIORITY_NORMAL)

    def _default_name(self) -> str:
        return f"Timeout({self._delay})"

    @property
    def delay(self) -> float:
        return self._delay


class Initialize(Event):
    """Internal event used to bootstrap a process."""

    __slots__ = ("process",)

    def __init__(self, env: "Environment", process: "Event"):
        Event.__init__(self, env)
        self.process = process
        self._ok = True
        self._value = None
        env.schedule(self, delay=0.0, priority=PRIORITY_URGENT)

    def _default_name(self) -> str:
        return "Initialize"


class AllOf(Event):
    """Triggers when every child event has triggered.

    The children are counted up front, and the barrier succeeds, with
    ``None``, in the callback of the last one; a failing child fails it at
    once.  With no children it succeeds immediately.
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: "Environment", events: Sequence[Event]):
        Event.__init__(self, env)
        self._remaining = len(events)
        if not events:
            self.succeed()
            return
        check = self._check
        for event in events:
            if event.env is not env:
                raise ValueError(
                    "all events of a barrier must share the environment")
            event.add_callback(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._remaining -= 1
        if not self._remaining:
            self.succeed()
