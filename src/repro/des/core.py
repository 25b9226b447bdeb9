"""The simulation environment and generator-based processes.

The environment is the hot core of every replay: tens of thousands of
events flow through :meth:`Environment.run` per simulated application, so
the scheduling paths are written for speed -- ``__slots__`` classes, a
:meth:`Environment.schedule_timeout` fast path that builds a plain-delay
:class:`Timeout` without the generic event machinery, a drain loop that
binds its hot attributes once instead of per event, and two FIFOs for
the work due at the current instant -- one for URGENT work (resource
grants, process starts and ends), one for NORMAL work (message arrivals,
send completions, satisfied waits, zero-length delays) -- so the heap
holds only future events.  The semantics are unchanged from the
straightforward single-heap implementation: same event ordering (time,
then priority, then insertion order), same error surfacing.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Deque, Generator, List, Optional, Sequence, Tuple, Union

from repro.des.events import (
    PENDING,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    Event,
    Initialize,
    Timeout,
    priority_error,
)
from repro.des.exceptions import DesError, EmptySchedule, StopProcess

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process.

    A process wraps a generator.  The generator yields :class:`Event`
    instances; the process resumes when the yielded event is processed and
    receives the event's value as the result of the ``yield`` expression.
    The process itself is an event that triggers when the generator returns,
    so processes can wait on each other.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        Event.__init__(self, env, name=name)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self).add_callback(self._resume)

    def _default_name(self) -> str:
        return getattr(self._generator, "__name__", "Process")

    @property
    def is_alive(self) -> bool:
        """True while the wrapped generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on."""
        return self._target

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active_process = self
        send = self._generator.send
        while True:
            try:
                if event._ok:
                    value = event._value
                    next_event = send(None if value is PENDING else value)
                else:
                    event.defuse()
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._target = None
                self.succeed(getattr(exc, "value", None), priority=PRIORITY_URGENT)
                break
            except StopProcess as exc:
                self._target = None
                self.succeed(exc.value, priority=PRIORITY_URGENT)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc, priority=PRIORITY_URGENT)
                break

            if not isinstance(next_event, Event):
                error = DesError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}")
                self._target = None
                self.fail(error, priority=PRIORITY_URGENT)
                break

            if next_event.callbacks is None:  # already processed
                # The event already happened: continue immediately with it.
                event = next_event
                continue

            self._target = next_event
            next_event.callbacks.append(self._resume)
            break
        env._active_process = None


class Environment:
    """Owns simulation time and the event queue.

    The queue is kept in three parts.  A heap orders future entries by
    (time, priority, creation id).  Two FIFOs hold the work due at the
    current instant, one per priority: an event triggered now, or
    scheduled with a delay that leaves the clock where it is, joins the
    FIFO of its priority instead of the heap.  Among the entries of one
    instant and priority, creation order is FIFO order, so the
    environment runs the URGENT FIFO dry, then the NORMAL one, and pops
    the heap only when both are empty -- exactly the single heap's order,
    as long as the heap never holds an URGENT or NORMAL entry for the
    current instant.  Such entries are the ones scheduled earlier with a
    delay that ends now: when the clock moves to an instant, by a pop or
    by :meth:`advance_to`, they all move onto the FIFOs of their
    priorities before anything runs there.  They were created before that
    instant, so they precede everything created at it.
    """

    __slots__ = ("_now", "_queue", "_urgent", "_normal", "_eid",
                 "_active_process")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Work due at the current instant, in creation order, per priority.
        self._urgent: Deque[Event] = deque()
        self._normal: Deque[Event] = deque()
        self._eid = count()
        self._active_process: Optional[Process] = None

    # -- inspection ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        if self._urgent or self._normal:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Insert ``event`` into the queue ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay!r})")
        if priority < PRIORITY_URGENT:
            raise priority_error(priority)
        now = self._now
        if now + delay == now:
            if priority == PRIORITY_NORMAL:
                self._normal.append(event)
                return
            if priority == PRIORITY_URGENT:
                self._urgent.append(event)
                return
        heappush(self._queue, (now + delay, priority, next(self._eid), event))

    def schedule_timeout(self, delay: float, value: Any = None) -> Timeout:
        """Fast path for plain delays: build and enqueue a :class:`Timeout`.

        Equivalent to ``Timeout(env, delay, value)`` (same validation, same
        queue position) but skips the generic event-construction machinery,
        which matters because timeouts dominate the replay hot loop.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event._name = None
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event._delay = delay
        now = self._now
        if now + delay == now:
            self._normal.append(event)
        else:
            heappush(self._queue,
                     (now + delay, PRIORITY_NORMAL, next(self._eid), event))
        return event

    def advance_to(self, when: float) -> float:
        """Batch time advance: jump the clock to ``when`` without events.

        The primitive of the adaptive replay backend: a fast-forwarded
        window computes its end time in closed form, and the environment
        clock must reflect it without paying for the thousands of timeouts
        the window elided.  Jumping is only legal when no scheduled event
        would have fired on the way -- otherwise the elision would have
        skipped an observable side effect -- so the call refuses to leap
        over a pending event, work due at the current instant included
        (events scheduled exactly *at* ``when`` are fine: they have not
        fired yet at that instant).
        """
        if when < self._now:
            raise ValueError(
                f"cannot advance the clock backwards "
                f"(when={when!r}, now={self._now!r})")
        if (self._urgent or self._normal) and self._now < when:
            kind = "urgent" if self._urgent else "normal"
            raise DesError(
                f"cannot advance to {when!r}: {kind} work is pending at "
                f"{self._now!r}")
        queue = self._queue
        if queue and queue[0][0] < when:
            raise DesError(
                f"cannot advance to {when!r}: an event is scheduled "
                f"earlier, at {queue[0][0]!r}")
        self._now = float(when)
        self._promote(self._now)
        return self._now

    def _promote(self, when: float) -> None:
        """Move the heap's URGENT and NORMAL entries for instant ``when``
        onto the FIFOs of their priorities.

        Called when the clock reaches ``when``, so the heap never holds
        URGENT or NORMAL work of the current instant.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[0] != when or entry[1] > PRIORITY_NORMAL:
                return
            heappop(queue)
            if entry[1] == PRIORITY_NORMAL:
                self._normal.append(entry[3])
            else:
                self._urgent.append(entry[3])

    def _pop(self) -> Event:
        """Take the next event off a non-empty queue, moving the clock to it.

        The drain loop of :meth:`run` inlines the same steps.
        """
        if self._urgent:
            return self._urgent.popleft()
        if self._normal:
            return self._normal.popleft()
        queue = self._queue
        when, _priority, _eid, event = heappop(queue)
        self._now = when
        if queue and queue[0][0] == when:
            self._promote(when)
        return event

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._urgent and not self._normal and not self._queue:
            raise EmptySchedule("no more events scheduled")
        event = self._pop()
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody waited for: surface the error.
            raise event._value

    def run(self, until: Union[None, float, int, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until that simulation time) or an :class:`Event` (run until the
        event is processed; its value is returned).
        """
        queue = self._queue
        urgent = self._urgent
        normal = self._normal

        if until is None:
            # Drain loop (the replay path): no stop checks per event.
            timeout_class = Timeout
            urgent_popleft = urgent.popleft
            normal_popleft = normal.popleft
            while True:
                if urgent:
                    event = urgent_popleft()
                elif normal:
                    event = normal_popleft()
                elif queue:
                    when, _priority, _eid, event = heappop(queue)
                    self._now = when
                    if queue and queue[0][0] == when:
                        self._promote(when)
                    if type(event) is timeout_class:
                        # Skip-ahead fast path: a plain timeout is always
                        # ok and can never carry a failure, so the clock
                        # advances and the waiters resume without the
                        # generic failure-surfacing machinery.  Semantics
                        # (ordering, callback observations) are unchanged.
                        callbacks, event.callbacks = event.callbacks, None
                        for callback in callbacks:
                            callback(event)
                        continue
                else:
                    return None
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value

        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time!r} lies before the current time {self._now!r}")

        while True:
            if stop_event is not None and stop_event.callbacks is None:
                if not stop_event._ok:
                    stop_event.defuse()
                    raise stop_event._value
                return stop_event._value
            # FIFO work is due now, and now <= stop_time: only empty FIFOs
            # let the run stop.
            if not urgent and not normal:
                if not queue:
                    if stop_event is not None:
                        raise EmptySchedule(
                            "event queue drained before the 'until' event triggered")
                    if stop_time is not None and stop_time > self._now:
                        self._now = stop_time
                    return None
                if stop_time is not None and queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
            event = self._pop()
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if type(event) is Timeout:
                # Same skip-ahead as the drain loop: plain timeouts cannot
                # fail, so the failure check is dead weight.  The stop
                # checks at the top of the loop still run per event.
                continue
            if not event._ok and not event._defused:
                raise event._value

    # -- factories ---------------------------------------------------------
    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers after ``delay`` time units."""
        return self.schedule_timeout(delay, value)

    def event(self, name: Optional[str] = None) -> Event:
        """A bare event that user code triggers explicitly."""
        return Event(self, name=name)

    def all_of(self, events: Sequence[Event]) -> AllOf:
        """An event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)
