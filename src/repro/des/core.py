"""The simulation environment and generator-based processes.

The environment is the hot core of every replay: tens of thousands of
events flow through :meth:`Environment.run` per simulated application, so
the scheduling paths are written for speed -- ``__slots__`` classes, a
:meth:`Environment.schedule_timeout` fast path that builds a plain-delay
:class:`Timeout` without the generic event machinery, a drain loop that
binds its hot attributes once instead of per event, and a FIFO for
same-instant urgent work (resource grants, process starts and ends) so
that work never touches the heap.  The semantics are unchanged from the
straightforward single-heap implementation: same event ordering (time,
then priority, then insertion order), same error surfacing.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Deque, Generator, Iterable, List, Optional, Tuple, Union

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

    The queue is kept in two parts.  A heap orders timed entries by (time,
    priority, creation id).  A FIFO holds the urgent work of the current
    instant: every event triggered at :data:`PRIORITY_URGENT` (resource
    grants, process starts and ends) is due *now*, sorts before every
    NORMAL entry at this instant and every later entry, and among its
    peers in creation order -- which is FIFO order.  The environment runs
    the FIFO dry before it pops the heap, which is exactly the single
    heap's order as long as the heap never holds an URGENT entry for the
    current instant.  The one way such an entry arises is an URGENT event
    scheduled with a delay: when one pops, every other URGENT heap entry
    of its instant moves onto the FIFO before its callbacks run (they were
    all created before that instant, so they precede anything created at
    it).
    """

    __slots__ = ("_now", "_queue", "_urgent", "_eid", "_active_process")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Urgent work due at the current instant, in creation order.
        self._urgent: Deque[Event] = deque()
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
        if self._urgent:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    # -- scheduling ------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Insert ``event`` into the queue ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay!r})")
        now = self._now
        if priority == PRIORITY_URGENT:
            if now + delay == now:
                self._urgent.append(event)
                return
        elif priority < PRIORITY_URGENT:
            raise priority_error(priority)
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
        heappush(self._queue,
                 (self._now + delay, PRIORITY_NORMAL, next(self._eid), event))
        return event

    def advance_to(self, when: float) -> float:
        """Batch time advance: jump the clock to ``when`` without events.

        The primitive of the adaptive replay backend: a fast-forwarded
        window computes its end time in closed form, and the environment
        clock must reflect it without paying for the thousands of timeouts
        the window elided.  Jumping is only legal when no scheduled event
        would have fired on the way -- otherwise the elision would have
        skipped an observable side effect -- so the call refuses to leap
        over a pending event, urgent work of the current instant included
        (events scheduled exactly *at* ``when`` are fine: they have not
        fired yet at that instant).
        """
        if when < self._now:
            raise ValueError(
                f"cannot advance the clock backwards "
                f"(when={when!r}, now={self._now!r})")
        if self._urgent and self._now < when:
            raise DesError(
                f"cannot advance to {when!r}: urgent work is pending at "
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
        """Move the heap's URGENT entries for instant ``when`` onto the FIFO.

        Called when the clock reaches ``when`` with such entries left (an
        URGENT event scheduled with a delay), so the heap never holds
        urgent work of the current instant.
        """
        queue = self._queue
        urgent = self._urgent
        while queue and queue[0][0] == when and queue[0][1] == PRIORITY_URGENT:
            urgent.append(heappop(queue)[3])

    def _pop(self) -> Event:
        """Take the next event off a non-empty queue, moving the clock to it.

        The drain loop of :meth:`run` inlines the same steps.
        """
        if self._urgent:
            return self._urgent.popleft()
        when, priority, _eid, event = heappop(self._queue)
        self._now = when
        if priority == PRIORITY_URGENT:
            self._promote(when)
        return event

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._urgent and not self._queue:
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

        if until is None:
            # Drain loop (the replay path): no stop checks per event.
            timeout_class = Timeout
            popleft = urgent.popleft
            while True:
                if urgent:
                    event = popleft()
                elif queue:
                    when, priority, _eid, event = heappop(queue)
                    self._now = when
                    if priority == PRIORITY_URGENT:
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
            # Urgent work is due now, and now <= stop_time: only an empty
            # FIFO lets the run stop.
            if not urgent:
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

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that triggers when all ``events`` have triggered."""
        return AllOf(self, events)
