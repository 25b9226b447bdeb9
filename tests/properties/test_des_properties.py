"""Property-based tests for the DES kernel."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource
from repro.des.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.des.exceptions import EmptySchedule


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=30))
def test_events_processed_in_nondecreasing_time_order(delays):
    env = Environment()
    processed = []
    for delay in delays:
        env.timeout(delay).add_callback(lambda ev: processed.append(env.now))
    env.run()
    assert processed == sorted(processed)
    assert env.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.01, max_value=100.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=20))
def test_sequential_process_time_is_sum_of_delays(delays):
    env = Environment()

    def worker():
        for delay in delays:
            yield env.timeout(delay)

    process = env.process(worker())
    env.run()
    assert process.processed
    assert abs(env.now - sum(delays)) < 1e-6 * max(1.0, sum(delays))


@settings(max_examples=30, deadline=None)
@given(holds=st.lists(st.floats(min_value=0.1, max_value=10.0,
                                allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=15),
       capacity=st.integers(min_value=1, max_value=4))
def test_resource_serialization_bounds_makespan(holds, capacity):
    """With capacity C the makespan lies between sum/C and sum (work conservation)."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def user(hold):
        request = env.event()
        resource.acquire(request)
        yield request
        yield env.timeout(hold)
        resource.release(request)

    for hold in holds:
        env.process(user(hold))
    env.run()
    total = sum(holds)
    assert env.now <= total + 1e-9
    assert env.now >= total / capacity - 1e-9
    assert env.now >= max(holds) - 1e-9


@settings(max_examples=30, deadline=None)
@given(count=st.integers(min_value=1, max_value=40))
def test_all_waiters_eventually_granted(count):
    env = Environment()
    resource = Resource(env, capacity=1)
    completed = []

    def user(index):
        request = env.event()
        resource.acquire(request)
        yield request
        yield env.timeout(1.0)
        resource.release(request)
        completed.append(index)

    for index in range(count):
        env.process(user(index))
    env.run()
    assert completed == list(range(count))


class _HeapFifo:
    """The reference kernel's stand-in for a same-instant FIFO: it pushes
    every entry of its priority onto the heap, numbered at creation like
    any other."""

    __slots__ = ("env", "priority")

    def __init__(self, env, priority):
        self.env = env
        self.priority = priority

    def append(self, event):
        env = self.env
        heapq.heappush(env._queue,
                       (env._now, self.priority, next(env._eid), event))


class _HeapEnvironment(Environment):
    """Reference kernel: one heap ordered by (time, priority, creation id),
    the DES's ordering rule with no FIFO.  Events, processes and resources
    are the production ones; only the queue discipline differs."""

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self._urgent = _HeapFifo(self, PRIORITY_URGENT)
        self._normal = _HeapFifo(self, PRIORITY_NORMAL)

    def schedule(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        heapq.heappush(self._queue, (self._now + delay, priority,
                                     next(self._eid), event))

    def run(self, until=None):
        while self._queue:
            when, _priority, _eid, event = heapq.heappop(self._queue)
            self._now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value


_delays = st.sampled_from([0.0, 0.0, 1.0, 2.0])
_priorities = st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL])
_steps = st.one_of(
    st.tuples(st.just("wait"), _delays),
    st.tuples(st.just("use"), st.integers(0, 1), _delays),
    st.tuples(st.just("event"), _priorities),
)


def _operations(children):
    return st.one_of(
        st.tuples(st.just("timeout"), _delays, children),
        st.tuples(st.just("succeed"), _priorities, children),
        st.tuples(st.just("schedule"), _delays, _priorities, children),
        st.tuples(st.just("process"), st.lists(_steps, max_size=4).map(tuple),
                  children),
    )


#: A program: operations run at time 0, each of which runs its children
#: when it fires (a callback, or a process's end).
_programs = st.lists(
    st.recursive(_operations(st.just(())),
                 lambda inner: _operations(
                     st.lists(inner, max_size=3).map(tuple)),
                 max_leaves=12),
    min_size=1, max_size=6)


def _callback_order(env, program, capacities, drive):
    """Run ``program`` on ``env``; returns (label, time) per callback."""
    order = []
    resources = [Resource(env, capacity=capacity) for capacity in capacities]

    def run_children(children, path):
        for index, child in enumerate(children):
            perform(child, path + (index,))

    def process(steps, children, path):
        order.append((path + ("start",), env.now))
        for index, step in enumerate(steps):
            if step[0] == "wait":
                yield env.timeout(step[1])
            elif step[0] == "use":
                resource = resources[step[1]]
                request = env.event()
                resource.acquire(request)
                yield request
                order.append((path + (index, "granted"), env.now))
                yield env.timeout(step[2])
                resource.release(request)
            else:
                event = env.event()
                event.succeed(priority=step[1])
                yield event
            order.append((path + (index,), env.now))
        run_children(children, path)

    def perform(operation, path):
        kind, children = operation[0], operation[-1]
        if kind == "process":
            env.process(process(operation[1], children, path))
            return
        event = env.timeout(operation[1]) if kind == "timeout" else env.event()
        event.add_callback(lambda ev: (order.append((path, env.now)),
                                       run_children(children, path)))
        if kind == "succeed":
            event.succeed(priority=operation[1])
        elif kind == "schedule":
            env.schedule(event, delay=operation[1], priority=operation[2])

    run_children(program, ())
    if drive == "run":
        env.run()
    elif drive == "step":
        while True:
            try:
                env.step()
            except EmptySchedule:
                break
    else:  # run(until=...) in half-unit slices, then drain
        for tenth in range(0, 60, 5):
            env.run(until=tenth / 10)
        env.run()
    return order


@settings(max_examples=200, deadline=None)
@given(program=_programs,
       capacities=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       drive=st.sampled_from(["run", "step", "until"]))
def test_fifo_kernel_orders_callbacks_as_the_single_heap(program, capacities,
                                                         drive):
    """Timeouts, succeeds at both priorities, delayed schedules, processes
    and capacity-1/2 resource users run in the same order, at the same
    times, as on a kernel that keeps every entry in one heap."""
    expected = _callback_order(_HeapEnvironment(), program, capacities, "run")
    assert _callback_order(Environment(), program, capacities,
                           drive) == expected
