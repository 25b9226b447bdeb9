"""The NORMAL FIFO keeps the single heap's order: (time, priority, creation).

NORMAL work due at the current instant runs from a FIFO instead of the
heap, after the URGENT FIFO.  These cases pin the places where a naive
FIFO would reorder events: NORMAL entries scheduled earlier with a delay
that ends now, delays lost to rounding, URGENT work created while the FIFO
drains, priorities below NORMAL, the inspection and clock primitives, the
stepping entry points and failure surfacing.
"""

import pytest

from repro.des import Environment
from repro.des.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.des.exceptions import DesError


def _labelled(env, order, label):
    event = env.event()
    event.add_callback(lambda ev: order.append((label, env.now)))
    return event


def _delayed_then_zero_delay(env, order):
    # A and B are NORMAL at delay 2; A's callback triggers Z, succeeds Y
    # and starts a zero-length timeout T at that instant.  B was created
    # before all three, so it runs first.
    a = _labelled(env, order, "A")
    b = _labelled(env, order, "B")
    z = _labelled(env, order, "Z")
    y = _labelled(env, order, "Y")

    def trigger(ev):
        env.schedule(z)
        y.succeed()
        env.timeout(0.0).add_callback(lambda ev: order.append(("T", env.now)))

    a.add_callback(trigger)
    env.schedule(a, delay=2.0)
    env.schedule(b, delay=2.0)


EXPECTED = [("A", 2.0), ("B", 2.0), ("Z", 2.0), ("Y", 2.0), ("T", 2.0)]


class TestDelayedNormal:
    def test_due_heap_entries_run_before_work_created_now(self):
        env = Environment()
        order = []
        _delayed_then_zero_delay(env, order)
        env.run()
        assert order == EXPECTED

    def test_a_delay_lost_to_rounding_joins_the_fifo(self):
        # now + delay == now: the entry is due now, keeps its creation
        # order among the FIFO's entries and never touches the heap.
        env = Environment(initial_time=1.0e16)
        order = []
        _labelled(env, order, "N1").succeed()
        env.schedule(_labelled(env, order, "N2"), delay=1.0e-9)
        env.timeout(1.0e-9).add_callback(lambda ev: order.append(("N3", 0)))
        _labelled(env, order, "N4").succeed()
        assert env._queue == []
        env.run()
        assert [label for label, _ in order] == ["N1", "N2", "N3", "N4"]

    def test_urgent_work_created_while_the_fifo_drains_runs_first(self):
        env = Environment()
        order = []
        n1 = _labelled(env, order, "N1")
        n2 = _labelled(env, order, "N2")
        urgent = _labelled(env, order, "U")
        n1.add_callback(lambda ev: urgent.succeed(priority=PRIORITY_URGENT))
        n1.succeed()
        n2.succeed()
        env.run()
        assert order == [("N1", 0.0), ("U", 0.0), ("N2", 0.0)]

    def test_a_priority_below_normal_waits_for_the_fifo(self):
        # Priority 2 at the current instant stays on the heap and runs
        # after every NORMAL entry of the instant, older or newer.
        env = Environment()
        order = []
        _labelled(env, order, "low").succeed(priority=PRIORITY_NORMAL + 1)
        _labelled(env, order, "N").succeed()
        env.run()
        assert order == [("N", 0.0), ("low", 0.0)]


class TestSteppingKeepsTheOrder:
    def test_step(self):
        env = Environment()
        order = []
        _delayed_then_zero_delay(env, order)
        for _ in range(len(EXPECTED)):
            env.step()
        assert order == EXPECTED

    def test_run_until_time_in_slices(self):
        env = Environment()
        order = []
        _delayed_then_zero_delay(env, order)
        env.run(until=1.0)
        assert order == []
        env.run(until=2.0)
        assert order == EXPECTED
        assert env.now == 2.0

    def test_run_until_time_equal_to_now_runs_the_fifo(self):
        env = Environment(initial_time=2.0)
        order = []
        _labelled(env, order, "N").succeed()
        env.run(until=2.0)
        assert order == [("N", 2.0)]

    def test_run_until_event(self):
        # The stop event is NORMAL work queued behind the first entry: the
        # run stops right after it, before the entry created later.
        env = Environment()
        order = []
        _labelled(env, order, "N1").succeed()
        stop = _labelled(env, order, "stop")
        stop.succeed("stopped")
        _labelled(env, order, "N3").succeed()
        assert env.run(until=stop) == "stopped"
        assert order == [("N1", 0.0), ("stop", 0.0)]
        env.run()
        assert order[-1] == ("N3", 0.0)

    def test_advance_onto_a_delayed_normal_entry(self):
        # Jumping the clock onto a delayed NORMAL entry makes it work of
        # the current instant: NORMAL work created afterwards follows it.
        env = Environment()
        order = []
        env.schedule(_labelled(env, order, "A"), delay=2.0)
        env.advance_to(2.0)
        _labelled(env, order, "C").succeed()
        env.run()
        assert order == [("A", 2.0), ("C", 2.0)]


class TestInspection:
    def test_peek_returns_now_while_normal_work_is_pending(self):
        env = Environment()
        env.timeout(5.0)
        env.run(until=3.0)
        env.event().succeed()
        assert env.peek() == 3.0
        env.step()
        assert env.peek() == 5.0

    def test_advance_to_refuses_to_leap_normal_work(self):
        env = Environment(initial_time=1.0)
        fired = []
        event = env.event()
        event.add_callback(lambda ev: fired.append(env.now))
        event.succeed()
        with pytest.raises(DesError, match="normal work is pending"):
            env.advance_to(2.0)
        # Staying at the current instant elides nothing.
        assert env.advance_to(1.0) == 1.0
        env.run()
        assert fired == [1.0]


class TestFailures:
    def test_run_raises_a_failed_event_nobody_waits_for(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_step_raises_a_failed_event_nobody_waits_for(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.step()

    def test_run_until_raises_a_failed_event_nobody_waits_for(self):
        env = Environment()
        env.event().fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=1.0)

    def test_a_waiting_process_receives_the_failure(self):
        env = Environment()
        caught = []
        failing = env.event()

        def waiter():
            try:
                yield failing
            except RuntimeError as exc:
                caught.append((str(exc), env.now))

        env.process(waiter())
        env.timeout(1.0).add_callback(
            lambda ev: failing.fail(RuntimeError("boom")))
        env.run()
        assert caught == [("boom", 1.0)]
