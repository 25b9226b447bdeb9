"""The urgent FIFO keeps the single heap's order: (time, priority, creation).

Urgent work triggered at the current instant runs from a FIFO instead of
the heap.  These cases pin the places where a naive FIFO would reorder
events: URGENT events scheduled with a delay, the inspection and clock
primitives, and the stepping entry points.
"""

import pytest

from repro.des import Environment
from repro.des.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.des.exceptions import DesError


def _labelled(env, order, label):
    event = env.event()
    event.add_callback(lambda ev: order.append((label, env.now)))
    return event


class TestDelayedUrgent:
    def test_urgent_work_created_at_a_delayed_urgent_instant_runs_last(self):
        # A and B are URGENT at delay 2; A's callback succeeds C at URGENT
        # priority.  B was created before C, so it runs first.
        env = Environment()
        order = []
        a = _labelled(env, order, "A")
        b = _labelled(env, order, "B")
        c = _labelled(env, order, "C")
        normal = _labelled(env, order, "N")
        a.add_callback(lambda ev: c.succeed(priority=PRIORITY_URGENT))
        env.schedule(normal, delay=2.0, priority=PRIORITY_NORMAL)
        env.schedule(a, delay=2.0, priority=PRIORITY_URGENT)
        env.schedule(b, delay=2.0, priority=PRIORITY_URGENT)
        env.run()
        assert order == [("A", 2.0), ("B", 2.0), ("C", 2.0), ("N", 2.0)]

    def test_step_keeps_the_same_order(self):
        env = Environment()
        order = []
        a = _labelled(env, order, "A")
        b = _labelled(env, order, "B")
        c = _labelled(env, order, "C")
        a.add_callback(lambda ev: c.succeed(priority=PRIORITY_URGENT))
        env.schedule(a, delay=2.0, priority=PRIORITY_URGENT)
        env.schedule(b, delay=2.0, priority=PRIORITY_URGENT)
        for _ in range(3):
            env.step()
        assert order == [("A", 2.0), ("B", 2.0), ("C", 2.0)]

    def test_urgent_work_after_advancing_onto_a_delayed_urgent_event(self):
        # Jumping the clock onto a delayed URGENT entry makes it urgent work
        # of the current instant: urgent work created afterwards follows it.
        env = Environment()
        order = []
        a = _labelled(env, order, "A")
        env.schedule(a, delay=2.0, priority=PRIORITY_URGENT)
        env.advance_to(2.0)
        _labelled(env, order, "C").succeed(priority=PRIORITY_URGENT)
        env.run()
        assert order == [("A", 2.0), ("C", 2.0)]

    def test_a_delay_lost_to_rounding_is_due_now(self):
        # now + delay == now: the entry is urgent work of this instant and
        # keeps its creation order among the FIFO's entries.
        env = Environment(initial_time=1.0e16)
        order = []
        _labelled(env, order, "U1").succeed(priority=PRIORITY_URGENT)
        env.schedule(_labelled(env, order, "U2"), delay=1.0e-9,
                     priority=PRIORITY_URGENT)
        _labelled(env, order, "U3").succeed(priority=PRIORITY_URGENT)
        env.run()
        assert [label for label, _ in order] == ["U1", "U2", "U3"]


class TestInspection:
    def test_peek_returns_now_while_urgent_work_is_pending(self):
        env = Environment()
        env.timeout(5.0)
        env.run(until=3.0)
        env.event().succeed(priority=PRIORITY_URGENT)
        assert env.peek() == 3.0
        env.step()
        assert env.peek() == 5.0

    def test_advance_to_refuses_to_leap_urgent_work(self):
        env = Environment(initial_time=1.0)
        fired = []
        event = env.event()
        event.add_callback(lambda ev: fired.append(env.now))
        event.succeed(priority=PRIORITY_URGENT)
        with pytest.raises(DesError, match="urgent work is pending"):
            env.advance_to(2.0)
        # Staying at the current instant elides nothing.
        assert env.advance_to(1.0) == 1.0
        env.run()
        assert fired == [1.0]

    def test_a_priority_above_urgent_is_rejected(self):
        env = Environment()
        event = env.event()
        with pytest.raises(ValueError, match="more urgent"):
            event.succeed(priority=PRIORITY_URGENT - 1)
        assert not event.triggered
        with pytest.raises(ValueError, match="more urgent"):
            env.event().fail(RuntimeError("x"), priority=PRIORITY_URGENT - 1)
        with pytest.raises(ValueError, match="more urgent"):
            env.schedule(env.event(), delay=1.0,
                         priority=PRIORITY_URGENT - 1)


class TestSteppingDrainsTheFifoFirst:
    def _queue_normal_then_urgent(self):
        # A NORMAL entry at the current instant is created first; the
        # URGENT one still runs before it.
        env = Environment()
        order = []
        _labelled(env, order, "normal").succeed(priority=PRIORITY_NORMAL)
        _labelled(env, order, "urgent").succeed(priority=PRIORITY_URGENT)
        return env, order

    def test_step(self):
        env, order = self._queue_normal_then_urgent()
        env.step()
        assert order == [("urgent", 0.0)]
        env.step()
        assert order == [("urgent", 0.0), ("normal", 0.0)]

    def test_run_until_time(self):
        env, order = self._queue_normal_then_urgent()
        env.timeout(1.0).add_callback(lambda ev: order.append(("late", 1.0)))
        env.run(until=0.5)
        assert order == [("urgent", 0.0), ("normal", 0.0)]
        assert env.now == 0.5

    def test_run_until_time_equal_to_now_runs_the_urgent_work(self):
        env = Environment(initial_time=2.0)
        order = []
        _labelled(env, order, "urgent").succeed(priority=PRIORITY_URGENT)
        env.run(until=2.0)
        assert order == [("urgent", 2.0)]

    def test_run_until_event(self):
        # The stop event is urgent work queued behind the first urgent
        # entry: the run stops right after it, before the NORMAL entry.
        env, order = self._queue_normal_then_urgent()
        stop = _labelled(env, order, "stop")
        stop.succeed("stopped", priority=PRIORITY_URGENT)
        assert env.run(until=stop) == "stopped"
        assert order == [("urgent", 0.0), ("stop", 0.0)]
        env.run()
        assert order[-1] == ("normal", 0.0)
