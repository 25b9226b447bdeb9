"""Edge cases of the drain-loop skip-ahead for plain timeouts."""

import pytest

from repro.des import Environment
from repro.des.exceptions import EmptySchedule


class TestSimultaneousEventsDuringSkip:
    def test_urgent_event_pushed_during_skip_overtakes_normal(self):
        # A callback running inside the skip-ahead path can push an URGENT
        # event at the current instant (here a process start, whose
        # initialisation is urgent); it must still overtake NORMAL events
        # already queued for that instant.
        env = Environment()
        order = []

        def urgent():
            order.append("urgent")
            yield env.timeout(0.0)

        def push_urgent(event):
            order.append("timeout")
            env.process(urgent())

        env.schedule_timeout(1.0).callbacks.append(push_urgent)
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: order.append("normal"))
        env.run()
        assert order == ["timeout", "urgent", "normal"]


class TestUntilDuringSkip:
    def test_until_event_succeeded_by_a_timeout_callback_stops_the_run(self):
        env = Environment()
        stop = env.event(name="stop")
        late = []
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: stop.succeed("done"))
        env.schedule_timeout(2.0).callbacks.append(
            lambda event: late.append(env.now))
        assert env.run(until=stop) == "done"
        # The run stopped at the until-event; the later timeout is intact.
        assert late == []
        assert env.now == 1.0
        env.run()
        assert late == [2.0]

    def test_until_time_between_timeouts(self):
        env = Environment()
        fired = []
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: fired.append(1.0))
        env.schedule_timeout(3.0).callbacks.append(
            lambda event: fired.append(3.0))
        env.run(until=2.0)
        assert fired == [1.0]
        assert env.now == 2.0


class TestEmptyQueueAfterSkip:
    def test_drain_ends_cleanly_when_last_event_is_a_timeout(self):
        env = Environment()
        fired = []
        env.schedule_timeout(1.0).callbacks.append(
            lambda event: fired.append(env.now))
        assert env.run() is None
        assert fired == [1.0]
        with pytest.raises(EmptySchedule):
            env.step()

    def test_until_event_never_triggered_raises(self):
        env = Environment()
        stop = env.event(name="never")
        env.schedule_timeout(1.0)
        with pytest.raises(EmptySchedule, match="until"):
            env.run(until=stop)
