"""Unit tests for the DES event primitives."""

import pytest

from repro.des import Environment
from repro.des.events import AllOf
from repro.des.exceptions import EventAlreadyTriggered


class TestEvent:
    def test_new_event_is_pending(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self):
        env = Environment()
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok

    def test_value_before_trigger_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(AttributeError):
            _ = event.value

    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_then_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_callback_runs_at_processing(self):
        env = Environment()
        event = env.event()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        event.succeed("payload")
        assert seen == []
        env.run()
        assert seen == ["payload"]

    def test_callback_on_processed_event_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        env.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == [7]

    def test_unhandled_failure_surfaces(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_defused_failure_does_not_surface(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("handled"))
        event.defuse()
        env.run()


class TestTimeout:
    def test_timeout_fires_at_delay(self):
        env = Environment()
        timeout = env.timeout(3.5)
        env.run()
        assert env.now == pytest.approx(3.5)
        assert timeout.processed

    def test_timeout_value(self):
        env = Environment()
        timeout = env.timeout(1.0, value="done")
        env.run()
        assert timeout.value == "done"

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_zero_delay_allowed(self):
        env = Environment()
        timeout = env.timeout(0.0)
        env.run()
        assert env.now == 0.0
        assert timeout.processed

    def test_delay_attribute(self):
        env = Environment()
        assert env.timeout(2.0).delay == 2.0


class TestConditions:
    def test_all_of_waits_for_every_event(self):
        env = Environment()
        first, second = env.timeout(1.0), env.timeout(2.0)
        both = AllOf(env, [first, second])
        env.run(until=first)
        assert not both.triggered
        env.run()
        assert both.processed and both.value is None

    def test_all_of_counts_processed_children_at_construction(self):
        # Children are counted up front: a processed child counts as it
        # registers, and the barrier still waits for a pending one.
        env = Environment()
        done, pending = env.timeout(1.0), env.event()
        env.run()
        waiting = AllOf(env, [done, pending])
        satisfied = AllOf(env, [done])
        assert not waiting.triggered
        assert satisfied.triggered and satisfied.value is None
        pending.succeed()
        env.run()
        assert waiting.processed and waiting.value is None

    def test_empty_all_of_triggers_immediately(self):
        env = Environment()
        condition = AllOf(env, [])
        env.run()
        assert condition.processed

    def test_failing_child_fails_condition(self):
        env = Environment()
        good = env.timeout(1.0)
        bad = env.event()
        condition = AllOf(env, [good, bad])
        bad.fail(RuntimeError("child failed"))
        with pytest.raises(RuntimeError, match="child failed"):
            env.run(until=condition)

    def test_mixed_environment_rejected(self):
        env_a, env_b = Environment(), Environment()
        with pytest.raises(ValueError):
            AllOf(env_a, [env_a.event(), env_b.event()])
