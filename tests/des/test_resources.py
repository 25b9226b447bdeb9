"""Unit tests for resources."""

import pytest

from repro.des import Environment, Resource
from repro.des.events import PRIORITY_URGENT
from repro.des.resources import InfiniteResource


def _acquire(env, resource):
    """Take a slot through a bare event, as a process does."""
    token = env.event()
    resource.acquire(token)
    return token


class Token:
    """A slot holder that is not an event: it records each grant."""

    def __init__(self):
        self.grants = []

    def succeed(self, value, priority):
        assert priority == PRIORITY_URGENT
        self.grants.append(value)


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        first, second = _acquire(env, resource), _acquire(env, resource)
        env.run()
        assert first.processed and second.processed
        assert resource.count == 2

    def test_request_beyond_capacity_queues(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = _acquire(env, resource)
        second = _acquire(env, resource)
        env.run()
        assert first.processed
        assert not second.triggered
        assert resource.queue_length == 1

    def test_release_grants_next_waiter(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = _acquire(env, resource)
        second = _acquire(env, resource)
        env.run()
        resource.release(first)
        env.run()
        assert second.processed
        assert resource.count == 1

    def test_release_unknown_request_raises(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = _acquire(env, resource)
        env.run()
        resource.release(granted)
        with pytest.raises(ValueError):
            resource.release(granted)

    def test_release_queued_request_cancels_it(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        _acquire(env, resource)
        waiting = _acquire(env, resource)
        env.run()
        resource.release(waiting)
        assert resource.queue_length == 0

    def test_fifo_ordering(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(name, hold):
            request = _acquire(env, resource)
            yield request
            order.append(name)
            yield env.timeout(hold)
            resource.release(request)

        for name in ("first", "second", "third"):
            env.process(user(name, 1.0))
        env.run()
        assert order == ["first", "second", "third"]

    def test_a_plain_token_is_granted_queued_and_handed_a_slot(self):
        # Any object with an event-style succeed() can hold a slot.
        env = Environment()
        resource = Resource(env, capacity=1)
        first, second, third = Token(), Token(), Token()
        for token in (first, second, third):
            resource.acquire(token)
        assert first.grants == [resource] and not second.grants
        resource.release(third)  # withdrawn while queued
        resource.release(first)
        assert second.grants == [resource] and not third.grants
        assert (resource.count, resource.queue_length) == (1, 0)

    def test_contention_serializes_time(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        finish = []

        def user():
            request = _acquire(env, resource)
            yield request
            yield env.timeout(2.0)
            resource.release(request)
            finish.append(env.now)

        env.process(user())
        env.process(user())
        env.run()
        assert finish == [2.0, 4.0]


class TestInfiniteResource:
    def test_never_blocks(self):
        env = Environment()
        resource = InfiniteResource(env)
        requests = [_acquire(env, resource) for _ in range(100)]
        env.run()
        assert all(request.processed for request in requests)
        assert resource.queue_length == 0

    def test_count_tracks_outstanding(self):
        env = Environment()
        resource = InfiniteResource(env)
        request = _acquire(env, resource)
        assert resource.count == 1
        resource.release(request)
        assert resource.count == 0

    def test_a_plain_token_is_granted_at_once(self):
        env = Environment()
        resource = InfiniteResource(env)
        tokens = [Token() for _ in range(3)]
        for token in tokens:
            resource.acquire(token)
        assert [token.grants for token in tokens] == [[resource]] * 3
        assert resource.count == 3
