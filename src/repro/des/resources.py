"""Contention primitives: resources, stores and containers.

The Dimemas network model uses :class:`Resource` for the finite number of
network buses and per-node input/output links, and :class:`Store` for
message queues between the matching engine and the replay processes.

A resource grants slots to *tokens*: a :class:`Request` (what
:meth:`Resource.request` returns, for processes to yield) or any object
with an event-style ``succeed(value, priority)`` that resumes its owner --
the network fabric's transfer tasks take slots this way without a
``Request`` per hop.  Either kind of token is granted, queued, handed a
released slot and withdrawn through the same path.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, List

from repro.des.core import Environment
from repro.des.events import PRIORITY_URGENT, Event


class Request(Event):
    """Event returned by :meth:`Resource.request`.

    It triggers when the resource grants the slot.  The request object itself
    is the token to pass back to :meth:`Resource.release`.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        Event.__init__(self, resource.env)
        self.resource = resource

    def _default_name(self) -> str:
        return f"Request({self.resource.name})"


class Resource:
    """A resource with a fixed number of slots, granted in FIFO order."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.name = name
        self._capacity = capacity
        self._users: List[Any] = []
        self._waiting: Deque[Any] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently granted."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot.  The returned event triggers when granted."""
        request = Request(self)
        self.acquire(request)
        return request

    def acquire(self, token: Any) -> None:
        """Ask for a slot on behalf of ``token``.

        A free slot is granted at once: the token holds it from now on and
        its ``succeed(self, PRIORITY_URGENT)`` runs, so its owner resumes
        after the urgent work already due at this instant.  Otherwise the
        token queues, in FIFO order, until a release hands it a slot the
        same way.
        """
        if len(self._users) < self._capacity:
            self._users.append(token)
            token.succeed(self, PRIORITY_URGENT)
        else:
            self._waiting.append(token)

    def release(self, request: Any) -> None:
        """Return a previously granted slot (or withdraw a queued token)."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            self._waiting.remove(request)
            return
        else:
            raise ValueError("releasing a request that was never granted")
        if self._waiting and len(self._users) < self._capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(self, PRIORITY_URGENT)


class InfiniteResource:
    """Drop-in replacement for :class:`Resource` with unbounded capacity.

    Used when the platform models an ideal network (no bus or link
    contention); requests are granted immediately.
    """

    def __init__(self, env: Environment, name: str = "infinite"):
        self.env = env
        self.name = name
        self._count = 0

    @property
    def capacity(self) -> float:
        return float("inf")

    @property
    def count(self) -> int:
        return self._count

    @property
    def queue_length(self) -> int:
        return 0

    def request(self) -> Request:
        request = Request(self)  # type: ignore[arg-type]
        self.acquire(request)
        return request

    def acquire(self, token: Any) -> None:
        """Grant ``token`` a slot at once (see :meth:`Resource.acquire`)."""
        self._count += 1
        token.succeed(self, PRIORITY_URGENT)

    def release(self, request: Any) -> None:
        self._count -= 1


class StoreGet(Event):
    """Event returned by :meth:`Store.get`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        Event.__init__(self, store.env)
        self.store = store

    def _default_name(self) -> str:
        return "StoreGet"


class Store:
    """An unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    @property
    def items(self) -> List[Any]:
        return list(self._items)

    def put(self, item: Any) -> None:
        """Add an item; wakes the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item, priority=PRIORITY_URGENT)
        else:
            self._items.append(item)

    def get(self) -> StoreGet:
        """Take the oldest item; the returned event triggers with the item."""
        event = StoreGet(self)
        if self._items:
            event.succeed(self._items.popleft(), priority=PRIORITY_URGENT)
        else:
            self._getters.append(event)
        return event


class ContainerGet(Event):
    """Event returned by :meth:`Container.get`; carries the requested amount."""

    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        Event.__init__(self, env)
        self.amount = amount

    def _default_name(self) -> str:
        return "ContainerGet"


class Container:
    """A continuous quantity with blocking ``get`` (used for byte budgets)."""

    def __init__(self, env: Environment, init: float = 0.0,
                 capacity: float = math.inf, name: str = "container"):
        if init < 0 or init > capacity:
            raise ValueError("initial level must satisfy 0 <= init <= capacity")
        self.env = env
        self.name = name
        self._level = float(init)
        self._capacity = float(capacity)
        self._getters: Deque[Any] = deque()

    @property
    def level(self) -> float:
        return self._level

    @property
    def capacity(self) -> float:
        return self._capacity

    def put(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self._level = min(self._capacity, self._level + amount)
        self._drain()

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = ContainerGet(self.env, amount)
        self._getters.append(event)
        self._drain()
        return event

    def _drain(self) -> None:
        while self._getters and self._getters[0].amount <= self._level:
            event = self._getters.popleft()
            self._level -= event.amount
            event.succeed(event.amount, priority=PRIORITY_URGENT)
