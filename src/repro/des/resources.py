"""Contention primitives: resources that grant slots in FIFO order.

The Dimemas network model uses :class:`Resource` for the finite number of
network buses and per-node input/output links, and
:class:`InfiniteResource` where a bus count or link count is unlimited.

A resource grants slots to *tokens*: any object with an event-style
``succeed(value, priority)`` that resumes its owner.  A process takes a
slot with a bare event (``token = env.event()``; ``resource.acquire(token)``;
``yield token``); the network fabric's transfer tasks take slots as
themselves, without an event per hop.  Every token is granted, queued,
handed a released slot and withdrawn through the same path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from repro.des.core import Environment
from repro.des.events import PRIORITY_URGENT


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
        """Number of tokens waiting for a slot."""
        return len(self._waiting)

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

    def release(self, token: Any) -> None:
        """Return a previously granted slot (or withdraw a queued token)."""
        if token in self._users:
            self._users.remove(token)
        elif token in self._waiting:
            self._waiting.remove(token)
            return
        else:
            raise ValueError("releasing a token that was never granted")
        if self._waiting and len(self._users) < self._capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(self, PRIORITY_URGENT)


class InfiniteResource:
    """Drop-in replacement for :class:`Resource` with unbounded capacity.

    Used when the platform models an ideal network (no bus or link
    contention); every token is granted at once.
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

    def acquire(self, token: Any) -> None:
        """Grant ``token`` a slot at once (see :meth:`Resource.acquire`)."""
        self._count += 1
        token.succeed(self, PRIORITY_URGENT)

    def release(self, token: Any) -> None:
        self._count -= 1
