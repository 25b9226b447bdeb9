"""Cross-rank message matching during replay.

Sends and receives are matched per (source, destination, tag) stream in FIFO
order, which is exactly MPI's non-overtaking rule for this simulator's
single-communicator traces.  The matcher also applies the protocol:

* eager messages start their transfer as soon as the send is posted and the
  sender considers the send complete immediately;
* rendezvous messages wait until both sides have posted; the sender is
  complete only when the payload has arrived.

Posting runs once per replayed message, so both paths are written lean: the
protocol threshold is hoisted out of :func:`select_protocol`, and pending
queues are looked up once per posting.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.des import Environment
from repro.dimemas.messages import Message
from repro.dimemas.network import NetworkFabric
from repro.dimemas.platform import Platform
from repro.dimemas.protocol import Protocol

_StreamKey = Tuple[int, int, int]

_EAGER = Protocol.EAGER
_RENDEZVOUS = Protocol.RENDEZVOUS


class MessageMatcher:
    """Pairs send and receive postings and drives transfers."""

    def __init__(self, env: Environment, platform: Platform, network: NetworkFabric):
        self.env = env
        self.platform = platform
        self.network = network
        self._eager_threshold = platform.eager_threshold
        self._pending_sends: Dict[_StreamKey, Deque[Message]] = {}
        self._pending_recvs: Dict[_StreamKey, Deque[Message]] = {}
        self.messages_matched = 0

    # -- posting ----------------------------------------------------------
    def post_send(self, src: int, record) -> Message:
        """Register a send record of rank ``src``; returns its message."""
        env = self.env
        key = (src, record.dst, record.tag)
        queue = self._pending_recvs.get(key)
        if queue:
            message = queue.popleft()
        else:
            message = Message(env)
            pending = self._pending_sends.get(key)
            if pending is None:
                pending = self._pending_sends[key] = deque()
            pending.append(message)
        size = record.size
        message.src = src
        message.dst = record.dst
        message.tag = record.tag
        message.size = size
        message.send_posted = True
        message.send_time = env._now
        # Same decision as select_protocol(), with the threshold hoisted.
        if size <= self._eager_threshold:
            message.protocol = _EAGER
            # The sender only pays the local injection, which the paper's
            # time model folds into the (ignored) MPI overhead.
            message.send_complete.succeed(env._now)
        else:
            message.protocol = _RENDEZVOUS
            message.arrived.add_callback(
                lambda event, msg=message: msg.send_complete.succeed(self.env.now))
        self._maybe_start(message)
        return message

    def post_recv(self, dst: int, record) -> Message:
        """Register a receive record of rank ``dst``; returns its message."""
        env = self.env
        key = (record.src, dst, record.tag)
        queue = self._pending_sends.get(key)
        if queue:
            message = queue.popleft()
        else:
            message = Message(env)
            pending = self._pending_recvs.get(key)
            if pending is None:
                pending = self._pending_recvs[key] = deque()
            pending.append(message)
        message.dst = dst
        message.recv_posted_flag = True
        message.recv_posted_time = env._now
        notifier = message._recv_posted
        if notifier is not None and not notifier.triggered:
            notifier.succeed(env._now)
        self._maybe_start(message)
        return message

    # -- transfers ----------------------------------------------------------
    def _maybe_start(self, message: Message) -> None:
        if message.started or not message.send_posted:
            return
        if message.protocol is _RENDEZVOUS and not message.recv_posted_flag:
            return
        message.started = True
        self.messages_matched += 1
        self.network.start_transfer(message)

    # -- diagnostics -----------------------------------------------------------
    def unmatched(self) -> Dict[str, int]:
        """Counts of postings that never found a partner (for deadlock reports)."""
        return {
            "sends": sum(len(q) for q in self._pending_sends.values()),
            "recvs": sum(len(q) for q in self._pending_recvs.values()),
        }

    def unmatched_sends(self) -> Dict[_StreamKey, int]:
        """Per-stream counts of sends that no receive has matched."""
        return {key: len(queue) for key, queue in self._pending_sends.items()
                if queue}
