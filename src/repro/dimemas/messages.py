"""In-flight message state shared by the event walk's postings and the network."""

from __future__ import annotations

from typing import Optional

from repro.des import Environment, Event


class Message:
    """One point-to-point message during replay.

    The object is created by whichever side (send or receive) posts first,
    in the message's slot of the trace's plan, and is completed by the
    other side.  Three events describe its life cycle:

    * ``recv_posted``    -- the receive has been posted;
    * ``arrived``        -- the payload has fully arrived at the receiver;
    * ``send_complete``  -- the sender may consider the send finished
      (immediately for eager messages, at arrival for rendezvous messages).

    ``arrived`` and ``send_complete`` drive the replay and exist from the
    start; ``recv_posted`` is only a notification hook (the posting itself
    is tracked through ``recv_posted_flag``/``recv_posted_time``),
    so its event object is materialised lazily on first access -- the
    common case never allocates or schedules it.
    """

    __slots__ = (
        "env", "src", "dst", "tag", "size", "protocol",
        "send_posted", "recv_posted_flag", "started",
        "_recv_posted", "arrived", "send_complete",
        "send_time", "recv_posted_time", "transfer_start", "arrival_time",
    )

    def __init__(self, env: Environment, src: Optional[int] = None,
                 dst: Optional[int] = None, tag: int = 0, size: int = 0):
        self.env = env
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = size
        self.protocol = None
        self.send_posted = False
        self.recv_posted_flag = False
        self.started = False
        self._recv_posted: Optional[Event] = None
        self.arrived = Event(env)
        self.send_complete = Event(env)
        self.send_time: Optional[float] = None
        self.recv_posted_time: Optional[float] = None
        self.transfer_start: Optional[float] = None
        self.arrival_time: Optional[float] = None

    @property
    def recv_posted(self) -> Event:
        """The receive-posted notification event (created on first access).

        If the receive was already posted when the event is first asked
        for, it materialises directly in the *processed* state with the
        posting time as its value -- exactly as if it had been succeeded
        and processed when the receive was posted: waiters resume
        synchronously and nothing is enqueued retroactively.
        """
        event = self._recv_posted
        if event is None:
            event = self._recv_posted = Event(self.env)
            if self.recv_posted_flag:
                event._value = self.recv_posted_time
                event.callbacks = None
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src}, dst={self.dst}, tag={self.tag}, "
                f"size={self.size}, protocol={self.protocol})")
