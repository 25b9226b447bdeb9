"""In-flight message state shared by the event walk's postings and the network."""

from __future__ import annotations

from typing import Optional

from repro.des import Environment, Event


class Message:
    """One point-to-point message during replay.

    The object is created by whichever side (send or receive) posts first,
    in the message's slot of the trace's plan, and is completed by the
    other side.  Two events describe its life cycle:

    * ``arrived``        -- the payload has fully arrived at the receiver;
    * ``send_complete``  -- the sender may consider the send finished
      (immediately for eager messages, at arrival for rendezvous messages).

    The postings themselves are tracked through ``send_posted`` and
    ``recv_posted_flag``.
    """

    __slots__ = (
        "src", "dst", "tag", "size", "protocol",
        "send_posted", "recv_posted_flag", "started",
        "arrived", "send_complete", "transfer_start", "arrival_time",
    )

    def __init__(self, env: Environment, src: Optional[int] = None,
                 dst: Optional[int] = None, tag: int = 0, size: int = 0):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = size
        self.protocol = None
        self.send_posted = False
        self.recv_posted_flag = False
        self.started = False
        self.arrived = Event(env)
        self.send_complete = Event(env)
        self.transfer_start: Optional[float] = None
        self.arrival_time: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src}, dst={self.dst}, tag={self.tag}, "
                f"size={self.size}, protocol={self.protocol})")
