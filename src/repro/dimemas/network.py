"""The interconnect fabric: topology-routed transfer tasks.

The Dimemas network model charges every inter-node transfer per-hop
``latency + size / bandwidth`` and limits concurrency through the hop
resources of a pluggable :class:`~repro.dimemas.topology.NetworkModel`
(selected by ``platform.topology``; the default :class:`FlatBus` reproduces
the original global-buses + per-node-links model bit for bit).  Transfers
between ranks mapped to the same node bypass the network entirely and use
the (faster) intra-node parameters.

A transfer crosses its route store-and-forward: each hop's resources are
acquired in the hop's fixed order, held for that hop's transfer time and
released before the next hop is requested.  No transfer waits for a hop
while holding another hop's resources, which keeps every topology --
wrap-around torus rings included -- deadlock-free.

Each transfer is one callback task (:class:`_Transfer`), not a generator
process: the DES runs its steps exactly where a process's events would
sit -- its start and every resource grant on the URGENT FIFO, every wire
end on the heap (or, for a wire of zero length, on the NORMAL FIFO) --
without a process, a bootstrap event, a ``Request`` per resource or a
generator resume per step.  A grant that leaves the task alone on the
URGENT FIFO is the very next thing the DES would run, so the task takes
it in place.  A step that raises returns every slot the task holds and
withdraws the one it waits for before the error leaves
:meth:`~repro.des.Environment.run`, so a failed transfer never leaks
capacity.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Dict, List, Optional, Sequence

from repro.des import Environment
from repro.des.events import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.dimemas.messages import Message
from repro.dimemas.platform import Platform
from repro.dimemas.topology import Hop, NetworkModel, build_network_model
from repro.paraver.timeline import Timeline


class NetworkStatistics:
    """Per-transfer records kept by the fabric, aggregated when read.

    The fabric records one entry per finished transfer and one per crossed
    hop.  Every time aggregate is the exactly rounded sum
    (:func:`math.fsum`) of its recorded values, so it does not depend on
    the order the transfers were recorded in: the event walk records them
    in completion order, the adaptive walks in their own orders, and all
    report the same bytes.  For the same reason the per-hop dicts are keyed
    in sorted hop-name order, not in the order a walk first crossed each
    hop class.
    """

    def __init__(self) -> None:
        self.bytes_transferred = 0
        self.intranode_transfers = 0
        self.queue_times: List[float] = []
        self.transfer_times: List[float] = []
        #: Sizes of the transfers injected by the decomposed collective
        #: backend (phases of lowered collectives) as opposed to replayed
        #: point-to-point messages; they cross the same hops but are
        #: attributed separately.
        self.collective_sizes: List[int] = []
        #: Per-hop-class queue times, keyed by hop name (e.g. ``net``,
        #: ``up0``, ``x+``): one entry per crossing.
        self.hop_queue_times: Dict[str, List[float]] = {}

    @classmethod
    def unqueued(cls, bytes_transferred: int, intranode_transfers: int,
                 hop_crossings: Dict[str, int],
                 transfer_times: List[float]) -> "NetworkStatistics":
        """Statistics of point-to-point transfers that never queued.

        Equal to calling :meth:`record` once per entry of
        ``transfer_times`` and :meth:`record_hop` once per crossing, all
        with a zero queue time.  ``hop_crossings`` maps hop names, in any
        order, to their crossing counts; ``transfer_times`` is taken over,
        not copied.
        """
        statistics = cls()
        statistics.bytes_transferred = bytes_transferred
        statistics.intranode_transfers = intranode_transfers
        statistics.queue_times = [0.0] * len(transfer_times)
        statistics.transfer_times = transfer_times
        statistics.hop_queue_times = {
            name: [0.0] * count for name, count in hop_crossings.items()}
        return statistics

    def record(self, size: int, queue_time: float, transfer_time: float,
               intranode: bool, collective: bool = False) -> None:
        self.bytes_transferred += size
        self.queue_times.append(queue_time)
        self.transfer_times.append(transfer_time)
        if intranode:
            self.intranode_transfers += 1
        if collective:
            self.collective_sizes.append(size)

    def record_hop(self, name: str, queue_time: float) -> None:
        times = self.hop_queue_times.get(name)
        if times is None:
            times = self.hop_queue_times[name] = []
        times.append(queue_time)

    @property
    def transfers(self) -> int:
        return len(self.transfer_times)

    @property
    def collective_transfers(self) -> int:
        return len(self.collective_sizes)

    @property
    def collective_bytes(self) -> int:
        return sum(self.collective_sizes)

    @property
    def total_queue_time(self) -> float:
        return math.fsum(self.queue_times)

    @property
    def total_transfer_time(self) -> float:
        return math.fsum(self.transfer_times)

    @property
    def hop_transfers(self) -> Dict[str, int]:
        """Crossings per hop class, keyed in sorted name order."""
        return {name: len(times)
                for name, times in sorted(self.hop_queue_times.items())}

    @property
    def hop_queue_time(self) -> Dict[str, float]:
        """Total queueing per hop class, keyed in sorted name order."""
        return {name: math.fsum(times)
                for name, times in sorted(self.hop_queue_times.items())}

    @property
    def mean_queue_time(self) -> float:
        return self.total_queue_time / self.transfers if self.transfers else 0.0

    @property
    def mean_transfer_time(self) -> float:
        """Mean end-to-end transfer duration (queueing excluded)."""
        return self.total_transfer_time / self.transfers if self.transfers else 0.0

    @property
    def intranode_share(self) -> float:
        """Fraction of transfers that stayed inside a node."""
        return self.intranode_transfers / self.transfers if self.transfers else 0.0

    @property
    def collective_share(self) -> float:
        """Fraction of the transferred bytes carried by collective phases."""
        if not self.bytes_transferred:
            return 0.0
        return self.collective_bytes / self.bytes_transferred

    def summary(self) -> Dict[str, float]:
        """The scalar counters surfaced by results and sweep tables."""
        return {
            "transfers": self.transfers,
            "bytes_transferred": self.bytes_transferred,
            "mean_queue_time": self.mean_queue_time,
            "mean_transfer_time": self.mean_transfer_time,
            "intranode_transfers": self.intranode_transfers,
            "intranode_share": self.intranode_share,
            "collective_transfers": self.collective_transfers,
            "collective_bytes": self.collective_bytes,
            "collective_share": self.collective_share,
        }


class NetworkFabric:
    """Runs transfer tasks over the platform's topology model."""

    def __init__(self, env: Environment, platform: Platform, num_ranks: int,
                 timeline: Optional[Timeline] = None):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self.timeline = timeline
        self.statistics = NetworkStatistics()
        self.model: NetworkModel = build_network_model(env, platform, num_ranks)

    # -- transfers ------------------------------------------------------------
    def start_transfer(self, message: Message) -> None:
        """Launch the transfer of a matched message."""
        _Transfer(self, message, False)

    def transfer_event(self, src: int, dst: int, size: int):
        """Run one raw transfer no trace message posted; returns its arrival event.

        This is the entry point of the decomposed collective backend: each
        phase transfer of a lowered collective crosses the fabric exactly
        like a matched point-to-point message (same routing, same hop
        contention, same intranode shortcut) but is attributed to the
        collective statistics and kept off the communication timeline (the
        replay already records the enclosing COLLECTIVE interval).
        """
        message = Message(self.env, src=src, dst=dst, tag=-1, size=size)
        _Transfer(self, message, True)
        return message.arrived


#: Transfer phases: what the next step of a :class:`_Transfer` does.
_START = 0       # route the message and request the first resource
_ACQUIRING = 1   # a resource was granted: request the next or cross
_CROSSING = 2    # a hop's wire end: release, record, next hop or finish
_COPYING = 3     # an intranode copy's end: finish


class _Transfer:
    """One transfer in flight, stepped by the DES in place of a process.

    The environment runs a scheduled task as it runs a succeeded event:
    it calls the task's ``callbacks`` -- always :data:`_STEPS`, a shared
    tuple, so a task never references itself -- with the task.  Each step
    sits where the former transfer process's event sat: the start on the
    URGENT FIFO (the process's bootstrap), each resource grant on that FIFO
    (the ``Request``'s grant; :meth:`succeed` is how a resource hands the
    task a slot), each wire end as a NORMAL entry scheduled when the wire
    is entered (the ``Timeout``).  A grant that finds the task alone on the
    URGENT FIFO runs in place: the step takes the task back off the FIFO
    and goes on, as the DES would have run it next.  The process's end
    event had no callbacks, so leaving it out moves nothing else.  A
    finished task is referenced by nothing and is freed at once.
    """

    __slots__ = ("callbacks", "fabric", "message", "collective", "phase",
                 "route", "hop_index", "requested", "requested_at",
                 "hop_queue", "hop_duration", "queue_time", "duration")

    #: A scheduled task is an event that succeeded.
    _ok = True

    def __init__(self, fabric: NetworkFabric, message: Message,
                 collective: bool):
        self.fabric = fabric
        self.message = message
        self.collective = collective
        self.phase = _START
        self.route: Sequence[Hop] = ()
        self.hop_index = 0
        #: Resources of the current hop requested so far (held, or the
        #: last one queued for).
        self.requested = 0
        self.queue_time = 0.0
        self.duration = 0.0
        self.callbacks = _STEPS
        fabric.env._urgent.append(self)

    def succeed(self, value=None, priority: int = PRIORITY_URGENT) -> None:
        """A resource granted a slot: step after the urgent work due now."""
        self.callbacks = _STEPS
        self.fabric.env._urgent.append(self)

    def _step(self) -> None:
        fabric = self.fabric
        env = fabric.env
        message = self.message
        try:
            phase = self.phase
            if phase == _CROSSING:
                # Wire end: release the hop in its resource order (handing
                # slots to queue heads), record it, move on.
                route = self.route
                hop = route[self.hop_index]
                self.requested = 0
                for resource in hop.resources:
                    resource.release(self)
                hop_queue = self.hop_queue
                self.queue_time += hop_queue
                self.duration += self.hop_duration
                fabric.statistics.record_hop(hop.name, hop_queue)
                self.hop_index += 1
                if self.hop_index == len(route):
                    self._finish(False)
                    return
                self.requested_at = env._now
                self.phase = _ACQUIRING
            elif phase == _START:
                platform = fabric.platform
                src_node = platform.node_of(message.src)
                dst_node = platform.node_of(message.dst)
                if src_node == dst_node:
                    message.transfer_start = env._now
                    self.duration = platform.transfer_time(
                        message.size, intranode=True)
                    self.phase = _COPYING
                    self._wire(env, self.duration)
                    return
                self.route = fabric.model.route(src_node, dst_node)
                if not self.route:
                    # Only a rank outside the trace has no route (a torus
                    # wraps its node onto the sender's).  The message
                    # arrives at once, and the walk's end check names the
                    # send (TL103), as on every other topology.
                    message.transfer_start = env._now
                    self._finish(False)
                    return
                self.requested_at = env._now
                self.phase = _ACQUIRING
            elif phase == _COPYING:
                self._finish(True)
                return
            # Acquire the hop's resources in its fixed order (for the flat
            # bus: output link, input link, bus), one grant per step, so
            # transfers never hold one hop's resources in conflicting
            # orders; with all of them held, cross the wire.
            hop = self.route[self.hop_index]
            resources = hop.resources
            urgent = env._urgent
            requested = self.requested
            while requested < len(resources):
                self.requested = requested + 1
                resources[requested].acquire(self)
                if len(urgent) != 1 or urgent[0] is not self:
                    return
                # Granted, and nothing else is due first: the grant's step
                # is the DES's next one, so take it here.
                urgent.pop()
                requested += 1
            now = env._now
            self.hop_queue = now - self.requested_at
            if message.transfer_start is None:
                message.transfer_start = now
            self.hop_duration = hop.transfer_time(message.size)
            self.phase = _CROSSING
            self._wire(env, self.hop_duration)
        except BaseException:
            # A failed transfer must return its capacity; leaking a link or
            # bus slot deadlocks every later transfer through the same
            # resource.  Releasing a still-queued token withdraws it.
            if self.requested:
                resources = self.route[self.hop_index].resources
                for resource in resources[:self.requested]:
                    resource.release(self)
                self.requested = 0
            raise

    def _wire(self, env: Environment, duration: float) -> None:
        """Schedule the next step ``duration`` from now, as a timeout."""
        if duration < 0:
            raise ValueError(f"negative timeout delay: {duration!r}")
        self.callbacks = _STEPS
        now = env._now
        if now + duration == now:
            env._normal.append(self)
        else:
            heappush(env._queue, (now + duration, PRIORITY_NORMAL,
                                  next(env._eid), self))

    def _finish(self, intranode: bool) -> None:
        fabric = self.fabric
        message = self.message
        now = fabric.env._now
        message.arrival_time = now
        message.arrived.succeed(now)
        fabric.statistics.record(message.size, self.queue_time,
                                 self.duration, intranode, self.collective)
        if fabric.timeline is not None and not self.collective:
            fabric.timeline.add_communication(
                src=message.src, dst=message.dst, size=message.size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)


#: The one callback of every scheduled transfer task.
_STEPS = (_Transfer._step,)
