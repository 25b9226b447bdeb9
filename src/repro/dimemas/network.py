"""The interconnect fabric: topology-routed transfer processes.

The Dimemas network model charges every inter-node transfer per-hop
``latency + size / bandwidth`` and limits concurrency through the hop
resources of a pluggable :class:`~repro.dimemas.topology.NetworkModel`
(selected by ``platform.topology``; the default :class:`FlatBus` reproduces
the original global-buses + per-node-links model bit for bit).  Transfers
between ranks mapped to the same node bypass the network entirely and use
the (faster) intra-node parameters.

A transfer crosses its route store-and-forward: each hop's resources are
acquired in the hop's fixed order, held for that hop's transfer time and
released (in a ``try``/``finally``, so a failed or interrupted transfer
never leaks capacity) before the next hop is requested.  No transfer waits
for a hop while holding another hop's resources, which keeps every
topology -- wrap-around torus rings included -- deadlock-free.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.des import Environment
from repro.dimemas.messages import Message
from repro.dimemas.platform import Platform
from repro.dimemas.topology import NetworkModel, build_network_model
from repro.paraver.timeline import Timeline


class NetworkStatistics:
    """Per-transfer records kept by the fabric, aggregated when read.

    The fabric records one entry per finished transfer and one per crossed
    hop.  Every time aggregate is the exactly rounded sum
    (:func:`math.fsum`) of its recorded values, so it does not depend on
    the order the transfers were recorded in: the event walk records them
    in completion order, the adaptive walks in their own orders, and all
    report the same bytes.
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
        with a zero queue time.  ``hop_crossings`` maps hop names, in
        first-crossing order, to their crossing counts; ``transfer_times``
        is taken over, not copied.
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
        """Crossings per hop class."""
        return {name: len(times) for name, times in self.hop_queue_times.items()}

    @property
    def hop_queue_time(self) -> Dict[str, float]:
        """Total queueing per hop class."""
        return {name: math.fsum(times)
                for name, times in self.hop_queue_times.items()}

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
    """Runs transfer processes over the platform's topology model."""

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
        """Launch the transfer process for a matched message."""
        self.env.process(self._transfer(message), name="transfer")

    def transfer_event(self, src: int, dst: int, size: int):
        """Run one raw transfer outside the matcher; returns its arrival event.

        This is the entry point of the decomposed collective backend: each
        phase transfer of a lowered collective crosses the fabric exactly
        like a matched point-to-point message (same routing, same hop
        contention, same intranode shortcut) but is attributed to the
        collective statistics and kept off the communication timeline (the
        replay already records the enclosing COLLECTIVE interval).
        """
        message = Message(self.env, src=src, dst=dst, tag=-1, size=size)
        self.env.process(self._transfer(message, collective=True),
                         name="collective-transfer")
        return message.arrived

    def _transfer(self, message: Message, collective: bool = False):
        env = self.env
        timeout = env.schedule_timeout
        statistics = self.statistics
        platform = self.platform
        size = message.size
        src_node = platform.node_of(message.src)
        dst_node = platform.node_of(message.dst)
        intranode = src_node == dst_node
        queue_time = 0.0
        duration = 0.0
        if intranode:
            message.transfer_start = env._now
            duration = platform.transfer_time(size, intranode=True)
            yield timeout(duration)
        else:
            for hop in self.model.route(src_node, dst_node):
                requested_at = env._now
                requests = []
                try:
                    # Acquire the hop's resources in its fixed order (for
                    # the flat bus: output link, input link, bus) so
                    # transfers never hold one hop's resources in
                    # conflicting orders.
                    for resource in hop.resources:
                        request = resource.request()
                        requests.append((resource, request))
                        yield request
                    hop_queue = env._now - requested_at
                    if message.transfer_start is None:
                        message.transfer_start = env._now
                    hop_duration = hop.transfer_time(size)
                    yield timeout(hop_duration)
                finally:
                    # A failed or interrupted transfer must return its
                    # capacity; leaking a link or bus slot deadlocks every
                    # later transfer through the same resource.  Releasing
                    # a still-queued request simply withdraws it.
                    for resource, request in requests:
                        resource.release(request)
                queue_time += hop_queue
                duration += hop_duration
                statistics.record_hop(hop.name, hop_queue)
        message.arrival_time = env._now
        message.arrived.succeed(env._now)
        statistics.record(size, queue_time, duration, intranode, collective)
        if self.timeline is not None and not collective:
            self.timeline.add_communication(
                src=message.src, dst=message.dst, size=size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)

