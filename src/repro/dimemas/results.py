"""Per-rank statistics and the overall simulation result."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.dimemas.platform import Platform
from repro.errors import AnalysisError
from repro.paraver.states import ThreadState
from repro.paraver.timeline import Timeline


@dataclass
class RankStats:
    """Time and volume accounting of a single rank.

    ``compute_time`` covers computation bursts only; the fixed software cost
    of entering the MPI library (``Platform.mpi_overhead``) is reported
    separately as ``mpi_overhead_time``.  The two together equal what the
    pre-split accounting lumped into compute time, so aggregate tables stay
    consistent (see :attr:`busy_time`).
    """

    rank: int
    finish_time: float = 0.0
    compute_time: float = 0.0
    mpi_overhead_time: float = 0.0
    send_wait_time: float = 0.0
    recv_wait_time: float = 0.0
    request_wait_time: float = 0.0
    collective_time: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    collectives: int = 0

    @property
    def busy_time(self) -> float:
        """Compute time plus MPI library overhead (the pre-split 'compute')."""
        return self.compute_time + self.mpi_overhead_time

    @property
    def communication_time(self) -> float:
        """Time this rank spent blocked on any communication."""
        return (self.send_wait_time + self.recv_wait_time
                + self.request_wait_time + self.collective_time)


@dataclass
class SimulationResult:
    """The reconstructed time behaviour of one trace on one platform."""

    platform: Platform
    total_time: float
    ranks: List[RankStats]
    timeline: Timeline
    network: Dict[str, Any] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_ranks(self) -> int:
        return len(self.ranks)

    # -- aggregates ---------------------------------------------------------
    # The "compute" aggregates use RankStats.busy_time (compute plus MPI
    # library overhead): that is exactly what they summed before the
    # overhead was split out, so sweep tables and efficiency numbers keep
    # their historical meaning on platforms with mpi_overhead > 0.
    def total_compute_time(self) -> float:
        return sum(r.busy_time for r in self.ranks)

    def total_communication_time(self) -> float:
        return sum(r.communication_time for r in self.ranks)

    def max_compute_time(self) -> float:
        return max((r.busy_time for r in self.ranks), default=0.0)

    def parallel_efficiency(self) -> float:
        """Average fraction of the execution the ranks spend computing."""
        if self.total_time <= 0:
            return 0.0
        return self.total_compute_time() / (self.total_time * self.num_ranks)

    def communication_fraction(self) -> float:
        """Average fraction of the execution the ranks spend blocked."""
        if self.total_time <= 0:
            return 0.0
        return self.total_communication_time() / (self.total_time * self.num_ranks)

    def state_profile(self) -> Dict[ThreadState, float]:
        return self.timeline.state_profile()

    def rank(self, rank: int) -> RankStats:
        if not 0 <= rank < self.num_ranks:
            raise AnalysisError(f"rank {rank} outside result of {self.num_ranks} ranks")
        return self.ranks[rank]

    def describe(self) -> Dict[str, Any]:
        """Summary dictionary used by reports and the CLI."""
        return {
            "platform": self.platform.name,
            "topology": self.platform.topology.to_string(),
            "collective_model": self.platform.collective_model.to_string(),
            "bandwidth_mbps": self.platform.bandwidth_mbps,
            "latency": self.platform.latency,
            "num_ranks": self.num_ranks,
            "total_time": self.total_time,
            "parallel_efficiency": self.parallel_efficiency(),
            "communication_fraction": self.communication_fraction(),
            "transfers": self.network.get("transfers", 0),
            "bytes_transferred": self.network.get("bytes_transferred", 0),
            "mean_queue_time": self.network.get("mean_queue_time", 0.0),
            "mean_transfer_time": self.network.get("mean_transfer_time", 0.0),
            "intranode_share": self.network.get("intranode_share", 0.0),
            "collective_transfers": self.network.get("collective_transfers", 0),
            "collective_share": self.network.get("collective_share", 0.0),
            "label": self.metadata.get("label"),
        }
