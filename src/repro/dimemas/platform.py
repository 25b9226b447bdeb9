"""The Dimemas platform (machine) description."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

from repro.dimemas.collectives.base import CollectiveSpec
from repro.dimemas.topology import TopologySpec
from repro.errors import ConfigurationError

#: Bytes in a megabyte, used to convert the Dimemas-style MB/s bandwidth.
MEGABYTE = 1.0e6


@dataclass(frozen=True)
class Platform:
    """A configurable parallel platform.

    Parameters follow the Dimemas configuration file:

    * ``relative_cpu_speed`` scales computation bursts (2.0 = CPUs twice as
      fast as the traced machine);
    * ``latency`` is the end-to-end message latency in seconds;
    * ``bandwidth_mbps`` is the inter-node link bandwidth in MB/s; ``0``
      means an ideal (infinite-bandwidth) network;
    * ``num_buses`` limits the number of simultaneous transfers network-wide;
      ``0`` means no limit;
    * ``input_links`` / ``output_links`` limit per-node concurrent incoming /
      outgoing transfers; ``0`` means no limit;
    * ``eager_threshold`` selects the protocol: messages up to this size are
      sent eagerly (the sender does not wait for the receive to be posted),
      larger messages use rendezvous;
    * ``processors_per_node`` maps consecutive ranks onto nodes; messages
      between ranks of the same node use ``intranode_bandwidth_mbps`` /
      ``intranode_latency`` and do not consume buses or links;
    * ``topology`` selects and parameterises the interconnect shape (see
      :class:`~repro.dimemas.topology.TopologySpec`); the default ``flat``
      topology is the historical buses-plus-links model, ``tree`` and
      ``torus`` route transfers over multi-hop contended paths;
    * ``collective_model`` selects how collective operations are costed
      (see :class:`~repro.dimemas.collectives.base.CollectiveSpec`): the
      default ``analytical`` model charges the closed-form Dimemas
      formulas, ``decomposed`` lowers every collective into per-algorithm
      point-to-point phases routed through the topology model, so
      collective traffic contends with everything else;
    * ``mpi_overhead`` charges a fixed CPU cost (seconds) for every MPI call
      the trace replays.  The paper's time model deliberately ignores this
      overhead but notes that "the model can be extended to address these
      omitted effects"; setting it non-zero is that extension and lets the
      environment quantify the cost of the extra partial sends/receives the
      overlap mechanism introduces;
    * ``replay_backend`` selects the replay implementation: ``event`` (the
      default) walks every record through the generic DES, and
      ``adaptive`` fast-forwards entire windows with closed-form per-rank
      time recurrences, running the ``event`` walk for cells it cannot
      fast-forward (decomposed collectives, CPU contention, defective
      traces).  Both replay the same run: ``adaptive`` results equal
      ``event``'s, except that network aggregates may differ in the last
      ulp (it sums them in a canonical order), which is why ``event``
      results are keyed without the knob and ``adaptive`` ones with it.

    Every numeric field must be finite: a ``nan`` or ``inf`` would replay
    to a non-finite total time (or silently change the adaptive backend's
    path) instead of failing where it was set.
    """

    name: str = "default"
    relative_cpu_speed: float = 1.0
    latency: float = 5.0e-6
    bandwidth_mbps: float = 250.0
    num_buses: int = 0
    input_links: int = 1
    output_links: int = 1
    eager_threshold: int = 65536
    processors_per_node: int = 1
    intranode_bandwidth_mbps: float = 2000.0
    intranode_latency: float = 1.0e-6
    cpu_contention: bool = False
    mpi_overhead: float = 0.0
    topology: TopologySpec = TopologySpec()
    collective_model: CollectiveSpec = CollectiveSpec()
    replay_backend: str = "event"

    def __post_init__(self) -> None:
        if isinstance(self.topology, str):
            # Accept the compact string form ("tree:radix=8") anywhere a
            # spec is expected -- the CLI and config files hand us strings.
            object.__setattr__(self, "topology", TopologySpec.parse(self.topology))
        elif not isinstance(self.topology, TopologySpec):
            raise ConfigurationError(
                f"topology must be a TopologySpec or its string form, "
                f"got {self.topology!r}")
        if isinstance(self.collective_model, str):
            object.__setattr__(
                self, "collective_model",
                CollectiveSpec.parse(self.collective_model))
        elif not isinstance(self.collective_model, CollectiveSpec):
            raise ConfigurationError(
                f"collective_model must be a CollectiveSpec or its string "
                f"form, got {self.collective_model!r}")
        # getattr per field, not vars(self): reading __dict__ would give
        # every instance a materialised dict, and sweeps keep thousands.
        for field_name in self.__dataclass_fields__:
            value = getattr(self, field_name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"{field_name} must be a finite number, got {value!r}")
        if self.relative_cpu_speed <= 0:
            raise ConfigurationError("relative_cpu_speed must be positive")
        if self.mpi_overhead < 0:
            raise ConfigurationError("mpi_overhead must be non-negative")
        if self.latency < 0 or self.intranode_latency < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.bandwidth_mbps < 0 or self.intranode_bandwidth_mbps < 0:
            raise ConfigurationError("bandwidths must be non-negative")
        if self.num_buses < 0 or self.input_links < 0 or self.output_links < 0:
            raise ConfigurationError("resource counts must be non-negative")
        if self.eager_threshold < 0:
            raise ConfigurationError("eager_threshold must be non-negative")
        if self.processors_per_node < 1:
            raise ConfigurationError("processors_per_node must be >= 1")
        if self.replay_backend not in ("event", "adaptive"):
            raise ConfigurationError(
                f"replay_backend must be 'event' or 'adaptive', "
                f"got {self.replay_backend!r}")

    # -- derived quantities -------------------------------------------------
    @property
    def bandwidth_bytes_per_second(self) -> float:
        """Inter-node bandwidth in bytes/s (``inf`` for an ideal network)."""
        if self.bandwidth_mbps == 0:
            return float("inf")
        return self.bandwidth_mbps * MEGABYTE

    @property
    def intranode_bandwidth_bytes_per_second(self) -> float:
        if self.intranode_bandwidth_mbps == 0:
            return float("inf")
        return self.intranode_bandwidth_mbps * MEGABYTE

    def node_of(self, rank: int) -> int:
        """Node hosting ``rank`` (consecutive ranks fill nodes)."""
        if rank < 0:
            raise ConfigurationError(f"negative rank: {rank}")
        return rank // self.processors_per_node

    def num_nodes(self, num_ranks: int) -> int:
        """Number of nodes needed to host ``num_ranks`` processes."""
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
        return (num_ranks + self.processors_per_node - 1) // self.processors_per_node

    def transfer_time(self, size: int, intranode: bool = False) -> float:
        """Latency + size/bandwidth for a single uncontended transfer."""
        if size < 0:
            raise ConfigurationError(f"negative message size: {size}")
        if intranode:
            bandwidth = self.intranode_bandwidth_bytes_per_second
            latency = self.intranode_latency
        else:
            bandwidth = self.bandwidth_bytes_per_second
            latency = self.latency
        if bandwidth == float("inf"):
            return latency
        return latency + size / bandwidth

    def with_bandwidth(self, bandwidth_mbps: float) -> "Platform":
        """A copy of this platform with a different inter-node bandwidth."""
        return replace(self, bandwidth_mbps=bandwidth_mbps)

    def with_latency(self, latency: float) -> "Platform":
        """A copy of this platform with a different latency."""
        return replace(self, latency=latency)

    def with_cpu_speed(self, relative_cpu_speed: float) -> "Platform":
        """A copy of this platform with a different relative CPU speed."""
        return replace(self, relative_cpu_speed=relative_cpu_speed)

    def with_eager_threshold(self, eager_threshold: int) -> "Platform":
        """A copy of this platform with a different eager/rendezvous threshold."""
        return replace(self, eager_threshold=eager_threshold)

    def with_processors_per_node(self, processors_per_node: int) -> "Platform":
        """A copy of this platform with a different rank-to-node mapping."""
        return replace(self, processors_per_node=processors_per_node)

    def with_mpi_overhead(self, mpi_overhead: float) -> "Platform":
        """A copy of this platform that charges a per-MPI-call CPU overhead."""
        return replace(self, mpi_overhead=mpi_overhead)

    def with_topology(self, topology: Union[TopologySpec, str]) -> "Platform":
        """A copy of this platform on a different interconnect topology."""
        return replace(self, topology=TopologySpec.parse(topology))

    def with_collective_model(
            self, collective_model: Union[CollectiveSpec, str]) -> "Platform":
        """A copy of this platform with a different collective cost model."""
        return replace(self,
                       collective_model=CollectiveSpec.parse(collective_model))

    def with_replay_backend(self, replay_backend: str) -> "Platform":
        """A copy of this platform replayed through a different backend."""
        return replace(self, replay_backend=replay_backend)

    @classmethod
    def ideal_network(cls, name: str = "ideal") -> "Platform":
        """A platform whose network is infinitely fast (latency 0, bandwidth inf)."""
        return cls(name=name, latency=0.0, bandwidth_mbps=0.0, num_buses=0,
                   input_links=0, output_links=0)
