"""Pluggable network topologies for the Dimemas replay core.

The original interconnect model was a single flat bus: every inter-node
transfer held the sender's output link, the receiver's input link and one
global bus for ``latency + size/bandwidth``.  Real machines are not flat,
and the overlap benefit the paper measures is highly sensitive to *where*
contention lives (intra-node, at a switch, or on a global link).  This
module therefore factors the interconnect into a declarative
:class:`TopologySpec` plus a :class:`NetworkModel` interface that owns

* **routing** -- ``route(src_node, dst_node)`` returns the ordered list of
  :class:`Hop` objects a message crosses, and
* **contention** -- each hop names the DES resources a transfer must hold
  while crossing it.

Three models are provided:

* :class:`FlatBus` -- the historical model, extracted verbatim from
  ``NetworkFabric``; one hop holding (output link, input link, bus).  It is
  the default and is bit-identical to the pre-refactor fabric.
* :class:`HierarchicalTree` -- nodes under leaf switches under higher-level
  switches up to a single root, with per-level bandwidth scaling and
  per-hop link counts (node -> switch -> root routing).
* :class:`Torus2D` -- a 2-D torus with dimension-ordered (x then y)
  routing, wrap-around rings and one contended resource per directed link.

Transfers cross hops store-and-forward: the fabric acquires a hop's
resources (in the hop's fixed resource order), charges that hop's
``latency + size/bandwidth``, releases, and moves on.  Because no transfer
ever waits for a hop while holding another hop's resources, every topology
is deadlock-free by construction, wrap-around rings included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING, Type, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des import Environment, Resource
    from repro.des.resources import InfiniteResource
    from repro.dimemas.platform import Platform

    LinkResource = Union[Resource, InfiniteResource]

#: Names of the available topology kinds (the ``--topology`` choices).
FLAT = "flat"
TREE = "tree"
TORUS = "torus"

#: The bandwidth of an ideal link, built once: every transfer-time check
#: compares against this instead of building ``float("inf")`` per call.
INFINITY = math.inf


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of an interconnect topology.

    The spec is a plain frozen dataclass so it can live inside the (frozen,
    picklable) :class:`~repro.dimemas.platform.Platform` and ship across
    process boundaries with sweep tasks.  Fields not used by a kind are
    ignored by it:

    * ``kind``      -- ``flat`` (default), ``tree`` or ``torus``;
    * ``radix``     -- tree: children per switch (nodes per leaf switch);
    * ``bandwidth_scale`` -- tree: link bandwidth multiplier per level
      toward the root (2.0 = each level up is twice as fat);
    * ``hop_latency``     -- per-hop latency for tree/torus hops
      (``None`` = the platform's inter-node latency);
    * ``links``     -- concurrent transfers per tree edge direction or per
      torus link (``0`` = unlimited);
    * ``link_scale``      -- tree: link-count multiplier per level toward
      the root (only meaningful with ``links > 0``);
    * ``torus_width``     -- torus: ring size of the x dimension
      (``0`` = the most square grid that fits the node count).
    """

    kind: str = FLAT
    radix: int = 4
    bandwidth_scale: float = 1.0
    hop_latency: Optional[float] = None
    links: int = 1
    link_scale: float = 1.0
    torus_width: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r} "
                f"(choose from {sorted(TOPOLOGIES)})")
        # Same check as Platform's: a nan or inf factor would replay to a
        # non-finite time (or raise mid-model) instead of failing here.
        for field_name in self.__dataclass_fields__:
            value = getattr(self, field_name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"{field_name} must be a finite number, got {value!r}")
        if self.radix < 2:
            raise ConfigurationError("topology radix must be >= 2")
        if self.bandwidth_scale <= 0 or self.link_scale <= 0:
            raise ConfigurationError("topology scale factors must be positive")
        if self.hop_latency is not None and self.hop_latency < 0:
            raise ConfigurationError("hop_latency must be non-negative")
        if self.links < 0:
            raise ConfigurationError("links must be >= 0 (0 = unlimited)")
        if self.torus_width < 0:
            raise ConfigurationError("torus_width must be >= 0 (0 = auto)")

    # -- string form -------------------------------------------------------
    #: Spec fields settable through the compact string form, with types.
    _STRING_FIELDS = {
        "radix": int,
        "bandwidth_scale": float,
        "hop_latency": float,
        "links": int,
        "link_scale": float,
        "torus_width": int,
    }

    @classmethod
    def parse(cls, text: Union[str, "TopologySpec"]) -> "TopologySpec":
        """Parse the compact string form, e.g. ``tree:radix=8,links=2``.

        The form is ``kind`` or ``kind:key=value,key=value`` with the keys
        of :attr:`_STRING_FIELDS`; it is what ``--topology`` accepts and
        what platform configuration files store.
        """
        if isinstance(text, TopologySpec):
            return text
        kind, _, options = text.strip().partition(":")
        values: Dict[str, object] = {"kind": kind.strip()}
        if options:
            for item in options.split(","):
                key, sep, raw = item.partition("=")
                key = key.strip()
                if not sep or key not in cls._STRING_FIELDS:
                    raise ConfigurationError(
                        f"bad topology option {item!r} in {text!r} "
                        f"(known options: {sorted(cls._STRING_FIELDS)})")
                try:
                    values[key] = cls._STRING_FIELDS[key](raw.strip())
                except ValueError as exc:
                    raise ConfigurationError(
                        f"cannot parse topology option {item!r}") from exc
        return cls(**values)  # type: ignore[arg-type]

    def to_string(self) -> str:
        """Inverse of :meth:`parse` (defaults omitted)."""
        options = []
        for field in self._STRING_FIELDS:
            value = getattr(self, field)
            if value != self.__dataclass_fields__[field].default:
                options.append(f"{field}={value}")
        return self.kind + (":" + ",".join(options) if options else "")

    def with_kind(self, kind: str) -> "TopologySpec":
        return replace(self, kind=kind)


@dataclass
class Hop:
    """One stage of a route: the resources held while crossing it.

    ``resources`` are acquired in tuple order (the fabric never reorders
    them, so a model's fixed ordering is preserved) and all released before
    the next hop is requested.

    ``name`` is the hop's class: within one :class:`NetworkModel`, every
    hop of one name has the same ``latency`` and
    ``bandwidth_bytes_per_second`` (only its resources differ), so the
    name alone fixes the hop's :meth:`transfer_time`.  Network statistics
    are kept per name, and the lane walk binds hop physics per name.
    """

    name: str
    resources: Tuple[LinkResource, ...]
    latency: float
    bandwidth_bytes_per_second: float

    def transfer_time(self, size: int) -> float:
        """Uncontended time to push ``size`` bytes across this hop."""
        if self.bandwidth_bytes_per_second == INFINITY:
            return self.latency
        return self.latency + size / self.bandwidth_bytes_per_second


class NetworkModel:
    """Interface of a pluggable topology: routing plus contention resources.

    Subclasses build their DES resources lazily (first use) so constructing
    a model never schedules events, and implement :meth:`_build_route`.

    A model must name its hops by class: two hops of one name, on any two
    routes of the model, have equal ``latency`` and
    ``bandwidth_bytes_per_second``.  The flat bus has one class (``net``),
    a tree one per direction and level (``up{L}``, ``down{L}``), a torus
    one per direction (``x+``, ``x-``, ``y+``, ``y-``).
    """

    kind: str = "abstract"

    def __init__(self, env: Environment, platform: "Platform", num_ranks: int):
        # The DES kernel loads with the first model built, not with the
        # specs a platform carries.  The classes are bound once per model,
        # not imported in _make_resource, which runs for every link.
        from repro.des.resources import InfiniteResource, Resource

        self.env = env
        self.platform = platform
        self.spec = platform.topology
        self.num_nodes = platform.num_nodes(num_ranks)
        self._routes: Dict[Tuple[int, int], List[Hop]] = {}
        self._resource_types = (InfiniteResource, Resource)

    def _make_resource(self, capacity: int, name: str) -> LinkResource:
        unlimited, limited = self._resource_types
        if capacity == 0:
            return unlimited(self.env, name=name)
        return limited(self.env, capacity=capacity, name=name)

    def route(self, src_node: int, dst_node: int) -> List[Hop]:
        """Ordered hops a message crosses from ``src_node`` to ``dst_node``.

        Routes are deterministic per node pair, so they are built once by
        :meth:`_build_route` and memoized -- ``route`` sits on the hot
        replay path (one call per message).
        """
        key = (src_node, dst_node)
        hops = self._routes.get(key)
        if hops is None:
            hops = self._routes[key] = self._build_route(src_node, dst_node)
        return hops

    def _build_route(self, src_node: int, dst_node: int) -> List[Hop]:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Structural summary used by reports and benchmarks."""
        return {"kind": self.kind, "nodes": self.num_nodes}

    def _hop_latency(self) -> float:
        spec_latency = self.spec.hop_latency
        return self.platform.latency if spec_latency is None else spec_latency


class FlatBus(NetworkModel):
    """The historical Dimemas model: global buses plus per-node links.

    Extracted from the pre-refactor ``NetworkFabric``; a route is a single
    hop holding (sender output link, receiver input link, bus) in that
    fixed order, charged the platform's full ``latency + size/bandwidth``.
    This is the default topology and is bit-identical to the old fabric.
    """

    kind = FLAT

    def __init__(self, env: Environment, platform: "Platform", num_ranks: int):
        super().__init__(env, platform, num_ranks)
        self.buses = self._make_resource(platform.num_buses, "buses")
        self._output_links: Dict[int, LinkResource] = {}
        self._input_links: Dict[int, LinkResource] = {}

    def output_link(self, node: int) -> LinkResource:
        if node not in self._output_links:
            self._output_links[node] = self._make_resource(
                self.platform.output_links, f"out[{node}]")
        return self._output_links[node]

    def input_link(self, node: int) -> LinkResource:
        if node not in self._input_links:
            self._input_links[node] = self._make_resource(
                self.platform.input_links, f"in[{node}]")
        return self._input_links[node]

    def _build_route(self, src_node: int, dst_node: int) -> List[Hop]:
        return [Hop(
            name="net",
            resources=(self.output_link(src_node),
                       self.input_link(dst_node), self.buses),
            latency=self.platform.latency,
            bandwidth_bytes_per_second=self.platform.bandwidth_bytes_per_second)]

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(buses=self.platform.num_buses,
                    input_links=self.platform.input_links,
                    output_links=self.platform.output_links)
        return info


class HierarchicalTree(NetworkModel):
    """Nodes under leaf switches under switches up to a single root.

    Every switch has ``spec.radix`` children; levels are added until one
    root spans all nodes.  A route climbs from the source node to the
    lowest common ancestor and descends to the destination, one hop per
    edge, each direction of an edge being its own contended resource.  The
    link at level ``L`` (0 = node-to-leaf-switch) has bandwidth
    ``platform.bandwidth * bandwidth_scale**L`` and capacity
    ``round(links * link_scale**L)``, so fat-tree-like machines (fatter
    toward the root) and thin trees (bottleneck at the root) are both a
    spec away.
    """

    kind = TREE

    def __init__(self, env: Environment, platform: "Platform", num_ranks: int):
        super().__init__(env, platform, num_ranks)
        radix = self.spec.radix
        self.levels = 1
        while radix ** self.levels < self.num_nodes:
            self.levels += 1
        # Directed edge resources, keyed by (level, child index, direction).
        self._links: Dict[Tuple[int, int, str], LinkResource] = {}

    def _link(self, level: int, child: int, direction: str) -> LinkResource:
        key = (level, child, direction)
        if key not in self._links:
            capacity = self.spec.links
            if capacity:
                capacity = max(1, round(capacity * self.spec.link_scale ** level))
            self._links[key] = self._make_resource(
                capacity, f"tree:{direction}{level}[{child}]")
        return self._links[key]

    def _level_bandwidth(self, level: int) -> float:
        base = self.platform.bandwidth_bytes_per_second
        if base == INFINITY:
            return base
        return base * self.spec.bandwidth_scale ** level

    def _build_route(self, src_node: int, dst_node: int) -> List[Hop]:
        radix = self.spec.radix
        latency = self._hop_latency()
        up: List[Hop] = []
        down: List[Hop] = []
        src, dst = src_node, dst_node
        level = 0
        # Climb both endpoints one level at a time until they meet under a
        # common switch; record the up edge on the source side and the down
        # edge on the destination side of every climbed level.
        while src != dst:
            up.append(Hop(
                name=f"up{level}",
                resources=(self._link(level, src, "up"),),
                latency=latency,
                bandwidth_bytes_per_second=self._level_bandwidth(level)))
            down.append(Hop(
                name=f"down{level}",
                resources=(self._link(level, dst, "down"),),
                latency=latency,
                bandwidth_bytes_per_second=self._level_bandwidth(level)))
            src //= radix
            dst //= radix
            level += 1
        return up + list(reversed(down))

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(levels=self.levels, radix=self.spec.radix,
                    bandwidth_scale=self.spec.bandwidth_scale,
                    links=self.spec.links)
        return info


class Torus2D(NetworkModel):
    """A 2-D torus with dimension-ordered routing and per-link contention.

    Nodes sit on a ``width x height`` grid (width from the spec, or the
    most square grid that fits); each directed link between neighbouring
    grid positions is one contended resource of capacity ``spec.links``.
    Routes move along x first, then y, taking the shorter way around each
    ring (ties break toward increasing coordinates), and charge every
    crossed link ``hop latency + size/bandwidth`` -- store-and-forward, so
    distance costs both time and contention, exactly the effect a flat bus
    cannot express.
    """

    kind = TORUS

    def __init__(self, env: Environment, platform: "Platform", num_ranks: int):
        super().__init__(env, platform, num_ranks)
        self.width = self.spec.torus_width or max(
            1, math.ceil(math.sqrt(self.num_nodes)))
        self.height = max(1, math.ceil(self.num_nodes / self.width))
        self._links: Dict[Tuple[int, int, str], LinkResource] = {}

    def _coordinates(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def _link(self, x: int, y: int, direction: str) -> LinkResource:
        key = (x, y, direction)
        if key not in self._links:
            self._links[key] = self._make_resource(
                self.spec.links, f"torus:{direction}[{x},{y}]")
        return self._links[key]

    @staticmethod
    def _ring_steps(start: int, stop: int, size: int) -> List[Tuple[int, int]]:
        """(position, step) pairs along the shorter way around the ring."""
        if start == stop or size < 2:
            return []
        forward = (stop - start) % size
        backward = (start - stop) % size
        step = 1 if forward <= backward else -1
        steps = []
        position = start
        for _ in range(min(forward, backward)):
            steps.append((position, step))
            position = (position + step) % size
        return steps

    def _build_route(self, src_node: int, dst_node: int) -> List[Hop]:
        latency = self._hop_latency()
        bandwidth = self.platform.bandwidth_bytes_per_second
        src_x, src_y = self._coordinates(src_node)
        dst_x, dst_y = self._coordinates(dst_node)
        hops: List[Hop] = []
        for x, step in self._ring_steps(src_x, dst_x, self.width):
            direction = "x+" if step > 0 else "x-"
            hops.append(Hop(
                name=direction,
                resources=(self._link(x, src_y, direction),),
                latency=latency, bandwidth_bytes_per_second=bandwidth))
        for y, step in self._ring_steps(src_y, dst_y, self.height):
            direction = "y+" if step > 0 else "y-"
            hops.append(Hop(
                name=direction,
                resources=(self._link(dst_x, y, direction),),
                latency=latency, bandwidth_bytes_per_second=bandwidth))
        return hops

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(width=self.width, height=self.height, links=self.spec.links)
        return info


#: Registry of the selectable topology kinds.
TOPOLOGIES: Dict[str, Type[NetworkModel]] = {
    FLAT: FlatBus,
    TREE: HierarchicalTree,
    TORUS: Torus2D,
}


def split_topology_list(text: str) -> List[str]:
    """Split a comma-separated list of topology specs into spec strings.

    Spec options themselves contain commas (``tree:radix=8,links=2``), so
    the list is split only at commas that start a new spec -- i.e. where
    the next segment begins with a known topology kind.  Used by
    ``sweep --topologies``.
    """
    specs: List[str] = []
    for segment in text.split(","):
        segment = segment.strip()
        if not segment:
            continue
        if segment.partition(":")[0] in TOPOLOGIES or not specs:
            specs.append(segment)
        else:
            specs[-1] += "," + segment
    return specs


def build_network_model(env: Environment, platform: "Platform",
                        num_ranks: int) -> NetworkModel:
    """Instantiate the model selected by ``platform.topology``."""
    try:
        model = TOPOLOGIES[platform.topology.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology kind {platform.topology.kind!r} "
            f"(choose from {sorted(TOPOLOGIES)})") from None
    return model(env, platform, num_ranks)
