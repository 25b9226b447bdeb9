"""Unit tests of the pluggable topology subsystem."""

import pytest

from repro.des import Environment
from repro.des.resources import InfiniteResource, Resource
from repro.dimemas.messages import Message
from repro.dimemas.network import NetworkFabric
from repro.dimemas.platform import Platform
from repro.dimemas.topology import (
    TOPOLOGIES,
    FlatBus,
    HierarchicalTree,
    TopologySpec,
    Torus2D,
    build_network_model,
    split_topology_list,
)
from repro.errors import ConfigurationError


@pytest.fixture
def env():
    return Environment()


class TestTopologySpec:
    def test_default_is_flat(self):
        assert TopologySpec().kind == "flat"
        assert Platform().topology == TopologySpec()

    def test_parse_kind_only(self):
        assert TopologySpec.parse("tree").kind == "tree"
        assert TopologySpec.parse("torus").kind == "torus"

    def test_parse_with_options(self):
        spec = TopologySpec.parse("tree:radix=8,links=2,bandwidth_scale=2.0")
        assert spec.radix == 8
        assert spec.links == 2
        assert spec.bandwidth_scale == 2.0

    def test_string_round_trip(self):
        for text in ("flat", "tree:radix=8", "torus:links=2,torus_width=4",
                     "tree:radix=2,bandwidth_scale=0.5,hop_latency=1e-06"):
            spec = TopologySpec.parse(text)
            assert TopologySpec.parse(spec.to_string()) == spec

    def test_parse_passes_specs_through(self):
        spec = TopologySpec.parse("torus")
        assert TopologySpec.parse(spec) is spec

    @pytest.mark.parametrize("text", [
        "mesh", "tree:radix", "tree:radix=x", "tree:warp=9", "torus:links=-1",
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ConfigurationError):
            TopologySpec.parse(text)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "ring"}, {"radix": 1}, {"bandwidth_scale": 0.0},
        {"hop_latency": -1.0}, {"link_scale": -2.0}, {"torus_width": -1},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TopologySpec(**kwargs)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field",
                             ["bandwidth_scale", "hop_latency", "link_scale"])
    def test_non_finite_numbers_rejected(self, field, value):
        # Through both the constructor and the string form the CLI and
        # config files use.
        message = f"{field} must be a finite number, got {float(value)!r}"
        with pytest.raises(ConfigurationError, match=message):
            TopologySpec(kind="tree", **{field: float(value)})
        with pytest.raises(ConfigurationError, match=message):
            TopologySpec.parse(f"tree:{field}={value}")

    def test_platform_coerces_strings(self):
        platform = Platform(topology="tree:radix=8")
        assert platform.topology == TopologySpec(kind="tree", radix=8)
        assert platform.with_topology("torus").topology.kind == "torus"

    def test_platform_rejects_non_specs(self):
        with pytest.raises(ConfigurationError):
            Platform(topology=42)

    def test_split_topology_list_keeps_spec_options_together(self):
        # Options contain commas; the list must only split at new kinds.
        assert split_topology_list("flat,tree:radix=8,links=2,torus") == [
            "flat", "tree:radix=8,links=2", "torus"]
        assert split_topology_list("tree:radix=2,bandwidth_scale=2.0") == [
            "tree:radix=2,bandwidth_scale=2.0"]
        assert split_topology_list(" flat , torus ") == ["flat", "torus"]
        assert split_topology_list("") == []


class TestFactory:
    def test_builds_the_selected_model(self, env):
        for kind, cls in (("flat", FlatBus), ("tree", HierarchicalTree),
                          ("torus", Torus2D)):
            platform = Platform(topology=kind)
            assert isinstance(build_network_model(env, platform, 8), cls)

    def test_fabric_owns_a_model(self, env):
        fabric = NetworkFabric(env, Platform(), num_ranks=4)
        assert isinstance(fabric.model, FlatBus)


class TestFlatBusModel:
    def test_single_hop_with_fixed_resource_order(self, env):
        platform = Platform(num_buses=2, input_links=1, output_links=1)
        model = FlatBus(env, platform, num_ranks=4)
        (hop,) = model.route(0, 3)
        assert hop.resources == (model.output_link(0), model.input_link(3),
                                 model.buses)
        assert hop.latency == platform.latency
        assert hop.transfer_time(1000) == platform.transfer_time(1000)

    def test_unlimited_resources_are_infinite(self, env):
        model = FlatBus(env, Platform(num_buses=0, input_links=0), num_ranks=2)
        assert isinstance(model.buses, InfiniteResource)
        assert isinstance(model.input_link(0), InfiniteResource)
        assert isinstance(model.output_link(0), Resource)


class TestHierarchicalTree:
    def _model(self, env, num_nodes, **spec):
        platform = Platform(topology=TopologySpec(kind="tree", **spec))
        return HierarchicalTree(env, platform, num_ranks=num_nodes)

    def test_levels_cover_all_nodes(self, env):
        assert self._model(env, 4, radix=2).levels == 2
        assert self._model(env, 5, radix=2).levels == 3
        assert self._model(env, 16, radix=4).levels == 2
        assert self._model(env, 2, radix=4).levels == 1

    def test_siblings_route_through_their_leaf_switch(self, env):
        model = self._model(env, 8, radix=4)
        hops = model.route(0, 3)
        assert [hop.name for hop in hops] == ["up0", "down0"]

    def test_distant_nodes_climb_to_the_common_ancestor(self, env):
        model = self._model(env, 8, radix=2)
        hops = model.route(0, 7)  # opposite sides of the root: 3 levels up
        assert [hop.name for hop in hops] == [
            "up0", "up1", "up2", "down2", "down1", "down0"]
        assert [hop.name for hop in model.route(0, 2)] == [
            "up0", "up1", "down1", "down0"]

    def test_route_is_symmetric_in_length(self, env):
        model = self._model(env, 16, radix=2)
        for src in range(4):
            for dst in range(4, 8):
                assert len(model.route(src, dst)) == len(model.route(dst, src))

    def test_bandwidth_scales_per_level(self, env):
        platform = Platform(bandwidth_mbps=100.0, topology="tree:radix=2,bandwidth_scale=2.0")
        model = HierarchicalTree(env, platform, num_ranks=8)
        up0, up1, down1, down0 = model.route(0, 2)
        assert up0.bandwidth_bytes_per_second == platform.bandwidth_bytes_per_second
        assert up1.bandwidth_bytes_per_second == 2 * up0.bandwidth_bytes_per_second
        assert down1.bandwidth_bytes_per_second == up1.bandwidth_bytes_per_second

    def test_link_counts_scale_per_level(self, env):
        model = self._model(env, 8, radix=2, links=1, link_scale=2.0)
        assert model.route(0, 7)[0].resources[0].capacity == 1
        assert model.route(0, 7)[1].resources[0].capacity == 2

    def test_hop_latency_override(self, env):
        platform = Platform(latency=5e-6, topology="tree:hop_latency=1e-07")
        model = HierarchicalTree(env, platform, num_ranks=4)
        assert all(hop.latency == 1e-7 for hop in model.route(0, 3))

    def test_up_and_down_directions_are_separate_resources(self, env):
        model = self._model(env, 4, radix=2)
        up = model.route(0, 1)[0].resources[0]
        down = model.route(1, 0)[1].resources[0]
        assert up is not down


class TestTorus2D:
    def _model(self, env, num_nodes, **spec):
        platform = Platform(topology=TopologySpec(kind="torus", **spec))
        return Torus2D(env, platform, num_ranks=num_nodes)

    def test_grid_shape(self, env):
        model = self._model(env, 16)
        assert (model.width, model.height) == (4, 4)
        assert self._model(env, 12, torus_width=4).height == 3

    def test_dimension_ordered_routing(self, env):
        model = self._model(env, 16)  # 4x4
        hops = model.route(0, 5)  # (0,0) -> (1,1)
        assert [hop.name for hop in hops] == ["x+", "y+"]

    def test_wraparound_takes_the_short_way(self, env):
        model = self._model(env, 16)  # rings of size 4
        hops = model.route(0, 3)  # (0,0) -> (3,0): one step backwards
        assert [hop.name for hop in hops] == ["x-"]

    def test_route_length_is_manhattan_on_rings(self, env):
        model = self._model(env, 16)
        assert len(model.route(0, 15)) == 2   # (0,0)->(3,3): wrap both dims
        assert len(model.route(0, 10)) == 4   # (0,0)->(2,2): two steps each

    def test_each_directed_link_is_one_resource(self, env):
        model = self._model(env, 16, links=1)
        forward = model.route(0, 1)[0].resources[0]
        backward = model.route(1, 0)[0].resources[0]
        assert forward is not backward
        assert forward.capacity == 1

    def test_unlimited_links(self, env):
        model = self._model(env, 16, links=0)
        assert isinstance(model.route(0, 1)[0].resources[0], InfiniteResource)


#: Every model shape: the flat bus, trees of radix 2-4 whose levels narrow,
#: keep or widen their bandwidth, with the platform's latency or a hop
#: latency of their own, and tori of automatic and fixed width.
SHAPES = ([TopologySpec()]
          + [TopologySpec(kind="tree", radix=radix, bandwidth_scale=scale,
                          hop_latency=hop_latency)
             for radix in (2, 3, 4) for scale in (0.5, 1.0, 2.0)
             for hop_latency in (None, 3e-6)]
          + [TopologySpec(kind="torus", torus_width=width)
             for width in (0, 3)])


class TestHopNames:
    """Within one model, a hop's name fixes its latency and bandwidth.

    The lane walk binds hop durations once per tuple of hop names, so a
    model that gave two hops of one name different physics would replay
    some lanes to wrong times."""

    def test_every_model_has_a_shape(self):
        assert {spec.kind for spec in SHAPES} == set(TOPOLOGIES)

    @pytest.mark.parametrize("spec", SHAPES, ids=TopologySpec.to_string)
    def test_one_name_one_physics(self, spec):
        for platform in (Platform(bandwidth_mbps=100.0, latency=5e-6,
                                  topology=spec),
                         Platform(bandwidth_mbps=0.0, topology=spec)):
            for num_nodes in (1, 2, 5, 9, 16):
                model = build_network_model(Environment(), platform,
                                            num_nodes)
                physics = {}
                for src in range(num_nodes):
                    for dst in range(num_nodes):
                        for hop in model.route(src, dst):
                            physics.setdefault(hop.name, set()).add(
                                (hop.latency, hop.bandwidth_bytes_per_second))
                assert all(len(values) == 1 for values in physics.values()), (
                    num_nodes, physics)


class TestMultiHopTransfers:
    def _run_transfer(self, platform, src=0, dst=None, size=10000, ranks=16):
        env = Environment()
        fabric = NetworkFabric(env, platform, num_ranks=ranks)
        message = Message(env, src=src, dst=dst, tag=0, size=size)
        fabric.start_transfer(message)
        env.run()
        return fabric, message

    def test_tree_charges_per_hop(self):
        platform = Platform(bandwidth_mbps=100.0, topology="tree:radix=2")
        fabric, message = self._run_transfer(platform, dst=2, ranks=8)
        hop_time = platform.transfer_time(10000)
        assert message.arrival_time == pytest.approx(4 * hop_time)
        assert fabric.statistics.hop_transfers == {
            "up0": 1, "up1": 1, "down1": 1, "down0": 1}

    def test_torus_charges_per_link(self):
        platform = Platform(bandwidth_mbps=100.0, topology="torus")
        fabric, message = self._run_transfer(platform, dst=5, ranks=16)
        hop_time = platform.transfer_time(10000)
        assert message.arrival_time == pytest.approx(2 * hop_time)

    def test_contention_on_a_shared_tree_root(self):
        # Two transfers crossing the root of a radix-2 tree with one link
        # per direction must serialise on the shared up1 link.
        platform = Platform(bandwidth_mbps=100.0, topology="tree:radix=2,links=1")
        env = Environment()
        fabric = NetworkFabric(env, platform, num_ranks=8)
        first = Message(env, src=0, dst=7, tag=0, size=10000)
        second = Message(env, src=0, dst=6, tag=0, size=10000)
        fabric.start_transfer(first)
        fabric.start_transfer(second)
        env.run()
        assert fabric.statistics.total_queue_time > 0.0
        assert first.arrival_time != second.arrival_time

    def test_opposite_torus_ring_transfers_complete(self):
        # Four transfers chasing each other around one x ring: store-and-
        # forward hop-by-hop acquisition cannot deadlock.
        platform = Platform(bandwidth_mbps=100.0,
                            topology="torus:torus_width=4,links=1")
        env = Environment()
        fabric = NetworkFabric(env, platform, num_ranks=4)
        messages = []
        for src in range(4):
            message = Message(env, src=src, dst=(src + 2) % 4, tag=0, size=10000)
            messages.append(message)
            fabric.start_transfer(message)
        env.run()
        assert all(message.arrived.triggered for message in messages)
        assert fabric.statistics.transfers == 4

    def test_statistics_properties(self):
        platform = Platform(bandwidth_mbps=100.0, processors_per_node=2)
        fabric, _ = self._run_transfer(platform, src=0, dst=1, ranks=4)
        stats = fabric.statistics
        assert stats.intranode_share == 1.0
        assert stats.mean_transfer_time == stats.total_transfer_time
        summary = stats.summary()
        assert summary["transfers"] == 1
        assert summary["intranode_share"] == 1.0
