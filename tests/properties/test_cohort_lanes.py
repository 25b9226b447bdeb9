"""Differential property test: every lane of a cohort replays the event
backend's run of its own cell exactly.

Hypothesis draws a registered app at 4 or 8 ranks, its original trace or an
overlapped pattern/mechanism variant, and a proven base platform: a flat
network with no buses or links, or a tree or torus with unlimited links
(trees of radix 2 and 3, one whose levels widen toward the root and one
whose levels narrow under a hop latency of its own), with an eager
threshold that makes every, some or no message rendezvous and one or two
ranks per node.  From that base it draws 2-6 lanes that differ in
bandwidth, latency, MPI overhead, CPU speed and intranode latency; a lane
may have the ideal network (``bandwidth_mbps=0``), whose hops charge their
latency alone.  All lanes share one structural signature, so
``replay_cohort`` runs them in one lane walk at full width.

On tree and torus routes a message crosses several hops whose durations
depend on the lane's latency and bandwidth, and on the scaled trees on the
hop's level too.  The lane walk binds hop durations once per tuple of hop
names, so a duration paired with the wrong lane or the wrong hop class
would show here as a time or network-statistics mismatch.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APPLICATIONS
from repro.dimemas.gridreplay import replay_cohort
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine

from replay_contract import VARIANTS, app_trace

APPS = tuple(sorted(APPLICATIONS))
#: Base networks without a limited resource: every cell is proven.
PROVEN_NETWORKS = (
    {"num_buses": 0, "input_links": 0, "output_links": 0},
    {"topology": "tree:radix=2,links=0"},
    {"topology": "tree:radix=2,bandwidth_scale=2.0,links=0"},
    {"topology": "tree:radix=3,bandwidth_scale=0.5,hop_latency=3e-06,"
                 "links=0"},
    {"topology": "torus:links=0"},
)

lane_fields = st.fixed_dictionaries({
    "bandwidth_mbps": st.just(0.0) | st.floats(min_value=5.0,
                                               max_value=2000.0),
    "latency": st.sampled_from((0.0, 1.0e-6, 5.0e-6, 5.0e-5)),
    "mpi_overhead": st.sampled_from((0.0, 2.0e-6, 2.0e-5)),
    "relative_cpu_speed": st.sampled_from((0.5, 1.0, 2.0)),
    "intranode_latency": st.sampled_from((0.0, 1.0e-6, 1.0e-5)),
})


@st.composite
def cohorts(draw):
    base = Platform(
        eager_threshold=draw(st.sampled_from((0, 1024, 65536))),
        processors_per_node=draw(st.integers(min_value=1, max_value=2)),
        replay_backend="adaptive",
        **draw(st.sampled_from(PROVEN_NETWORKS)))
    lanes = draw(st.lists(lane_fields, min_size=2, max_size=6))
    return [dataclasses.replace(base, **fields) for fields in lanes]


def assert_lanes_replay_the_event_runs(trace, platforms):
    results = replay_cohort(trace, platforms)
    assert len(results) == len(platforms)
    for got, platform in zip(results, platforms):
        assert got.metadata["adaptive"]["grid_width"] == len(platforms)
        total_time, stats, _, network = ReplayEngine(
            trace, platform.with_replay_backend("event"),
            collect_timeline=False).run()
        assert got.total_time == total_time
        assert got.ranks == stats  # dataclass equality, every field
        assert list(got.network.items()) == list(network.items())


@settings(max_examples=40, deadline=None)
@given(app=st.sampled_from(APPS), ranks=st.sampled_from((4, 8)),
       variant=st.sampled_from(VARIANTS), platforms=cohorts())
def test_every_lane_replays_the_event_run(app, ranks, variant, platforms):
    overlap, mechanism = variant
    assert_lanes_replay_the_event_runs(
        app_trace(app, overlap, mechanism, ranks=ranks), platforms)


@pytest.mark.parametrize("ranks_per_node", (1, 2))
@pytest.mark.parametrize("network", PROVEN_NETWORKS,
                         ids=lambda network: network.get("topology", "flat"))
def test_ideal_and_finite_lanes_share_a_walk(network, ranks_per_node):
    # Every proven base with lanes of the ideal network beside slow and
    # fast finite ones, also at zero latency, in one lane walk.
    base = Platform(processors_per_node=ranks_per_node,
                    replay_backend="adaptive", **network)
    platforms = [dataclasses.replace(base, bandwidth_mbps=bandwidth,
                                     latency=latency)
                 for bandwidth in (0.0, 7.5, 250.0, 4000.0)
                 for latency in (0.0, 5.0e-6)]
    assert_lanes_replay_the_event_runs(
        app_trace("nas-bt", "ideal", "full", ranks=8), platforms)
