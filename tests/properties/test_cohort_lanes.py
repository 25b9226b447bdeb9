"""Differential property test: every lane of a cohort replays the event
backend's run of its own cell exactly.

Hypothesis draws a registered app at 4 or 8 ranks, its original trace or an
overlapped pattern/mechanism variant, and a proven base platform: a flat
network with no buses or links, ``tree:radix=2,links=0`` or
``torus:links=0``, with an eager threshold that makes every, some or no
message rendezvous and one or two ranks per node.  From that base it draws
2-6 lanes that differ in bandwidth, latency, MPI overhead, CPU speed and
intranode latency.  All lanes share one structural signature, so
``replay_cohort`` runs them in one lane walk at full width.

On tree and torus routes a message crosses several hops whose durations
depend on the lane's latency and bandwidth, so a hop duration paired with
the wrong lane would show here as a time or network-statistics mismatch.
"""

import dataclasses

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
    {"topology": "torus:links=0"},
)

lane_fields = st.fixed_dictionaries({
    "bandwidth_mbps": st.floats(min_value=5.0, max_value=2000.0),
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


@settings(max_examples=40, deadline=None)
@given(app=st.sampled_from(APPS), ranks=st.sampled_from((4, 8)),
       variant=st.sampled_from(VARIANTS), platforms=cohorts())
def test_every_lane_replays_the_event_run(app, ranks, variant, platforms):
    overlap, mechanism = variant
    trace = app_trace(app, overlap, mechanism, ranks=ranks)
    results = replay_cohort(trace, platforms)
    assert len(results) == len(platforms)
    for got, platform in zip(results, platforms):
        assert got.metadata["adaptive"]["grid_width"] == len(platforms)
        total_time, stats, _, network = ReplayEngine(
            trace, platform.with_replay_backend("event"),
            collect_timeline=False).run()
        assert got.total_time == total_time
        assert got.ranks == stats  # dataclass equality, every field
        assert got.network == network
