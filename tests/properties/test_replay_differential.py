"""Differential property test: the adaptive backend replays the event
backend's run exactly.

Hypothesis draws a registered app at 4 or 8 ranks, its original trace or an
overlapped pattern/mechanism variant, and a platform across the axes that
decide contention and completion order: a flat network (0-2 links and
buses), a tree or a torus with 0-2 links, eager thresholds that make
every, some or no message rendezvous, one or two ranks per node, and the
bandwidth, latency, MPI-overhead and CPU-speed scalars.  Networks with 0
links (and 0 buses, on a flat network) have no limited resource, so their
cells are proven and the metric-only adaptive replay takes the lane walk.
Some cells use decomposed collectives or CPU contention, which the adaptive
backend hands to the event walk.  Every cell must meet the contract of
``tests/replay_contract.py``.

A second property replays the same draws with CPU contention on, at 1, 2
or 4 ranks per node, and checks that no burst ever waits for a CPU.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APPLICATIONS
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine

from replay_contract import VARIANTS, app_trace, assert_bit_exact

APPS = tuple(sorted(APPLICATIONS))


@st.composite
def platforms(draw):
    kind = draw(st.sampled_from(("flat", "tree", "torus")))
    links = draw(st.integers(min_value=0, max_value=2))
    if kind == "flat":
        buses = (0 if links == 0
                 else draw(st.integers(min_value=0, max_value=2)))
        network = {"num_buses": buses,
                   "input_links": links, "output_links": links}
    elif kind == "tree":
        network = {"topology": f"tree:radix=2,links={links}"}
    else:
        network = {"topology": f"torus:links={links}"}
    # Cells the adaptive backend cannot fast-forward run the event walk.
    fallback = draw(st.sampled_from(
        (None, None, None, None, "decomposed", "cpu_contention")))
    if fallback == "decomposed":
        network["collective_model"] = "decomposed"
    elif fallback == "cpu_contention":
        network["cpu_contention"] = True
    return Platform(
        bandwidth_mbps=draw(st.floats(min_value=5.0, max_value=2000.0)),
        latency=draw(st.sampled_from((0.0, 1.0e-6, 5.0e-6, 5.0e-5))),
        mpi_overhead=draw(st.sampled_from((0.0, 2.0e-6, 2.0e-5))),
        relative_cpu_speed=draw(st.sampled_from((0.5, 1.0, 2.0))),
        eager_threshold=draw(st.sampled_from((0, 1024, 65536))),
        processors_per_node=draw(st.integers(min_value=1, max_value=2)),
        **network)


@settings(max_examples=80, deadline=None)
@given(app=st.sampled_from(APPS), ranks=st.sampled_from((4, 8)),
       variant=st.sampled_from(VARIANTS), platform=platforms())
def test_adaptive_replays_the_event_run(app, ranks, variant, platform):
    overlap, mechanism = variant
    assert_bit_exact(app_trace(app, overlap, mechanism, ranks=ranks),
                     platform)


@settings(max_examples=40, deadline=None)
@given(app=st.sampled_from(APPS), ranks=st.sampled_from((4, 8)),
       variant=st.sampled_from(VARIANTS), platform=platforms(),
       processors_per_node=st.sampled_from((1, 2, 4)))
def test_cpu_contention_never_makes_a_burst_wait(app, ranks, variant,
                                                 platform,
                                                 processors_per_node):
    # A node's CPU has one processor per rank placed on it, so a burst
    # always finds one free.  The flag still reorders same-instant events,
    # so the results are not compared with a flag-off replay.
    overlap, mechanism = variant
    platform = dataclasses.replace(
        platform, cpu_contention=True, replay_backend="event",
        processors_per_node=processors_per_node)
    _, stats, _, _ = ReplayEngine(
        app_trace(app, overlap, mechanism, ranks=ranks), platform,
        collect_timeline=False).run()
    assert [rank.cpu_queue_time for rank in stats] == [0.0] * ranks
