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
Some cells use decomposed collectives, which the adaptive backend hands to
the event walk; the drawn traces are all clean, so no other cell falls
back.  Every cell must meet the contract of ``tests/replay_contract.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APPLICATIONS
from repro.dimemas.platform import Platform

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
    network["collective_model"] = draw(st.sampled_from(
        ("analytical",) * 4 + ("decomposed",)))
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
    engine = assert_bit_exact(
        app_trace(app, overlap, mechanism, ranks=ranks), platform)
    decomposed = platform.collective_model.kind == "decomposed"
    assert (engine.adaptive_summary["mode"] == "des-fallback") == decomposed
