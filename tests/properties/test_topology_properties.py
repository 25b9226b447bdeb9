"""Property-based tests of the topology subsystem.

Two families of guarantees:

* every topology replay is *deterministic* -- replaying the same trace on
  the same platform twice gives identical results, on generated workloads
  and across the whole spec parameter space;
* topology sweeps are deterministic *under parallel execution* -- a
  ``jobs > 1`` worker pool produces bit-identical sweeps to the serial run,
  for every topology at once (the end-to-end property behind
  ``repro sweep --topologies ... --jobs N``).

Both hold on either replay backend: the properties draw it, and the
parallel sweep runs on each.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dimemas.platform import Platform
from repro.dimemas.simulator import simulate
from repro.dimemas.topology import TopologySpec
from repro.experiments import ExperimentSpec, run_experiment
from repro.tracing.machine import TracingVirtualMachine
from repro.workloads import generate_workload

workload_specs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10**6),
    "num_ranks": st.integers(min_value=2, max_value=5),
    "iterations": st.integers(min_value=1, max_value=3),
    "max_message_bytes": st.integers(min_value=1, max_value=150_000),
    "neighbor_count": st.integers(min_value=1, max_value=1),
})

topology_specs = st.one_of(
    st.builds(TopologySpec, kind=st.just("tree"),
              radix=st.integers(min_value=2, max_value=8),
              bandwidth_scale=st.floats(min_value=0.25, max_value=4.0),
              links=st.integers(min_value=0, max_value=3)),
    st.builds(TopologySpec, kind=st.just("torus"),
              torus_width=st.integers(min_value=0, max_value=4),
              links=st.integers(min_value=0, max_value=3)),
    st.just(TopologySpec()),
)

backends = st.sampled_from(("event", "adaptive"))


def _trace_for(spec):
    app = generate_workload(**spec)
    return TracingVirtualMachine().trace(app)


@settings(max_examples=25, deadline=None)
@given(spec=workload_specs, topology=topology_specs,
       processors_per_node=st.integers(min_value=1, max_value=3),
       backend=backends)
def test_topology_replays_are_deterministic(spec, topology, processors_per_node,
                                            backend):
    trace = _trace_for(spec)
    platform = Platform(bandwidth_mbps=100.0, topology=topology,
                        processors_per_node=processors_per_node,
                        replay_backend=backend)
    first = simulate(trace, platform)
    second = simulate(trace, platform)
    assert first.total_time == second.total_time
    assert first.ranks == second.ranks
    assert first.network == second.network


@settings(max_examples=25, deadline=None)
@given(spec=workload_specs, topology=topology_specs, backend=backends)
def test_topology_replays_terminate_under_contention(spec, topology, backend):
    """No route/resource combination may deadlock the replay."""
    trace = _trace_for(spec)
    platform = Platform(bandwidth_mbps=10.0, topology=topology,
                        replay_backend=backend)
    result = simulate(trace, platform)
    assert result.total_time > 0
    assert result.network["transfers"] >= 0


@pytest.mark.parametrize("backend", ["event", "adaptive"])
def test_topology_sweep_is_deterministic_under_parallel_jobs(backend):
    """jobs > 1 must reproduce the serial topology sweep bit for bit."""
    spec = ExperimentSpec(
        apps=("nas-bt",), app_options={"num_ranks": 8, "iterations": 2},
        topologies=("flat", "tree:radix=2,links=1", "torus:links=1"),
        bandwidths=(25.0, 400.0), platform={"replay_backend": backend})

    def _run(jobs):
        return run_experiment(spec.with_jobs(jobs)).by_topology()

    serial = _run(1)
    parallel = _run(2)
    assert list(serial) == list(parallel)
    for key in serial:
        for mine, theirs in zip(serial[key].points, parallel[key].points):
            assert mine.bandwidth_mbps == theirs.bandwidth_mbps
            assert mine.times == theirs.times
            assert mine.network == theirs.network
            assert (mine.original_communication_fraction
                    == theirs.original_communication_fraction)
