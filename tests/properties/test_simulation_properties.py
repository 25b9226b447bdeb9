"""Property-based tests for the replay simulator on generated workloads.

Every property draws the replay backend too: each one holds on both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import FixedCountChunking
from repro.core.mechanisms import OverlapMechanism
from repro.core.overlap import OverlapTransformer
from repro.core.patterns import ComputationPattern
from repro.dimemas.platform import Platform
from repro.dimemas.simulator import simulate
from repro.paraver.states import ThreadState
from repro.tracing.machine import TracingVirtualMachine
from repro.tracing.timebase import TimeBase
from repro.workloads import generate_workload

workload_specs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10**6),
    "num_ranks": st.integers(min_value=2, max_value=5),
    "iterations": st.integers(min_value=1, max_value=3),
    "max_message_bytes": st.integers(min_value=1, max_value=150_000),
    "neighbor_count": st.integers(min_value=1, max_value=1),
})

bandwidths = st.floats(min_value=1.0, max_value=50_000.0,
                       allow_nan=False, allow_infinity=False)

backends = st.sampled_from(("event", "adaptive"))


def _trace_for(spec):
    app = generate_workload(**spec)
    return TracingVirtualMachine().trace(app)


@settings(max_examples=30, deadline=None)
@given(spec=workload_specs, bandwidth=bandwidths, backend=backends)
def test_total_time_bounded_below_by_critical_compute_path(spec, bandwidth,
                                                           backend):
    trace = _trace_for(spec)
    result = simulate(trace, Platform(bandwidth_mbps=bandwidth,
                                      replay_backend=backend))
    timebase = TimeBase(trace.mips)
    slowest_rank_compute = max(
        timebase.seconds(rank.total_instructions()) for rank in trace)
    assert result.total_time >= slowest_rank_compute - 1e-12
    assert result.total_time > 0


@settings(max_examples=30, deadline=None)
@given(spec=workload_specs, backend=backends)
def test_more_bandwidth_never_hurts_the_original_trace(spec, backend):
    trace = _trace_for(spec)
    slow = simulate(trace, Platform(bandwidth_mbps=10.0,
                                    replay_backend=backend))
    fast = simulate(trace, Platform(bandwidth_mbps=10_000.0,
                                    replay_backend=backend))
    assert fast.total_time <= slow.total_time + 1e-9


@settings(max_examples=30, deadline=None)
@given(spec=workload_specs, bandwidth=bandwidths, backend=backends)
def test_timeline_is_consistent_with_stats(spec, bandwidth, backend):
    trace = _trace_for(spec)
    result = simulate(trace, Platform(bandwidth_mbps=bandwidth,
                                      replay_backend=backend))
    result.timeline.validate()
    assert result.timeline.duration == pytest.approx(result.total_time)
    running = result.timeline.time_in_state(ThreadState.RUNNING)
    assert running == pytest.approx(result.total_compute_time(), rel=1e-6, abs=1e-12)
    assert 0.0 <= result.parallel_efficiency() <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(spec=workload_specs, bandwidth=bandwidths, backend=backends)
def test_compute_time_is_invariant_across_platforms(spec, bandwidth, backend):
    trace = _trace_for(spec)
    reference = simulate(trace, Platform(bandwidth_mbps=250.0,
                                         replay_backend=backend))
    other = simulate(trace, Platform(bandwidth_mbps=bandwidth,
                                     replay_backend=backend))
    assert other.total_compute_time() == pytest.approx(
        reference.total_compute_time(), rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(spec=workload_specs, backend=backends)
def test_overlapped_trace_replays_and_preserves_compute(spec, backend):
    trace = _trace_for(spec)
    overlapped = OverlapTransformer(
        chunking=FixedCountChunking(count=4),
        pattern=ComputationPattern.IDEAL,
        mechanism=OverlapMechanism.FULL).transform(trace)
    platform = Platform(replay_backend=backend)
    original = simulate(trace, platform)
    candidate = simulate(overlapped, platform)
    assert candidate.total_compute_time() == pytest.approx(
        original.total_compute_time(), rel=1e-9)
    # Overlap may restructure waiting, but it never creates or destroys work:
    # bytes on the network stay identical.
    assert candidate.network["bytes_transferred"] == original.network["bytes_transferred"]
