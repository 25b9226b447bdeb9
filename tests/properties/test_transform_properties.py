"""Property-based tests for the overlap transformation on generated workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structure import trace_issues
from repro.core.chunking import FixedCountChunking
from repro.core.mechanisms import OverlapMechanism
from repro.core.overlap import OverlapTransformer
from repro.core.patterns import ComputationPattern
from repro.tracing.machine import TracingVirtualMachine
from repro.tracing.records import RecvRecord, SendRecord, WaitRecord
from repro.workloads import generate_workload

workload_specs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=10**6),
    "num_ranks": st.integers(min_value=2, max_value=6),
    "iterations": st.integers(min_value=1, max_value=4),
    "max_message_bytes": st.integers(min_value=1, max_value=200_000),
    "neighbor_count": st.integers(min_value=1, max_value=1),
})

patterns = st.sampled_from(list(ComputationPattern))
mechanisms = st.sampled_from([OverlapMechanism.FULL, OverlapMechanism.EARLY_SEND,
                              OverlapMechanism.LATE_RECEIVE])
chunk_counts = st.integers(min_value=1, max_value=12)


def _trace_for(spec):
    spec = dict(spec)
    spec["neighbor_count"] = min(spec["neighbor_count"], spec["num_ranks"] - 1)
    app = generate_workload(**spec)
    return TracingVirtualMachine().trace(app)


@settings(max_examples=40, deadline=None)
@given(spec=workload_specs, pattern=patterns, mechanism=mechanisms,
       count=chunk_counts)
def test_transform_preserves_instructions_and_bytes(spec, pattern, mechanism, count):
    trace = _trace_for(spec)
    transformer = OverlapTransformer(chunking=FixedCountChunking(count=count),
                                     pattern=pattern, mechanism=mechanism)
    overlapped = transformer.transform(trace)
    for original, transformed in zip(trace, overlapped):
        assert transformed.total_instructions() == pytest.approx(
            original.total_instructions(), rel=1e-9, abs=1e-6)
        assert transformed.bytes_sent() == original.bytes_sent()
        assert transformed.bytes_received() == original.bytes_received()
        # Collectives are never touched by the transformation.
        assert len(transformed.collectives()) == len(original.collectives())


@settings(max_examples=40, deadline=None)
@given(spec=workload_specs, pattern=patterns, mechanism=mechanisms,
       count=chunk_counts)
def test_transformed_trace_is_a_valid_mpi_program(spec, pattern, mechanism, count):
    trace = _trace_for(spec)
    transformer = OverlapTransformer(chunking=FixedCountChunking(count=count),
                                     pattern=pattern, mechanism=mechanism)
    overlapped = transformer.transform(trace)
    assert trace_issues(overlapped) == []


@settings(max_examples=25, deadline=None)
@given(spec=workload_specs, count=st.integers(min_value=2, max_value=8))
def test_every_original_message_becomes_count_chunks(spec, count):
    trace = _trace_for(spec)
    policy = FixedCountChunking(count=count, min_chunk_bytes=1)
    transformer = OverlapTransformer(chunking=policy,
                                     pattern=ComputationPattern.IDEAL,
                                     mechanism=OverlapMechanism.FULL)
    overlapped = transformer.transform(trace)
    for original, transformed in zip(trace, overlapped):
        expected = sum(len(policy.chunks(send.size)) if len(policy.chunks(send.size)) > 1
                       else 1 for send in original.sends())
        assert len(transformed.sends()) == expected


@settings(max_examples=25, deadline=None)
@given(spec=workload_specs, pattern=patterns)
def test_requests_waited_exactly_once(spec, pattern):
    trace = _trace_for(spec)
    transformer = OverlapTransformer(chunking=FixedCountChunking(count=4),
                                     pattern=pattern,
                                     mechanism=OverlapMechanism.FULL)
    overlapped = transformer.transform(trace)
    for rank_trace in overlapped:
        issued = [r.request for r in rank_trace.records
                  if isinstance(r, (SendRecord, RecvRecord)) and not r.blocking]
        waited = [req for r in rank_trace.records if isinstance(r, WaitRecord)
                  for req in r.requests]
        assert sorted(issued) == sorted(waited)
