"""Tests for the per-MPI-call overhead extension of the time model."""

import pytest

from repro.core import ComputationPattern, OverlapStudyEnvironment
from repro.core.chunking import FixedCountChunking
from repro.dimemas import Platform
from repro.dimemas.simulator import simulate
from repro.errors import ConfigurationError
from repro.tracing.records import CpuBurst, RecvRecord, SendRecord
from repro.tracing.trace import RankTrace, Trace

BACKENDS = ("event", "adaptive")


def _pingpong():
    return Trace(ranks=[
        RankTrace(rank=0, records=[CpuBurst(instructions=1.0e6),
                                   SendRecord(dst=1, size=1000, tag=0)]),
        RankTrace(rank=1, records=[RecvRecord(src=0, size=1000, tag=0),
                                   CpuBurst(instructions=1.0e6)]),
    ], metadata={"name": "overhead"})


class TestMpiOverhead:
    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform(mpi_overhead=-1.0)

    def test_with_mpi_overhead_copy(self):
        platform = Platform().with_mpi_overhead(2.0e-6)
        assert platform.mpi_overhead == 2.0e-6
        assert Platform().mpi_overhead == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overhead_charged_once_per_mpi_call(self, backend):
        base = simulate(_pingpong(), Platform(latency=0.0, bandwidth_mbps=0.0,
                                              replay_backend=backend))
        overhead = 1.0e-4
        loaded = simulate(_pingpong(),
                          Platform(latency=0.0, bandwidth_mbps=0.0,
                                   mpi_overhead=overhead,
                                   replay_backend=backend))
        # Rank 1: one recv call before its burst -> exactly one extra overhead
        # on the critical path (the sender's overhead is charged after its
        # burst and overlaps rank 1's burst start).
        assert loaded.total_time == pytest.approx(base.total_time + overhead, rel=1e-6)

    def test_overhead_config_round_trip(self):
        from repro.dimemas.config import config_to_platform, platform_to_config
        platform = Platform(mpi_overhead=3.0e-6)
        assert config_to_platform(platform_to_config(platform)) == platform

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overhead_penalises_chunked_traces_more(self, small_loop, backend):
        """The extension quantifies the software cost of the extra partial messages."""
        environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))
        trace = environment.trace(small_loop)
        overlapped = environment.overlap(trace, pattern=ComputationPattern.IDEAL)
        cheap = Platform(bandwidth_mbps=10000.0, replay_backend=backend)
        costly = cheap.with_mpi_overhead(2.0e-5)
        original_penalty = (simulate(trace, costly).total_time
                            - simulate(trace, cheap).total_time)
        overlapped_penalty = (simulate(overlapped, costly).total_time
                              - simulate(overlapped, cheap).total_time)
        assert overlapped_penalty > original_penalty
