"""Regression test: the executor prepares each trace of a sweep once."""

import pytest

from repro.apps import SanchoLoop
from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.core.executor import SweepExecutor
from repro.dimemas.platform import Platform
from repro.tracing.trace import PreparedTrace


@pytest.fixture
def compile_counter(monkeypatch):
    """Count PreparedTrace.compile invocations."""
    calls = []
    original = PreparedTrace.compile.__func__

    def counting(cls, trace):
        calls.append(trace)
        return original(cls, trace)

    monkeypatch.setattr(PreparedTrace, "compile",
                        classmethod(counting))
    return calls


def make_variants():
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=4))
    original = environment.trace(SanchoLoop(num_ranks=4, iterations=2))
    return {"original": original,
            "ideal": environment.overlap(original)}


class TestSerialExecutorMemo:
    def test_preparation_runs_once_per_variant(self, compile_counter):
        variants = make_variants()
        platforms = [Platform(bandwidth_mbps=b) for b in (50.0, 500.0, 5000.0)]
        tasks = SweepExecutor.expand(variants, platforms)
        SweepExecutor(jobs=1).execute(tasks, variants)
        assert len(compile_counter) == len(variants)
