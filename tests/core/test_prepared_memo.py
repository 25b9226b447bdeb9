"""Regression tests: replay preparation runs once per trace content per
process, including on the store-backed executor paths."""

import gc

import pytest

from repro.apps import SanchoLoop
from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.core import executor as executor_module
from repro.core.executor import SweepExecutor
from repro.dimemas.platform import Platform
from repro.store import FileResultStore
from repro.tracing import trace as trace_module
from repro.tracing.trace import PreparedTrace, Trace


@pytest.fixture(autouse=True)
def clean_memo():
    trace_module._PREPARED_BY_DIGEST.clear()
    yield
    trace_module._PREPARED_BY_DIGEST.clear()


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

    def test_store_backed_rerun_never_recompiles(self, tmp_path,
                                                 compile_counter):
        store = FileResultStore(tmp_path)
        variants = make_variants()
        platforms = [Platform(bandwidth_mbps=b) for b in (50.0, 500.0)]
        executor = SweepExecutor(jobs=1)

        tasks = SweepExecutor.expand(variants, platforms)
        executor.execute(tasks, variants, store=store)
        assert len(compile_counter) == len(variants)

        # A repeated sweep deserialises fresh Trace objects with the same
        # content and adopts the digests computed the first time round (the
        # executor ships them to workers the same way); the digest-keyed
        # memo must then share the compiled streams without recompiling.
        reloaded = {key: Trace.from_dict(trace.to_dict())
                    .adopt_digest(trace.digest())
                    for key, trace in variants.items()}
        executor.execute(SweepExecutor.expand(reloaded, platforms),
                         reloaded, store=store)
        assert len(compile_counter) == len(variants)


class TestWorkerMemo:
    @pytest.fixture(autouse=True)
    def collector_restored(self):
        # _init_worker disables the collector for a pool worker's lifetime.
        yield
        gc.enable()

    def test_worker_adopts_shipped_digests(self, compile_counter):
        """One compile per content in a worker, even across trace keys."""
        variants = make_variants()
        original = variants["original"]
        digest = original.digest()
        compile_counter.clear()

        table = {"a/original": original.to_dict(),
                 "b/original": original.to_dict()}
        executor_module._init_worker(
            table, digests={"a/original": digest, "b/original": digest})
        first = executor_module._worker_trace("a/original")
        second = executor_module._worker_trace("b/original")
        assert first.prepared() is second.prepared()
        assert len(compile_counter) == 0  # shared from the parent's memo

    def test_worker_without_digests_still_caches_per_key(self,
                                                         compile_counter):
        variants = make_variants()
        # Tracing prepared the original in this process; count the worker's.
        compile_counter.clear()
        table = {"original": variants["original"].to_dict()}
        executor_module._init_worker(table)
        first = executor_module._worker_trace("original")
        again = executor_module._worker_trace("original")
        assert first is again
        assert len(compile_counter) == 1
