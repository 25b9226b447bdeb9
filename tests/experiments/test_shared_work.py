"""The per-trace layers do their work once: one symbolic replay per (trace,
eager threshold), shared by lint and classification; one content digest per
app, none per overlapped variant; and store writes that create a missing
shard directory on demand."""

import shutil

import pytest

from repro.analysis import tracelint
from repro.dimemas import windows
from repro.dimemas.platform import Platform
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.plan import ExperimentPlan
from repro.store import CellKey, FileResultStore
from repro.store.serde import CACHED_RESULT_FIELDS
from repro.tracing.trace import Trace

#: One app x 3 variants (original, real, ideal) x 2 bandwidths on a proven
#: platform (no limited network resource), at one eager threshold.
SPEC = ExperimentSpec(
    apps=("sancho-loop",),
    app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(50.0, 500.0),
    platform={"input_links": 0, "output_links": 0},
    chunking={"policy": "fixed-count", "count": 4},
)


@pytest.fixture(autouse=True)
def fresh_facts_memo(monkeypatch):
    """Classify from scratch: the process-wide facts memo is keyed by content,
    so an earlier run of the same spec would otherwise serve the original."""
    monkeypatch.setattr(windows, "_FACTS_MEMO", {})


@pytest.fixture
def symbolic_runs(monkeypatch):
    """Count the symbolic replays that run to their fixpoint."""
    runs = []
    original = tracelint._SymbolicReplay.run

    def counting(self):
        runs.append(self.eager_threshold)
        return original(self)

    monkeypatch.setattr(tracelint._SymbolicReplay, "run", counting)
    return runs


@pytest.fixture
def computed_digests(monkeypatch):
    """Collect the traces whose content is hashed (cached digests are free)."""
    hashed = []
    original = Trace.digest

    def counting(self):
        if getattr(self, "_digest", None) is None:
            hashed.append(self)
        return original(self)

    monkeypatch.setattr(Trace, "digest", counting)
    return hashed


@pytest.fixture
def replayed_traces(monkeypatch):
    """Every trace table a run hands to the executor."""
    tables = []
    original = ExperimentPlan.traces_for

    def recording(self, tasks):
        table = original(self, tasks)
        tables.append(table)
        return table

    monkeypatch.setattr(ExperimentPlan, "traces_for", recording)
    return tables


def _run(tmp_path, precheck=True):
    result = run_experiment(SPEC, store=FileResultStore(tmp_path / "cache"),
                            precheck=precheck)
    assert result.cache_stats()["misses"] == 6
    return result


class TestOneSymbolicReplayPerTraceAndThreshold:
    def test_lint_and_classification_share_the_replay(self, tmp_path,
                                                      symbolic_runs):
        _run(tmp_path)
        assert symbolic_runs == [Platform().eager_threshold] * 3

    def test_classification_replays_once_without_the_precheck(
            self, tmp_path, symbolic_runs):
        _run(tmp_path, precheck=False)
        assert len(symbolic_runs) == 3

    def test_traces_keep_the_verdict_not_the_replay(self, tmp_path,
                                                    replayed_traces):
        _run(tmp_path)
        (table,) = replayed_traces
        assert len(table) == 3
        for trace in table.values():
            verdicts = trace._symbolic_verdicts
            assert list(verdicts) == [Platform().eager_threshold]
            for memoized in _memoized_values(vars(trace)):
                assert not isinstance(memoized, tracelint._SymbolicReplay)


def _memoized_values(mapping):
    for value in mapping.values():
        yield value
        if isinstance(value, dict):
            yield from _memoized_values(value)


class TestNoVariantHashing:
    def test_a_serial_store_backed_run_hashes_only_the_original(
            self, tmp_path, computed_digests):
        _run(tmp_path)
        assert len(computed_digests) == 1
        assert computed_digests[0].metadata.get("variant") is None


class TestShardDirectories:
    @pytest.mark.parametrize("removed", ["shard", "format root"])
    def test_put_recreates_a_removed_directory(self, tmp_path, removed):
        store = FileResultStore(tmp_path)
        key = CellKey.compute("c" * 64, Platform(), "original")
        payload = dict.fromkeys(CACHED_RESULT_FIELDS, 0.0)
        store.put(key, payload)
        shard = next(store.root.rglob("*.json")).parent
        shutil.rmtree(shard if removed == "shard" else shard.parent)
        payload["total_time"] = 2.0
        store.put(key, payload)
        assert store.get(key) == payload
        assert [path.name for path in store.root.rglob("*.tmp")] == []
