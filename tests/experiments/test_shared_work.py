"""The per-trace layers do their work once: one symbolic replay per (trace,
eager threshold), shared by lint and classification; one content digest per
app, none per overlapped variant; and one message plan per trace, shared by
the trace-time checks, lint and every cell."""

from dataclasses import replace

import pytest

from repro.analysis import tracelint
from repro.core.overlap import OverlapTransformer
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.plan import ExperimentPlan
from repro.store import FileResultStore
from repro.tracing.machine import TracingVirtualMachine
from repro.tracing.trace import MessagePlan, Trace

#: One app x 3 variants (original, real, ideal) x 2 bandwidths on a proven
#: platform (no limited network resource), at one eager threshold.
SPEC = ExperimentSpec(
    apps=("sancho-loop",),
    app_options={"num_ranks": 4, "iterations": 2},
    bandwidths=(50.0, 500.0),
    platform={"input_links": 0, "output_links": 0},
    chunking={"policy": "fixed-count", "count": 4},
)


@pytest.fixture
def symbolic_runs(monkeypatch):
    """Count the symbolic replays that run to their fixpoint."""
    runs = []
    original = tracelint._symbolic_replay

    def counting(ops, plan, eager_threshold):
        runs.append(eager_threshold)
        return original(ops, plan, eager_threshold)

    monkeypatch.setattr(tracelint, "_symbolic_replay", counting)
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


def _run(tmp_path, precheck=True, jobs=1):
    with FileResultStore(tmp_path / "cache") as store:
        result = run_experiment(replace(SPEC, jobs=jobs), store=store,
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
            assert all(isinstance(verdict, tracelint.SymbolicVerdict)
                       for verdict in verdicts.values())


class TestNoVariantHashing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_store_backed_run_hashes_only_the_original(
            self, tmp_path, computed_digests, jobs):
        _run(tmp_path, jobs=jobs)
        assert len(computed_digests) == 1
        assert computed_digests[0].metadata.get("variant") is None


class TestOneMessagePlanPerTrace:
    """The trace-time checks, lint, the classifier and every walk read one
    plan per trace."""

    @pytest.fixture
    def plans_built(self, monkeypatch):
        built = []
        original = MessagePlan.compile.__func__

        def counting(cls, ops):
            built.append(ops)
            return original(cls, ops)

        monkeypatch.setattr(MessagePlan, "compile", classmethod(counting))
        return built

    @pytest.fixture
    def built_traces(self, monkeypatch):
        """Every trace a run traces or transforms."""
        built = []
        for owner, name in ((TracingVirtualMachine, "trace"),
                            (OverlapTransformer, "transform")):
            original = getattr(owner, name)

            def recording(self, *args, _original=original, **kwargs):
                trace = _original(self, *args, **kwargs)
                built.append(trace)
                return trace

            monkeypatch.setattr(owner, name, recording)
        return built

    def _spec(self, backend):
        return ExperimentSpec(
            apps=("sancho-loop",),
            app_options={"num_ranks": 4, "iterations": 2},
            bandwidths=(50.0, 200.0, 800.0),
            platform={"replay_backend": backend},
            chunking={"policy": "fixed-count", "count": 4},
            jobs=1)

    @pytest.mark.parametrize("precheck", [True, False],
                             ids=["precheck", "no-precheck"])
    @pytest.mark.parametrize("backend", ["adaptive", "event"])
    def test_a_run_compiles_one_plan_per_trace(self, plans_built,
                                               built_traces, backend,
                                               precheck):
        run_experiment(self._spec(backend), precheck=precheck)
        assert len(built_traces) == 3
        assert sorted(map(id, plans_built)) == sorted(
            id(trace.prepared().ops) for trace in built_traces)

    def test_a_three_bandwidth_run_shares_each_plan_across_cells(
            self, plans_built, monkeypatch):
        paced = []
        original = ReplayEngine._run_adaptive

        def counting(self, prepared):
            paced.append(prepared)
            return original(self, prepared)

        monkeypatch.setattr(ReplayEngine, "_run_adaptive", counting)
        run_experiment(self._spec("adaptive"))
        assert len(paced) == 9
        assert len(plans_built) == 3
