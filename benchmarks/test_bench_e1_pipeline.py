"""E1 -- paper Figure 1: the end-to-end simulation environment.

Regenerates the pipeline of Figure 1 for one application: the tracing tool
produces the original and the potential (overlapped) traces from one run,
Dimemas reconstructs both time behaviours on the configurable platform, and
the Paraver-like comparison shows them side by side, quantitatively and
qualitatively.
"""

import pytest

from benchmarks.conftest import print_banner, reference_platform
from repro.analysis.structure import trace_issues
from repro.apps import NasBT
from repro.core import OverlapStudyEnvironment
from repro.paraver.prv import to_prv


@pytest.mark.benchmark(group="e1-pipeline")
def test_e1_full_environment_pipeline(benchmark):
    environment = OverlapStudyEnvironment(platform=reference_platform())
    app = NasBT(num_ranks=16, iterations=2)

    def pipeline():
        return environment.study(app)

    study = benchmark.pedantic(pipeline, rounds=1, iterations=1)

    print_banner("E1 (Figure 1): tracing -> overlap transformation -> Dimemas -> Paraver")
    original_trace = study.original_trace
    overlapped_trace = study.overlapped_traces["ideal"]
    print(f"tracing tool: {original_trace.describe()['records']} original records, "
          f"{overlapped_trace.describe()['records']} overlapped records "
          f"({original_trace.total_messages()} -> {overlapped_trace.total_messages()} messages)")
    print(study.summary())
    print()
    print(study.gantt("ideal", width=68))

    # The pipeline must produce valid traces, a Paraver-exportable timeline
    # and a measurable improvement for the ideal pattern.
    assert trace_issues(overlapped_trace) == []
    assert to_prv(study.original_result.timeline).startswith("#Paraver")
    assert study.speedup("ideal") > 1.1
    assert study.original_result.total_time > 0
