"""E6 -- Section II-B: studying the overlapping mechanisms in isolation.

"Moreover, due to its flexibility, the tool can make traces for executions
that enforce only a subset of the overlapping mechanisms, so each of the
mechanisms can be studied separately."  This benchmark compares early sends
only, late receives only, and the full mechanism.
"""

import pytest

from benchmarks.conftest import print_banner, reference_platform
from repro.apps import NasBT, SanchoLoop, Sweep3D
from repro.core import OverlapStudyEnvironment
from repro.core.reporting import format_table
from repro.experiments import ExperimentSpec, run_experiment

MECHANISMS = ("early-send", "late-receive", "full")

WORKLOADS = {
    "nas-bt": lambda: NasBT(num_ranks=16, iterations=2),
    "sweep3d": lambda: Sweep3D(num_ranks=16, iterations=1, octants=4),
    "sancho-loop": lambda: SanchoLoop(num_ranks=8, iterations=4),
}


@pytest.mark.benchmark(group="e6-mechanisms")
def test_e6_mechanism_decomposition(benchmark):
    environment = OverlapStudyEnvironment(platform=reference_platform())

    def speedups(app):
        # With several mechanisms, each variant is labelled by its mechanism.
        spec = ExperimentSpec(apps=(app.name,), bandwidths=(250.0,),
                              patterns=("ideal",), mechanisms=MECHANISMS)
        point = run_experiment(spec, environment=environment,
                               apps=[app]).sweep().points[0]
        return {mechanism: point.speedup(mechanism) for mechanism in MECHANISMS}

    def run():
        return {name: speedups(factory()) for name, factory in WORKLOADS.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_banner("E6: overlapping mechanisms studied separately (ideal pattern, 250 MB/s)")
    rows = []
    for name, speedups in results.items():
        rows.append([name,
                     f"{(speedups['early-send'] - 1) * 100:.1f}%",
                     f"{(speedups['late-receive'] - 1) * 100:.1f}%",
                     f"{(speedups['full'] - 1) * 100:.1f}%"])
    print(format_table(["workload", "early sends only", "late receives only", "full"],
                       rows))

    for _name, speedups in results.items():
        # Each half on its own never beats the full mechanism (modulo noise),
        # and the full mechanism always helps.
        assert speedups["full"] >= speedups["early-send"] - 0.05
        assert speedups["full"] >= speedups["late-receive"] - 0.05
        assert speedups["full"] > 1.05
        # Each isolated mechanism must not slow the application down much.
        assert speedups["early-send"] > 0.95
        assert speedups["late-receive"] > 0.95
