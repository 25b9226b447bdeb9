"""Ablation benchmarks for the design choices of the overlap mechanism.

The paper's tool fixes one chunking granularity and one MPI protocol; this
harness quantifies how sensitive the headline result (ideal-pattern speedup
at the reference bandwidth) is to those choices, using NAS-BT as the
representative stencil code.
"""

import pytest

from benchmarks.conftest import print_banner, reference_platform
from repro.apps import NasBT
from repro.core.reporting import format_table
from repro.experiments import ExperimentSpec, run_experiment


@pytest.mark.benchmark(group="ablation")
def test_ablation_chunk_size_eager_threshold_cpu_speed(benchmark):
    app = NasBT(num_ranks=16, iterations=2)
    platform = reference_platform()

    def cells(chunking, **axes):
        """The cells of one single-bandwidth, ideal-pattern spec."""
        spec = ExperimentSpec(apps=(app.name,), patterns=("ideal",),
                              chunking=chunking, **axes)
        return run_experiment(spec, platform=platform, apps=[app]).cells

    def speedup(cell):
        return cell.sweep.points[0].speedup("ideal")

    def run():
        # The chunk size shapes the overlap transform, so each size is its
        # own spec; each platform axis is one spec over one traced run.
        chunk_size = {}
        for size in (4096, 16384, 65536, 262144):
            cell, = cells({"policy": "fixed-size", "chunk_bytes": size,
                           "max_chunks": 256})
            chunk_size[size] = speedup(cell)
        chunking = {"policy": "fixed-size", "chunk_bytes": 16384,
                    "max_chunks": 64}
        return {
            "chunk_size": chunk_size,
            "eager_threshold": {
                cell.dims.eager_threshold: speedup(cell)
                for cell in cells(chunking,
                                  eager_thresholds=(0, 16384, 65536, 1 << 20))},
            "cpu_speed": {
                cell.dims.cpu_speed: speedup(cell)
                for cell in cells(chunking, cpu_speeds=(0.5, 1.0, 2.0, 4.0))},
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_banner("Ablation: sensitivity of the NAS-BT ideal-pattern speedup")
    for study_name, table in results.items():
        rows = [[key, f"{value:.3f}x"] for key, value in table.items()]
        print()
        print(format_table([study_name, "speedup"], rows))

    chunk = results["chunk_size"]
    # Chunks around the eager threshold work well; one huge chunk degenerates
    # towards the original execution.
    assert chunk[16384] > chunk[262144] - 0.02
    assert chunk[16384] > 1.15

    eager = results["eager_threshold"]
    # An all-rendezvous MPI removes most of the early-send benefit.
    assert eager[1 << 20] >= eager[0]
    assert eager[65536] > 1.15

    cpu = results["cpu_speed"]
    # Faster CPUs make the same network relatively slower: the overlap benefit
    # grows from the compute-bound end, peaks where communication and
    # computation balance, and every configuration stays close to or above
    # the original execution.
    speeds = sorted(cpu)
    values = [cpu[speed] for speed in speeds]
    assert values[0] == min(values)
    assert max(values) > values[0] + 0.1
    assert all(value > 0.95 for value in values)
