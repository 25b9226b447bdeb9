"""Tests for the design-choice ablations, each run as an experiment spec.

A chunk size or a named chunking policy shapes the overlap transform, so
each is its own spec (or, for a policy object, its own environment); the
eager threshold and the CPU speed are platform axes of one spec.
"""

import pytest

from repro.apps import SanchoLoop
from repro.core import OverlapStudyEnvironment
from repro.core.chunking import FixedCountChunking, FixedSizeChunking
from repro.dimemas import Platform
from repro.experiments import ExperimentSpec, run_experiment

#: The chunking section of the platform-axis ablations.
AXIS_CHUNKING = {"policy": "fixed-size", "chunk_bytes": 16384, "max_chunks": 64}


@pytest.fixture(scope="module")
def app():
    return SanchoLoop(num_ranks=4, iterations=3, message_bytes=120_000,
                      instructions_per_iteration=1.5e6)


@pytest.fixture(scope="module")
def platform():
    return Platform(bandwidth_mbps=200.0)


def _cells(app, platform=None, environment=None, chunking=None, **axes):
    """The cells of one single-bandwidth, ideal-pattern spec over ``app``."""
    spec = ExperimentSpec(apps=(app.name,), patterns=("ideal",),
                          chunking=chunking, **axes)
    return run_experiment(spec, environment=environment, platform=platform,
                          apps=[app]).cells


def _speedup(cell):
    return cell.sweep.points[0].speedup("ideal")


def _chunk_size_speedups(app, platform, sizes):
    speedups = {}
    for size in sizes:
        cell, = _cells(app, platform, chunking={
            "policy": "fixed-size", "chunk_bytes": size, "max_chunks": 256})
        speedups[size] = _speedup(cell)
    return speedups


class TestChunkSizeAblation:
    def test_returns_speedup_per_size(self, app, platform):
        results = _chunk_size_speedups(app, platform, (8192, 65536))
        assert set(results) == {8192, 65536}
        assert all(speedup > 0.9 for speedup in results.values())

    def test_finer_chunks_do_not_hurt_much(self, app, platform):
        results = _chunk_size_speedups(app, platform, (8192, 262144))
        # A single huge chunk degenerates towards the original execution.
        assert results[8192] >= results[262144] - 0.05

    def test_huge_chunks_approach_original(self, app, platform):
        results = _chunk_size_speedups(app, platform, (1 << 20,))
        assert results[1 << 20] == pytest.approx(1.0, abs=0.1)


class TestChunkingPolicyAblation:
    def test_named_policies(self, app, platform):
        # A policy object cannot be serialised into a spec; an environment
        # carries it instead.
        policies = {
            "count-8": FixedCountChunking(count=8),
            "size-16k": FixedSizeChunking(chunk_bytes=16384),
        }
        results = {}
        for name, policy in policies.items():
            environment = OverlapStudyEnvironment(platform=platform,
                                                  chunking=policy)
            cell, = _cells(app, environment=environment)
            results[name] = _speedup(cell)
        assert set(results) == {"count-8", "size-16k"}
        assert all(speedup > 1.0 for speedup in results.values())


class TestEagerThresholdAblation:
    def test_generous_threshold_helps(self, app, platform):
        results = {cell.dims.eager_threshold: _speedup(cell)
                   for cell in _cells(app, platform, chunking=AXIS_CHUNKING,
                                      eager_thresholds=(0, 1 << 20))}
        # Forcing every chunk through a rendezvous removes most of the early-
        # send benefit; a generous eager threshold preserves it.
        assert results[1 << 20] >= results[0] - 1e-9
        assert results[1 << 20] > 1.1

    def test_platform_topology_is_preserved(self, app):
        """An ``eager_thresholds`` axis keeps every other base-platform field.

        Regression: the threshold ablation used to rebuild the Platform
        field by field, silently resetting tree/torus platforms to the flat
        bus.
        """
        flat, = _cells(app, Platform(bandwidth_mbps=50.0),
                       chunking=AXIS_CHUNKING, eager_thresholds=(16384,))
        tree, = _cells(app, Platform(bandwidth_mbps=50.0,
                                     topology="tree:radix=2,links=1"),
                       chunking=AXIS_CHUNKING, eager_thresholds=(16384,))
        assert tree.dims.topology.startswith("tree")
        assert _speedup(tree) != _speedup(flat)


class TestCpuSpeedAblation:
    def test_cpu_speed_moves_the_app_along_the_bandwidth_curve(self, app, platform):
        """Scaling the CPU mirrors scaling the network in the other direction.

        On a compute-bound configuration (slow CPUs) there is little to hide;
        the benefit peaks where communication and computation are balanced and
        shrinks again once the faster CPUs make the run network-bound.
        """
        results = {cell.dims.cpu_speed: _speedup(cell)
                   for cell in _cells(app, platform, chunking=AXIS_CHUNKING,
                                      cpu_speeds=(0.25, 1.0, 8.0))}
        assert results[1.0] > results[0.25]
        assert results[1.0] > results[8.0]
        assert all(speedup > 0.9 for speedup in results.values())
