"""Golden regression: analytical collectives are bit-identical to pre-refactor.

The collective subsystem turned ``collective_duration`` plus an inline
coordinator into a pluggable model package; the default ``analytical``
backend must reproduce the pre-refactor simulator *bit for bit* -- same
float arithmetic, same event ordering, same statistics.
``_LegacyCollectiveCoordinator`` below is a verbatim replica of the
coordinator (and the closed-form duration function) exactly as they stood
before the refactor; every scenario replays a full trace through both
implementations across applications x topologies x overlap mechanisms and
compares the complete simulation results with exact ``==``, never
``approx``.
"""

import math

import pytest

import repro.dimemas.replay as replay_module
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine


def _legacy_collective_duration(operation, size, num_ranks, platform):
    """The closed-form cost model exactly as it stood before the refactor."""
    if num_ranks == 1:
        return 0.0
    stages = math.ceil(math.log2(num_ranks))
    message = platform.transfer_time(size)
    if operation == "barrier":
        return stages * platform.latency
    if operation in ("bcast", "reduce", "scatter", "gather"):
        return stages * message
    if operation == "allreduce":
        return 2.0 * stages * message
    if operation == "allgather":
        return (num_ranks - 1) * message
    if operation == "alltoall":
        return (num_ranks - 1) * message
    raise AssertionError(f"no cost model for collective {operation!r}")


class _LegacyCollectiveInstance:
    """Replica of the pre-refactor instance (plus the ``completions``
    attribute the new replay loop reads; the legacy duration contract is
    exactly ``completions is None``)."""

    def __init__(self, env, index):
        self.index = index
        self.operation = None
        self.count = 0
        self.max_size = 0
        self.all_arrived = env.event(name=f"collective[{index}]")
        self.finish_time = 0.0
        self.completions = None


class _LegacyCollectiveCoordinator:
    """Replica of the coordinator exactly as it was before the refactor."""

    def __init__(self, env, platform, num_ranks, network=None):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self._instances = {}

    def enter(self, rank, record, index, position=None):
        instance = self._instances.get(index)
        if instance is None:
            instance = _LegacyCollectiveInstance(self.env, index)
            self._instances[index] = instance
        if instance.operation is None:
            instance.operation = record.operation
        instance.count += 1
        instance.max_size = max(instance.max_size, record.size)
        if instance.count == self.num_ranks:
            duration = _legacy_collective_duration(
                instance.operation, instance.max_size, self.num_ranks,
                self.platform)
            instance.finish_time = self.env.now + duration
            instance.all_arrived.succeed(self.env.now)
        return instance


def _trace(app_name, ranks=8, iterations=2, overlap=None):
    from repro.apps.registry import create_application
    from repro.core.environment import OverlapStudyEnvironment
    from repro.core.mechanisms import OverlapMechanism
    from repro.core.patterns import ComputationPattern

    environment = OverlapStudyEnvironment()
    trace = environment.trace(
        create_application(app_name, num_ranks=ranks, iterations=iterations))
    if overlap is not None:
        pattern, mechanism = overlap
        trace = environment.overlap(
            trace, pattern=ComputationPattern(pattern),
            mechanism=OverlapMechanism.from_label(mechanism))
    return trace


APPS = ["nas-cg", "pop"]
TOPOLOGIES = ["flat", "tree:radix=2,links=1", "torus"]
MECHANISMS = [None, ("ideal", "full"), ("real", "late-receive")]


def _ids(value):
    if value is None:
        return "original"
    if isinstance(value, tuple):
        return "+".join(value)
    return str(value)


class TestAnalyticalGolden:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.split(":")[0])
    @pytest.mark.parametrize("overlap", MECHANISMS, ids=_ids)
    def test_bit_identical_to_legacy_coordinator(self, app, topology, overlap,
                                                 monkeypatch):
        # The coordinator is an event-walk component: pin the event walk,
        # which is the only walk that enters it.
        platform = Platform(bandwidth_mbps=100.0, topology=topology,
                            processors_per_node=2, replay_backend="event")
        trace = _trace(app, overlap=overlap)

        new_time, new_stats, _, new_network = ReplayEngine(
            trace, platform).run()
        monkeypatch.setattr(replay_module, "CollectiveCoordinator",
                            _LegacyCollectiveCoordinator)
        old_time, old_stats, _, old_network = ReplayEngine(
            trace, platform).run()

        assert new_time == old_time
        assert new_stats == old_stats  # dataclass equality, every field exact
        for key in ("transfers", "bytes_transferred", "mean_queue_time",
                    "mean_transfer_time", "intranode_transfers",
                    "intranode_share", "messages_matched"):
            assert new_network[key] == old_network[key], key

    def test_analytical_collectives_never_touch_the_fabric(self):
        platform = Platform(bandwidth_mbps=100.0)
        _, _, _, network = ReplayEngine(_trace("nas-cg"), platform).run()
        assert network["collective_transfers"] == 0
        assert network["collective_bytes"] == 0
        assert network["collective_share"] == 0.0
