"""Tests of the pluggable collective-model subsystem.

Covers the :class:`CollectiveSpec` string form, the per-algorithm phase
schedules (including non-power-of-two rank counts and single-rank
collectives), the decomposed backend's topology awareness and statistics
attribution, the coordinator's trace-consistency checks, and determinism
across worker counts.
"""

import math

import pytest

from repro.des import Environment
from repro.dimemas.collectives import (
    ALGORITHMS,
    CollectiveSpec,
    build_schedule,
    split_collective_list,
    supported_algorithms,
)
from repro.dimemas.config import config_to_platform, platform_to_config
from repro.dimemas.platform import Platform
from repro.dimemas.replay import CollectiveCoordinator
from repro.dimemas.simulator import simulate
from repro.errors import ConfigurationError, SimulationError
from repro.tracing.records import (
    COLLECTIVE_OPERATIONS,
    CollectiveRecord,
    CpuBurst,
)
from repro.tracing.trace import RankTrace, Trace


def _trace(rank_records, mips=1000.0, name="unit"):
    ranks = [RankTrace(rank=r, records=list(records))
             for r, records in enumerate(rank_records)]
    return Trace(ranks=ranks, mips=mips, metadata={"name": name})


# -- the spec ----------------------------------------------------------------

class TestCollectiveSpec:
    def test_default_is_analytical(self):
        assert Platform().collective_model == CollectiveSpec()
        assert CollectiveSpec().to_string() == "analytical"

    def test_parse_round_trip(self):
        text = "decomposed:allreduce=binomial,bcast=ring"
        spec = CollectiveSpec.parse(text)
        assert spec.kind == "decomposed"
        assert spec.algorithm_for("allreduce") == "binomial"
        assert spec.algorithm_for("bcast") == "ring"
        assert CollectiveSpec.parse(spec.to_string()) == spec

    def test_operations_without_override_use_defaults(self):
        spec = CollectiveSpec.parse("decomposed")
        assert spec.algorithm_for("alltoall") == "pairwise"
        assert spec.algorithm_for("allgather") == "ring"
        assert spec.algorithm_for("barrier") == "recursive-doubling"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown collective model"):
            CollectiveSpec.parse("magic")

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown collective operation"):
            CollectiveSpec.parse("decomposed:frobnicate=ring")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown collective algorithm"):
            CollectiveSpec.parse("decomposed:bcast=warp")

    def test_unsupported_combination_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot lower"):
            CollectiveSpec.parse("decomposed:alltoall=binomial")

    def test_overrides_require_decomposed_kind(self):
        with pytest.raises(ConfigurationError, match="only apply"):
            CollectiveSpec.parse("analytical:bcast=ring")

    def test_malformed_option_rejected(self):
        with pytest.raises(ConfigurationError, match="bad collective-model"):
            CollectiveSpec.parse("decomposed:bcast")

    def test_split_collective_list(self):
        assert split_collective_list(
            "analytical,decomposed:bcast=ring,allreduce=binomial,decomposed"
        ) == ["analytical", "decomposed:bcast=ring,allreduce=binomial",
              "decomposed"]

    def test_platform_config_round_trip(self):
        platform = Platform(collective_model="decomposed:bcast=ring")
        restored = config_to_platform(platform_to_config(platform))
        assert restored.collective_model == platform.collective_model

    def test_platform_rejects_bad_value(self):
        with pytest.raises(ConfigurationError):
            Platform(collective_model=42)


# -- the schedules -----------------------------------------------------------

def _check_phases(phases, num_ranks):
    """Structural sanity shared by every schedule: no self-sends, ranks in
    range, no rank both sending twice to the same peer within a phase."""
    for phase in phases:
        assert phase, "schedules must not contain empty phases"
        seen = set()
        for src, dst, size in phase:
            assert 0 <= src < num_ranks
            assert 0 <= dst < num_ranks
            assert src != dst
            assert size >= 0
            assert (src, dst) not in seen
            seen.add((src, dst))


class TestSchedules:
    @pytest.mark.parametrize("num_ranks", [2, 3, 5, 6, 8, 9])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_structure_for_any_rank_count(self, algorithm, num_ranks):
        for operation in ALGORITHMS[algorithm]:
            phases = build_schedule(operation, algorithm, 1000, num_ranks)
            _check_phases(phases, num_ranks)

    @pytest.mark.parametrize("operation", sorted(COLLECTIVE_OPERATIONS))
    def test_single_rank_schedules_are_empty(self, operation):
        for algorithm in supported_algorithms(operation):
            assert build_schedule(operation, algorithm, 1000, 1) == []

    def test_binomial_bcast_reaches_every_rank_once(self):
        for num_ranks in (4, 6, 7):
            phases = build_schedule("bcast", "binomial", 100, num_ranks, root=2)
            received = [dst for phase in phases for _, dst, _ in phase]
            assert sorted(received + [2]) == list(range(num_ranks))

    def test_binomial_reduce_mirrors_bcast(self):
        down = build_schedule("bcast", "binomial", 100, 8, root=1)
        up = build_schedule("reduce", "binomial", 100, 8, root=1)
        assert up == [[(dst, src, size) for src, dst, size in phase]
                      for phase in reversed(down)]

    def test_ring_allgather_has_p_minus_1_phases(self):
        phases = build_schedule("allgather", "ring", 100, 6)
        assert len(phases) == 5
        assert all(len(phase) == 6 for phase in phases)

    def test_ring_allreduce_moves_blocks(self):
        phases = build_schedule("allreduce", "ring", 1200, 6)
        assert len(phases) == 2 * 5
        assert phases[0][0][2] == math.ceil(1200 / 6)

    def test_dissemination_barrier_round_count(self):
        for num_ranks in (2, 5, 8, 9):
            phases = build_schedule("barrier", "recursive-doubling", 0, num_ranks)
            assert len(phases) == math.ceil(math.log2(num_ranks))
            assert all(size == 0 for phase in phases for _, _, size in phase)

    def test_recursive_doubling_skips_out_of_range_partners(self):
        phases = build_schedule("allreduce", "recursive-doubling", 100, 5)
        ranks = {r for phase in phases for pair in phase for r in pair[:2]}
        assert ranks <= set(range(5))

    def test_pairwise_alltoall_full_exchange(self):
        phases = build_schedule("alltoall", "pairwise", 100, 4)
        pairs = {(src, dst) for phase in phases for src, dst, _ in phase}
        assert pairs == {(i, j) for i in range(4) for j in range(4) if i != j}

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown collective operation"):
            build_schedule("allmagic", "ring", 100, 4)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown collective algorithm"):
            build_schedule("bcast", "warp", 100, 4)

    def test_unsupported_combination_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot lower"):
            build_schedule("alltoall", "ring", 100, 4)

    def test_bad_root_rejected(self):
        with pytest.raises(ConfigurationError, match="root"):
            build_schedule("bcast", "binomial", 100, 4, root=4)


# -- the coordinator's trace-consistency checks ------------------------------

class TestCoordinatorConsistency:
    def test_operation_mismatch_raises(self):
        trace = _trace([
            [CollectiveRecord(operation="barrier", comm_size=2)],
            [CollectiveRecord(operation="allreduce", comm_size=2)],
        ])
        with pytest.raises(SimulationError, match="entered 'allreduce'"):
            simulate(trace, Platform())

    def test_root_mismatch_raises(self):
        trace = _trace([
            [CollectiveRecord(operation="bcast", size=64, root=0)],
            [CollectiveRecord(operation="bcast", size=64, root=1)],
        ])
        with pytest.raises(SimulationError, match="root 1 while earlier"):
            simulate(trace, Platform())

    def test_size_mismatch_raises(self):
        trace = _trace([
            [CollectiveRecord(operation="allreduce", size=64)],
            [CollectiveRecord(operation="allreduce", size=128)],
        ])
        with pytest.raises(SimulationError, match="size 128 while earlier"):
            simulate(trace, Platform())

    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    @pytest.mark.parametrize("model", ["analytical", "decomposed"])
    def test_agreeing_ranks_pass_under_both_models(self, model, backend):
        trace = _trace([
            [CpuBurst(instructions=1.0e6),
             CollectiveRecord(operation="allreduce", size=4096)],
            [CollectiveRecord(operation="allreduce", size=4096)],
        ])
        result = simulate(trace, Platform(collective_model=model,
                                          replay_backend=backend))
        assert result.total_time > 0

    def test_decomposed_without_fabric_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError, match="NetworkFabric"):
            CollectiveCoordinator(
                env, Platform(collective_model="decomposed"), 4, network=None)


# -- the decomposed backend --------------------------------------------------

TOPOLOGIES = ["flat", "tree:radix=2,links=1", "torus"]


def _collective_trace(operation="allreduce", size=262_144, num_ranks=8,
                      repeats=3):
    records = []
    for _ in range(repeats):
        records.append(CpuBurst(instructions=1.0e6))
        records.append(CollectiveRecord(operation=operation, size=size,
                                        comm_size=num_ranks))
    return _trace([list(records) for _ in range(num_ranks)])


class TestDecomposedBackend:
    def test_collective_traffic_attributed(self):
        result = simulate(_collective_trace(),
                          Platform(collective_model="decomposed"))
        network = result.network
        assert network["collective_transfers"] > 0
        assert network["collective_bytes"] > 0
        assert 0.0 < network["collective_share"] <= 1.0
        assert network["transfers"] >= network["collective_transfers"]

    def test_collective_times_depend_on_topology(self):
        times = {}
        for topology in TOPOLOGIES:
            platform = Platform(bandwidth_mbps=100.0, topology=topology,
                                collective_model="decomposed")
            times[topology] = simulate(_collective_trace(), platform).total_time
        assert len(set(times.values())) == len(times), times

    @pytest.mark.parametrize("backend", ["event", "adaptive"])
    def test_analytical_times_are_topology_blind(self, backend):
        # The trace is pure compute + collectives: with no point-to-point
        # traffic the analytical model must cost every topology the same.
        times = {
            topology: simulate(
                _collective_trace(),
                Platform(bandwidth_mbps=100.0, topology=topology,
                         replay_backend=backend)).total_time
            for topology in TOPOLOGIES
        }
        assert len(set(times.values())) == 1, times

    @pytest.mark.parametrize("operation", sorted(COLLECTIVE_OPERATIONS))
    def test_every_operation_replays_decomposed(self, operation):
        result = simulate(_collective_trace(operation=operation, size=1024,
                                            num_ranks=5, repeats=1),
                          Platform(collective_model="decomposed"))
        assert result.total_time > 0
        assert all(r.collectives == 1 for r in result.ranks)

    def test_algorithm_override_changes_the_cost(self):
        trace = _collective_trace(operation="allreduce")
        base = Platform(bandwidth_mbps=100.0)
        doubling = simulate(
            trace, base.with_collective_model("decomposed")).total_time
        ring = simulate(
            trace, base.with_collective_model(
                "decomposed:allreduce=ring")).total_time
        assert doubling != ring

    def test_ranks_can_leave_a_bcast_at_different_times(self):
        # Binomial bcast on 5 ranks: only ranks 0 and 4 take part in the
        # last round, so ranks 1-3 leave the collective earlier.
        trace = _collective_trace(operation="bcast", size=500_000,
                                  num_ranks=5, repeats=1)
        result = simulate(trace, Platform(bandwidth_mbps=50.0,
                                          collective_model="decomposed"))
        finish_times = {r.finish_time for r in result.ranks}
        assert len(finish_times) > 1

    def test_single_rank_collective_is_free(self):
        trace = _trace([[CpuBurst(instructions=1.0e6),
                         CollectiveRecord(operation="allreduce", size=4096)]])
        for model in ("analytical", "decomposed"):
            result = simulate(trace, Platform(collective_model=model))
            assert result.rank(0).collective_time == 0.0
            assert result.network["collective_transfers"] == 0

    def test_decomposed_respects_intranode_mapping(self):
        platform = Platform(bandwidth_mbps=10.0, processors_per_node=8,
                            collective_model="decomposed")
        result = simulate(_collective_trace(), platform)
        # All ranks share one node: every collective phase transfer is
        # intranode and never consumes network links.
        assert result.network["intranode_share"] == 1.0

    def test_decomposed_survives_heavy_contention(self):
        platform = Platform(bandwidth_mbps=25.0, num_buses=1, input_links=1,
                            output_links=1, collective_model="decomposed")
        result = simulate(_collective_trace(), platform)
        assert result.total_time > 0

    def test_decomposed_is_deterministic(self):
        platform = Platform(collective_model="decomposed", topology="torus")
        first = simulate(_collective_trace(), platform)
        second = simulate(_collective_trace(), platform)
        assert first.total_time == second.total_time
        assert first.ranks == second.ranks
