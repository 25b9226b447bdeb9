"""Structural tests for individual application models."""

import pytest

from repro.apps import Alya, NasBT, NasCG, Pop, SanchoLoop, Specfem, Sweep3D
from repro.tracing import TracingVirtualMachine
from repro.tracing.records import CollectiveRecord, RecvRecord, SendRecord


def _trace(app):
    return TracingVirtualMachine().trace(app)


class TestNasBT:
    def test_three_phases_per_iteration(self):
        app = NasBT(num_ranks=4, iterations=2)
        trace = _trace(app)
        # An interior rank of a 2x2 grid has 2 neighbours, one per dimension;
        # each phase exchanges with the neighbours of its dimension.
        sends = trace[0].count(SendRecord)
        assert sends > 0
        assert trace[0].count(CollectiveRecord) == 2  # one norm check per iteration

    def test_production_written_at_burst_tail(self):
        app = NasBT(num_ranks=4, iterations=1)
        trace = _trace(app)
        send = next(s for s in trace[0].sends() if s.production)
        burst = trace[0].records[send.production[-1].burst_index]
        assert send.production[-1].offset >= 0.9 * burst.instructions


class TestNasCG:
    @pytest.mark.parametrize("num_ranks", range(2, 41))
    def test_partners_are_symmetric(self, num_ranks):
        app = NasCG(num_ranks=num_ranks)
        for rank in range(num_ranks):
            for partner in app._partners(rank):
                assert rank in app._partners(partner)

    def test_dot_products_per_iteration(self):
        app = NasCG(num_ranks=4, iterations=3, dot_products_per_iteration=2)
        trace = _trace(app)
        assert trace[0].count(CollectiveRecord) == 6


class TestPop:
    def test_barotropic_steps_add_allreduces(self):
        few = _trace(Pop(num_ranks=4, iterations=1, barotropic_steps=1))
        many = _trace(Pop(num_ranks=4, iterations=1, barotropic_steps=3))
        assert many[0].count(CollectiveRecord) == few[0].count(CollectiveRecord) + 2

    def test_solver_messages_smaller_than_baroclinic(self):
        app = Pop(num_ranks=4, iterations=1)
        sizes = {send.size for send in _trace(app)[0].sends()}
        assert app.halo_bytes in sizes
        assert app.barotropic_halo_bytes in sizes


class TestAlya:
    def test_neighbourhood_is_symmetric(self):
        app = Alya(num_ranks=12)
        for rank in range(12):
            for peer in app.neighbors_of(rank):
                assert rank in app.neighbors_of(peer)

    def test_edge_sizes_consistent_across_ranks(self):
        app = Alya(num_ranks=8, size_variation=0.4)
        trace = _trace(app)
        report_sizes = {}
        for rank_trace in trace:
            for send in rank_trace.sends():
                report_sizes[(rank_trace.rank, send.dst)] = send.size
        for (src, dst), size in report_sizes.items():
            assert report_sizes[(dst, src)] == size


class TestSpecfem:
    def test_no_collectives_by_default(self):
        trace = _trace(Specfem(num_ranks=4, iterations=2))
        assert trace[0].count(CollectiveRecord) == 0

    def test_seismogram_gather_optional(self):
        trace = _trace(Specfem(num_ranks=4, iterations=2, seismogram_interval=1))
        assert trace[0].count(CollectiveRecord) == 2


class TestSweep3D:
    def test_corner_rank_starts_without_receives_in_first_octant(self):
        app = Sweep3D(num_ranks=4, iterations=1, octants=1)
        trace = _trace(app)
        corner = app.topology.rank([0, 0])
        records = trace[corner].records
        first_comm = next(r for r in records
                          if isinstance(r, (SendRecord, RecvRecord)))
        assert isinstance(first_comm, SendRecord)

    def test_wavefront_uses_blocking_point_to_point(self):
        trace = _trace(Sweep3D(num_ranks=4, iterations=1, octants=2))
        for rank_trace in trace:
            for record in rank_trace.sends() + rank_trace.recvs():
                assert record.blocking

    def test_octant_count_controls_messages(self):
        one = _trace(Sweep3D(num_ranks=4, iterations=1, octants=1))
        four = _trace(Sweep3D(num_ranks=4, iterations=1, octants=4))
        assert four.total_messages() == 4 * one.total_messages()


class TestSanchoLoop:
    def test_analytical_helpers(self):
        app = SanchoLoop(num_ranks=4, message_bytes=100_000,
                         instructions_per_iteration=2.0e6, neighbors_per_rank=2)
        assert app.compute_time() == pytest.approx(0.002)
        comm = app.communication_time(bandwidth_mbps=100.0, latency=0.0)
        assert comm == pytest.approx(2 * 100_000 / 1.0e8)

    def test_single_neighbor_variant(self):
        trace = _trace(SanchoLoop(num_ranks=4, iterations=1, neighbors_per_rank=1))
        assert trace[0].count(SendRecord) == 1
