"""Tests shared by all application models."""

import pytest

from repro.analysis.structure import trace_issues
from repro.apps import (
    APPLICATIONS,
    Alya,
    NasBT,
    NasCG,
    Pop,
    SanchoLoop,
    Specfem,
    Sweep3D,
    create_application,
    paper_applications,
)
from repro.apps.registry import PAPER_IDEAL_SPEEDUP_PERCENT
from repro.errors import ConfigurationError
from repro.tracing import TracingVirtualMachine
from repro.tracing.records import RecvRecord, SendRecord

SMALL_MODELS = [
    NasBT(num_ranks=4, iterations=1, face_bytes=50_000, instructions_per_phase=5e5),
    NasCG(num_ranks=4, iterations=2, vector_bytes=20_000,
          instructions_per_iteration=5e5),
    Pop(num_ranks=4, iterations=1, halo_bytes=20_000, barotropic_steps=2),
    Alya(num_ranks=6, iterations=2, interface_bytes=30_000),
    Specfem(num_ranks=4, iterations=1, boundary_bytes=100_000),
    Sweep3D(num_ranks=4, iterations=1, octants=2, flux_bytes=20_000),
    SanchoLoop(num_ranks=4, iterations=2, message_bytes=50_000),
]


@pytest.mark.parametrize("app", SMALL_MODELS, ids=lambda app: app.name)
class TestEveryModel:
    def test_trace_is_consistent(self, app):
        trace = TracingVirtualMachine(validate=False).trace(app)
        assert trace_issues(trace) == []

    def test_trace_has_compute_and_communication(self, app):
        trace = TracingVirtualMachine().trace(app)
        assert trace.total_instructions() > 0
        assert trace.total_messages() > 0
        assert trace.metadata["name"] == app.name

    def test_every_rank_participates(self, app):
        trace = TracingVirtualMachine().trace(app)
        for rank_trace in trace:
            assert rank_trace.total_instructions() > 0
            sends = rank_trace.count(SendRecord)
            recvs = rank_trace.count(RecvRecord)
            assert sends + recvs > 0

    def test_sends_are_annotated_with_production(self, app):
        trace = TracingVirtualMachine().trace(app)
        annotated = [send for rank_trace in trace for send in rank_trace.sends()
                     if send.production]
        assert annotated, "no send carries a production annotation"

    def test_describe_lists_parameters(self, app):
        info = app.describe()
        assert info["name"] == app.name
        assert info["num_ranks"] == app.num_ranks


class TestRegistry:
    def test_all_paper_applications_registered(self):
        assert set(PAPER_IDEAL_SPEEDUP_PERCENT) <= set(APPLICATIONS)

    def test_create_application(self):
        app = create_application("nas-bt", num_ranks=4, iterations=1)
        assert isinstance(app, NasBT)
        assert app.num_ranks == 4

    def test_create_unknown_application(self):
        with pytest.raises(ConfigurationError):
            create_application("nonexistent")

    def test_paper_applications_cover_all_six(self):
        apps = paper_applications(num_ranks=16)
        assert {app.name for app in apps} == set(PAPER_IDEAL_SPEEDUP_PERCENT)

    def test_paper_applications_scale(self):
        small = paper_applications(scale=1.0)
        large = paper_applications(scale=2.0)
        for app_small, app_large in zip(small, large):
            assert app_large.iterations >= app_small.iterations

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_applications(scale=0.0)


class TestModelValidation:
    def test_too_few_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            SanchoLoop(num_ranks=1)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            SanchoLoop(num_ranks=4, iterations=0)

    def test_invalid_imbalance_rejected(self):
        with pytest.raises(ConfigurationError):
            SanchoLoop(num_ranks=4, imbalance=1.5)

    @pytest.mark.parametrize("factory,field", [
        (lambda: NasBT(face_bytes=0), "face_bytes"),
        (lambda: NasCG(vector_bytes=-1), "vector_bytes"),
        (lambda: Pop(halo_bytes=0), "halo_bytes"),
        (lambda: Alya(interface_bytes=0), "interface_bytes"),
        (lambda: Specfem(boundary_bytes=0), "boundary_bytes"),
        (lambda: Sweep3D(flux_bytes=0), "flux_bytes"),
        (lambda: Sweep3D(octants=20), "octants"),
        (lambda: SanchoLoop(message_bytes=0), "message_bytes"),
    ])
    def test_invalid_sizes_rejected(self, factory, field):
        with pytest.raises(ValueError):
            factory()


class TestImbalanceHelpers:
    def test_imbalance_is_deterministic(self):
        app = SanchoLoop(num_ranks=4, imbalance=0.2)
        assert app.imbalanced(1000, 2, 3) == app.imbalanced(1000, 2, 3)

    def test_imbalance_zero_is_identity(self):
        app = SanchoLoop(num_ranks=4, imbalance=0.0)
        assert app.imbalanced(1000, 1, 1) == 1000

    def test_imbalance_bounded(self):
        app = SanchoLoop(num_ranks=4, imbalance=0.2)
        for rank in range(4):
            for iteration in range(10):
                value = app.imbalanced(1000, rank, iteration)
                assert 800 <= value <= 1200

    def test_edge_message_size_symmetric(self):
        size_ab = SanchoLoop.edge_message_size(1000, 3, 7, variation=0.5)
        size_ba = SanchoLoop.edge_message_size(1000, 7, 3, variation=0.5)
        assert size_ab == size_ba
