"""Tests for the workload generator."""

import pytest

from repro.analysis.structure import trace_issues
from repro.errors import ConfigurationError
from repro.tracing import TracingVirtualMachine
from repro.workloads import RandomExchangeWorkload, WorkloadSpec, generate_workload


class TestWorkloadSpec:
    def test_defaults_valid(self):
        spec = WorkloadSpec()
        assert spec.num_ranks == 4

    @pytest.mark.parametrize("kwargs", [
        {"num_ranks": 1},
        {"iterations": 0},
        {"max_message_bytes": 0},
        {"collective_probability": 1.5},
        {"neighbor_count": 0},
        {"neighbor_count": 4, "num_ranks": 4},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)


class TestRandomExchangeWorkload:
    def test_trace_is_valid(self):
        app = generate_workload(seed=7, num_ranks=5, iterations=4)
        trace = TracingVirtualMachine(validate=False).trace(app)
        assert trace_issues(trace) == []

    def test_same_seed_same_trace(self):
        first = TracingVirtualMachine().trace(generate_workload(seed=3))
        second = TracingVirtualMachine().trace(generate_workload(seed=3))
        assert first.total_instructions() == second.total_instructions()
        assert first.total_bytes() == second.total_bytes()

    def test_different_seed_different_trace(self):
        first = TracingVirtualMachine().trace(generate_workload(seed=1, iterations=5))
        second = TracingVirtualMachine().trace(generate_workload(seed=2, iterations=5))
        assert (first.total_bytes() != second.total_bytes()
                or first.total_instructions() != second.total_instructions())

    def test_describe_includes_seed(self):
        app = generate_workload(seed=11)
        assert app.describe()["seed"] == 11
        assert isinstance(app, RandomExchangeWorkload)

    def test_collectives_follow_probability(self):
        never = generate_workload(seed=5, iterations=6, collective_probability=0.0)
        always = generate_workload(seed=5, iterations=6, collective_probability=1.0)
        trace_never = TracingVirtualMachine().trace(never)
        trace_always = TracingVirtualMachine().trace(always)
        assert len(trace_never[0].collectives()) == 0
        assert len(trace_always[0].collectives()) == 6


class TestRegistryIntegration:
    """The generator registers like a built-in app (experiment specs can
    name generated workloads)."""

    def test_random_exchange_is_registered(self):
        from repro.apps.registry import APPLICATIONS, create_application

        assert RandomExchangeWorkload.name in APPLICATIONS
        app = create_application("random-exchange", seed=9, num_ranks=4,
                                 iterations=2)
        assert isinstance(app, RandomExchangeWorkload)
        assert app.spec.seed == 9 and app.num_ranks == 4

    def test_registry_matches_direct_factory(self):
        from repro.apps.registry import create_application

        registered = create_application("random-exchange", seed=4,
                                        num_ranks=4, iterations=3)
        direct = generate_workload(seed=4, num_ranks=4, iterations=3)
        first = TracingVirtualMachine().trace(registered)
        second = TracingVirtualMachine().trace(direct)
        assert first.total_bytes() == second.total_bytes()
        assert first.total_instructions() == second.total_instructions()

    def test_bad_option_is_a_configuration_error(self):
        import pytest as _pytest

        from repro.apps.registry import create_application
        from repro.errors import ConfigurationError

        with _pytest.raises(ConfigurationError, match="does not accept"):
            create_application("random-exchange", warp_factor=9)
