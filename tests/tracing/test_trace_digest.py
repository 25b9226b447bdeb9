"""Trace content digests: stability and content-addressing; preparation
stays per trace object."""

import pickle

import pytest

from repro.apps import SanchoLoop
from repro.apps.registry import create_application
from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.tracing.trace import Trace


@pytest.fixture
def environment():
    return OverlapStudyEnvironment(chunking=FixedCountChunking(count=4))


def small_loop_trace(environment, **overrides):
    options = dict(num_ranks=4, iterations=2, message_bytes=80_000,
                   instructions_per_iteration=1.0e6)
    options.update(overrides)
    return environment.trace(SanchoLoop(**options))


class TestDigest:
    def test_digest_is_stable_across_calls(self, environment):
        trace = small_loop_trace(environment)
        assert trace.digest() == trace.digest()

    def test_equal_content_hashes_equally(self, environment):
        first = small_loop_trace(environment)
        second = small_loop_trace(environment)
        assert first is not second
        assert first.digest() == second.digest()

    def test_serialisation_roundtrip_preserves_the_digest(self, environment):
        trace = small_loop_trace(environment)
        clone = Trace.from_dict(trace.to_dict())
        assert clone.digest() == trace.digest()

    def test_metadata_does_not_participate(self, environment):
        trace = small_loop_trace(environment)
        relabelled = Trace.from_dict(trace.to_dict())
        relabelled.metadata["app"] = "something-else"
        assert relabelled.digest() == trace.digest()

    def test_mips_participates(self, environment):
        trace = small_loop_trace(environment)
        slowed = Trace.from_dict(trace.to_dict())
        slowed.mips = trace.mips * 2
        assert slowed.digest() != trace.digest()

    def test_record_content_participates(self, environment):
        base = small_loop_trace(environment)
        bigger = small_loop_trace(environment, message_bytes=160_000)
        longer = small_loop_trace(environment, iterations=3)
        assert bigger.digest() != base.digest()
        assert longer.digest() != base.digest()

    def test_workload_seed_participates(self, environment):
        def seeded(seed):
            app = create_application("random-exchange", num_ranks=4,
                                     iterations=2, seed=seed)
            return environment.trace(app).digest()

        assert seeded(1) == seeded(1)
        assert seeded(1) != seeded(2)

    def test_overlap_transformation_changes_the_digest(self, environment):
        trace = small_loop_trace(environment)
        overlapped = environment.overlap(trace)
        assert overlapped.digest() != trace.digest()


class TestPreparationSharing:
    def test_without_a_digest_preparation_is_per_object(self, environment):
        first = small_loop_trace(environment)
        second = small_loop_trace(environment)
        assert first.prepared() is not second.prepared()

    def test_a_pickled_trace_leaves_its_memos_behind(self, environment):
        trace = small_loop_trace(environment)
        digest = trace.digest()
        clone = pickle.loads(pickle.dumps(trace))
        assert not [name for name in vars(clone) if name.startswith("_")]
        assert clone.digest() == digest
        assert clone.prepared() is not trace.prepared()
