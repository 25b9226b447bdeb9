"""Regression tests: sweeps must reject variant-label collisions.

Previously a duplicate pattern (or a label colliding with ``original``)
silently overwrote an earlier variant's trace in the sweep dictionary; the
sweep then reported numbers for the wrong trace without any error.
"""

import pytest

from repro.core import ComputationPattern
from repro.core.study import batch_study
from repro.errors import AnalysisError
from repro.experiments import ExperimentSpec, run_experiment


class _FakePattern:
    """A pattern-like object whose label collides with the original variant."""

    value = "original"


class TestBatchStudyValidation:
    def test_duplicate_patterns_raise(self, small_bt, environment):
        with pytest.raises(AnalysisError, match="duplicate"):
            batch_study(
                [small_bt],
                patterns=(ComputationPattern.IDEAL, ComputationPattern.IDEAL),
                environment=environment)

    def test_original_label_collision_raises(self, small_bt, environment):
        with pytest.raises(AnalysisError, match="original"):
            batch_study([small_bt], patterns=(_FakePattern(),),
                        environment=environment)


class TestStudyValidation:
    def test_environment_study_rejects_duplicate_patterns(self, small_bt, environment):
        with pytest.raises(AnalysisError, match="duplicate"):
            environment.study(small_bt,
                              patterns=(ComputationPattern.IDEAL,
                                        ComputationPattern.IDEAL))


class TestMechanismLabels:
    def test_lone_mechanism_is_labelled_by_its_pattern(self, small_bt, environment):
        """A lone mechanism's variant carries the pattern label.

        It is the same replay as that mechanism's variant in a spec that
        sweeps several mechanisms, where variants carry mechanism labels.
        """
        def point(mechanisms):
            spec = ExperimentSpec(apps=(small_bt.name,), bandwidths=(100.0,),
                                  patterns=("ideal",), mechanisms=mechanisms)
            result = run_experiment(spec, environment=environment,
                                    apps=[small_bt])
            return result.sweep().points[0]

        lone = point(("full",))
        several = point(("early-send", "full"))
        assert set(lone.times) == {"original", "ideal"}
        assert lone.speedup("ideal") == several.speedup("full")
