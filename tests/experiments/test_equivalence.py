"""Golden-equivalence tests: the declarative API vs the pre-redesign drivers.

The acceptance contract of the experiment-API redesign: an
:class:`ExperimentSpec` loaded from a TOML file must reproduce the exact
per-point results of the legacy bandwidth and topology sweep drivers --
bit-identical, ``jobs > 1`` included.

The drivers themselves are gone, so the tests compare against *embedded
replicas of the pre-redesign driver code* (straight-line use of the
``SweepExecutor``, copied from the legacy ``repro.core.sweeps``): a
regression in the runner's grid ordering or variant labelling cannot hide
behind shared code.
"""

import pytest

from repro.apps.synthetic import SanchoLoop
from repro.core import OverlapStudyEnvironment
from repro.core.analysis import ORIGINAL
from repro.core.chunking import FixedCountChunking
from repro.core.executor import SweepExecutor
from repro.core.patterns import ComputationPattern
from repro.experiments import ExperimentSpec, run_experiment

BANDWIDTHS = [20.0, 200.0, 2000.0]
# Canonical string forms (TopologySpec.to_string omits defaulted options),
# so the legacy replica and the spec key sweeps identically.
TOPOLOGIES = ["flat", "tree:radix=2", "torus:torus_width=2"]

SPEC_TOML = """
[experiment]
apps = ["sancho-loop"]
bandwidths = [20.0, 200.0, 2000.0]
patterns = ["real", "ideal"]
mechanisms = ["full"]
jobs = 1

[app]
num_ranks = 4
iterations = 2

[chunking]
policy = "fixed-count"
count = 4
"""

TOPOLOGY_SPEC_TOML = SPEC_TOML + """
[platform]
name = "default"
"""


def _environment():
    return OverlapStudyEnvironment(chunking=FixedCountChunking(count=4))


def _app():
    return SanchoLoop(num_ranks=4, iterations=2)


def _point_fingerprint(points):
    """Everything a sweep point computed, for exact comparison."""
    return [(p.bandwidth_mbps, p.times, p.original_communication_fraction,
             p.original_compute_time, p.network) for p in points]


def _legacy_variants(environment, app):
    """Variant table exactly as the pre-redesign drivers built it."""
    original = environment.trace(app)
    variants = {ORIGINAL: original}
    for pattern in (ComputationPattern.REAL, ComputationPattern.IDEAL):
        variants[pattern.value] = environment.overlap(original, pattern=pattern)
    return variants


def _legacy_bandwidth_points(jobs=1):
    """Replica of the pre-redesign ``run_bandwidth_sweep`` replay section."""
    environment = _environment()
    variants = _legacy_variants(environment, _app())
    executor = SweepExecutor(jobs=jobs)
    points, _ = executor.run_sweep(variants, environment.platform, BANDWIDTHS,
                                   app_name="sancho-loop")
    return points


def _legacy_topology_points(jobs=1):
    """Replica of the pre-redesign ``run_topology_sweep`` replay section."""
    environment = _environment()
    variants = _legacy_variants(environment, _app())
    base = environment.platform
    platforms = []
    for topology in TOPOLOGIES:
        on_topology = base.with_topology(topology)
        platforms.extend(on_topology.with_bandwidth(b) for b in BANDWIDTHS)
    executor = SweepExecutor(jobs=jobs)
    tasks = executor.expand(variants, platforms, app_name="sancho-loop")
    results = executor.execute(tasks, variants)
    per_topology = {}
    for index, topology in enumerate(TOPOLOGIES):
        first = index * len(BANDWIDTHS)
        subset = [r for r in results
                  if first <= r.point < first + len(BANDWIDTHS)]
        per_topology[topology] = executor.merge(subset)
    return per_topology


class TestBandwidthSweepEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spec_from_toml_matches_legacy_replica(self, jobs):
        spec = ExperimentSpec.from_toml(SPEC_TOML).with_jobs(jobs)
        result = run_experiment(spec)
        assert _point_fingerprint(result.sweep().points) == \
            _point_fingerprint(_legacy_bandwidth_points(jobs=jobs))

    def test_parallel_spec_matches_serial_spec(self):
        spec = ExperimentSpec.from_toml(SPEC_TOML)
        serial = run_experiment(spec)
        parallel = run_experiment(spec.with_jobs(2))
        assert _point_fingerprint(serial.sweep().points) == \
            _point_fingerprint(parallel.sweep().points)


class TestTopologySweepEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spec_from_toml_matches_legacy_replica(self, jobs, tmp_path):
        spec = ExperimentSpec.from_toml(TOPOLOGY_SPEC_TOML)
        spec = spec.with_jobs(jobs)
        # Widen with the topology axis exactly as `sweep --topologies` does.
        path = tmp_path / "experiment.toml"
        from dataclasses import replace
        spec = replace(spec, topologies=tuple(TOPOLOGIES))
        spec.to_file(path)
        result = run_experiment(ExperimentSpec.from_file(path))
        legacy = _legacy_topology_points(jobs=jobs)
        sweeps = result.by_topology()
        assert list(sweeps) == TOPOLOGIES
        for topology in TOPOLOGIES:
            assert _point_fingerprint(sweeps[topology].points) == \
                _point_fingerprint(legacy[topology]), topology


class TestStudyEquivalence:
    def test_full_results_studies_match_environment_study(self):
        environment = _environment()
        app = _app()
        reference = environment.study(app)
        spec = ExperimentSpec(apps=(app.name,),
                              app_options={"num_ranks": 4, "iterations": 2},
                              chunking={"policy": "fixed-count", "count": 4})
        result = run_experiment(spec, full_results=True)
        study = result.studies()[app.name]
        assert study.original_result.total_time == \
            reference.original_result.total_time
        for pattern in reference.patterns():
            assert study.result(pattern).total_time == \
                reference.result(pattern).total_time
        assert study.summary()
