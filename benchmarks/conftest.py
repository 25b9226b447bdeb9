"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(each ``test_bench_e*`` module names the claim it checks in its docstring).
Expensive intermediate data (the per-application bandwidth sweeps) is
computed once per session and shared between the benchmarks that need it.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.apps.registry import PAPER_IDEAL_SPEEDUP_PERCENT, paper_applications
from repro.core import OverlapStudyEnvironment
from repro.core.analysis import BandwidthSweep, geometric_bandwidths
from repro.dimemas import Platform
from repro.experiments import ExperimentSpec, run_experiment

#: The reference platform of the study: a realistic 2010-era interconnect.
REFERENCE_BANDWIDTH_MBPS = 250.0

#: Log-spaced bandwidths used by the sweep benchmarks (MB/s).
SWEEP_BANDWIDTHS = geometric_bandwidths(4.0, 16384.0, 7)

#: Paper numbers (Section III) used in the printed comparisons.
PAPER_SPEEDUP_PERCENT = dict(PAPER_IDEAL_SPEEDUP_PERCENT)


def reference_platform() -> Platform:
    return Platform(name="reference", bandwidth_mbps=REFERENCE_BANDWIDTH_MBPS)


@pytest.fixture(scope="session")
def environment() -> OverlapStudyEnvironment:
    return OverlapStudyEnvironment(platform=reference_platform())


@pytest.fixture(scope="session")
def applications():
    """The six applications of the paper's evaluation (benchmark sizing)."""
    return {app.name: app for app in paper_applications(num_ranks=16, scale=1.0)}


@pytest.fixture(scope="session")
def studies(environment, applications):
    """Original vs overlapped (real and ideal) at the reference bandwidth."""
    return {
        name: environment.study(app)
        for name, app in applications.items()
    }


@pytest.fixture(scope="session")
def sweeps(environment, applications) -> Dict[str, BandwidthSweep]:
    """Bandwidth sweeps (original / real / ideal) for every application."""
    return {
        name: run_experiment(
            ExperimentSpec(apps=(name,), bandwidths=SWEEP_BANDWIDTHS,
                           patterns=("real", "ideal")),
            environment=environment, apps=[app]).sweep()
        for name, app in applications.items()
    }


def print_banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
