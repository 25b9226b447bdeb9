"""Shared fixtures for the test suite."""

import gc
import sqlite3
from pathlib import Path

import pytest

from repro.apps import NasBT, SanchoLoop, Sweep3D
from repro.core import FixedCountChunking, OverlapStudyEnvironment
from repro.dimemas import Platform
from repro.store import STORE_FORMAT, FileResultStore
from repro.tracing import TracingVirtualMachine


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves Python's cyclic garbage collector disabled:
    every later test would run without it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def platform():
    """Default platform used across tests (250 MB/s, 5 us)."""
    return Platform()


@pytest.fixture
def fast_network():
    """A platform with an essentially ideal network."""
    return Platform(name="fast", latency=0.0, bandwidth_mbps=0.0)


@pytest.fixture
def environment():
    """An overlap study environment with small chunk counts (fast tests)."""
    return OverlapStudyEnvironment(chunking=FixedCountChunking(count=4))


@pytest.fixture
def vm():
    return TracingVirtualMachine()


@pytest.fixture
def small_loop():
    """A tiny Sancho loop: 4 ranks, 2 iterations."""
    return SanchoLoop(num_ranks=4, iterations=2, message_bytes=80_000,
                      instructions_per_iteration=1.0e6)


@pytest.fixture
def small_bt():
    """A small NAS BT instance: 4 ranks, 2 iterations."""
    return NasBT(num_ranks=4, iterations=2, face_bytes=60_000,
                 instructions_per_phase=1.0e6)


@pytest.fixture
def small_sweep():
    """A small Sweep3D instance: 4 ranks, 1 iteration, 2 octants."""
    return Sweep3D(num_ranks=4, iterations=1, octants=2, flux_bytes=30_000,
                   instructions_per_octant=0.5e6)


@pytest.fixture
def store(tmp_path):
    """A result store over ``tmp_path``, closed after the test."""
    with FileResultStore(tmp_path) as opened:
        yield opened


@pytest.fixture
def store_rows():
    """``connect(root)``: a second connection to the rows of the result
    store at ``root``, for tests that damage entries behind its back."""
    connections = []

    def connect(root):
        connection = sqlite3.connect(
            Path(root) / f"v{STORE_FORMAT}" / "results.sqlite",
            isolation_level=None)
        connections.append(connection)
        return connection

    yield connect
    for connection in connections:
        connection.close()
