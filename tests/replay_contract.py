"""The adaptive backend's contract, shared by its example and property tests.

A cell replayed by the adaptive backend must match the event backend bit
for bit: total time, every ``RankStats`` field, and the timeline's
intervals and communications.  Two representational differences are
tolerated: the global *order* of the recorded communications (adaptive
records a transfer when its wire slot ends, the event backend one event
generation later), and the last ulp of aggregate network statistics
(adaptive sums them in a canonical order).  Timeline content is compared
sorted, and aggregates with a 1e-9 relative tolerance.
"""

import pytest

from repro.apps.registry import create_application
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.mechanisms import OverlapMechanism
from repro.core.patterns import ComputationPattern
from repro.dimemas.replay import ReplayEngine

_TRACES = {}


def app_trace(app_name, overlap=None, mechanism="full", ranks=4,
              iterations=2):
    """The traced run of a registered app, optionally overlapped with the
    ``overlap`` pattern and ``mechanism`` (memoized per process)."""
    key = (app_name, overlap, mechanism, ranks, iterations)
    if key not in _TRACES:
        environment = OverlapStudyEnvironment(
            chunking=FixedCountChunking(count=4))
        trace = environment.trace(create_application(
            app_name, num_ranks=ranks, iterations=iterations))
        if overlap is not None:
            trace = environment.overlap(
                trace, pattern=ComputationPattern.from_label(overlap),
                mechanism=OverlapMechanism.from_label(mechanism))
        _TRACES[key] = trace
    return _TRACES[key]


def _run(trace, platform, backend):
    engine = ReplayEngine(trace, platform.with_replay_backend(backend))
    return engine, engine.run()


def _interval_key(interval):
    return (interval.rank, interval.start, interval.end, interval.state)


def _communication_key(comm):
    return (comm.src, comm.dst, comm.send_time, comm.recv_time,
            comm.size, comm.tag)


def assert_bit_exact(trace, platform):
    """Replay ``trace`` on ``platform`` through both backends, assert the
    contract, and return the adaptive engine (for its summary)."""
    engine, adaptive = _run(trace, platform, "adaptive")
    _, event = _run(trace, platform, "event")
    adaptive_time, adaptive_stats, adaptive_timeline, adaptive_network = adaptive
    event_time, event_stats, event_timeline, event_network = event
    assert adaptive_time == event_time
    assert adaptive_stats == event_stats  # dataclass equality, every field
    assert (sorted(adaptive_timeline.intervals, key=_interval_key)
            == sorted(event_timeline.intervals, key=_interval_key))
    assert (sorted(adaptive_timeline.communications, key=_communication_key)
            == sorted(event_timeline.communications, key=_communication_key))
    assert adaptive_network.keys() == event_network.keys()
    for key, expected in event_network.items():
        got = adaptive_network[key]
        if isinstance(expected, (dict, float)):  # aggregates: per hop or scalar
            assert got == pytest.approx(expected, rel=1e-9, abs=0.0)
        else:
            assert got == expected
    return engine
