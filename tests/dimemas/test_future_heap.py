"""The event walk's DES heap and the paced walk's heap hold only future events.

Every event the event walk triggers for the current instant -- message
arrivals, send completions, satisfied waits, process starts and ends,
resource grants, zero-length delays -- runs from one of the environment's
two same-instant FIFOs.  The paced walk plays the same queue with its own
two FIFOs and heap.  These replay paper applications on the default
platform and check every push onto a heap.
"""

import heapq

import pytest

import repro.des.core
import repro.des.events
import repro.dimemas.network
import repro.dimemas.replay
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine

from replay_contract import app_trace

#: Every module that pushes onto the environment's heap.
PUSHERS = (repro.des.core, repro.des.events, repro.dimemas.network)


@pytest.mark.parametrize("app", ["sweep3d", "nas-bt"])
def test_every_heap_push_is_due_after_now(app, monkeypatch):
    trace = app_trace(app, ranks=16)
    engine = ReplayEngine(trace, Platform(replay_backend="event"),
                          collect_timeline=False)
    env = engine.env
    due = []

    def recording_push(heap, entry):
        due.append(entry[0] - env.now)
        heapq.heappush(heap, entry)

    for module in PUSHERS:
        monkeypatch.setattr(module, "heappush", recording_push)
    engine.run()
    assert len(due) > 100
    assert min(due) > 0.0


@pytest.mark.parametrize("app", ["sweep3d", "nas-bt"])
def test_every_paced_heap_push_is_due_after_the_last_pop(app, monkeypatch):
    """The paced walk's heap entries lie after the instant of the walk's
    last heap pop (0.0 before the first): a continuation due at the
    current instant joins the NORMAL FIFO instead."""
    trace = app_trace(app, ranks=16)
    engine = ReplayEngine(trace, Platform(replay_backend="adaptive"),
                          collect_timeline=False)
    last_pop = [0.0]
    due = []

    def recording_push(heap, entry):
        due.append(entry[0] - last_pop[0])
        heapq.heappush(heap, entry)

    def recording_pop(heap):
        entry = heapq.heappop(heap)
        last_pop[0] = entry[0]
        return entry

    monkeypatch.setattr(repro.dimemas.replay, "heappush", recording_push)
    monkeypatch.setattr(repro.dimemas.replay, "heappop", recording_pop)
    engine.run()
    assert engine.adaptive_summary["mode"] == "fast-forward"
    assert engine.adaptive_summary["contended_transfers"] > 0
    assert len(due) > 100
    assert min(due) > 0.0
