"""The event walk's DES heap holds only future events.

Every event the walk triggers for the current instant -- message arrivals,
send completions, satisfied waits, process starts and ends, resource
grants, zero-length delays -- runs from one of the environment's two
same-instant FIFOs.  This replays a paper application on the default
platform and checks every push onto the heap.
"""

import heapq

import pytest

import repro.des.core
import repro.des.events
import repro.dimemas.network
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
