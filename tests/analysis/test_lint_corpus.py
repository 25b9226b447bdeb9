"""A pinned corpus of multi-defect traces: lint's report and the replay's
error, byte for byte.

The tracelint tests check one code per trace.  These traces carry several
defects each, on several streams, ranks and collectives, so the pinned
``AnalysisReport.to_json()`` also fixes the order in which diagnostics are
emitted.  Together they cover every ``TL`` code.  On the same traces the
runtime error of each backend is pinned too, including the deadlock
report's ``unmatched postings`` counts.

The expected texts live in ``lint_corpus.json`` beside this file.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import analyze_trace
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.errors import SimulationError
from repro.tracing.records import (
    CollectiveRecord,
    CpuBurst,
    Record,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.trace import RankTrace, Trace

EXPECTED = json.loads(
    (Path(__file__).with_name("lint_corpus.json")).read_text(encoding="utf-8"))

IDLE = CpuBurst(instructions=1000.0)
BIG = 100_000  # rendezvous at the default eager threshold


@dataclass
class _AlienRecord(Record):
    """A record kind the replay engine does not know."""

    kind = "alien"

    def to_dict(self):
        return {"kind": self.kind}


def _send(dst, size, tag, **kwargs):
    return SendRecord(dst=dst, size=size, tag=tag, **kwargs)


def _recv(src, size, tag, **kwargs):
    return RecvRecord(src=src, size=size, tag=tag, **kwargs)


def _coll(operation, size=8, root=0, comm_size=0):
    return CollectiveRecord(operation=operation, size=size, root=root,
                            comm_size=comm_size)


#: name -> per-rank record lists.
CORPUS = {
    # Unmatched sends and receives, a size mismatch and out-of-range peers
    # on six streams; two ranks block, so the replay deadlocks.
    "p2p-streams": [
        [_send(1, 8, 2), _send(1, 8, 2), _send(3, 16, 0), _send(9, 4, 1),
         IDLE],
        [_recv(0, 8, 2), _recv(2, 8, 7)],
        [_recv(6, 4, 0), _send(1, 8, 3)],
        [_recv(0, 32, 0), _send(2, 8, 5), _recv(2, 8, 3)],
    ],
    # Collectives that disagree on operation, root and size, a root outside
    # the trace and a wrong communicator size, behind a size mismatch.
    "collective-params": [
        [_coll("bcast", 8, 0), _coll("reduce", 8, 5, comm_size=3),
         _coll("allreduce", 4), _send(1, 8, 0)],
        [IDLE, _coll("bcast", 16, 1), _coll("reduce", 8, 5),
         _coll("allreduce", 4, comm_size=7), _recv(0, 12, 0)],
        [IDLE, _coll("bcast", 8, 0), _coll("reduce", 8, 5),
         _coll("barrier", 4)],
    ],
    # Collective counts disagree; a rendezvous send to a rank parked in a
    # collective closes a wait-for cycle.
    "collective-counts": [
        [_coll("barrier"), _coll("barrier"), _recv(1, BIG, 3)],
        [_send(0, BIG, 3), _coll("barrier")],
        [_coll("barrier"), _coll("barrier")],
        [_coll("barrier"), _coll("barrier"), _coll("barrier")],
    ],
    # Every request defect: no id, a reused id, a double wait, a dangling
    # request and a wait on a request never issued.
    "requests": [
        [_send(1, 8, 0, blocking=False, request=None),
         _send(1, 8, 1, blocking=False, request=4),
         _send(1, 8, 2, blocking=False, request=4),
         WaitRecord(requests=[4]), WaitRecord(requests=[4])],
        [_recv(0, 8, 0), _recv(0, 8, 1), _recv(0, 8, 2),
         _recv(2, 8, 0, blocking=False, request=1), IDLE],
        [IDLE, WaitRecord(requests=[9]), _send(1, 8, 0)],
    ],
    # A head-to-head rendezvous exchange and a receive-first cycle, under
    # the default threshold and the all-rendezvous pass.
    "deadlocks": [
        [_send(1, BIG, 0), _recv(1, BIG, 0)],
        [_send(0, BIG, 0), _recv(0, BIG, 0)],
        [_send(3, 8, 1, blocking=False, request=1), _recv(3, 8, 2),
         _send(3, 8, 3), WaitRecord(requests=[1])],
        [_recv(2, 8, 3), _send(2, 8, 2), _recv(2, 8, 1)],
    ],
    # Every rank finishes, leaving eager sends that nothing receives: one
    # to a rank outside the trace, two that are never received.
    "unreceived-sends": [
        [IDLE, _send(5, 8, 0), _send(1, 8, 0), _recv(1, 4, 1)],
        [_recv(0, 8, 0), _send(0, 6, 1), IDLE, _send(2, 8, 4)],
        [_send(0, 8, 9), IDLE],
    ],
    # A record the replay cannot run, beside a comm-size warning, a receive
    # nothing sends and a dangling request.
    "unknown-record": [
        [_coll("allgather", 8, comm_size=3), _send(1, 8, 0), _AlienRecord()],
        [_coll("allgather", 8, comm_size=2), _recv(0, 8, 0),
         _recv(0, 8, 1, blocking=False, request=2)],
    ],
}


def _trace(name):
    return Trace(ranks=[RankTrace(rank=rank, records=list(records))
                        for rank, records in enumerate(CORPUS[name])],
                 metadata={"name": name})


def _runtime_error(trace, backend):
    with pytest.raises(SimulationError) as excinfo:
        ReplayEngine(trace, Platform(replay_backend=backend)).run()
    return str(excinfo.value)


def test_the_corpus_covers_every_code():
    from repro.analysis import CODES

    codes = set()
    for name in CORPUS:
        codes.update(analyze_trace(_trace(name), worst_case=True).codes())
    assert codes == set(CODES)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_lint_report_is_pinned(name):
    report = analyze_trace(_trace(name), worst_case=True, source=name)
    assert report.to_json() == EXPECTED[name]["lint"]


@pytest.mark.parametrize("backend", ["event", "adaptive"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_runtime_error_is_pinned(name, backend):
    assert _runtime_error(_trace(name), backend) == EXPECTED[name][backend]
