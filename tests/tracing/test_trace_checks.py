"""Trace-time checks: a traced application model that is not a consistent
MPI program is rejected.

The tracing virtual machine runs lint's structural rules
(:func:`repro.analysis.structure.trace_issues`) on every trace it builds,
plus the tracer's per-stream message ordinals (``pair_seq``), and raises
:class:`MatchingError` with the TL-coded text of what it found.
"""

import pytest

from repro.analysis.structure import trace_issues
from repro.apps.base import ApplicationModel
from repro.errors import MatchingError
from repro.tracing.context import RequestHandle
from repro.tracing.machine import TracingVirtualMachine


class _Model(ApplicationModel):
    """A two-rank model: one matched message and a barrier, unless
    ``change`` alters what one rank does."""

    name = "checked"

    def __init__(self, change=None):
        super().__init__(num_ranks=2, iterations=1)
        self.change = change

    def run(self, ctx):
        if self.change is not None and self.change(ctx):
            return
        ctx.compute(10)
        if ctx.rank == 0:
            ctx.send(1, size=100)
        else:
            ctx.recv(0, size=100)
        ctx.barrier()


def _rejected(change):
    with pytest.raises(MatchingError) as excinfo:
        TracingVirtualMachine().trace(_Model(change))
    return str(excinfo.value)


def _on_rank(rank, action):
    """A change: ``action(ctx)`` replaces the body on ``rank``."""
    def change(ctx):
        if ctx.rank != rank:
            return False
        action(ctx)
        return True
    return change


def test_a_consistent_model_traces_clean():
    trace = TracingVirtualMachine().trace(_Model())
    assert trace_issues(trace) == []


def test_a_missing_receive_is_tl101():
    message = _rejected(_on_rank(1, lambda ctx: ctx.barrier()))
    assert message.startswith("TL101 unmatched-send at rank 0, record 1: ")


def test_an_orphan_receive_is_tl102():
    message = _rejected(_on_rank(0, lambda ctx: ctx.barrier()))
    assert message.startswith("TL102 unmatched-recv at rank 1, record 1: ")


def test_a_size_mismatch_is_tl104():
    def recv_more(ctx):
        ctx.recv(0, size=999)
        ctx.barrier()
    message = _rejected(_on_rank(1, recv_more))
    assert message.startswith("TL104 size-mismatch at rank 1, record 0: ")


def test_a_collective_sequence_mismatch_is_tl201():
    def allreduce(ctx):
        ctx.recv(0, size=100)
        ctx.allreduce()
    assert _rejected(_on_rank(1, allreduce)).startswith("TL201 ")


def test_a_collective_count_mismatch_is_tl203():
    def extra_barrier(ctx):
        ctx.send(1, size=100)
        ctx.barrier()
        ctx.barrier()
    assert _rejected(_on_rank(0, extra_barrier)).startswith("TL203 ")


def test_an_unwaited_request_is_tl301():
    def isend(ctx):
        ctx.isend(1, size=100)
        ctx.barrier()
    message = _rejected(_on_rank(0, isend))
    assert message.startswith("TL301 dangling-request at rank 0, record 0: ")


def test_a_wait_on_an_unknown_request_is_tl302():
    def wait_unknown(ctx):
        ctx.send(1, size=100)
        ctx.wait(RequestHandle(99, "isend"))
        ctx.barrier()
    message = _rejected(_on_rank(0, wait_unknown))
    assert message.startswith("TL302 wait-unknown-request at rank 0, "
                              "record 1: waits on request 99")


def test_an_inconsistent_pair_sequence_is_rejected():
    # The tracer numbers every stream itself; only a model that edits its
    # tracer's records can break the numbering.
    def renumbered(ctx):
        ctx.send(1, size=100)
        ctx._tracer.records[-1].pair_seq = 5
        ctx.barrier()
    message = _rejected(_on_rank(0, renumbered))
    assert message == ("inconsistent pair sequence for message 0 src=0 dst=1 "
                       "tag=0 (rank 0, record 0)")


def test_every_issue_is_listed_without_raising():
    def drop_everything(ctx):
        ctx.isend(0, size=8)
    trace = TracingVirtualMachine(validate=False).trace(
        _Model(_on_rank(1, drop_everything)))
    issues = trace_issues(trace)
    assert [issue.split()[0] for issue in issues] == [
        "TL101", "TL101", "TL203", "TL301"]
