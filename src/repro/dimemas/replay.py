"""Per-rank replay processes and the collective coordinator.

Every rank of the trace becomes one DES process that walks its record list:
computation bursts advance local time (scaled by the platform's relative CPU
speed), point-to-point records post their message
(:meth:`ReplayEngine.post_send`/:meth:`ReplayEngine.post_recv`) and cross
the network, and collective records synchronise through the
:class:`CollectiveCoordinator`,
which applies the platform's pluggable collective cost model
(:mod:`repro.dimemas.collectives`: closed-form ``analytical`` durations or
``decomposed`` point-to-point phase schedules routed over the fabric).

The per-rank walk is the hottest loop of the whole system (every sweep cell
replays every record of every rank), so it is written as a fast path:

* records are dispatched through the precomputed per-record-type opcode
  table of the prepared trace (:meth:`repro.tracing.trace.Trace.prepared`)
  instead of an ``isinstance`` chain;
* every per-iteration attribute lookup (environment clock, posting
  methods, stats object, timeout factory) is hoisted out of the loop;
* timeline recording is pluggable: with ``collect_timeline=False`` the
  engine installs a :class:`~repro.paraver.timeline.NullRecorder` and the
  loop skips interval bookkeeping entirely.

The fast path is pinned bit-identical to the straightforward implementation
by the golden tests in ``tests/dimemas/test_replay_golden.py``.

The ``adaptive`` backend replays the same run without DES events, through
one of two walks picked by the classifier
(:func:`repro.dimemas.windows.classify`):

* the *lane walk* (:func:`_vector_walk`) for proven contention-free cells
  that record no timeline: one structural pass carrying a clock vector
  per rank, one lane per platform -- ``ReplayEngine.run`` runs it at width
  1, the cohort replay of :mod:`repro.dimemas.gridreplay` at any width;
* the *paced walk* (:meth:`ReplayEngine._run_adaptive`) for every other
  fast-forwardable cell: scalar clocks paced in the DES's event order, with
  a FIFO resource micro-model for contended transfers, each message
  carrying its own transfer.  Same-instant URGENT work (rank starts,
  transfer starts, resource grants, slot handovers) runs from one FIFO and
  same-instant NORMAL work (notifications, wake-ups, zero-length delays)
  from a second; a time-ordered heap holds only future events.  A heap pop
  that reaches a new instant first moves that instant's other entries onto
  the NORMAL FIFO in creation order, as the DES kernel does.

Cells neither walk can replay run the event walk, which stays the oracle.

All three walks match messages through the trace's static plan
(:meth:`repro.tracing.trace.PreparedTrace.message_plan`): the k-th send of
a ``(src, dst, tag)`` stream meets its k-th receive on every platform, so
each posting indexes a per-cell message slot instead of searching queues,
and a slot holds its message only while one side has posted.
"""

from __future__ import annotations

from collections import Counter, deque
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import format_defect
from repro.analysis.structure import fault_message, first_defect
from repro.des import AllOf, Environment, Event
from repro.des.resources import InfiniteResource
from repro.dimemas.collectives import build_collective_model
from repro.dimemas.collectives.analytical import collective_duration
from repro.dimemas.messages import Message
from repro.dimemas.network import NetworkFabric, NetworkStatistics
from repro.dimemas.platform import Platform
from repro.dimemas.protocol import Protocol
from repro.dimemas.results import RankStats
from repro.dimemas.topology import INFINITY, Hop, build_network_model
from repro.dimemas.windows import WindowPlan, classify
from repro.errors import SimulationError
from repro.paraver.states import ThreadState
from repro.paraver.timeline import NullRecorder, Timeline
from repro.tracing.records import CollectiveRecord
from repro.tracing.timebase import TimeBase
from repro.tracing.trace import (
    OP_COLLECTIVE,
    OP_CPU,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    Trace,
)

_EAGER = Protocol.EAGER
_RENDEZVOUS = Protocol.RENDEZVOUS


class _CollectiveInstance:
    """One collective operation being synchronised across all ranks."""

    def __init__(self, env: Environment, index: int):
        self.index = index
        self.operation: Optional[str] = None
        self.root = 0
        self.size = 0
        self.count = 0
        self.all_arrived = env.event(name=f"collective[{index}]")
        self.finish_time: float = 0.0
        #: Per-rank departure events, set by completion-driven collective
        #: models (the decomposed backend); ``None`` means the duration
        #: contract applies (every rank leaves at ``finish_time``).
        self.completions: Optional[List[Event]] = None


class CollectiveCoordinator:
    """Synchronises collective records across ranks and applies cost models.

    The coordinator owns arrival counting and trace-consistency checking;
    *what the collective costs* is delegated to the pluggable
    :class:`~repro.dimemas.collectives.CollectiveModel` selected by
    ``platform.collective_model`` (the default analytical model reproduces
    the historical closed-form behaviour bit for bit; the decomposed model
    needs the replay's ``network`` fabric to route its phases).
    """

    def __init__(self, env: Environment, platform: Platform, num_ranks: int,
                 network: Optional[NetworkFabric] = None):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self.model = build_collective_model(env, platform, num_ranks, network)
        self._instances: Dict[int, _CollectiveInstance] = {}

    def enter(self, rank: int, record: CollectiveRecord, index: int,
              position: Optional[int] = None) -> _CollectiveInstance:
        """Rank ``rank`` enters its ``index``-th collective.

        ``position`` is the record's index in the rank's trace; it threads
        through to the error messages so a runtime mismatch names the same
        trace location the static analyzer (:mod:`repro.analysis`) would.
        """
        instance = self._instances.get(index)
        if instance is None:
            instance = _CollectiveInstance(self.env, index)
            self._instances[index] = instance
        if instance.operation is None:
            instance.operation = record.operation
            instance.root = record.root
            instance.size = record.size
        else:
            # The ranks of one collective must agree on what they entered;
            # silently adopting the first arrival's parameters would turn a
            # corrupt trace into a plausible-looking result.  The messages
            # carry the static analyzer's TL201 code and location format so
            # runtime and pre-replay reports read alike.
            if instance.operation != record.operation:
                raise SimulationError(format_defect(
                    "TL201", rank, position,
                    f"entered {record.operation!r} while others entered "
                    f"{instance.operation!r} (collective {index})"))
            if instance.root != record.root:
                raise SimulationError(format_defect(
                    "TL201", rank, position,
                    f"entered {record.operation!r} with root {record.root} "
                    f"while earlier ranks used root {instance.root} "
                    f"(collective {index})"))
            if instance.size != record.size:
                raise SimulationError(format_defect(
                    "TL201", rank, position,
                    f"entered {record.operation!r} with size {record.size} "
                    f"while earlier ranks used size {instance.size} "
                    f"(collective {index})"))
        instance.count += 1
        if instance.count > self.num_ranks:
            raise SimulationError(format_defect(
                "TL203", rank, position,
                f"collective {index} has {instance.count} entries for "
                f"{self.num_ranks} ranks (rank {rank} entered "
                f"{record.operation!r} after the collective already "
                f"completed; the traces have mismatched collective counts)"))
        if instance.count == self.num_ranks:
            self.model.launch(instance)
        return instance


class _FastMessage:
    """Message state of the paced adaptive walk.

    The paced walk never schedules DES events, so it replaces
    :class:`~repro.dimemas.messages.Message` (whose lifecycle is built from
    DES events) with a plain record: posting times, the computed arrival
    instant (``None`` until the transfer ends) and the ranks blocked on
    this message -- ``("r", rank)`` on the arrival, ``("s", rank)`` on the
    send completion, plus the ``("sc", sender)`` slot where a rendezvous
    send's completion callback sits among the arrival's callbacks.  The
    first posting of a message creates it in the cell's slot for its plan
    index; the second takes it out, so the slot never keeps a matched
    message alive.

    A message on a route with a limited resource also carries its own
    transfer, set when the transfer starts.  It walks the route exactly
    like the event walk's transfer task
    (:class:`~repro.dimemas.network.NetworkFabric`): acquire the hop's
    resources in the hop's fixed order (FIFO per limited resource, holding
    earlier ones while queued on later ones), cross the wire, hand released
    slots to queue heads, move to the next hop.  ``hop_states`` holds, per
    hop, the busy state of each resource (``None`` for an unlimited one),
    shared with every other route through that resource; ``held`` the
    states of the slots held on the current hop; ``phase`` is 0 while
    acquiring the current hop's resources and 1 while crossing its wire.
    So the walk's FIFOs, its heap and the resource queues hold the message
    itself.
    """

    __slots__ = ("src", "dst", "tag", "size", "eager", "send_posted",
                 "send_time", "recv_time", "arrival", "transfer_start",
                 "waiters", "r_notified", "s_notified",
                 # The contended transfer (unset on every other message).
                 "route", "hop_states", "hop_idx", "res_idx", "requested_at",
                 "held", "queue_time", "duration", "phase")

    def __init__(self, src: int, dst: int, tag: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = 0
        self.eager = False
        self.send_posted = False
        self.send_time = 0.0
        self.recv_time = 0.0
        self.arrival: Optional[float] = None
        self.transfer_start: Optional[float] = None
        self.waiters: List[Tuple[str, int]] = []
        # True once the heap analogue of the DES `arrived` / `send_complete`
        # pop has run: a rank reaching a completed message before its
        # notification pop must still park, exactly as a DES process
        # waiting on a succeeded-but-unpopped event does.
        self.r_notified = False
        self.s_notified = False


class _FastCollective:
    """Collective state of the paced adaptive walk.

    The classifier already proved every rank enters the same
    collectives with the same parameters, so this carries only what the
    closed-form completion needs: the arrival count, the latest entry time
    seen so far and the blocked (rank, entry time) pairs to release when
    the last rank arrives.
    """

    __slots__ = ("operation", "root", "size", "count", "last", "waiters")

    def __init__(self, operation: str, root: int, size: int):
        self.operation = operation
        self.root = root
        self.size = size
        self.count = 0
        self.last = 0.0
        self.waiters: List[Tuple[int, float]] = []


class _GridMessage:
    """Message state of the lane walk: scalar identity, vector times."""

    __slots__ = ("src", "dst", "tag", "size", "eager", "send_time",
                 "recv_time", "arrival", "waiters")

    def __init__(self, src: int, dst: int, tag: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = 0
        self.eager = False
        self.send_time: Optional[List[float]] = None
        self.recv_time: Optional[List[float]] = None
        self.arrival: Optional[List[float]] = None
        self.waiters: List[Tuple[str, int]] = []


class _GridCollective:
    """Collective state of the lane walk (vector ``last``)."""

    __slots__ = ("operation", "root", "size", "count", "last", "waiters")

    def __init__(self, operation: str, root: int, size: int, width: int):
        self.operation = operation
        self.root = root
        self.size = size
        self.count = 0
        self.last = [0.0] * width
        self.waiters: List[Tuple[int, List[float]]] = []


class ReplayEngine:
    """Builds and runs the whole replay of one trace on one platform.

    ``collect_timeline`` selects the timeline recorder: ``True`` (the
    default, and the behaviour of every interactive entry point) records
    per-rank state intervals and communication lines; ``False`` installs a
    :class:`~repro.paraver.timeline.NullRecorder` so metric-only callers
    (bandwidth sweeps, experiment grids) skip the recording cost.  Total
    time, rank statistics and network statistics are bit-identical either
    way, and across backends.
    """

    def __init__(self, trace: Trace, platform: Platform,
                 label: Optional[str] = None, collect_timeline: bool = True):
        self.trace = trace
        self.platform = platform
        self.label = label or trace.metadata.get("name", "trace")
        self.collect_timeline = collect_timeline
        self.env = Environment()
        timeline_class = Timeline if collect_timeline else NullRecorder
        self.timeline = timeline_class(num_ranks=trace.num_ranks, name=self.label)
        self.network = NetworkFabric(
            self.env, platform, trace.num_ranks,
            self.timeline if collect_timeline else None)
        #: Plan index -> the message (of the walk that runs) while only one
        #: side has posted.
        self._slots: List[Any] = [None] * trace.prepared().message_plan().count
        self._eager_threshold = platform.eager_threshold
        self.messages_matched = 0
        self.coordinator = CollectiveCoordinator(
            self.env, platform, trace.num_ranks, network=self.network)
        self.timebase = TimeBase(trace.mips)
        self.stats = [RankStats(rank=r) for r in range(trace.num_ranks)]
        self._progress: List[int] = [0] * trace.num_ranks
        self._processes = []
        #: Classifier verdict of the adaptive backend (None otherwise).
        self.window_plan: Optional[WindowPlan] = None
        #: How the adaptive backend ran this cell (None otherwise):
        #: mode, classification and contended transfers.
        self.adaptive_summary: Optional[Dict[str, Any]] = None

    # -- public ------------------------------------------------------------
    def run(self) -> Tuple[float, List[RankStats], Timeline, Dict[str, float]]:
        """Run the replay and return (total_time, stats, timeline, network stats)."""
        prepared = self.trace.prepared()
        if self.platform.replay_backend == "adaptive":
            plan = classify(self.trace, self.platform)
            self.window_plan = plan
            if plan.viable:
                self.adaptive_summary = {
                    "backend": "adaptive",
                    "mode": "fast-forward",
                    "network_uncontended": plan.network_uncontended,
                    "proven_exact": plan.proven_exact,
                    "contended_transfers": 0,
                }
                if plan.proven_exact and not self.collect_timeline:
                    # The lane walk at width 1 (it records no timeline).
                    ((total_time, self.stats, network_stats),) = _vector_walk(
                        self.trace, [self.platform])
                    return total_time, self.stats, self.timeline, network_stats
                self.adaptive_summary["contended_transfers"] = (
                    self._run_adaptive(prepared))
                return self._finalize()
            # Not fast-forwardable: the event walk below replays the cell
            # (and, for defective traces, raises its exact errors).
            self.adaptive_summary = {
                "backend": "adaptive",
                "mode": "des-fallback",
                "fallback_reason": plan.reason,
                "network_uncontended": plan.network_uncontended,
                "proven_exact": True,
                "contended_transfers": 0,
            }
        # A request id reissued while outstanding would overwrite the
        # posting the walk still tracks, and its wait would complete only
        # the latest one: refuse the trace before anything runs.
        reissued = first_defect(self.trace, "TL303")
        if reissued is not None:
            raise SimulationError(reissued)
        plan = prepared.message_plan()
        for rank, rank_ops in enumerate(prepared.ops):
            process = self.env.process(
                self._rank_process(rank, rank_ops, plan.indices[rank]),
                name=f"rank{rank}")
            self._processes.append(process)
        self.env.run()
        self._check_finished()
        return self._finalize()

    def _finalize(self) -> Tuple[float, List[RankStats], Timeline, Dict[str, float]]:
        total_time = max((stats.finish_time for stats in self.stats), default=0.0)
        network_stats = _network_summary(
            self.network.statistics, self.messages_matched, self.platform)
        return total_time, self.stats, self.timeline, network_stats

    # -- posting ------------------------------------------------------------
    def post_send(self, src: int, record, index: int) -> Message:
        """Post the send ``record`` of rank ``src``, message ``index`` of the
        trace's plan; returns its message.

        Eager messages start their transfer at the posting, and the sender
        is complete at once.  A rendezvous message starts once both sides
        have posted, and its sender is complete when the payload arrives.
        """
        env = self.env
        slots = self._slots
        message = slots[index]
        if message is None:
            message = slots[index] = Message(env)
        else:
            slots[index] = None
        size = record.size
        message.src = src
        message.dst = record.dst
        message.tag = record.tag
        message.size = size
        message.send_posted = True
        # Same decision as select_protocol(), with the threshold hoisted.
        if size <= self._eager_threshold:
            message.protocol = _EAGER
            # The sender only pays the local injection, which the paper's
            # time model folds into the (ignored) MPI overhead.
            message.send_complete.succeed(env._now)
        else:
            message.protocol = _RENDEZVOUS
            message.arrived.add_callback(
                lambda event, msg=message: msg.send_complete.succeed(self.env.now))
        self._maybe_start(message)
        return message

    def post_recv(self, dst: int, record, index: int) -> Message:
        """Post the receive ``record`` of rank ``dst``, message ``index`` of
        the trace's plan; returns its message."""
        slots = self._slots
        message = slots[index]
        if message is None:
            message = slots[index] = Message(self.env)
        else:
            slots[index] = None
        message.dst = dst
        message.recv_posted_flag = True
        self._maybe_start(message)
        return message

    def _maybe_start(self, message: Message) -> None:
        if message.started or not message.send_posted:
            return
        if message.protocol is _RENDEZVOUS and not message.recv_posted_flag:
            return
        message.started = True
        self.messages_matched += 1
        self.network.start_transfer(message)

    # -- internals ------------------------------------------------------------
    def _check_finished(self) -> None:
        stuck = [index for index, process in enumerate(self._processes)
                 if not process.triggered]
        if not stuck:
            self._check_sends_matched()
            return
        raise SimulationError(_deadlock_report(
            self.trace, stuck, self._progress, self._slots))

    def _check_sends_matched(self) -> None:
        """Every rank finished, so every send must have found a receive.

        An eager send completes at its posting, so one that is never
        received would otherwise replay to a plausible time around a
        phantom transfer.  Every rank posted everything, so the sends left
        unmatched are the plan's: TL101 when a send is never received,
        TL103 when it names a rank outside the trace.  The error names the
        earliest with the static analyzer's code and text.
        """
        prepared = self.trace.prepared()
        ops = prepared.ops
        unmatched = [fault for fault in prepared.message_plan().faults
                     if fault[0] in ("TL101", "TL103")
                     and ops[fault[1]][fault[2]][0] == OP_SEND]
        if unmatched:
            fault = min(unmatched, key=lambda fault: fault[1:3])
            raise SimulationError(format_defect(
                fault[0], fault[1], fault[2], fault_message(ops, fault)))

    def _rank_process(self, rank: int, ops, rank_plan):
        # Hot loop: every name used per record is bound locally once, the
        # record type is dispatched through the precomputed opcode, and the
        # branches are ordered by record frequency (bursts first).
        env = self.env
        stats = self.stats[rank]
        collect = self.collect_timeline
        add_interval = self.timeline.add_interval
        timeout = env.schedule_timeout
        post_send = self.post_send
        post_recv = self.post_recv
        enter_collective = self.coordinator.enter
        progress = self._progress
        platform = self.platform
        mpi_overhead = platform.mpi_overhead
        # Same float expression as TimeBase.seconds() so burst durations
        # stay bit-identical: instructions / (mips * 1e6 * cpu_speed).
        duration_denominator = (self.timebase.instructions_per_second
                                * platform.relative_cpu_speed)
        state_running = ThreadState.RUNNING
        requests: Dict[int, Tuple[str, Message, int]] = {}
        collective_index = 0
        position = -1

        for position, (op, record) in enumerate(ops):
            progress[rank] = position
            if mpi_overhead > 0.0 and op != OP_CPU:
                # Fixed software cost of entering the MPI library (extension
                # of the paper's time model, see Platform.mpi_overhead).
                # Accounted as mpi_overhead_time, not compute_time: the
                # library cost is not computation, but
                # compute_time + mpi_overhead_time still adds up to what
                # the old accounting called compute time.
                start = env._now
                yield timeout(mpi_overhead)
                stats.mpi_overhead_time += env._now - start
                if collect:
                    add_interval(rank, start, env._now, state_running)
            if op == OP_CPU:
                start = env._now
                yield timeout(record.instructions / duration_denominator)
                stats.compute_time += env._now - start
                if collect:
                    add_interval(rank, start, env._now, state_running)
            elif op == OP_SEND:
                message = post_send(rank, record, rank_plan[position])
                stats.bytes_sent += record.size
                stats.messages_sent += 1
                if record.blocking:
                    start = env._now
                    yield message.send_complete
                    stats.send_wait_time += env._now - start
                    if collect:
                        add_interval(rank, start, env._now, ThreadState.SEND_WAIT)
                else:
                    requests[record.request] = ("send", message, position)
            elif op == OP_RECV:
                message = post_recv(rank, record, rank_plan[position])
                stats.bytes_received += record.size
                stats.messages_received += 1
                if record.blocking:
                    start = env._now
                    yield message.arrived
                    stats.recv_wait_time += env._now - start
                    if collect:
                        add_interval(rank, start, env._now, ThreadState.RECV_WAIT)
                else:
                    requests[record.request] = ("recv", message, position)
            elif op == OP_WAIT:
                events = []
                for request_id in record.requests:
                    try:
                        side, message, _ = requests.pop(request_id)
                    except KeyError:
                        raise SimulationError(format_defect(
                            "TL302", rank, position,
                            f"waits on unknown request {request_id}")) from None
                    events.append(message.send_complete if side == "send"
                                  else message.arrived)
                if not events:
                    continue
                start = env._now
                yield AllOf(env, events)
                stats.request_wait_time += env._now - start
                if collect:
                    add_interval(rank, start, env._now, ThreadState.REQUEST_WAIT)
            elif op == OP_COLLECTIVE:
                start = env._now
                instance = enter_collective(rank, record, collective_index,
                                            position)
                collective_index += 1
                stats.collectives += 1
                yield instance.all_arrived
                completions = instance.completions
                if completions is None:
                    # Duration contract (analytical model): every rank
                    # leaves at the instance's finish time.
                    remaining = instance.finish_time - env._now
                    if remaining > 0:
                        yield timeout(remaining)
                else:
                    # Completion contract (decomposed model): this rank
                    # leaves when its part of the phase schedule is done.
                    yield completions[rank]
                stats.collective_time += env._now - start
                if collect:
                    add_interval(rank, start, env._now, ThreadState.COLLECTIVE)
            else:
                raise SimulationError(f"rank {rank}: unknown record {record!r}")
        if requests:
            self._leftover_requests(rank, requests)
        self._progress[rank] = position + 1
        stats.finish_time = env._now

    @staticmethod
    def _leftover_requests(rank: int, requests) -> None:
        # A non-blocking request that is never waited on would otherwise
        # vanish silently at end-of-trace -- its transfer may still be in
        # flight, so the reported times would quietly exclude it.  Such a
        # trace is malformed (real MPI requires completing every request);
        # surface it instead of producing a plausible-looking result.  The
        # error is anchored at the earliest dangling issue so it names the
        # same trace location as the static analyzer's first TL301.
        first_position = min(position for _, _, position in requests.values())
        ids = ", ".join(str(request_id) for request_id in sorted(requests))
        positions = ", ".join(
            str(position) for position in
            sorted(position for _, _, position in requests.values()))
        raise SimulationError(format_defect(
            "TL301", rank, first_position,
            f"finished the trace with outstanding non-blocking request(s) "
            f"never waited on: {ids} (issued at record(s) {positions})"))

    def _run_adaptive(self, prepared) -> int:
        """The paced walk: an event-free replay of a fast-forwardable cell;
        returns the number of resource-queueing waits.

        No DES events: every rank carries a scalar clock advanced by the
        same float expressions as the per-record walk, and the walk plays
        the DES queue with three structures, as
        :class:`~repro.des.Environment` does.  Same-instant URGENT work --
        rank starts, transfer starts, resource grants and slot handovers --
        runs from one FIFO, same-instant NORMAL work -- completion
        notifications, rank wake-ups, satisfied waits, eager blocking
        sends, collective exits, zero-length bursts and wires -- from a
        second, and a time-ordered heap holds only future NORMAL events
        (bursts, wire ends, closed-form transfer ends) in creation order.
        The walk runs the URGENT FIFO dry, then the NORMAL one, and only
        then pops the heap.  A pop reaches a new instant: it first moves
        that instant's other heap entries onto the NORMAL FIFO in creation
        order (the rule of ``Environment._promote``), since they were
        created before anything the instant creates.  So the order is the
        DES's (time, priority, creation) order.  A continuation runs inline,
        and advances the current instant, when nothing could run before it:
        both FIFOs are empty and the heap's head is later.  Blocking
        operations either jump the clock to an already-notified completion
        instant or park the rank on the message/collective that will wake
        it.  Transfers that cross a limited resource walk their route
        through a FIFO resource micro-model; every other transfer completes
        in closed form.  Messages are matched through the trace's static
        plan.  So same-instant ties -- resource grants, wire ends,
        completion callbacks -- resolve as the event backend resolves them,
        and every simulated time is the event backend's, bit for bit.
        """
        platform = self.platform
        env = self.env
        num_ranks = self.trace.num_ranks
        ops_by_rank = prepared.ops
        plan = prepared.message_plan()
        plan_by_rank = plan.indices
        collect = self.collect_timeline
        add_interval = self.timeline.add_interval
        add_communication = (self.timeline.add_communication if collect
                             else None)
        statistics = self.network.statistics
        record_queue_time = statistics.queue_times.append
        record_transfer_time = statistics.transfer_times.append
        hop_queue_times = statistics.hop_queue_times
        route_of = self.network.model.route
        intranode_time = platform.transfer_time
        ppn = platform.processors_per_node
        eager_threshold = platform.eager_threshold
        mpi_overhead = platform.mpi_overhead
        has_overhead = mpi_overhead > 0.0
        # Same float expression as the per-record walk, for bit-identical
        # burst durations.
        duration_denominator = (self.timebase.instructions_per_second
                                * platform.relative_cpu_speed)
        state_running = ThreadState.RUNNING
        state_send_wait = ThreadState.SEND_WAIT
        state_recv_wait = ThreadState.RECV_WAIT
        state_request_wait = ThreadState.REQUEST_WAIT
        state_collective = ThreadState.COLLECTIVE

        # Per-rank accumulators (flushed into RankStats at the end; the
        # per-rank accumulation order matches the walk's, so the float sums
        # are identical).
        compute_t = [0.0] * num_ranks
        overhead_t = [0.0] * num_ranks
        send_wait_t = [0.0] * num_ranks
        recv_wait_t = [0.0] * num_ranks
        request_wait_t = [0.0] * num_ranks
        collective_t = [0.0] * num_ranks
        finish_t = [0.0] * num_ranks
        bytes_sent_a = [0] * num_ranks
        msgs_sent_a = [0] * num_ranks
        bytes_recv_a = [0] * num_ranks
        msgs_recv_a = [0] * num_ranks
        collectives_a = [0] * num_ranks

        pcs = [0] * num_ranks
        lens = [len(rank_ops) for rank_ops in ops_by_rank]
        #: None = runnable/running; otherwise the blocked state:
        #: ("send"|"recv", message, t0), ["wait", items, t0, remaining]
        #: or ("collective",).
        pending_states: List[Any] = [None] * num_ranks
        requests_by_rank: List[Dict[int, Tuple[str, _FastMessage, int]]] = [
            {} for _ in range(num_ranks)]
        coll_next = [0] * num_ranks
        collectives: List[_FastCollective] = []
        messages = self._slots
        #: FIFO resource model for contended transfers, mirroring
        #: repro.des.resources.Resource: limited resource ->
        #: [capacity, active holds, FIFO deque of parked messages].
        busy: Dict[Any, List[Any]] = {}
        #: (src_node, dst_node) -> (route, hop_states): per hop, the busy
        #: state of each resource (None for an unlimited one); hop_states
        #: is None when no hop is limited, i.e. the route's transfers have
        #: a closed (bit-exact) form.
        routes: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        #: The current instant: the time of the last heap pop, or later
        #: once a continuation has run inline.
        now = 0.0
        #: Same-instant URGENT work: a rank number (its initial start) or a
        #: message whose contended transfer takes its next step.
        urgent = deque(range(num_ranks))
        #: Same-instant NORMAL work, in creation order: a rank number (its
        #: continuation), a message (its arrival notification once its
        #: arrival is known, else its wire end) or a completion-chain
        #: tuple.
        normal = deque()
        #: The heap of future NORMAL events: (time, seq, payload) where
        #: payload is a rank number, a message at its wire end or a
        #: closed-form transfer end.  `seq` plays the DES event id --
        #: allocated in creation order, so same-instant ties break as the
        #: DES eid does -- and is unique, so the payload is never compared.
        #: Every entry is due after the current instant.
        heap: List[Any] = []
        event_seq = 0
        done = [False] * num_ranks
        finished = 0
        matched = 0
        contended = 0
        bytes_transferred = 0
        intranode_transfers = 0
        #: True while a rank's next op already paid its mpi_overhead charge
        #: (the paced continuation resumes at the op itself).
        overhead_pending = [False] * num_ranks

        def route_entry(src_node: int, dst_node: int) -> Tuple[Any, Any]:
            route = route_of(src_node, dst_node)
            hop_states = []
            limited = False
            for hop in route:
                states = []
                for resource in hop.resources:
                    if type(resource) is InfiniteResource:
                        states.append(None)
                        continue
                    limited = True
                    state = busy.get(resource)
                    if state is None:
                        state = busy[resource] = [
                            resource._capacity, 0, deque()]
                    states.append(state)
                hop_states.append(tuple(states))
            entry = routes[src_node, dst_node] = (
                route, tuple(hop_states) if limited else None)
            return entry

        def wake_rank(waiter: int, arrival: float) -> None:
            """Complete one parked side for ``waiter``; schedules its
            continuation once its blocking condition is fully satisfied.

            A notification runs at its message's arrival instant and every
            other completion the waiter waited for lies at or before it, so
            the continuation is due now."""
            state = pending_states[waiter]
            kind = state[0]
            if kind == "wait":
                state[3] -= 1
                if state[3]:
                    return
                t0 = state[2]
                t2 = t0
                for side, m in state[1]:
                    completion = (m.send_time if side == "send" and m.eager
                                  else m.arrival)
                    if completion > t2:
                        t2 = completion
                request_wait_t[waiter] += t2 - t0
                if collect:
                    add_interval(waiter, t0, t2, state_request_wait)
            elif kind == "recv":
                t0 = state[2]
                t2 = arrival if arrival > t0 else t0
                recv_wait_t[waiter] += t2 - t0
                if collect:
                    add_interval(waiter, t0, t2, state_recv_wait)
            else:  # "send" (blocking rendezvous)
                t0 = state[2]
                t2 = arrival if arrival > t0 else t0
                send_wait_t[waiter] += t2 - t0
                if collect:
                    add_interval(waiter, t0, t2, state_send_wait)
            pending_states[waiter] = None
            pcs[waiter] += 1
            normal.append(waiter)

        def wake_all(message: _FastMessage) -> None:
            """Wake every rank parked on ``message``, in park order."""
            waiters = message.waiters
            message.waiters = []
            arrival = message.arrival
            for _side, waiter in waiters:
                wake_rank(waiter, arrival)

        def arrived(message: _FastMessage) -> None:
            """The DES ``arrived`` event pops: run its callbacks in
            registration order.  Parked receivers resume, and a rendezvous
            send's ``send_complete`` -- registered at the send posting, the
            ``"sc"`` entry -- is scheduled at its own place among them, one
            generation later.  Ranks parked on ``send_complete`` stay."""
            message.r_notified = True
            waiters = message.waiters
            if not waiters:
                return
            message.waiters = [entry for entry in waiters if entry[0] == "s"]
            arrival = message.arrival
            for side, waiter in waiters:
                if side == "r":
                    wake_rank(waiter, arrival)
                elif side == "sc":
                    normal.append(("sc", message))

        def finish_message(message: _FastMessage, arrival: float) -> None:
            """The transfer is complete at ``arrival``, the current instant:
            publish it and schedule the ``arrived`` notification.

            The DES delivers completion as a chain of NORMAL events: the
            ``arrived`` notification pops one generation after the wire
            end, and the rendezvous sender's send_complete one generation
            after that.  Pacing the notifications identically makes
            multi-rank wake-ups at one instant order the way the event
            backend orders them.
            """
            message.arrival = arrival
            if collect:
                add_communication(
                    src=message.src, dst=message.dst, size=message.size,
                    tag=message.tag, send_time=message.transfer_start,
                    recv_time=arrival)
            normal.append(message)

        def advance_transfer(message: _FastMessage, now: float) -> float:
            """One DES pop's worth of progress for a contended transfer;
            returns the current instant.

            Each invocation mirrors exactly one step of the event walk's
            transfer task: request the current hop's next resource --
            claiming a free slot synchronously but deferring the
            continuation one URGENT step, exactly as ``Resource.acquire``'s
            immediate grant does (an unlimited resource's grant too);
            parking in the FIFO queue when at
            capacity -- or, with the hop's resources all held, cross the
            wire, or, at the wire's end, release the hop (handing slots
            straight to queue heads, the DES release semantics) and start
            requesting the next hop.  Grants and handovers join the URGENT
            FIFO and wire ends the heap (the NORMAL FIFO when the wire has
            no length), so same-instant grant races resolve the way the
            event backend resolves them.  A step continues inline when
            nothing else could run before it.
            """
            nonlocal event_seq, contended, bytes_transferred
            size = message.size
            route = message.route
            hop_states = message.hop_states
            while True:
                if message.phase == 1:
                    # The wire of hop `hop_idx` was crossed at `now`:
                    # release.
                    for state in message.held:
                        waiting = state[2]
                        if waiting:
                            waiter = waiting.popleft()
                            waiter.held.append(state)
                            waiter.res_idx += 1
                            urgent.append(waiter)
                        else:
                            state[1] -= 1
                    message.held = []
                    message.hop_idx += 1
                    if message.hop_idx >= len(route):
                        bytes_transferred += size
                        record_queue_time(message.queue_time)
                        record_transfer_time(message.duration)
                        finish_message(message, now)
                        return now
                    message.res_idx = 0
                    message.requested_at = now
                    message.phase = 0
                    # Fall through: request the next hop's first resource.
                states = hop_states[message.hop_idx]
                i = message.res_idx
                if i < len(states):
                    state = states[i]
                    message.res_idx = i + 1
                    if state is not None:
                        if state[1] >= state[0]:
                            # At capacity: park in the FIFO queue (rewinding
                            # res_idx; the release that hands the slot over
                            # re-advances it).
                            message.res_idx = i
                            state[2].append(message)
                            contended += 1
                            return now
                        state[1] += 1
                        message.held.append(state)
                    # The continuation is one URGENT event later in the
                    # DES: it runs inline unless earlier URGENT work is
                    # pending.
                    if urgent:
                        urgent.append(message)
                        return now
                    continue
                # Every resource of the hop held: cross the wire (a NORMAL
                # timeout in the DES, its id allocated now, at scheduling).
                hop = route[message.hop_idx]
                hop_queue = now - message.requested_at
                if message.transfer_start is None:
                    message.transfer_start = now
                # Hop.transfer_time's expression, inline.
                bandwidth = hop.bandwidth_bytes_per_second
                hop_duration = (hop.latency if bandwidth == INFINITY
                                else hop.latency + size / bandwidth)
                message.queue_time += hop_queue
                message.duration += hop_duration
                # Looked up per crossing, so the keys keep first-crossing
                # order.
                times = hop_queue_times.get(hop.name)
                if times is None:
                    times = hop_queue_times[hop.name] = []
                times.append(hop_queue)
                message.phase = 1
                end = now + hop_duration
                if urgent or normal or (heap and heap[0][0] <= end):
                    if end == now:
                        normal.append(message)
                    else:
                        event_seq += 1
                        heappush(heap, (end, event_seq, message))
                    return now
                now = end

        def resolve(message: _FastMessage) -> None:
            """Both postings exist: launch (or complete) the transfer.

            Mirrors the event walk's transfer task: the transfer starts at
            the match instant; intranode bypasses the network; an
            internode route with no limited resource chains
            ``latency + size/bw`` per hop in closed form (bit-exact --
            ``InfiniteResource`` grants take no DES time); a route with
            limited resources walks hop by hop through the FIFO model, so
            its arrival is computed later and blocking ranks park on the
            message meanwhile.
            """
            nonlocal matched, event_seq, bytes_transferred, intranode_transfers
            matched += 1
            size = message.size
            if message.eager:
                start = message.send_time
            else:
                recv_time = message.recv_time
                send_time = message.send_time
                start = send_time if send_time >= recv_time else recv_time
            src_node = message.src // ppn
            dst_node = message.dst // ppn
            if src_node == dst_node:
                duration = intranode_time(size, intranode=True)
                message.transfer_start = start
                bytes_transferred += size
                intranode_transfers += 1
                record_queue_time(0.0)
                record_transfer_time(duration)
                arrival = start + duration
            else:
                entry = routes.get((src_node, dst_node))
                if entry is None:
                    entry = route_entry(src_node, dst_node)
                route, hop_states = entry
                if hop_states is not None:
                    # Contended route.  `start` equals the posting rank's
                    # clock (eager: the send instant; rendezvous: the
                    # later posting, which is the rank running right now),
                    # so the start is the current instant; it is URGENT,
                    # as the transfer task's first step in the DES.
                    message.route = route
                    message.hop_states = hop_states
                    message.hop_idx = 0
                    message.res_idx = 0
                    message.requested_at = start
                    message.held = []
                    message.queue_time = 0.0
                    message.duration = 0.0
                    message.phase = 0
                    urgent.append(message)
                    return
                ready = start
                duration = 0.0
                for hop in route:
                    hop_duration = hop.transfer_time(size)
                    duration += hop_duration
                    ready = ready + hop_duration
                message.transfer_start = start
                for hop in route:
                    hop_queue_times.setdefault(hop.name, []).append(0.0)
                bytes_transferred += size
                record_queue_time(0.0)
                record_transfer_time(duration)
                arrival = ready
            # Pace even the closed-form completion like a wire end (the DES
            # delivers it as a timeout whose id was allocated at the
            # transfer start, which is now), so its wake-ups tie-break
            # against in-flight contended transfers the way the event
            # backend's do.
            if arrival == start:
                normal.append(("fin", message, arrival))
            else:
                event_seq += 1
                heappush(heap, (arrival, event_seq, ("fin", message, arrival)))

        while True:
            if urgent:
                payload = urgent.popleft()
                if type(payload) is _FastMessage:
                    now = advance_transfer(payload, now)
                    continue
            elif normal:
                payload = normal.popleft()
                kind = type(payload)
                if kind is _FastMessage:
                    if payload.arrival is None:  # a wire end
                        now = advance_transfer(payload, now)
                    else:  # the DES `arrived` event pop
                        arrived(payload)
                    continue
                if kind is tuple:  # completion-chain notification
                    if payload[0] == "sc":  # the DES send_complete pop
                        message = payload[1]
                        message.s_notified = True
                        wake_all(message)
                    else:  # "fin": a closed-form transfer end
                        finish_message(payload[1], payload[2])
                    continue
            elif heap:
                now, _, payload = heappop(heap)
                # A new instant.  Its other heap entries were created
                # before anything created here, so they join the NORMAL
                # FIFO first, in creation order.
                while heap and heap[0][0] == now:
                    normal.append(heappop(heap)[2])
                kind = type(payload)
                if kind is _FastMessage:  # a wire end
                    now = advance_transfer(payload, now)
                    continue
                if kind is tuple:  # a closed-form transfer end
                    finish_message(payload[1], payload[2])
                    continue
            else:
                break
            rank = payload
            t = now
            rank_ops = ops_by_rank[rank]
            rank_plan = plan_by_rank[rank]
            n = lens[rank]
            pc = pcs[rank]
            reqs = requests_by_rank[rank]
            running = True
            while pc < n:
                op, record = rank_ops[pc]
                if op == OP_CPU:
                    t2 = t + record.instructions / duration_denominator
                    compute_t[rank] += t2 - t
                    if collect:
                        add_interval(rank, t, t2, state_running)
                    pc += 1
                    # The burst is a NORMAL timeout in the DES: pace the
                    # continuation -- unless no other event can run before
                    # it, in which case the walk continues inline.
                    if urgent or normal or (heap and heap[0][0] <= t2):
                        pcs[rank] = pc
                        if t2 == t:
                            normal.append(rank)
                        else:
                            event_seq += 1
                            heappush(heap, (t2, event_seq, rank))
                        running = False
                        break
                    t = t2
                    continue
                if has_overhead:
                    if overhead_pending[rank]:
                        overhead_pending[rank] = False
                    else:
                        t2 = t + mpi_overhead
                        overhead_t[rank] += t2 - t
                        if collect:
                            add_interval(rank, t, t2, state_running)
                        # Pace the overhead charge too; the op itself runs
                        # at the wake-up.
                        if urgent or normal or (heap and heap[0][0] <= t2):
                            overhead_pending[rank] = True
                            pcs[rank] = pc
                            if t2 == t:
                                normal.append(rank)
                            else:
                                event_seq += 1
                                heappush(heap, (t2, event_seq, rank))
                            running = False
                            break
                        t = t2
                if op == OP_SEND:
                    index = rank_plan[pc]
                    message = messages[index]
                    if message is None:
                        message = messages[index] = _FastMessage(
                            rank, record.dst, record.tag)
                        recv_posted = False
                    else:
                        messages[index] = None
                        recv_posted = True
                    size = record.size
                    message.size = size
                    message.send_posted = True
                    message.send_time = t
                    bytes_sent_a[rank] += size
                    msgs_sent_a[rank] += 1
                    if size <= eager_threshold:
                        message.eager = True
                        # Eager transfers launch at the send posting; the
                        # sender is complete immediately.
                        resolve(message)
                        if record.blocking:
                            if collect:
                                add_interval(rank, t, t, state_send_wait)
                            # The DES sender still parks one generation on
                            # the (already succeeded) send_complete event's
                            # pop, due now (the heap holds only later
                            # entries).
                            if urgent or normal:
                                pcs[rank] = pc + 1
                                normal.append(rank)
                                running = False
                                break
                        else:
                            reqs[record.request] = ("send", message, pc)
                    else:
                        # The DES registers send_complete.succeed as an
                        # `arrived` callback right here: after every
                        # receiver already parked, before later ones.
                        message.waiters.append(("sc", rank))
                        if recv_posted:
                            resolve(message)
                        if record.blocking:
                            if not message.s_notified:
                                message.waiters.append(("s", rank))
                                pending_states[rank] = ("send", message, t)
                                pcs[rank] = pc
                                running = False
                                break
                            arrival = message.arrival
                            t2 = arrival if arrival > t else t
                            send_wait_t[rank] += t2 - t
                            if collect:
                                add_interval(rank, t, t2, state_send_wait)
                            t = t2
                        else:
                            reqs[record.request] = ("send", message, pc)
                elif op == OP_RECV:
                    index = rank_plan[pc]
                    message = messages[index]
                    if message is None:
                        message = messages[index] = _FastMessage(
                            record.src, rank, record.tag)
                        send_posted = False
                    else:
                        messages[index] = None
                        send_posted = True
                    message.recv_time = t
                    bytes_recv_a[rank] += record.size
                    msgs_recv_a[rank] += 1
                    # An eager transfer launched at its send posting.
                    if send_posted and not message.eager:
                        resolve(message)
                    if record.blocking:
                        if not message.r_notified:
                            message.waiters.append(("r", rank))
                            pending_states[rank] = ("recv", message, t)
                            pcs[rank] = pc
                            running = False
                            break
                        arrival = message.arrival
                        t2 = arrival if arrival > t else t
                        recv_wait_t[rank] += t2 - t
                        if collect:
                            add_interval(rank, t, t2, state_recv_wait)
                        t = t2
                    else:
                        reqs[record.request] = ("recv", message, pc)
                elif op == OP_WAIT:
                    if record.requests:
                        items = []
                        unresolved = None
                        for request_id in record.requests:
                            try:
                                side, message, _ = reqs.pop(request_id)
                            except KeyError:
                                raise SimulationError(format_defect(
                                    "TL302", rank, pc,
                                    f"waits on unknown request {request_id}"
                                )) from None
                            items.append((side, message))
                            # Eager sends complete at their posting; every
                            # other request completes at the arrival, which
                            # may not be notified yet.
                            if side == "send" and message.eager:
                                continue
                            if not (message.s_notified if side == "send"
                                    else message.r_notified):
                                park = ("s" if side == "send" else "r",
                                        message)
                                if unresolved is None:
                                    unresolved = [park]
                                else:
                                    unresolved.append(park)
                        if unresolved:
                            for park_side, message in unresolved:
                                message.waiters.append((park_side, rank))
                            pending_states[rank] = ["wait", items, t,
                                                    len(unresolved)]
                            pcs[rank] = pc
                            running = False
                            break
                        t2 = t
                        for side, message in items:
                            completion = (message.send_time
                                          if side == "send" and message.eager
                                          else message.arrival)
                            if completion > t2:
                                t2 = completion
                        request_wait_t[rank] += t2 - t
                        if collect:
                            add_interval(rank, t, t2, state_request_wait)
                        # A fully satisfied wait still pops once in the DES
                        # (AllOf succeeds at construction, the process
                        # resumes at its pop), due now: every completion it
                        # waited for was notified at or before now.
                        if urgent or normal:
                            pcs[rank] = pc + 1
                            normal.append(rank)
                            running = False
                            break
                        t = t2
                elif op == OP_COLLECTIVE:
                    # The classifier already proved cross-rank agreement on
                    # collective counts and parameters (disagreement falls
                    # back to the DES so TL201/TL203 fire with their exact
                    # texts), so entry here only counts and synchronises.
                    index = coll_next[rank]
                    coll_next[rank] = index + 1
                    if index < len(collectives):
                        instance = collectives[index]
                    else:
                        instance = _FastCollective(
                            record.operation, record.root, record.size)
                        collectives.append(instance)
                    collectives_a[rank] += 1
                    instance.count += 1
                    if instance.count == num_ranks:
                        last = instance.last
                        if t > last:
                            last = t
                        duration = collective_duration(
                            instance.operation, instance.size, num_ranks,
                            platform)
                        # Float-replicates the walk's departure: resume at
                        # the last arrival, then timeout(finish - last)
                        # only if positive.
                        remaining = (last + duration) - last
                        exit_time = last + remaining if remaining > 0 else last
                        collective_t[rank] += exit_time - t
                        if collect:
                            add_interval(rank, t, exit_time, state_collective)
                        # The departures are paced in the DES's resume
                        # order: every rank resumes at the all_arrived pop
                        # in callback-registration order -- the waiters in
                        # entry order, the last entrant (who registered
                        # after succeeding the event) last.
                        for waiter, t0 in instance.waiters:
                            collective_t[waiter] += exit_time - t0
                            if collect:
                                add_interval(waiter, t0, exit_time,
                                             state_collective)
                            pending_states[waiter] = None
                            pcs[waiter] += 1
                            if exit_time == t:
                                normal.append(waiter)
                            else:
                                event_seq += 1
                                heappush(heap, (exit_time, event_seq, waiter))
                        instance.waiters = []
                        pcs[rank] = pc + 1
                        if exit_time == t:
                            normal.append(rank)
                        else:
                            event_seq += 1
                            heappush(heap, (exit_time, event_seq, rank))
                        running = False
                        break
                    if t > instance.last:
                        instance.last = t
                    instance.waiters.append((rank, t))
                    pending_states[rank] = ("collective",)
                    pcs[rank] = pc
                    running = False
                    break
                else:
                    raise SimulationError(
                        f"rank {rank}: unknown record {record!r}")
                pc += 1
            now = t
            if running:
                if reqs:
                    self._leftover_requests(rank, reqs)
                pcs[rank] = pc
                finish_t[rank] = t
                done[rank] = True
                finished += 1

        if finished < num_ranks:
            # Unreachable when the classifier's symbolic-matchability proof
            # holds; kept so an inconsistency surfaces as the engine's
            # standard deadlock report instead of silent wrong numbers.
            raise SimulationError(_deadlock_report(
                self.trace, [rank for rank in range(num_ranks)
                             if not done[rank]], pcs, messages))

        statistics.bytes_transferred += bytes_transferred
        statistics.intranode_transfers += intranode_transfers
        stats = self.stats
        for rank in range(num_ranks):
            rank_stats = stats[rank]
            rank_stats.compute_time = compute_t[rank]
            rank_stats.mpi_overhead_time = overhead_t[rank]
            rank_stats.send_wait_time = send_wait_t[rank]
            rank_stats.recv_wait_time = recv_wait_t[rank]
            rank_stats.request_wait_time = request_wait_t[rank]
            rank_stats.collective_time = collective_t[rank]
            rank_stats.finish_time = finish_t[rank]
            rank_stats.bytes_sent = bytes_sent_a[rank]
            rank_stats.messages_sent = msgs_sent_a[rank]
            rank_stats.bytes_received = bytes_recv_a[rank]
            rank_stats.messages_received = msgs_recv_a[rank]
            rank_stats.collectives = collectives_a[rank]
        self._progress = pcs
        self.messages_matched = matched
        env.advance_to(max(finish_t, default=0.0))
        return contended


def _deadlock_report(trace: Trace, stuck: Sequence[int],
                     progress: Sequence[int], slots) -> str:
    """The error text of a replay whose ``stuck`` ranks never finished.

    ``progress`` holds each rank's record position and ``slots`` the walk's
    per-message slots: a slot still holds its message exactly while one
    side has posted.
    """
    details = []
    for rank in stuck:
        position = progress[rank]
        records = trace[rank].records
        record = records[position] if position < len(records) else None
        details.append(f"rank {rank} stuck at record {position} ({record!r})")
    pending = [message for message in slots if message is not None]
    sends = sum(1 for message in pending if message.send_posted)
    unmatched = {"sends": sends, "recvs": len(pending) - sends}
    return ("replay deadlocked: " + "; ".join(details)
            + f"; unmatched postings: {unmatched}")


def _network_summary(statistics: NetworkStatistics, messages_matched: int,
                     platform: Platform) -> Dict[str, Any]:
    """The network statistics dict every walk returns."""
    network_stats: Dict[str, Any] = statistics.summary()
    network_stats["messages_matched"] = messages_matched
    network_stats["topology"] = platform.topology.kind
    network_stats["hop_queue_time"] = statistics.hop_queue_time
    network_stats["hop_transfers"] = statistics.hop_transfers
    return network_stats


def _vector_walk(trace: Trace, platforms: Sequence[Platform]
                 ) -> List[Tuple[float, List[RankStats], Dict[str, Any]]]:
    """The lane walk: one structural pass with a clock lane per platform.

    Serves proven cells (see :func:`repro.dimemas.windows.classify`) that
    record no timeline and share one structural signature (see
    :func:`repro.dimemas.gridreplay.cohort_signature`).  On such cells
    nothing structural depends on time: a rank parks only when a message
    counterpart has not been posted yet, a wait has unresolved requests,
    or a collective's entry count is below the rank count; matching is
    FIFO per ``(src, dst, tag)``; and every time recurrence is a max/+
    form, so the order in which runnable ranks advance cannot change any
    number.  The walk therefore carries a vector of clocks -- one lane per
    platform -- through the exact float expressions of the event walk, in
    the same program order per lane, which makes each lane bit-identical
    to the event backend's replay of its cell in time and rank statistics.

    Transfer physics is bound once per hop class.  All lanes share one
    topology shape, so a node pair's route crosses the same hop names in
    every lane, and within one network model a hop's name fixes its
    latency and bandwidth (see :class:`~repro.dimemas.topology.Hop`).  So
    the first lane's model names each node pair's hops, the lane hops are
    looked up once per tuple of hop names (routing one node pair of that
    class through every lane's model), and each lane vector of hop
    durations is computed once per ``(hop names, size)``.

    Network statistics follow from the same structure.  No transfer ever
    queues, and every transfer's size, intranode flag and hop crossings
    are the same in every lane; only its duration differs.  So the byte
    total, intranode count and per-hop crossing counts are taken once per
    walk, the per-transfer lane durations are transposed once into one
    column per lane, and each lane's :class:`NetworkStatistics` is built
    from those counts and its column alone
    (:meth:`NetworkStatistics.unqueued`).  Its aggregates are exact sums,
    so they equal the event walk's whatever order it recorded in.
    Returns one ``(total_time, rank stats, network stats)`` tuple per
    platform, in order.
    """
    width = len(platforms)
    lanes = range(width)
    num_ranks = trace.num_ranks
    prepared = trace.prepared()
    ops_by_rank = prepared.ops
    plan = prepared.message_plan()
    plan_by_rank = plan.indices
    reference = platforms[0]
    ppn = reference.processors_per_node
    eager_threshold = reference.eager_threshold
    timebase = TimeBase(trace.mips)
    denominators = [timebase.instructions_per_second
                    * platform.relative_cpu_speed for platform in platforms]
    overheads = [platform.mpi_overhead for platform in platforms]
    has_overhead = any(overhead > 0.0 for overhead in overheads)

    # Per-cell physics through the real network model objects: one model
    # per cell so hop/collective durations come from the exact code paths
    # the event walk uses (the throwaway environments never run -- on
    # proven cells no resource is ever contended).
    models = [build_network_model(Environment(), platform, num_ranks)
              for platform in platforms]
    names_model = models[0]

    intranode_memo: Dict[int, List[float]] = {}
    #: (src node, dst node) -> the names of the hops its route crosses.
    names_memo: Dict[Tuple[int, int], Tuple[str, ...]] = {}
    #: Hop names -> one tuple of lane hops per route position.
    hops_memo: Dict[Tuple[str, ...], List[Tuple[Hop, ...]]] = {}
    internode_memo: Dict[Tuple[Tuple[str, ...], int], Tuple[Any, ...]] = {}
    burst_memo: Dict[Any, List[float]] = {}
    collective_memo: Dict[Tuple[str, int], List[float]] = {}

    def burst_durations(instructions) -> List[float]:
        durations = burst_memo.get(instructions)
        if durations is None:
            durations = burst_memo[instructions] = [
                instructions / denominator for denominator in denominators]
        return durations

    def intranode_durations(size: int) -> List[float]:
        durations = intranode_memo.get(size)
        if durations is None:
            durations = intranode_memo[size] = [
                platform.transfer_time(size, intranode=True)
                for platform in platforms]
        return durations

    def internode_durations(src_node: int, dst_node: int, size: int):
        """(hop names, lane total durations, one lane vector per hop)."""
        pair = (src_node, dst_node)
        names = names_memo.get(pair)
        if names is None:
            names = names_memo[pair] = tuple(
                hop.name for hop in names_model.route(src_node, dst_node))
        key = (names, size)
        entry = internode_memo.get(key)
        if entry is None:
            hops_by_position = hops_memo.get(names)
            if hops_by_position is None:
                hops_by_position = hops_memo[names] = list(zip(*[
                    model.route(src_node, dst_node) for model in models]))
            hop_vectors = [[hop.transfer_time(size) for hop in lane_hops]
                           for lane_hops in hops_by_position]
            # Summed hop by hop from 0.0, as the event walk's fabric does.
            totals = [0.0] * width
            for durations in hop_vectors:
                totals = [t + d for t, d in zip(totals, durations)]
            entry = internode_memo[key] = (names, totals, hop_vectors)
        return entry

    def collective_durations(operation: str, size: int) -> List[float]:
        key = (operation, size)
        durations = collective_memo.get(key)
        if durations is None:
            durations = collective_memo[key] = [
                collective_duration(operation, size, num_ranks, platform)
                for platform in platforms]
        return durations

    # Vector accumulators: [rank][lane].  The integer counters are
    # structural (identical across lanes), so they stay scalar.
    compute_t = [[0.0] * width for _ in range(num_ranks)]
    overhead_t = [[0.0] * width for _ in range(num_ranks)]
    send_wait_t = [[0.0] * width for _ in range(num_ranks)]
    recv_wait_t = [[0.0] * width for _ in range(num_ranks)]
    request_wait_t = [[0.0] * width for _ in range(num_ranks)]
    collective_t = [[0.0] * width for _ in range(num_ranks)]
    finish_vecs: List[Optional[List[float]]] = [None] * num_ranks
    bytes_sent_a = [0] * num_ranks
    msgs_sent_a = [0] * num_ranks
    bytes_recv_a = [0] * num_ranks
    msgs_recv_a = [0] * num_ranks
    collectives_a = [0] * num_ranks

    pcs = [0] * num_ranks
    lens = [len(rank_ops) for rank_ops in ops_by_rank]
    clocks: List[List[float]] = [[0.0] * width for _ in range(num_ranks)]
    pending_states: List[Any] = [None] * num_ranks
    requests_by_rank: List[Dict[int, Tuple[str, _GridMessage, int]]] = [
        {} for _ in range(num_ranks)]
    coll_next = [0] * num_ranks
    collectives: List[_GridCollective] = []
    #: Plan index -> the message while only one side has posted.  Taking
    #: it out at the second posting keeps a wide cohort's vectors from
    #: outliving their message.
    messages: List[Optional[_GridMessage]] = [None] * plan.count
    #: Transfers as (size, lane durations, hop names) -- names None for
    #: intranode -- turned into each lane's statistics at the end.
    stat_buffer: List[Tuple[Any, ...]] = []
    runnable = deque(range(num_ranks))
    done = [False] * num_ranks
    finished = 0
    matched = 0

    def wake_rank(waiter: int, arrival: List[float]) -> None:
        state = pending_states[waiter]
        kind = state[0]
        if kind == "wait":
            state[3] -= 1
            if state[3]:
                return
            t0 = state[2]
            t2 = list(t0)
            for side, message in state[1]:
                completion = (message.send_time
                              if side == "send" and message.eager
                              else message.arrival)
                for i in lanes:
                    if completion[i] > t2[i]:
                        t2[i] = completion[i]
            row = request_wait_t[waiter]
            for i in lanes:
                row[i] += t2[i] - t0[i]
        elif kind == "recv":
            t0 = state[2]
            t2 = [a if a > b else b for a, b in zip(arrival, t0)]
            row = recv_wait_t[waiter]
            for i in lanes:
                row[i] += t2[i] - t0[i]
        else:  # "send" (blocking rendezvous)
            t0 = state[2]
            t2 = [a if a > b else b for a, b in zip(arrival, t0)]
            row = send_wait_t[waiter]
            for i in lanes:
                row[i] += t2[i] - t0[i]
        pending_states[waiter] = None
        pcs[waiter] += 1
        clocks[waiter] = t2
        runnable.append(waiter)

    def finish_message(message: _GridMessage, arrival: List[float]) -> None:
        message.arrival = arrival
        waiters = message.waiters
        if not waiters:
            return
        message.waiters = []
        for _side, waiter in waiters:
            wake_rank(waiter, arrival)

    def resolve(message: _GridMessage) -> None:
        nonlocal matched
        matched += 1
        size = message.size
        if message.eager:
            start = message.send_time
        else:
            start = [s if s >= r else r
                     for s, r in zip(message.send_time, message.recv_time)]
        src_node = message.src // ppn
        dst_node = message.dst // ppn
        if src_node == dst_node:
            durations = intranode_durations(size)
            stat_buffer.append((size, durations, None))
            arrival = [s + d for s, d in zip(start, durations)]
        else:
            names, totals, hop_vectors = internode_durations(
                src_node, dst_node, size)
            stat_buffer.append((size, totals, names))
            arrival = start
            for durations in hop_vectors:
                arrival = [a + d for a, d in zip(arrival, durations)]
        finish_message(message, arrival)

    while runnable:
        rank = runnable.popleft()
        t = clocks[rank]
        rank_ops = ops_by_rank[rank]
        rank_plan = plan_by_rank[rank]
        n = lens[rank]
        pc = pcs[rank]
        reqs = requests_by_rank[rank]
        running = True
        while pc < n:
            op, record = rank_ops[pc]
            if op == OP_CPU:
                durations = burst_durations(record.instructions)
                t2 = [a + d for a, d in zip(t, durations)]
                row = compute_t[rank]
                for i in lanes:
                    row[i] += t2[i] - t[i]
                t = t2
                pc += 1
                continue
            if has_overhead:
                t2 = [a + o for a, o in zip(t, overheads)]
                row = overhead_t[rank]
                for i in lanes:
                    row[i] += t2[i] - t[i]
                t = t2
            if op == OP_SEND:
                index = rank_plan[pc]
                message = messages[index]
                if message is None:
                    message = messages[index] = _GridMessage(
                        rank, record.dst, record.tag)
                    recv_posted = False
                else:
                    messages[index] = None
                    recv_posted = True
                size = record.size
                message.size = size
                message.send_time = t
                bytes_sent_a[rank] += size
                msgs_sent_a[rank] += 1
                if size <= eager_threshold:
                    message.eager = True
                    # Eager transfers launch at the send posting; the
                    # sender is complete immediately.
                    resolve(message)
                    if not record.blocking:
                        reqs[record.request] = ("send", message, pc)
                else:
                    if recv_posted:
                        resolve(message)
                    if record.blocking:
                        arrival = message.arrival
                        if arrival is None:
                            message.waiters.append(("s", rank))
                            pending_states[rank] = ("send", message, t)
                            pcs[rank] = pc
                            running = False
                            break
                        t2 = [a if a > b else b for a, b in zip(arrival, t)]
                        row = send_wait_t[rank]
                        for i in lanes:
                            row[i] += t2[i] - t[i]
                        t = t2
                    else:
                        reqs[record.request] = ("send", message, pc)
            elif op == OP_RECV:
                index = rank_plan[pc]
                message = messages[index]
                if message is None:
                    message = messages[index] = _GridMessage(
                        record.src, rank, record.tag)
                    send_posted = False
                else:
                    messages[index] = None
                    send_posted = True
                message.recv_time = t
                bytes_recv_a[rank] += record.size
                msgs_recv_a[rank] += 1
                # An eager transfer launched at its send posting.
                if send_posted and not message.eager:
                    resolve(message)
                if record.blocking:
                    arrival = message.arrival
                    if arrival is None:
                        message.waiters.append(("r", rank))
                        pending_states[rank] = ("recv", message, t)
                        pcs[rank] = pc
                        running = False
                        break
                    t2 = [a if a > b else b for a, b in zip(arrival, t)]
                    row = recv_wait_t[rank]
                    for i in lanes:
                        row[i] += t2[i] - t[i]
                    t = t2
                else:
                    reqs[record.request] = ("recv", message, pc)
            elif op == OP_WAIT:
                if record.requests:
                    items = []
                    unresolved = None
                    for request_id in record.requests:
                        try:
                            side, message, _ = reqs.pop(request_id)
                        except KeyError:
                            raise SimulationError(format_defect(
                                "TL302", rank, pc,
                                f"waits on unknown request {request_id}"
                            )) from None
                        items.append((side, message))
                        if side == "send" and message.eager:
                            continue
                        if message.arrival is None:
                            park = ("s" if side == "send" else "r", message)
                            if unresolved is None:
                                unresolved = [park]
                            else:
                                unresolved.append(park)
                    if unresolved:
                        for park_side, message in unresolved:
                            message.waiters.append((park_side, rank))
                        pending_states[rank] = ["wait", items, t,
                                                len(unresolved)]
                        pcs[rank] = pc
                        running = False
                        break
                    t2 = list(t)
                    for side, message in items:
                        completion = (message.send_time
                                      if side == "send" and message.eager
                                      else message.arrival)
                        for i in lanes:
                            if completion[i] > t2[i]:
                                t2[i] = completion[i]
                    row = request_wait_t[rank]
                    for i in lanes:
                        row[i] += t2[i] - t[i]
                    t = t2
            elif op == OP_COLLECTIVE:
                index = coll_next[rank]
                coll_next[rank] = index + 1
                if index < len(collectives):
                    instance = collectives[index]
                else:
                    instance = _GridCollective(
                        record.operation, record.root, record.size, width)
                    collectives.append(instance)
                collectives_a[rank] += 1
                instance.count += 1
                if instance.count == num_ranks:
                    last = [a if a > b else b
                            for a, b in zip(t, instance.last)]
                    durations = collective_durations(
                        instance.operation, instance.size)
                    exit_time = []
                    for i in lanes:
                        arrived = last[i]
                        remaining = (arrived + durations[i]) - arrived
                        exit_time.append(arrived + remaining
                                         if remaining > 0 else arrived)
                    row = collective_t[rank]
                    for i in lanes:
                        row[i] += exit_time[i] - t[i]
                    for waiter, t0 in instance.waiters:
                        waiter_row = collective_t[waiter]
                        for i in lanes:
                            waiter_row[i] += exit_time[i] - t0[i]
                        pending_states[waiter] = None
                        pcs[waiter] += 1
                        clocks[waiter] = exit_time
                        runnable.append(waiter)
                    instance.waiters = []
                    t = exit_time
                else:
                    instance.last = [a if a > b else b
                                     for a, b in zip(t, instance.last)]
                    instance.waiters.append((rank, t))
                    pending_states[rank] = ("collective",)
                    pcs[rank] = pc
                    running = False
                    break
            else:
                raise SimulationError(
                    f"rank {rank}: unknown record {record!r}")
            pc += 1
        if running:
            if reqs:
                ReplayEngine._leftover_requests(rank, reqs)
            pcs[rank] = pc
            finish_vecs[rank] = t
            done[rank] = True
            finished += 1

    if finished < num_ranks:
        # Unreachable when the classifier's matchability proof holds (the
        # structural walk blocks exactly where the symbolic replay does);
        # kept so an inconsistency surfaces loudly instead of as wrong
        # numbers.
        stuck = [rank for rank in range(num_ranks) if not done[rank]]
        raise SimulationError(
            f"grid replay deadlocked: ranks {stuck} blocked "
            f"(pcs {[pcs[rank] for rank in stuck]})")

    sizes, lane_durations, routes = (zip(*stat_buffer) if stat_buffer
                                     else ((), (), ()))
    bytes_transferred = sum(sizes)
    route_counts = Counter(routes)
    intranode_transfers = route_counts.pop(None, 0)
    hop_crossings: Dict[str, int] = {}
    for names, count in route_counts.items():
        for name in names:
            hop_crossings[name] = hop_crossings.get(name, 0) + count
    # One transpose: each lane's transfer times as one column.
    columns = list(zip(*lane_durations)) or [()] * width
    results = []
    for i in lanes:
        statistics = NetworkStatistics.unqueued(
            bytes_transferred, intranode_transfers, hop_crossings,
            list(columns[i]))
        network_stats = _network_summary(statistics, matched, platforms[i])
        rank_stats = []
        total_time = 0.0
        for rank in range(num_ranks):
            stats = RankStats(rank=rank)
            stats.compute_time = compute_t[rank][i]
            stats.mpi_overhead_time = overhead_t[rank][i]
            stats.send_wait_time = send_wait_t[rank][i]
            stats.recv_wait_time = recv_wait_t[rank][i]
            stats.request_wait_time = request_wait_t[rank][i]
            stats.collective_time = collective_t[rank][i]
            stats.finish_time = finish_vecs[rank][i]
            stats.bytes_sent = bytes_sent_a[rank]
            stats.messages_sent = msgs_sent_a[rank]
            stats.bytes_received = bytes_recv_a[rank]
            stats.messages_received = msgs_recv_a[rank]
            stats.collectives = collectives_a[rank]
            rank_stats.append(stats)
            if stats.finish_time > total_time:
                total_time = stats.finish_time
        results.append((total_time, rank_stats, network_stats))
    return results
