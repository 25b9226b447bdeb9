"""Per-rank replay processes and the collective coordinator.

Every rank of the trace becomes one DES process that walks its record list:
computation bursts advance local time (scaled by the platform's relative CPU
speed), point-to-point records go through the matcher and the network, and
collective records synchronise through the :class:`CollectiveCoordinator`,
which applies the platform's pluggable collective cost model
(:mod:`repro.dimemas.collectives`: closed-form ``analytical`` durations or
``decomposed`` point-to-point phase schedules routed over the fabric).

The per-rank walk is the hottest loop of the whole system (every sweep cell
replays every record of every rank), so it is written as a fast path:

* records are dispatched through the precomputed per-record-type opcode
  table of the prepared trace (:meth:`repro.tracing.trace.Trace.prepared`)
  instead of an ``isinstance`` chain;
* every per-iteration attribute lookup (environment clock, matcher posting
  methods, stats object, timeout factory, CPU resource of the rank) is
  hoisted out of the loop;
* timeline recording is pluggable: with ``collect_timeline=False`` the
  engine installs a :class:`~repro.paraver.timeline.NullRecorder` and the
  loop skips interval bookkeeping entirely.

The fast path is pinned bit-identical to the straightforward implementation
by the golden tests in ``tests/dimemas/test_replay_golden.py``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import format_defect
from repro.des import Environment, Event, Resource
from repro.des.events import PENDING
from repro.des.resources import InfiniteResource
from repro.dimemas.collectives import build_collective_model
from repro.dimemas.collectives.analytical import collective_duration
from repro.dimemas.matching import MessageMatcher
from repro.dimemas.messages import Message
from repro.dimemas.network import NetworkFabric
from repro.dimemas.platform import Platform
from repro.dimemas.results import RankStats
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


class _WaitAll(Event):
    """Barrier on a list of events, specialised for the replay wait path.

    Triggers exactly when :class:`~repro.des.AllOf` would (the callback of
    the last child event), but skips the generic condition machinery -- no
    evaluate closure per child, no value dictionary -- because the replay
    loop never reads the wait's value.  A failing child fails the wait, as
    with the generic condition.
    """

    __slots__ = ("_remaining",)

    def __init__(self, env: Environment, events):
        Event.__init__(self, env)
        self._remaining = len(events)
        check = self._check
        for event in events:
            event.add_callback(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._remaining -= 1
        if not self._remaining:
            self.succeed(None)


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
    """Message state of the adaptive fast-forward interpreter.

    The closed-form interpreter never schedules events, so it replaces
    :class:`~repro.dimemas.messages.Message` (whose lifecycle is built from
    DES events) with a plain record: posting flags and times, the computed
    arrival instant (``None`` until both required postings exist) and the
    ranks blocked on this message -- ``("r", rank)`` on the arrival,
    ``("s", rank)`` on the send completion, plus, on contended cells, the
    ``("sc", sender)`` slot where a rendezvous send's completion callback
    sits among the arrival's callbacks.
    """

    __slots__ = ("src", "dst", "tag", "order", "size", "eager", "send_posted",
                 "recv_posted", "send_time", "recv_time", "arrival",
                 "transfer_start", "waiters", "r_notified", "s_notified")

    def __init__(self, src: int, dst: int, tag: int, order: int = 0):
        self.src = src
        self.dst = dst
        self.tag = tag
        # Pair index within (src, dst, tag): matching is FIFO per key, so
        # the k-th created message of a key IS the k-th matched pair --
        # a time-independent identity used to emit network statistics in
        # canonical order on proven cells (see _run_adaptive).
        self.order = order
        self.size = 0
        self.eager = False
        self.send_posted = False
        self.recv_posted = False
        self.send_time = 0.0
        self.recv_time = 0.0
        self.arrival: Optional[float] = None
        self.transfer_start: Optional[float] = None
        self.waiters: List[Tuple[str, int]] = []
        # Contended-cell notification state: True once the heap analogue of
        # the DES `arrived` / `send_complete` pop has run (a rank reaching
        # a completed message before its notification pop must still park,
        # exactly as a DES process waiting on a succeeded-but-unpopped
        # event does).  Proven cells never read these.
        self.r_notified = False
        self.s_notified = False


class _FastCollective:
    """Collective state of the adaptive fast-forward interpreter.

    The window classifier already proved every rank enters the same
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


class _TransferTask:
    """One in-flight contended transfer of the adaptive interpreter.

    Walks its route exactly like ``NetworkFabric._transfer``: acquire the
    hop's limited resources in the hop's fixed order (FIFO per resource,
    holding earlier ones while queued on later ones), cross the wire, hand
    released slots to queue heads, move to the next hop.  The walk is
    driven by (time, 0, seq, task) entries on the interpreter's ready heap
    instead of DES events.
    """

    __slots__ = ("message", "route", "hop_idx", "res_idx", "requested_at",
                 "held", "queue_time", "duration", "phase")

    def __init__(self, message: _FastMessage, route, now: float):
        self.message = message
        self.route = route
        self.hop_idx = 0
        self.res_idx = 0
        self.requested_at = now
        self.held: List[Any] = []
        self.queue_time = 0.0
        self.duration = 0.0
        #: 0 = acquiring the current hop's resources, 1 = crossing its wire.
        self.phase = 0


class ReplayEngine:
    """Builds and runs the whole replay of one trace on one platform.

    ``collect_timeline`` selects the timeline recorder: ``True`` (the
    default, and the behaviour of every interactive entry point) records
    per-rank state intervals and communication lines; ``False`` installs a
    :class:`~repro.paraver.timeline.NullRecorder` so metric-only callers
    (bandwidth sweeps, experiment grids) skip the recording cost.  The
    scalar results -- total time, rank statistics, network statistics --
    are bit-identical either way.
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
        self.matcher = MessageMatcher(self.env, platform, self.network)
        self.coordinator = CollectiveCoordinator(
            self.env, platform, trace.num_ranks, network=self.network)
        self.timebase = TimeBase(trace.mips)
        self.stats = [RankStats(rank=r) for r in range(trace.num_ranks)]
        self._progress: List[int] = [0] * trace.num_ranks
        self._processes = []
        self._cpus: Dict[int, Resource] = {}
        #: Classifier verdict of the adaptive backend (None otherwise).
        self.window_plan: Optional[WindowPlan] = None
        #: How the adaptive backend ran this cell (None otherwise):
        #: mode, window counts, contended transfers.
        self.adaptive_summary: Optional[Dict[str, Any]] = None

    # -- public ------------------------------------------------------------
    def run(self) -> Tuple[float, List[RankStats], Timeline, Dict[str, float]]:
        """Run the replay and return (total_time, stats, timeline, network stats)."""
        prepared = self.trace.prepared()
        if self.platform.replay_backend == "adaptive":
            plan = classify(self.trace, self.platform)
            self.window_plan = plan
            if plan.viable:
                contended = self._run_adaptive(prepared)
                self.adaptive_summary = {
                    "backend": "adaptive",
                    "mode": "fast-forward",
                    "windows": plan.num_windows,
                    "proven_windows": plan.proven_windows,
                    "network_uncontended": plan.network_uncontended,
                    "proven_exact": plan.proven_exact,
                    "contended_transfers": contended,
                }
                return self._finalize()
            # Not fast-forwardable: the event walk below replays the cell
            # (and, for defective traces, raises its exact errors).
            self.adaptive_summary = {
                "backend": "adaptive",
                "mode": "des-fallback",
                "fallback_reason": plan.reason,
                "windows": plan.num_windows,
                "proven_windows": plan.proven_windows,
                "network_uncontended": plan.network_uncontended,
                "proven_exact": True,
                "contended_transfers": 0,
            }
        for rank, rank_ops in enumerate(prepared.ops):
            process = self.env.process(self._rank_process(rank, rank_ops),
                                       name=f"rank{rank}")
            self._processes.append(process)
        self.env.run()
        self._check_finished()
        return self._finalize()

    def _finalize(self) -> Tuple[float, List[RankStats], Timeline, Dict[str, float]]:
        total_time = max((stats.finish_time for stats in self.stats), default=0.0)
        network_stats = dict(self.network.statistics.summary())
        network_stats["messages_matched"] = self.matcher.messages_matched
        network_stats["topology"] = self.platform.topology.kind
        network_stats["hop_queue_time"] = dict(self.network.statistics.hop_queue_time)
        network_stats["hop_transfers"] = dict(self.network.statistics.hop_transfers)
        return total_time, self.stats, self.timeline, network_stats

    # -- internals ------------------------------------------------------------
    def _check_finished(self) -> None:
        stuck = [index for index, process in enumerate(self._processes)
                 if not process.triggered]
        if not stuck:
            return
        details = []
        for rank in stuck:
            position = self._progress[rank]
            records = self.trace[rank].records
            record = records[position] if position < len(records) else None
            details.append(f"rank {rank} stuck at record {position} ({record!r})")
        unmatched = self.matcher.unmatched()
        raise SimulationError(
            "replay deadlocked: " + "; ".join(details)
            + f"; unmatched postings: {unmatched}")

    def _cpu_resource(self, node: int) -> Optional[Resource]:
        if not self.platform.cpu_contention:
            return None
        if node not in self._cpus:
            self._cpus[node] = Resource(
                self.env, capacity=self.platform.processors_per_node,
                name=f"cpu[{node}]")
        return self._cpus[node]

    def _rank_process(self, rank: int, ops):
        # Hot loop: every name used per record is bound locally once, the
        # record type is dispatched through the precomputed opcode, and the
        # branches are ordered by record frequency (bursts first).
        env = self.env
        stats = self.stats[rank]
        collect = self.collect_timeline
        add_interval = self.timeline.add_interval
        timeout = env.schedule_timeout
        post_send = self.matcher.post_send
        post_recv = self.matcher.post_recv
        enter_collective = self.coordinator.enter
        progress = self._progress
        platform = self.platform
        mpi_overhead = platform.mpi_overhead
        # Same float expression as TimeBase.seconds() so burst durations
        # stay bit-identical: instructions / (mips * 1e6 * cpu_speed).
        duration_denominator = (self.timebase.instructions_per_second
                                * platform.relative_cpu_speed)
        cpu = self._cpu_resource(platform.node_of(rank))
        state_running = ThreadState.RUNNING
        state_idle = ThreadState.IDLE
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
                duration = record.instructions / duration_denominator
                if cpu is not None:
                    queue_start = env._now
                    grant = cpu.request()
                    try:
                        yield grant
                        if env._now > queue_start:
                            stats.cpu_queue_time += env._now - queue_start
                            if collect:
                                add_interval(rank, queue_start, env._now, state_idle)
                        start = env._now
                        yield timeout(duration)
                        stats.compute_time += env._now - start
                        if collect:
                            add_interval(rank, start, env._now, state_running)
                    finally:
                        # The grant must go back even if this process dies
                        # mid-burst (a failed replay elsewhere propagates
                        # through the DES); a leaked CPU slot would wedge
                        # every later burst on the node.  Releasing a
                        # still-queued request simply withdraws it.
                        cpu.release(grant)
                else:
                    start = env._now
                    yield timeout(duration)
                    stats.compute_time += env._now - start
                    if collect:
                        add_interval(rank, start, env._now, state_running)
            elif op == OP_SEND:
                message = post_send(rank, record)
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
                message = post_recv(rank, record)
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
                yield _WaitAll(env, events)
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
        """Closed-form fast-forward of the whole replay; returns the number
        of resource-queueing waits (0 on a proven contention-free cell).

        No DES events: every rank carries a scalar clock advanced by the
        same float expressions as the per-record walk, a min-clock heap
        picks which rank to advance, and blocking operations either jump
        the clock to an already-computed completion instant or park the
        rank on the message/collective that will wake it.  On cells the
        classifier proved contention-free this replicates the event
        backend bit for bit (every recurrence is the exact expression of
        :meth:`_rank_process`, and all of them are order-independent).
        On contended cells, transfers that cross a limited resource walk
        their route through a FIFO resource micro-model driven by the
        same time-ordered heap, and every continuation is paced through
        it with the DES's event-creation order, so same-instant ties --
        resource grants, wire ends, completion callbacks -- resolve as
        the event backend resolves them, and every simulated time is the
        event backend's, bit for bit.
        """
        plan = self.window_plan
        platform = self.platform
        env = self.env
        num_ranks = self.trace.num_ranks
        ops_by_rank = prepared.ops
        collect = self.collect_timeline
        add_interval = self.timeline.add_interval
        add_communication = (self.timeline.add_communication if collect
                             else None)
        record_stat = self.network.statistics.record
        record_hop = self.network.statistics.record_hop
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
        pending_sends: Dict[Tuple[int, int, int], Any] = {}
        pending_recvs: Dict[Tuple[int, int, int], Any] = {}
        #: Per-(src, dst, tag) creation counter: assigns each message its
        #: FIFO pair index (a time-independent identity).
        pair_index: Dict[Tuple[int, int, int], int] = {}
        #: Proven cells emit network statistics in canonical (src, dst,
        #: tag, pair index) order instead of completion order: transfers
        #: are buffered as (src, dst, tag, order, size, duration, route)
        #: -- route None for intranode -- and flushed sorted at the end.
        #: The float sums per transfer are unchanged; only the global
        #: accumulation order is, which moves aggregate means by at most
        #: an ulp but makes them independent of which replay path (scalar
        #: or grid-vectorized) produced them.
        stat_buffer: List[Tuple[Any, ...]] = []
        #: FIFO resource model for contended transfers, mirroring
        #: repro.des.resources.Resource: limited resource ->
        #: [capacity, active holds, FIFO deque of parked _TransferTask].
        #: Empty on proven cells (no limited resource is ever crossed), so
        #: the exactness argument never meets it.
        busy: Dict[Any, List[Any]] = {}
        #: (src_node, dst_node) -> True when the route crosses no limited
        #: resource, i.e. its transfers have a closed (bit-exact) form.
        route_free: Dict[Tuple[int, int], bool] = {}
        #: The ready heap: (time, class, seq, payload) where payload is a
        #: rank number or an in-flight _TransferTask.  Mirrors the DES
        #: queue order at an instant: class 0 is PRIORITY_URGENT (resource
        #: grants, initial process starts), class 1 is PRIORITY_NORMAL
        #: (wire-crossing ends, rank wake-ups), and `seq` plays the event
        #: id -- allocated at creation, so same-instant ties break in
        #: creation order, as the DES eid does.  The payload never takes
        #: part in a comparison because seq is unique.
        heap: List[Any] = [(0.0, 0, rank, rank) for rank in range(num_ranks)]
        event_seq = num_ranks
        done = [False] * num_ranks
        finished = 0
        matched = 0
        contended = 0
        # On a fully proven cell the advance order cannot change any number
        # (all recurrences are max/+ forms), so ranks run to their next
        # block fully inline.  On contended cells resource grants are FIFO
        # in request order, so every clock advance -- a CPU burst, an
        # overhead charge, a collective exit -- is paced through the heap
        # exactly as the DES paces it through a timeout: the continuation
        # is scheduled with a sequence number allocated now, and every
        # cross-rank ordering decision happens in global (time, creation)
        # order, the event queue's order.
        paced = plan.proven_windows != plan.num_windows
        #: True while a rank's next op already paid its mpi_overhead charge
        #: (the paced continuation resumes at the op itself).
        overhead_pending = [False] * num_ranks

        def wake_rank(waiter: int, arrival: float) -> None:
            """Complete one parked side for ``waiter``; schedules its
            continuation once its blocking condition is fully satisfied."""
            nonlocal event_seq
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
            event_seq += 1
            heappush(heap, (t2, 1, event_seq, waiter))

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
            nonlocal event_seq
            message.r_notified = True
            waiters = message.waiters
            message.waiters = [entry for entry in waiters if entry[0] == "s"]
            arrival = message.arrival
            for side, waiter in waiters:
                if side == "r":
                    wake_rank(waiter, arrival)
                elif side == "sc":
                    event_seq += 1
                    heappush(heap, (arrival, 1, event_seq, ("sc", message)))

        def finish_message(message: _FastMessage, arrival: float) -> None:
            """The transfer is complete: publish the arrival instant and
            notify (or directly wake) the ranks parked on this message."""
            nonlocal event_seq
            message.arrival = arrival
            if collect:
                add_communication(
                    src=message.src, dst=message.dst, size=message.size,
                    tag=message.tag, send_time=message.transfer_start,
                    recv_time=arrival)
            if paced:
                # The DES delivers completion as a chain of NORMAL events:
                # the `arrived` notification pops one generation after the
                # wire end, and the rendezvous sender's send_complete one
                # generation after that.  Pace the notifications
                # identically, so multi-rank wake-ups at one instant order
                # the way the event backend orders them.
                event_seq += 1
                heappush(heap, (arrival, 1, event_seq, ("arr", message)))
                return
            if message.waiters:
                wake_all(message)

        def advance_transfer(task: _TransferTask, now: float) -> None:
            """One DES pop's worth of progress for a contended transfer.

            Each invocation mirrors exactly one event of
            ``NetworkFabric._transfer``'s walk: request the current hop's
            next resource -- claiming a free slot synchronously but
            deferring the continuation one URGENT event, exactly as
            ``Resource.request``'s immediate succeed does; parking in the
            FIFO queue when at capacity -- or, with the hop's resources
            all held, cross the wire, or, at the wire's end, release the
            hop (handing slots straight to queue heads, the DES release
            semantics) and start requesting the next hop.  Pacing every
            step through the time-ordered ready heap keeps resource
            requests and wire timeouts in the DES's creation order, so
            same-instant grant races resolve the way the event backend
            resolves them.
            """
            nonlocal event_seq, contended
            message = task.message
            size = message.size
            route = task.route
            while True:
                if task.phase == 1:
                    # The wire of hop `hop_idx` was crossed at `now`:
                    # release.
                    for state in task.held:
                        waiting = state[2]
                        if waiting:
                            waiter = waiting.popleft()
                            waiter.held.append(state)
                            waiter.res_idx += 1
                            event_seq += 1
                            heappush(heap, (now, 0, event_seq, waiter))
                        else:
                            state[1] -= 1
                    task.held = []
                    task.hop_idx += 1
                    if task.hop_idx >= len(route):
                        record_stat(size, task.queue_time, task.duration,
                                    False)
                        finish_message(message, now)
                        return
                    task.res_idx = 0
                    task.requested_at = now
                    task.phase = 0
                    # Fall through: request the next hop's first resource.
                hop = route[task.hop_idx]
                resources = hop.resources
                i = task.res_idx
                if i < len(resources):
                    resource = resources[i]
                    task.res_idx = i + 1
                    if type(resource) is not InfiniteResource:
                        state = busy.get(resource)
                        if state is None:
                            state = busy[resource] = [
                                resource._capacity, 0, deque()]
                        if state[1] >= state[0]:
                            # At capacity: park in the FIFO queue (rewinding
                            # res_idx; the release that hands the slot over
                            # re-advances it).
                            task.res_idx = i
                            state[2].append(task)
                            contended += 1
                            return
                        state[1] += 1
                        task.held.append(state)
                    # The continuation is one URGENT event later in the
                    # DES.  The seq is allocated either way (creation-order
                    # ids are what tie-breaking is built on); the heap
                    # round-trip is skipped when no other event could pop
                    # in between.
                    event_seq += 1
                    if heap:
                        head = heap[0]
                        if head[0] == now and head[1] == 0:
                            heappush(heap, (now, 0, event_seq, task))
                            return
                    continue
                # Every resource of the hop held: cross the wire (a NORMAL
                # timeout in the DES, its id allocated now, at scheduling).
                hop_queue = now - task.requested_at
                if message.transfer_start is None:
                    message.transfer_start = now
                hop_duration = hop.transfer_time(size)
                task.queue_time += hop_queue
                task.duration += hop_duration
                record_hop(hop.name, hop_queue)
                task.phase = 1
                event_seq += 1
                end = now + hop_duration
                if heap and heap[0] < (end, 1, event_seq):
                    heappush(heap, (end, 1, event_seq, task))
                    return
                now = end

        def resolve(message: _FastMessage) -> None:
            """Both postings exist: launch (or complete) the transfer.

            Mirrors ``NetworkFabric._transfer``: the transfer starts at
            the match instant; intranode bypasses the network; an
            internode route with no limited resource chains
            ``latency + size/bw`` per hop in closed form (bit-exact --
            ``InfiniteResource`` grants take no DES time); a route with
            limited resources walks hop by hop through the FIFO model via
            the ready heap, so its arrival is computed later and blocking
            ranks park on the message meanwhile.
            """
            nonlocal matched, event_seq
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
                if paced:
                    record_stat(size, 0.0, duration, True)
                else:
                    stat_buffer.append((message.src, message.dst, message.tag,
                                        message.order, size, duration, None))
                arrival = start + duration
            else:
                route = route_of(src_node, dst_node)
                key = (src_node, dst_node)
                free = route_free.get(key)
                if free is None:
                    free = route_free[key] = all(
                        type(resource) is InfiniteResource
                        for hop in route for resource in hop.resources)
                if not free:
                    # Contended route.  `start` equals the posting rank's
                    # clock (eager: the send instant; rendezvous: the
                    # later posting, which is the rank running right now),
                    # so the start event is never in the heap's past; the
                    # URGENT class mirrors the transfer process's
                    # Initialize event in the DES.
                    event_seq += 1
                    heappush(heap, (start, 0, event_seq,
                                    _TransferTask(message, route, start)))
                    return
                ready = start
                duration = 0.0
                for hop in route:
                    hop_duration = hop.transfer_time(size)
                    duration += hop_duration
                    ready = ready + hop_duration
                message.transfer_start = start
                if paced:
                    for hop in route:
                        record_hop(hop.name, 0.0)
                    record_stat(size, 0.0, duration, False)
                else:
                    stat_buffer.append((message.src, message.dst, message.tag,
                                        message.order, size, duration, route))
                arrival = ready
            if paced:
                # Contended cell: pace even the closed-form completion
                # through the heap (the DES delivers it as a wire-end
                # timeout whose id was allocated at the transfer start),
                # so its wake-ups tie-break against in-flight contended
                # transfers the way the event backend's do.
                event_seq += 1
                heappush(heap, (arrival, 1, event_seq,
                                ("fin", message, arrival)))
            else:
                finish_message(message, arrival)

        while heap:
            entry = heappop(heap)
            payload = entry[3]
            kind = type(payload)
            if kind is _TransferTask:
                advance_transfer(payload, entry[0])
                continue
            if kind is tuple:  # completion-chain notification
                tag = payload[0]
                if tag == "fin":  # deferred closed-form wire end
                    finish_message(payload[1], payload[2])
                elif tag == "arr":  # the DES `arrived` event pop
                    arrived(payload[1])
                else:  # "sc": the DES send_complete event pop
                    message = payload[1]
                    message.s_notified = True
                    wake_all(message)
                continue
            t = entry[0]
            rank = payload
            rank_ops = ops_by_rank[rank]
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
                    if paced:
                        # The burst is a NORMAL timeout in the DES: pace
                        # the continuation through the heap -- unless no
                        # other event can pop before it, in which case the
                        # walk continues inline (the seq is allocated
                        # either way, preserving creation-order ids).
                        event_seq += 1
                        if heap and heap[0] < (t2, 1, event_seq):
                            pcs[rank] = pc
                            heappush(heap, (t2, 1, event_seq, rank))
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
                        if paced:
                            # Pace the overhead charge too; the op itself
                            # runs at the wake-up.
                            event_seq += 1
                            if heap and heap[0] < (t2, 1, event_seq):
                                overhead_pending[rank] = True
                                pcs[rank] = pc
                                heappush(heap, (t2, 1, event_seq, rank))
                                running = False
                                break
                        t = t2
                if op == OP_SEND:
                    key = (rank, record.dst, record.tag)
                    queue = pending_recvs.get(key)
                    if queue:
                        message = queue.popleft()
                    else:
                        order = pair_index.get(key, 0)
                        pair_index[key] = order + 1
                        message = _FastMessage(rank, record.dst, record.tag,
                                               order)
                        pending = pending_sends.get(key)
                        if pending is None:
                            pending = pending_sends[key] = deque()
                        pending.append(message)
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
                            if paced:
                                # The DES sender still parks one generation
                                # on the (already succeeded) send_complete
                                # event's pop.
                                event_seq += 1
                                if heap and heap[0] < (t, 1, event_seq):
                                    pcs[rank] = pc + 1
                                    heappush(heap, (t, 1, event_seq, rank))
                                    running = False
                                    break
                        else:
                            reqs[record.request] = ("send", message, pc)
                    else:
                        if paced:
                            # The DES registers send_complete.succeed as an
                            # `arrived` callback right here: after every
                            # receiver already parked, before later ones.
                            message.waiters.append(("sc", rank))
                        if message.recv_posted:
                            resolve(message)
                        if record.blocking:
                            arrival = message.arrival
                            if arrival is None or (
                                    paced and not message.s_notified):
                                message.waiters.append(("s", rank))
                                pending_states[rank] = ("send", message, t)
                                pcs[rank] = pc
                                running = False
                                break
                            t2 = arrival if arrival > t else t
                            send_wait_t[rank] += t2 - t
                            if collect:
                                add_interval(rank, t, t2, state_send_wait)
                            t = t2
                        else:
                            reqs[record.request] = ("send", message, pc)
                elif op == OP_RECV:
                    key = (record.src, rank, record.tag)
                    queue = pending_sends.get(key)
                    if queue:
                        message = queue.popleft()
                    else:
                        order = pair_index.get(key, 0)
                        pair_index[key] = order + 1
                        message = _FastMessage(record.src, rank, record.tag,
                                               order)
                        pending = pending_recvs.get(key)
                        if pending is None:
                            pending = pending_recvs[key] = deque()
                        pending.append(message)
                    message.recv_posted = True
                    message.recv_time = t
                    bytes_recv_a[rank] += record.size
                    msgs_recv_a[rank] += 1
                    if (message.send_posted and message.arrival is None
                            and not message.eager):
                        resolve(message)
                    if record.blocking:
                        arrival = message.arrival
                        if arrival is None or (
                                paced and not message.r_notified):
                            message.waiters.append(("r", rank))
                            pending_states[rank] = ("recv", message, t)
                            pcs[rank] = pc
                            running = False
                            break
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
                            # may not be computed yet.
                            if side == "send" and message.eager:
                                continue
                            if message.arrival is None or (paced and not (
                                    message.s_notified if side == "send"
                                    else message.r_notified)):
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
                        if paced:
                            # A fully satisfied wait still pops once in the
                            # DES (_WaitAll succeeds at construction, the
                            # process resumes at its pop).
                            event_seq += 1
                            if heap and heap[0] < (t2, 1, event_seq):
                                pcs[rank] = pc + 1
                                heappush(heap, (t2, 1, event_seq, rank))
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
                        for waiter, t0 in instance.waiters:
                            collective_t[waiter] += exit_time - t0
                            if collect:
                                add_interval(waiter, t0, exit_time,
                                             state_collective)
                            pending_states[waiter] = None
                            pcs[waiter] += 1
                            event_seq += 1
                            heappush(heap, (exit_time, 1, event_seq, waiter))
                        instance.waiters = []
                        if paced:
                            # On contended cells the departures are paced
                            # through the heap in the DES's resume order:
                            # every rank resumes at the all_arrived pop in
                            # callback-registration order -- the waiters in
                            # entry order, the last entrant (who registered
                            # after succeeding the event) last.
                            pcs[rank] = pc + 1
                            event_seq += 1
                            heappush(heap, (exit_time, 1, event_seq, rank))
                            running = False
                            break
                        t = exit_time
                    else:
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
            details = []
            for rank in range(num_ranks):
                if done[rank]:
                    continue
                position = pcs[rank]
                records = self.trace[rank].records
                record = records[position] if position < len(records) else None
                details.append(
                    f"rank {rank} stuck at record {position} ({record!r})")
            unmatched = {
                "sends": sum(len(q) for q in pending_sends.values()),
                "recvs": sum(len(q) for q in pending_recvs.values()),
            }
            raise SimulationError(
                "replay deadlocked: " + "; ".join(details)
                + f"; unmatched postings: {unmatched}")

        if not paced:
            # Canonical network-statistics flush.  The first four elements
            # (src, dst, tag, pair index) are unique per transfer, so the
            # plain tuple sort never compares routes.
            stat_buffer.sort()
            for _src, _dst, _tag, _order, size, duration, route in stat_buffer:
                if route is None:
                    record_stat(size, 0.0, duration, True)
                else:
                    for hop in route:
                        record_hop(hop.name, 0.0)
                    record_stat(size, 0.0, duration, False)

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
        self.matcher.messages_matched = matched
        env.advance_to(max(finish_t, default=0.0))
        return contended
