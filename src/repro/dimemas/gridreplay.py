"""Grid-vectorized adaptive replay: one structural pass, many platforms.

A parameter sweep replays one trace across a grid of platform points that
differ only in scalar axes -- bandwidth, latency, CPU speed, MPI overhead.
The adaptive backend (:meth:`ReplayEngine._run_adaptive`) already replaced
the DES with closed-form per-rank recurrences; this module observes that on
*proven contention-free* cells those recurrences are the only thing that
depends on the platform scalars.  Everything else -- which rank blocks
where, which send matches which receive, which collective completes when
(in program order, not in time) -- is purely structural:

* a rank parks only when a message counterpart has not been posted yet, a
  wait has unresolved requests, or a collective's entry count is below the
  rank count -- none of which read a clock;
* message matching is FIFO per ``(src, dst, tag)`` key, independent of
  timing;
* every time recurrence is a max/+ form, so the order in which runnable
  ranks advance cannot change any number.

Hence a *cohort* of platform cells sharing the structural axes (trace,
topology shape, node mapping, collective model kind, eager-threshold
protocol class) can be replayed by ONE walk over the prepared record
streams carrying a *vector* of clocks -- one lane per cell -- through the
exact float expressions of the scalar interpreter.  Each lane is
bit-identical to what the scalar adaptive walk (and, on proven cells, the
event backend) produces, because it evaluates the same expressions on the
same operands in the same program order; only the walk's bookkeeping is
amortized across the grid.

Cells that do not qualify -- contended windows, a diverging protocol
class, a non-adaptive backend, a trace defect -- peel off into the
existing per-cell path (:class:`DimemasSimulator`), which fast-forwards
or falls back to the DES exactly as a per-cell sweep would.

Network statistics are emitted in the canonical ``(src, dst, tag, pair
index)`` order that the scalar adaptive path also uses on proven cells
(see ``_run_adaptive``), so per-cell aggregate means are byte-identical
between the two paths and cached sweep results do not depend on which
path produced them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import format_defect
from repro.des import Environment
from repro.dimemas.collectives.analytical import collective_duration
from repro.dimemas.network import NetworkStatistics
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.results import RankStats, SimulationResult
from repro.dimemas.simulator import DimemasSimulator
from repro.dimemas.topology import build_network_model
from repro.dimemas.windows import classify, protocol_class
from repro.errors import SimulationError
from repro.paraver.timeline import NullRecorder
from repro.tracing.timebase import TimeBase
from repro.tracing.trace import (
    OP_COLLECTIVE,
    OP_CPU,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    Trace,
)

__all__ = ["cohort_signature", "replay_cohort"]


def cohort_signature(trace: Trace, platform: Platform) -> Optional[Tuple]:
    """The grouping key under which cells may share one vectorized walk.

    Cells with equal signatures replay the same structure: the clocks are
    the only thing that differs, so they can ride one walk as vector
    lanes.  ``None`` marks a cell that must stay on the per-cell path (a
    non-adaptive backend, CPU contention, or a trace the classifier cannot
    prove).  Deliberately *absent* from the key: bandwidth, latency, CPU
    speed, MPI overhead, intranode parameters (pure scalar axes) and the
    flat bus/link counts (so a cohort may mix proven and contended cells
    -- the contended ones peel off inside :func:`replay_cohort`).
    """
    if platform.replay_backend != "adaptive" or platform.cpu_contention:
        return None
    klass = protocol_class(trace, platform.eager_threshold,
                           platform.processors_per_node)
    if klass < 0:
        return None
    return (platform.topology.to_string(),
            platform.collective_model.to_string(),
            platform.processors_per_node, klass)


class _GridMessage:
    """Message state of the vectorized walk: scalar identity, vector times."""

    __slots__ = ("src", "dst", "tag", "order", "size", "eager",
                 "send_posted", "recv_posted", "send_time", "recv_time",
                 "arrival", "waiters")

    def __init__(self, src: int, dst: int, tag: int, order: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.order = order
        self.size = 0
        self.eager = False
        self.send_posted = False
        self.recv_posted = False
        self.send_time: Optional[List[float]] = None
        self.recv_time: Optional[List[float]] = None
        self.arrival: Optional[List[float]] = None
        self.waiters: List[Tuple[str, int]] = []


class _GridCollective:
    """Collective state of the vectorized walk (vector ``last``)."""

    __slots__ = ("operation", "root", "size", "count", "last", "waiters")

    def __init__(self, operation: str, root: int, size: int, width: int):
        self.operation = operation
        self.root = root
        self.size = size
        self.count = 0
        self.last = [0.0] * width
        self.waiters: List[Tuple[int, List[float]]] = []


def replay_cohort(trace: Trace, platforms: Sequence[Platform],
                  labels: Optional[Sequence[Optional[str]]] = None,
                  ) -> List[SimulationResult]:
    """Replay ``trace`` on every platform of a cohort, sharing one walk.

    Returns one :class:`SimulationResult` per platform, in order.  Cells
    the classifier proves exactly fast-forwardable -- and that share the
    first such cell's structural signature -- are evaluated together by a
    single vectorized pass; every other cell runs through the standard
    per-cell simulator (identical to what a non-batched sweep would do).
    """
    platforms = list(platforms)
    if labels is None:
        labels = [None] * len(platforms)
    plans = [classify(trace, platform) for platform in platforms]
    vector_cells: List[int] = []
    reference = None
    for index, (platform, plan) in enumerate(zip(platforms, plans)):
        if platform.replay_backend != "adaptive" or not plan.proven_exact:
            continue
        signature = cohort_signature(trace, platform)
        if signature is None:
            continue
        if reference is None:
            reference = signature
        if signature == reference:
            vector_cells.append(index)
    results: List[Optional[SimulationResult]] = [None] * len(platforms)
    if len(vector_cells) >= 2:
        vectorized = _vector_walk(
            trace, [platforms[i] for i in vector_cells],
            [plans[i] for i in vector_cells],
            [labels[i] for i in vector_cells])
        for index, result in zip(vector_cells, vectorized):
            results[index] = result
    for index, platform in enumerate(platforms):
        if results[index] is None:
            results[index] = DimemasSimulator(
                platform, collect_timeline=False).simulate(
                    trace, label=labels[index])
    return results  # type: ignore[return-value]


def _vector_walk(trace: Trace, platforms: List[Platform], plans,
                 labels) -> List[SimulationResult]:
    """One structural pass over the trace with a clock lane per platform.

    Every float expression, comparison and accumulation below is the
    elementwise twin of the scalar adaptive interpreter's proven path
    (``ReplayEngine._run_adaptive`` with every window proven): same
    operands, same operations, same program order per lane -- which is
    what makes each lane bit-identical to the scalar replay of its cell.
    """
    width = len(platforms)
    lanes = range(width)
    num_ranks = trace.num_ranks
    prepared = trace.prepared()
    ops_by_rank = prepared.ops
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
    # the scalar replay uses (the throwaway environments never run -- on
    # proven cells no resource is ever contended).
    models = [build_network_model(Environment(), platform, num_ranks)
              for platform in platforms]

    intranode_memo: Dict[int, List[float]] = {}
    internode_memo: Dict[Tuple[int, int, int], Tuple[Any, ...]] = {}
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
        """(route, per-cell total duration, per-cell per-hop durations)."""
        key = (src_node, dst_node, size)
        entry = internode_memo.get(key)
        if entry is None:
            totals: List[float] = []
            per_hop: List[Tuple[float, ...]] = []
            for model in models:
                route = model.route(src_node, dst_node)
                duration = 0.0
                hops: List[float] = []
                for hop in route:
                    hop_duration = hop.transfer_time(size)
                    duration += hop_duration
                    hops.append(hop_duration)
                totals.append(duration)
                per_hop.append(tuple(hops))
            entry = internode_memo[key] = (
                models[0].route(src_node, dst_node), totals, per_hop)
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
    pending_sends: Dict[Tuple[int, int, int], Any] = {}
    pending_recvs: Dict[Tuple[int, int, int], Any] = {}
    pair_index: Dict[Tuple[int, int, int], int] = {}
    #: Canonical-order stat buffer, as in the scalar proven path, except
    #: the duration element is a lane vector.
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
            stat_buffer.append((message.src, message.dst, message.tag,
                                message.order, size, durations, None))
            arrival = [s + d for s, d in zip(start, durations)]
        else:
            route, totals, per_hop = internode_durations(
                src_node, dst_node, size)
            stat_buffer.append((message.src, message.dst, message.tag,
                                message.order, size, totals, route))
            arrival = []
            for i in lanes:
                ready = start[i]
                for hop_duration in per_hop[i]:
                    ready = ready + hop_duration
                arrival.append(ready)
        finish_message(message, arrival)

    while runnable:
        rank = runnable.popleft()
        t = clocks[rank]
        rank_ops = ops_by_rank[rank]
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
                key = (rank, record.dst, record.tag)
                queue = pending_recvs.get(key)
                if queue:
                    message = queue.popleft()
                else:
                    order = pair_index.get(key, 0)
                    pair_index[key] = order + 1
                    message = _GridMessage(rank, record.dst, record.tag,
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
                    if not record.blocking:
                        reqs[record.request] = ("send", message, pc)
                else:
                    if message.recv_posted:
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
                key = (record.src, rank, record.tag)
                queue = pending_sends.get(key)
                if queue:
                    message = queue.popleft()
                else:
                    order = pair_index.get(key, 0)
                    pair_index[key] = order + 1
                    message = _GridMessage(record.src, rank, record.tag,
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
        # structural walk blocks exactly where the scalar one does); kept
        # so an inconsistency surfaces loudly instead of as wrong numbers.
        stuck = [rank for rank in range(num_ranks) if not done[rank]]
        raise SimulationError(
            f"grid replay deadlocked: ranks {stuck} blocked "
            f"(pcs {[pcs[rank] for rank in stuck]})")

    # Per-transfer identities are unique, so the sort never compares the
    # vector payloads.
    stat_buffer.sort(key=lambda entry: entry[:4])

    results = []
    for i in lanes:
        platform = platforms[i]
        plan = plans[i]
        label = labels[i]
        statistics = NetworkStatistics()
        for _src, _dst, _tag, _order, size, durations, route in stat_buffer:
            if route is None:
                statistics.record(size, 0.0, durations[i], True)
            else:
                for hop in route:
                    statistics.record_hop(hop.name, 0.0)
                statistics.record(size, 0.0, durations[i], False)
        network_stats = dict(statistics.summary())
        network_stats["messages_matched"] = matched
        network_stats["topology"] = platform.topology.kind
        network_stats["hop_queue_time"] = dict(statistics.hop_queue_time)
        network_stats["hop_transfers"] = dict(statistics.hop_transfers)
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
        metadata = dict(trace.metadata)
        if label is not None:
            metadata["label"] = label
        metadata["adaptive"] = {
            "backend": "adaptive",
            "mode": "fast-forward",
            "windows": plan.num_windows,
            "proven_windows": plan.proven_windows,
            "network_uncontended": plan.network_uncontended,
            "proven_exact": True,
            "contended_transfers": 0,
            "grid_width": width,
        }
        timeline = NullRecorder(
            num_ranks=num_ranks,
            name=label or trace.metadata.get("name", "trace"))
        results.append(SimulationResult(
            platform=platform, total_time=total_time, ranks=rank_stats,
            timeline=timeline, network=network_stats, metadata=metadata))
    return results
