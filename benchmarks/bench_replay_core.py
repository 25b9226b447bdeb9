#!/usr/bin/env python
"""Replay-core benchmark: the event backend vs the pre-refactor engine.

Replays a sweep-style workload -- several applications, each as (original +
ideal-overlapped) variants across a platform grid covering the paper's
replay regimes -- through two engines:

* ``legacy``: an embedded replica of the replay core exactly as it stood
  before the fast-path refactor (dict-based events with eager name strings,
  generic ``Timeout`` construction, per-record ``isinstance`` dispatch,
  unconditional timeline interval recording), and
* ``event``: the event backend on its sweep configuration
  (``collect_timeline=False``, prepared traces, opcode dispatch).

Both engines produce bit-identical simulated times (asserted on every
cell; the golden tests in ``tests/dimemas/test_replay_golden.py`` pin the
full result surface), so the comparison isolates pure interpreter cost.
The results -- wall time and events/second per application plus the
aggregate speedups -- are printed as a table and written to
``BENCH_replay_core.json`` so the perf trajectory of the replay core is
recorded per PR.  ``--min-speedup`` turns the run into a CI perf guard.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay_core.py
    PYTHONPATH=src python benchmarks/bench_replay_core.py \
        --ranks 4 --iterations 2 --samples 2   # CI smoke mode

The harness is a plain script (not collected by pytest) because it measures
wall time, which only means something when run alone on an idle machine.
"""

from __future__ import annotations

import argparse
import heapq
import json
import time
from collections import deque
from functools import partial
from itertools import count as _count
import sys
from pathlib import Path

# The benchmarks are plain scripts, but tests load them by file path
# (importlib.spec_from_file_location), which skips the script-directory
# sys.path entry -- add it so the shared provenance stamp resolves.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _provenance import provenance  # noqa: E402
from repro.apps.registry import create_application
from repro.core.analysis import geometric_bandwidths
from repro.core.chunking import FixedCountChunking
from repro.core.environment import OverlapStudyEnvironment
from repro.core.patterns import ComputationPattern
from repro.core.reporting import format_table
from repro.des.exceptions import DesError, EmptySchedule, StopProcess
from repro.dimemas.collectives import collective_duration
from repro.dimemas.network import NetworkFabric
from repro.dimemas.topology import FlatBus
from repro.dimemas.protocol import Protocol, select_protocol
from repro.dimemas.platform import Platform
from repro.dimemas.replay import ReplayEngine
from repro.dimemas.results import RankStats
from repro.errors import SimulationError
from repro.paraver.states import ThreadState
from repro.paraver.timeline import Timeline
from repro.tracing.records import (
    CollectiveRecord,
    CpuBurst,
    RecvRecord,
    SendRecord,
    WaitRecord,
)
from repro.tracing.timebase import TimeBase

# ---------------------------------------------------------------------------
# Legacy-engine replica: the DES kernel and per-rank replay loop verbatim as
# they stood before the fast-path refactor (PR 3 state).  Dict-based events,
# eager f-string names, isinstance record dispatch, unconditional timeline
# recording.  Kept self-contained on purpose: the baseline must not speed up
# when the production code does.
# ---------------------------------------------------------------------------

_PENDING = object()
_PRIORITY_URGENT = 0
_PRIORITY_NORMAL = 1


class _LegacyEvent:
    def __init__(self, env, name=None):
        self.env = env
        self.name = name
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def processed(self):
        return self.callbacks is None

    def succeed(self, value=None, priority=_PRIORITY_NORMAL):
        self._ok = True
        self._value = value
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception, priority=_PRIORITY_NORMAL):
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay=0.0, priority=priority)
        return self

    def defuse(self):
        self._defused = True

    def add_callback(self, callback):
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class _LegacyTimeout(_LegacyEvent):
    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env, name=f"Timeout({delay})")
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay, priority=_PRIORITY_NORMAL)


class _LegacyInitialize(_LegacyEvent):
    def __init__(self, env, process):
        super().__init__(env, name="Initialize")
        self.process = process
        self._ok = True
        self._value = None
        env.schedule(self, delay=0.0, priority=_PRIORITY_URGENT)


class _LegacyCondition(_LegacyEvent):
    def __init__(self, env, events, evaluate):
        super().__init__(env, name=self.__class__.__name__)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            event.add_callback(self._check)

    def _collect(self):
        return {event: event._value for event in self._events
                if event.processed and event._ok}

    def _check(self, event):
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class _LegacyAllOf(_LegacyCondition):
    def __init__(self, env, events):
        super().__init__(env, events, lambda events, count: count == len(events))


class _LegacyProcess(_LegacyEvent):
    def __init__(self, env, generator, name=None):
        super().__init__(env, name=name or getattr(generator, "__name__", "Process"))
        self._generator = generator
        self._target = None
        _LegacyInitialize(env, self).add_callback(self._resume)

    @property
    def is_alive(self):
        return not self.triggered

    def _resume(self, event):
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(
                        None if event._value is _PENDING else event._value)
                else:
                    event.defuse()
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._target = None
                self.succeed(getattr(exc, "value", None), priority=_PRIORITY_URGENT)
                break
            except StopProcess as exc:
                self._target = None
                self.succeed(exc.value, priority=_PRIORITY_URGENT)
                break
            except BaseException as exc:
                self._target = None
                self.fail(exc, priority=_PRIORITY_URGENT)
                break

            # Events created through the shared matcher/network/resource
            # helpers subclass the production Event; accept both.
            if (not isinstance(next_event, _LegacyEvent)
                    and not hasattr(next_event, "add_callback")):
                self._target = None
                self.fail(DesError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"),
                    priority=_PRIORITY_URGENT)
                break

            if next_event.processed:
                event = next_event
                continue

            self._target = next_event
            next_event.add_callback(self._resume)
            break
        self.env._active_process = None


class _LegacyEnvironment:
    """The pre-refactor environment: generic scheduling paths only."""

    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._queue = []
        self._eid = _count()
        self._active_process = None

    @property
    def now(self):
        return self._now

    @property
    def active_process(self):
        return self._active_process

    def peek(self):
        return self._queue[0][0] if self._queue else float("inf")

    def schedule(self, event, delay=0.0, priority=_PRIORITY_NORMAL):
        if delay < 0:
            raise ValueError(f"cannot schedule an event in the past (delay={delay!r})")
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def step(self):
        if not self._queue:
            raise EmptySchedule("no more events scheduled")
        when, _priority, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        while True:
            if not self._queue:
                return None
            self.step()

    def process(self, generator, name=None):
        return _LegacyProcess(self, generator, name=name)

    def timeout(self, delay, value=None):
        return _LegacyTimeout(self, delay, value)

    # The shared fabric calls the fast-path name; the legacy environment
    # only ever had the generic Timeout construction, so route it there.
    schedule_timeout = timeout

    def event(self, name=None):
        return _LegacyEvent(self, name=name)

    def all_of(self, events):
        return _LegacyAllOf(self, events)

    def any_of(self, events):
        return _LegacyCondition(
            self, events, lambda events, count: count >= 1 or not events)


class _LegacyRequest(_LegacyEvent):
    """Event returned by :meth:`_LegacyResource.request`.

    It triggers when the resource grants the slot.  The request object itself
    is the token to pass back to :meth:`_LegacyResource.release`.
    """

    __slots__ = ("resource",)

    def __init__(self, resource):
        _LegacyEvent.__init__(self, resource.env)
        self.resource = resource

    def _default_name(self):
        return f"Request({self.resource.name})"

    def succeed(self, value=None, priority=_PRIORITY_NORMAL):
        # The request's trigger path as the replica borrowed it: a direct
        # push onto the heap, no generic schedule call.
        self._ok = True
        self._value = value
        env = self.env
        heapq.heappush(env._queue, (env._now, priority, next(env._eid), self))
        return self


class _LegacyResource:
    """A resource with a fixed number of slots, granted in FIFO order."""

    def __init__(self, env, capacity=1, name="resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.name = name
        self._capacity = capacity
        self._users = []
        self._waiting = deque()

    @property
    def capacity(self):
        return self._capacity

    @property
    def count(self):
        """Number of slots currently granted."""
        return len(self._users)

    @property
    def queue_length(self):
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self):
        """Ask for a slot.  The returned event triggers when granted."""
        request = _LegacyRequest(self)
        if len(self._users) < self._capacity:
            self._users.append(request)
            request.succeed(self, priority=_PRIORITY_URGENT)
        else:
            self._waiting.append(request)
        return request

    def release(self, request):
        """Return a previously granted slot."""
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            self._waiting.remove(request)
            return
        else:
            raise ValueError("releasing a request that was never granted")
        if self._waiting and len(self._users) < self._capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(self, priority=_PRIORITY_URGENT)


class _LegacyInfiniteResource:
    """Drop-in replacement for :class:`_LegacyResource` with unbounded capacity.

    Used when the platform models an ideal network (no bus or link
    contention); requests are granted immediately.
    """

    def __init__(self, env, name="infinite"):
        self.env = env
        self.name = name
        self._count = 0

    @property
    def capacity(self):
        return float("inf")

    @property
    def count(self):
        return self._count

    @property
    def queue_length(self):
        return 0

    def request(self):
        self._count += 1
        request = _LegacyRequest(self)
        request.succeed(self, priority=_PRIORITY_URGENT)
        return request

    def release(self, request):
        self._count -= 1


def _legacy_resource(env, capacity, name):
    """The topology model's resource factory, on the replica's resources."""
    if capacity == 0:
        return _LegacyInfiniteResource(env, name=name)
    return _LegacyResource(env, capacity=capacity, name=name)


class _LegacyMessage:
    """The pre-refactor message: three eagerly created, named events."""

    __slots__ = (
        "env", "src", "dst", "tag", "size", "protocol",
        "send_posted", "recv_posted_flag", "started",
        "recv_posted", "arrived", "send_complete",
        "send_time", "transfer_start", "arrival_time",
    )

    def __init__(self, env, src=None, dst=None, tag=0, size=0):
        self.env = env
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = size
        self.protocol = None
        self.send_posted = False
        self.recv_posted_flag = False
        self.started = False
        self.recv_posted = env.event(name="recv_posted")
        self.arrived = env.event(name="arrived")
        self.send_complete = env.event(name="send_complete")
        self.send_time = None
        self.transfer_start = None
        self.arrival_time = None


class _LegacyMessageMatcher:
    """The pre-refactor matcher: per-posting protocol call, generic events."""

    def __init__(self, env, platform, network):
        self.env = env
        self.platform = platform
        self.network = network
        self._pending_sends = {}
        self._pending_recvs = {}
        self.messages_matched = 0

    def post_send(self, src, record):
        key = (src, record.dst, record.tag)
        queue = self._pending_recvs.get(key)
        if queue:
            message = queue.popleft()
        else:
            message = _LegacyMessage(self.env)
            self._pending_sends.setdefault(key, deque()).append(message)
        message.src = src
        message.dst = record.dst
        message.tag = record.tag
        message.size = record.size
        message.send_posted = True
        message.send_time = self.env.now
        message.protocol = select_protocol(record.size, self.platform)
        if message.protocol is Protocol.EAGER:
            message.send_complete.succeed(self.env.now)
        else:
            message.arrived.add_callback(
                lambda event, msg=message: msg.send_complete.succeed(self.env.now))
        self._maybe_start(message)
        return message

    def post_recv(self, dst, record):
        key = (record.src, dst, record.tag)
        queue = self._pending_sends.get(key)
        if queue:
            message = queue.popleft()
        else:
            message = _LegacyMessage(self.env)
            self._pending_recvs.setdefault(key, deque()).append(message)
        message.dst = dst
        message.recv_posted_flag = True
        if not message.recv_posted.triggered:
            message.recv_posted.succeed(self.env.now)
        self._maybe_start(message)
        return message

    def _maybe_start(self, message):
        if message.started or not message.send_posted:
            return
        if message.protocol is Protocol.RENDEZVOUS and not message.recv_posted_flag:
            return
        message.started = True
        self.messages_matched += 1
        self.network.start_transfer(message)


class _LegacyNetworkFabric(NetworkFabric):
    """The pre-refactor fabric: one generator process per transfer, generic
    clock/timeout access per hop.

    The topology model's routing (hop objects) is shared with the
    production fabric; its resources are the replica's own, and so is the
    transfer process body.
    """

    def __init__(self, env, platform, num_ranks, timeline=None):
        super().__init__(env, platform, num_ranks, timeline)
        model = self.model
        model._make_resource = partial(_legacy_resource, env)
        if isinstance(model, FlatBus):
            # The only resource a model builds eagerly.
            model.buses = model._make_resource(platform.num_buses, "buses")

    def start_transfer(self, message):
        self.env.process(self._transfer(message), name="transfer")

    def _transfer(self, message):
        platform = self.platform
        src_node = platform.node_of(message.src)
        dst_node = platform.node_of(message.dst)
        intranode = src_node == dst_node
        queue_time = 0.0
        duration = 0.0
        if intranode:
            message.transfer_start = self.env.now
            duration = platform.transfer_time(message.size, intranode=True)
            yield self.env.timeout(duration)
        else:
            for hop in self.model.route(src_node, dst_node):
                requested_at = self.env.now
                requests = []
                try:
                    for resource in hop.resources:
                        request = resource.request()
                        requests.append((resource, request))
                        yield request
                    hop_queue = self.env.now - requested_at
                    if message.transfer_start is None:
                        message.transfer_start = self.env.now
                    hop_duration = hop.transfer_time(message.size)
                    yield self.env.timeout(hop_duration)
                finally:
                    for resource, request in requests:
                        resource.release(request)
                queue_time += hop_queue
                duration += hop_duration
                self.statistics.record_hop(hop.name, hop_queue)
        message.arrival_time = self.env.now
        message.arrived.succeed(self.env.now)
        self.statistics.record(message.size, queue_time, duration, intranode)
        if self.timeline is not None:
            self.timeline.add_communication(
                src=message.src, dst=message.dst, size=message.size,
                tag=message.tag, send_time=message.transfer_start,
                recv_time=message.arrival_time)


class _LegacyCollectiveInstance:
    def __init__(self, env, index):
        self.index = index
        self.operation = None
        self.count = 0
        self.max_size = 0
        self.all_arrived = env.event(name=f"collective[{index}]")
        self.finish_time = 0.0


class _LegacyCollectiveCoordinator:
    def __init__(self, env, platform, num_ranks):
        self.env = env
        self.platform = platform
        self.num_ranks = num_ranks
        self._instances = {}

    def enter(self, rank, record, index):
        instance = self._instances.get(index)
        if instance is None:
            instance = _LegacyCollectiveInstance(self.env, index)
            self._instances[index] = instance
        if instance.operation is None:
            instance.operation = record.operation
        instance.count += 1
        instance.max_size = max(instance.max_size, record.size)
        if instance.count == self.num_ranks:
            duration = collective_duration(
                instance.operation, instance.max_size, self.num_ranks, self.platform)
            instance.finish_time = self.env.now + duration
            instance.all_arrived.succeed(self.env.now)
        return instance


class LegacyReplayEngine:
    """The replay engine exactly as it drove sweeps before the refactor.

    Per-record ``isinstance`` dispatch, per-iteration attribute lookups and
    an always-on timeline recorder (the pre-refactor engine had no way to
    switch recording off, so every sweep cell paid for it).
    """

    def __init__(self, trace, platform, label=None):
        self.trace = trace
        self.platform = platform
        self.label = label or trace.metadata.get("name", "trace")
        self.env = _LegacyEnvironment()
        self.timeline = Timeline(num_ranks=trace.num_ranks, name=self.label)
        self.network = _LegacyNetworkFabric(self.env, platform, trace.num_ranks,
                                            self.timeline)
        self.matcher = _LegacyMessageMatcher(self.env, platform, self.network)
        self.coordinator = _LegacyCollectiveCoordinator(self.env, platform, trace.num_ranks)
        self.timebase = TimeBase(trace.mips)
        self.stats = [RankStats(rank=r) for r in range(trace.num_ranks)]
        self._processes = []

    def run(self):
        for rank_trace in self.trace:
            process = self.env.process(
                self._rank_process(rank_trace.rank, rank_trace.records),
                name=f"rank{rank_trace.rank}")
            self._processes.append(process)
        self.env.run()
        total_time = max((stats.finish_time for stats in self.stats), default=0.0)
        return total_time, self.stats, self.timeline

    def _rank_process(self, rank, records):
        env = self.env
        stats = self.stats[rank]
        timeline = self.timeline
        requests = {}
        collective_index = 0
        mpi_overhead = self.platform.mpi_overhead
        for record in records:
            if mpi_overhead > 0 and not isinstance(record, CpuBurst):
                start = env.now
                yield env.timeout(mpi_overhead)
                stats.compute_time += env.now - start
                timeline.add_interval(rank, start, env.now, ThreadState.RUNNING)
            if isinstance(record, CpuBurst):
                duration = self.timebase.seconds(
                    record.instructions, self.platform.relative_cpu_speed)
                start = env.now
                yield env.timeout(duration)
                stats.compute_time += env.now - start
                timeline.add_interval(rank, start, env.now, ThreadState.RUNNING)
            elif isinstance(record, SendRecord):
                message = self.matcher.post_send(rank, record)
                stats.bytes_sent += record.size
                stats.messages_sent += 1
                if record.blocking:
                    start = env.now
                    yield message.send_complete
                    stats.send_wait_time += env.now - start
                    timeline.add_interval(rank, start, env.now, ThreadState.SEND_WAIT)
                else:
                    requests[record.request] = ("send", message)
            elif isinstance(record, RecvRecord):
                message = self.matcher.post_recv(rank, record)
                stats.bytes_received += record.size
                stats.messages_received += 1
                if record.blocking:
                    start = env.now
                    yield message.arrived
                    stats.recv_wait_time += env.now - start
                    timeline.add_interval(rank, start, env.now, ThreadState.RECV_WAIT)
                else:
                    requests[record.request] = ("recv", message)
            elif isinstance(record, WaitRecord):
                events = []
                for request_id in record.requests:
                    side, message = requests.pop(request_id)
                    events.append(message.send_complete if side == "send"
                                  else message.arrived)
                if not events:
                    continue
                start = env.now
                yield env.all_of(events)
                stats.request_wait_time += env.now - start
                timeline.add_interval(rank, start, env.now, ThreadState.REQUEST_WAIT)
            elif isinstance(record, CollectiveRecord):
                start = env.now
                instance = self.coordinator.enter(rank, record, collective_index)
                collective_index += 1
                stats.collectives += 1
                yield instance.all_arrived
                remaining = instance.finish_time - env.now
                if remaining > 0:
                    yield env.timeout(remaining)
                stats.collective_time += env.now - start
                timeline.add_interval(rank, start, env.now, ThreadState.COLLECTIVE)
            else:
                raise SimulationError(f"rank {rank}: unknown record {record!r}")
        stats.finish_time = env.now


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

DEFAULT_APPS = ["nas-bt", "nas-cg", "sweep3d"]



def _build_workload(apps, ranks, iterations, samples):
    """(app, variant_label, trace) x platform grid, sweep-shaped.

    The platform grid covers the paper's replay regimes, not just the
    contended bandwidth sweep: the log-spaced bandwidth axis (the shape of
    every figure), the ideal network (the paper's upper-bound pattern),
    an ``mpi_overhead`` point (the paper's noted model extension) and a
    multi-rank-per-node mapping (intranode traffic).
    """
    environment = OverlapStudyEnvironment(chunking=FixedCountChunking(count=8))
    bandwidths = geometric_bandwidths(10.0, 10000.0, samples)
    workload = {}
    for name in apps:
        app = create_application(name, num_ranks=ranks, iterations=iterations)
        original = environment.trace(app)
        overlapped = environment.overlap(original, pattern=ComputationPattern.IDEAL)
        workload[name] = [("original", original), ("ideal", overlapped)]
    middle = bandwidths[len(bandwidths) // 2]
    platforms = [Platform(bandwidth_mbps=bandwidth) for bandwidth in bandwidths]
    platforms.append(Platform.ideal_network())
    platforms.append(Platform(name="overhead", bandwidth_mbps=middle,
                              mpi_overhead=2.0e-5))
    platforms.append(Platform(name="ppn4", bandwidth_mbps=middle,
                              processors_per_node=4,
                              intranode_bandwidth_mbps=1000.0))
    return workload, platforms


def _run_engine(build_engine, variants, platforms):
    """Replay every (variant, platform) cell; return (seconds, heap
    entries, times)."""
    start = time.perf_counter()
    entries = 0
    times = []
    for _label, trace in variants:
        for platform in platforms:
            engine = build_engine(trace, platform)
            total_time = engine.run()[0]
            times.append(total_time)
            # The itertools counter has numbered every heap entry; reading
            # it afterwards costs the hot loop nothing.
            entries += next(engine.env._eid)
    return time.perf_counter() - start, entries, times


def _fast_engine(trace, platform):
    # Pinned: the default backend is adaptive, and this column times the
    # event walk.
    return ReplayEngine(trace, platform.with_replay_backend("event"),
                        collect_timeline=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="event backend vs the embedded legacy engine")
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=4)
    parser.add_argument("--samples", type=int, default=6,
                        help="bandwidth points per application")
    parser.add_argument("--apps", nargs="*", default=DEFAULT_APPS)
    parser.add_argument("--repeat", type=int, default=1,
                        help="replays of the whole grid per engine "
                             "(best-of is reported)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the event backend beats the "
                             "legacy engine by at least this aggregate "
                             "factor (CI perf guard)")
    parser.add_argument("--output", default="BENCH_replay_core.json",
                        help="JSON file for the recorded perf trajectory")
    args = parser.parse_args(argv)

    workload, platforms = _build_workload(
        args.apps, args.ranks, args.iterations, args.samples)

    rows = []
    report = {
        "benchmark": "replay_core",
        "provenance": provenance(),
        "config": {
            "ranks": args.ranks,
            "iterations": args.iterations,
            "bandwidth_samples": args.samples,
            "platform_grid": [platform.name for platform in platforms],
            "variants": ["original", "ideal"],
            "repeat": args.repeat,
        },
        "apps": {},
    }
    total_legacy = total_fast = 0.0
    total_events = 0
    for name, variants in workload.items():
        legacy_seconds = fast_seconds = float("inf")
        for _ in range(max(1, args.repeat)):
            # Interleave the engines inside every repeat so machine drift
            # hits both comparably.  The legacy engine keeps every event on
            # its heap, so its entries count the workload's events; the
            # event backend runs same-instant work from FIFOs and numbers
            # only its future events, so both rates divide the legacy count.
            seconds, events, legacy_times = _run_engine(
                LegacyReplayEngine, variants, platforms)
            legacy_seconds = min(legacy_seconds, seconds)
            seconds, heap_entries, fast_times = _run_engine(
                _fast_engine, variants, platforms)
            fast_seconds = min(fast_seconds, seconds)
        if legacy_times != fast_times:
            raise SystemExit(
                f"{name}: fast engine diverged from the legacy engine "
                f"({fast_times} != {legacy_times})")
        records = sum(len(rank) for _, trace in variants for rank in trace)
        speedup = legacy_seconds / fast_seconds if fast_seconds else float("inf")
        total_legacy += legacy_seconds
        total_fast += fast_seconds
        total_events += events
        report["apps"][name] = {
            "records_replayed": records * len(platforms),
            "events": events,
            "heap_entries_fast": heap_entries,
            "legacy_seconds": legacy_seconds,
            "fast_seconds": fast_seconds,
            "events_per_second_legacy": events / legacy_seconds,
            "events_per_second_fast": events / fast_seconds,
            "speedup": speedup,
        }
        rows.append([name, records * len(platforms),
                     f"{legacy_seconds:.3f}", f"{fast_seconds:.3f}",
                     f"{speedup:.2f}x"])

    aggregate_speedup = total_legacy / total_fast if total_fast else float("inf")
    report["aggregate"] = {
        "legacy_seconds": total_legacy,
        "fast_seconds": total_fast,
        "events_per_second_fast": total_events / total_fast,
        "speedup": aggregate_speedup,
    }
    print(format_table(
        ["app", "records", "legacy s", "event s", "event x"],
        rows, title="replay core: legacy engine vs event backend "
                    "(timeline-free sweep workload)"))
    print(f"\naggregate speedup: event {aggregate_speedup:.2f}x over legacy "
          f"({total_legacy:.3f} s -> {total_fast:.3f} s; simulated times "
          f"bit-identical on every cell)")

    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    if args.min_speedup is not None and aggregate_speedup < args.min_speedup:
        raise SystemExit(
            f"perf guard: event backend aggregate speedup "
            f"{aggregate_speedup:.2f}x over legacy is below the "
            f"--min-speedup floor {args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
