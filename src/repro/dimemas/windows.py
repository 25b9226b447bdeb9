"""Cell classification for the adaptive replay backend.

The ``adaptive`` backend replays a cell without discrete events, with
per-rank time recurrences.  That needs no resource model when no shared
resource can be oversubscribed, and is only *well-defined* when the
trace's progress structure can be proven without replaying it.  This
module is the pre-replay pass that decides both, over the prepared record
streams (:meth:`repro.tracing.trace.Trace.prepared`):

* **Viability** -- the whole-trace conditions under which the closed-form
  recurrences reproduce the event backend's semantics: analytical
  collectives (every collective is a global barrier with a closed-form
  duration -- the decomposed model injects phase traffic that must really
  interleave), no unknown records, no request id reissued while
  outstanding, cross-rank agreement on collective counts and parameters
  (a disagreeing trace must fail through the event walk so it raises the
  exact same error), and a clean run of the zero-time symbolic replay of
  :mod:`repro.analysis.tracelint` over the trace's message plan -- it is
  exact for progress semantics, so a trace it proves matchable, with every
  send received, cannot deadlock or leave a transfer unmatched under
  fast-forwarding.

* **Proven cells** -- a viable cell is *proven* when the platform's
  network has no limited resource at all (per-topology classification
  below) or the trace sends no inter-node message (intra-node transfers
  bypass every network resource).  A proven cell that records no
  timeline rides the lane walk, alone or batched with its cohort
  (:mod:`repro.dimemas.gridreplay`); every other viable cell rides the
  paced walk, which runs a FIFO resource micro-model and plays the DES
  queue in its event-creation order: same-instant URGENT work (rank and
  transfer starts, grants, handovers) runs from one FIFO, same-instant
  NORMAL work (notifications, wake-ups) from a second, and a time-ordered
  heap holds only future events, reproducing the DES's sequential
  acquisition, FIFO grants and same-instant tie order.  Either way the
  times equal the event backend's (checked by the differential tests and
  the accuracy harness, ``benchmarks/bench_adaptive.py``).

Classification is cheap (one pass plus the symbolic replay) and memoized
per trace object -- and by content digest when one is known -- so a
bandwidth sweep classifies each trace once, not once per platform point.
The symbolic replay itself is shared with lint: its verdict is memoized on
the trace per eager threshold (:func:`repro.analysis.tracelint.symbolic_verdict`),
so a prechecked run replays each (trace, eager threshold) once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.structure import first_defect
from repro.analysis.tracelint import symbolic_verdict
from repro.dimemas.collectives.base import ANALYTICAL
from repro.dimemas.platform import Platform
from repro.dimemas.topology import FLAT, TORUS, TREE
from repro.tracing.trace import OP_COLLECTIVE, OP_SEND, OP_UNKNOWN, Trace


@dataclass(frozen=True)
class WindowPlan:
    """The classifier's verdict for one (trace, platform) cell.

    ``viable`` is the operative bit: the adaptive engine fast-forwards when
    it is set and falls back to the event walk (with ``reason`` explaining
    why) when it is not.  ``proven_exact`` says the cell is viable and no
    transfer can meet a limited resource, so the replay needs no resource
    model: metric-only proven cells ride the lane walk, at width 1 or in a
    cohort (:mod:`repro.dimemas.gridreplay` batches only such cells).
    """

    viable: bool
    reason: Optional[str]
    network_uncontended: bool
    proven_exact: bool


class _TraceFacts:
    """Platform-independent facts of one trace content (memoized)."""

    __slots__ = ("defect", "internode_messages", "message_sizes")

    def __init__(self, defect: Optional[str] = None,
                 internode_messages: int = 0,
                 message_sizes: Tuple[int, ...] = ()):
        self.defect = defect
        self.internode_messages = internode_messages
        self.message_sizes = message_sizes


#: Facts keyed by (trace content digest, eager threshold, ranks per node).
#: Bounded like the prepared-trace memo: a hit is a fast path, never a
#: correctness dependency.
_FACTS_MEMO: Dict[Tuple[str, int, int], _TraceFacts] = {}
_FACTS_MEMO_LIMIT = 256


def _compute_facts(trace: Trace, eager_threshold: int,
                   processors_per_node: int) -> _TraceFacts:
    ops = trace.prepared().ops

    # A reissued request id (TL303): the event walk refuses the trace
    # before it replays anything.
    reissued = first_defect(trace, "TL303")
    if reissued is not None:
        return _TraceFacts(defect=reissued)

    # Structural sanity: unknown records would raise mid-replay, and the
    # collective coordinator's TL201/TL203 checks must fire from the real
    # engine (same error text, same discovery order), so any disagreement
    # sends the cell to the exact fallback.
    collective_rows: List[List[Tuple[str, int, int]]] = []
    for rank, rank_ops in enumerate(ops):
        row = []
        for op, record in rank_ops:
            if op == OP_UNKNOWN:
                return _TraceFacts(
                    defect=f"rank {rank} carries a record the replay engine "
                           f"does not know ({record!r})")
            if op == OP_COLLECTIVE:
                row.append((record.operation, record.root, record.size))
        collective_rows.append(row)
    first = collective_rows[0]
    for rank, row in enumerate(collective_rows):
        if len(row) != len(first):
            return _TraceFacts(
                defect=f"ranks disagree on collective counts "
                       f"(rank 0: {len(first)}, rank {rank}: {len(row)})")
        if row != first:
            return _TraceFacts(
                defect=f"rank {rank} disagrees with rank 0 on collective "
                       f"parameters")

    # Matchability proof: the symbolic replay of repro.analysis.tracelint
    # is exact for progress semantics (only posting order matters), so a
    # clean fixpoint guarantees the fast-forward walks never deadlock --
    # without replaying anything.  A send left unmatched at the fixpoint
    # is a defect too: the event walk raises its exact error (TL101/TL103).
    # The verdict is the one lint's deadlock search memoized on the trace;
    # the node mapping never enters it.
    verdict = symbolic_verdict(trace, eager_threshold)
    if verdict.stuck:
        return _TraceFacts(
            defect=f"static matcher cannot prove progress "
                   f"(ranks {verdict.stuck} block)")
    unmatched = verdict.unmatched_sends
    if unmatched:
        return _TraceFacts(
            defect=f"static matcher leaves {unmatched} send(s) unreceived")

    # A trace without inter-node messages is contention-free on every
    # platform: intra-node transfers bypass every network resource.
    internode = 0
    sizes = set()
    for rank, rank_ops in enumerate(ops):
        src_node = rank // processors_per_node
        for op, record in rank_ops:
            if op == OP_SEND:
                sizes.add(record.size)
                if record.dst // processors_per_node != src_node:
                    internode += 1
    return _TraceFacts(internode_messages=internode,
                       message_sizes=tuple(sorted(sizes)))


def _trace_facts(trace: Trace, eager_threshold: int,
                 processors_per_node: int) -> _TraceFacts:
    # Per-instance cache first: a platform sweep classifies the same trace
    # object once per (eager threshold, mapping) pair, not once per
    # bandwidth point -- and without requiring anyone to have computed the
    # content digest.
    instance_memo = getattr(trace, "_window_facts", None)
    if instance_memo is None:
        instance_memo = {}
        trace._window_facts = instance_memo
    instance_key = (eager_threshold, processors_per_node)
    facts = instance_memo.get(instance_key)
    if facts is not None:
        return facts
    digest = getattr(trace, "_digest", None)
    if digest is None:
        # No content digest known (one-off simulate): skip the cross-object
        # memo rather than paying a full content hash for a single use.
        facts = _compute_facts(trace, eager_threshold, processors_per_node)
        instance_memo[instance_key] = facts
        return facts
    key = (digest, eager_threshold, processors_per_node)
    facts = _FACTS_MEMO.get(key)
    if facts is None:
        facts = _compute_facts(trace, eager_threshold, processors_per_node)
        if len(_FACTS_MEMO) >= _FACTS_MEMO_LIMIT:
            _FACTS_MEMO.clear()
        _FACTS_MEMO[key] = facts
    instance_memo[instance_key] = facts
    return facts


def protocol_class(trace: Trace, eager_threshold: int,
                   processors_per_node: int) -> int:
    """Which eager/rendezvous partition this threshold induces on the trace.

    Two eager thresholds are interchangeable for a given trace exactly when
    every send size classifies the same way under both (``size <= threshold``
    is the engine's protocol test).  The partition is characterised by how
    many of the trace's distinct send sizes fall on the eager side, so the
    class is ``bisect_right(sorted distinct sizes, threshold)``.  Traces with
    a defect get class ``-1`` (never groupable: they must fail through the
    real engine).
    """
    facts = _trace_facts(trace, eager_threshold, processors_per_node)
    if facts.defect is not None:
        return -1
    return bisect_right(facts.message_sizes, eager_threshold)


def export_facts(trace: Trace, eager_threshold: int,
                 processors_per_node: int) -> Optional[Tuple[Any, ...]]:
    """A picklable row of this cell's window facts, or None without a digest.

    The row round-trips through :func:`seed_facts` so a sweep parent can
    classify each (trace, threshold, mapping) once and ship the proof to
    every pool worker instead of each worker re-running the symbolic replay.
    """
    digest = getattr(trace, "_digest", None)
    if digest is None:
        return None
    facts = _trace_facts(trace, eager_threshold, processors_per_node)
    return (digest, eager_threshold, processors_per_node, facts.defect,
            facts.internode_messages, facts.message_sizes)


def seed_facts(rows) -> None:
    """Adopt facts rows from :func:`export_facts` into the process memo."""
    for row in rows:
        if row is None:
            continue
        (digest, eager_threshold, processors_per_node, defect, internode,
         message_sizes) = row
        key = (digest, int(eager_threshold), int(processors_per_node))
        if key in _FACTS_MEMO:
            continue
        if len(_FACTS_MEMO) >= _FACTS_MEMO_LIMIT:
            _FACTS_MEMO.clear()
        _FACTS_MEMO[key] = _TraceFacts(
            defect=defect, internode_messages=int(internode),
            message_sizes=tuple(message_sizes))


def network_uncontended(platform: Platform) -> bool:
    """True when the platform's network has no limited resource at all.

    Per-topology classification mirroring the models' resource
    construction (``_make_resource(0)`` builds an ``InfiniteResource``):

    * ``flat``: buses and both per-node link directions unlimited
      (``Platform.ideal_network()`` is the canonical such platform);
    * ``tree``/``torus``: ``links == 0`` (every edge unlimited).

    Unknown kinds classify conservatively as contended.
    """
    spec = platform.topology
    if spec.kind == FLAT:
        return (platform.num_buses == 0 and platform.input_links == 0
                and platform.output_links == 0)
    if spec.kind in (TREE, TORUS):
        return spec.links == 0
    return False


def classify(trace: Trace, platform: Platform) -> WindowPlan:
    """Decide whether this cell can be fast-forwarded, and whether it is
    proven contention-free."""
    if platform.collective_model.kind != ANALYTICAL:
        return WindowPlan(
            viable=False,
            reason="decomposed collectives inject phase traffic that must "
                   "interleave through the DES",
            network_uncontended=False, proven_exact=False)
    facts = _trace_facts(trace, platform.eager_threshold,
                         platform.processors_per_node)
    if facts.defect is not None:
        return WindowPlan(
            viable=False, reason=facts.defect,
            network_uncontended=False, proven_exact=False)
    uncontended = network_uncontended(platform)
    return WindowPlan(
        viable=True, reason=None, network_uncontended=uncontended,
        proven_exact=uncontended or facts.internode_messages == 0)
