"""(De)serialisation of cached cell results.

The store holds only the *content* of a replayed cell -- the scalar metrics
that are a pure function of the cell key.  Run-local bookkeeping (task index,
variant display label, grid-point ordinal, worker pid) is deliberately kept
out of the payload and re-bound from the requesting task on a hit, so the
same entry can serve specs that label or order their grids differently.

The helpers are duck-typed against :class:`repro.core.executor.SweepTaskResult`
(no import -- the executor imports this module for write-through).
"""

from __future__ import annotations

from typing import Any, Dict

#: Cached fields, exactly the pure-function-of-the-key scalars of a
#: ``SweepTaskResult``.  ``elapsed_seconds`` is the *producing* replay's wall
#: time: a hit reports what the simulation originally cost, which keeps warm
#: rows identical to the cold rows that produced them.
CACHED_RESULT_FIELDS = (
    "bandwidth_mbps",
    "total_time",
    "communication_fraction",
    "max_compute_time",
    "elapsed_seconds",
    "topology",
    "collective_model",
    "transfers",
    "bytes_transferred",
    "mean_queue_time",
    "mean_transfer_time",
    "intranode_share",
    "collective_transfers",
    "collective_bytes",
    "collective_share",
)
_CACHED_FIELD_SET = frozenset(CACHED_RESULT_FIELDS)


def payload_of(result: Any) -> Dict[str, Any]:
    """The storable payload of one task result (see CACHED_RESULT_FIELDS)."""
    return {field: getattr(result, field) for field in CACHED_RESULT_FIELDS}


def is_valid_payload(payload: Any) -> bool:
    """True if ``payload`` is a dict carrying every cached field.

    Unknown keys (from a future format) are allowed: a reader binds only
    the cached fields, so minor forward-compatible payload growth does not
    break old readers.
    """
    return isinstance(payload, dict) and _CACHED_FIELD_SET.issubset(payload)
