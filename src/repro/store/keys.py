"""Content-addressed cell keys.

A *cell* is one replay unit of an experiment: one trace variant on one fully
specified platform point.  PR 3 made every cell a pure function of its
inputs, so a cell's result can be addressed by a stable digest of exactly
those inputs:

* the digest of the *original* application trace's prepared record stream
  (:meth:`repro.tracing.trace.Trace.digest` -- content, not object identity);
* the canonical *variant derivation*: ``original``, or the (pattern,
  mechanism, chunking-policy) triple that produced the overlapped trace.
  Keying the derivation instead of the overlapped stream lets a fully
  cached variant skip the overlap transformation entirely -- the transform
  is deterministic, so the derivation pins the overlapped content;
* the serialized platform point -- every simulation-relevant
  :data:`~repro.dimemas.config.PLATFORM_FIELDS` field (topology and
  collective-model specs in their compact string forms), *excluding* the
  cosmetic ``name`` label and the ``replay_backend`` knob: both backends
  replay the same run to the same bytes, so they share one address; and
* a simulator version salt, so any release that could change simulated
  numbers invalidates the whole store instead of serving stale results.

Two keys are equal iff their canonical JSON payloads are equal; the digest
is the SHA-256 of that payload.  The payload's sorted keys put the platform
and the salt first, so the hash is fed in two pieces: a per-platform-point
prefix (:func:`platform_key_state`) and a per-(trace, variant) suffix
(:func:`variant_key_bytes`).  A grid hashes each platform point's prefix
once and finishes every cell key from a copy of it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.dimemas.config import PLATFORM_FIELDS
from repro.dimemas.platform import Platform

#: Bump to invalidate every stored result (schema or semantics change).
#: 2: adaptive fast-forward replays flush network statistics in canonical
#: (src, dst, tag, pair) order, changing ``mean_transfer_time`` bytes.
#: 3: network time aggregates are exactly rounded sums, changing the
#: ``mean_*_time`` bytes of event results too.
#: 4: the removed CPU-contention flag left every platform fingerprint, so
#: every cell key changed.
STORE_FORMAT = 4

#: Canonical variant id of the non-overlapped execution.
ORIGINAL_VARIANT = "original"


def simulator_salt() -> str:
    """The version salt mixed into every cell key."""
    return f"{STORE_FORMAT}:{__version__}"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def platform_fingerprint(platform: Platform) -> Dict[str, Any]:
    """The simulation-relevant fields of a platform, canonically serialized.

    Every :data:`PLATFORM_FIELDS` entry participates except the cosmetic
    ``name`` and ``replay_backend``, which picks how a cell is replayed,
    not what it replays to.
    """
    fingerprint: Dict[str, Any] = {}
    for field in PLATFORM_FIELDS:
        if field in ("name", "replay_backend"):
            continue
        if field == "topology":
            fingerprint[field] = platform.topology.to_string()
        elif field == "collective_model":
            fingerprint[field] = platform.collective_model.to_string()
        else:
            fingerprint[field] = getattr(platform, field)
    return fingerprint


def variant_id(pattern: Optional[str] = None, mechanism: Optional[str] = None,
               chunking: Optional[str] = None) -> str:
    """The canonical derivation id of a trace variant.

    With no arguments this is the original (non-overlapped) trace; an
    overlapped variant is identified by the computation pattern, the overlap
    mechanism and the chunking policy's :meth:`describe` string -- the three
    inputs that (deterministically) produced it from the original trace.
    """
    if pattern is None and mechanism is None:
        return ORIGINAL_VARIANT
    return (f"pattern={pattern},mechanism={mechanism},"
            f"chunking={chunking or 'default'}")


def platform_key_state(platform: Platform, salt: Optional[str] = None) -> Any:
    """A SHA-256 state fed the key payload's JSON up to the trace digest.

    That is ``{"platform":<fingerprint>,"salt":<salt>,"trace":`` -- the
    canonical JSON of a cell key's payload, whose sorted keys put the two
    per-platform-point fields first.  Finish a key from a ``copy()`` of it
    with :func:`variant_key_bytes`.
    """
    salt = salt if salt is not None else simulator_salt()
    return hashlib.sha256(
        f'{{"platform":{canonical_json(platform_fingerprint(platform))},'
        f'"salt":{canonical_json(salt)},"trace":'.encode("utf-8"))


def variant_key_bytes(trace_digest: str, variant: str) -> bytes:
    """The rest of a key payload's JSON after :func:`platform_key_state`."""
    return (f'{canonical_json(trace_digest)},'
            f'"variant":{canonical_json(variant)}}}').encode("utf-8")


@dataclass(frozen=True)
class CellKey:
    """The content address of one replay cell.

    ``digest`` is the address; ``trace_digest`` and ``variant`` are kept for
    provenance reporting (``run --dry-run``, per-cell hit/miss tables).
    """

    digest: str
    trace_digest: str
    variant: str

    @classmethod
    def compute(cls, trace_digest: str, platform: Platform, variant: str,
                salt: Optional[str] = None) -> "CellKey":
        """Derive the key of (trace content, variant derivation, platform)."""
        state = platform_key_state(platform, salt)
        state.update(variant_key_bytes(trace_digest, variant))
        return cls(digest=state.hexdigest(), trace_digest=trace_digest,
                   variant=variant)

    def short(self) -> str:
        """A 12-character prefix for tables and logs."""
        return self.digest[:12]
