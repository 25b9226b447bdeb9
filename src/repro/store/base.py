"""The persistent result-store interface.

A :class:`ResultStore` maps content-addressed :class:`~repro.store.keys.CellKey`
digests to the scalar metrics of one replayed experiment cell.  Because every
cell is a pure function of its key's inputs (prepared-trace stream, platform
point, variant derivation, simulator version salt), a stored payload can be
returned for *any* later run that produces the same key -- across processes,
sweeps and specs -- without replaying the cell.

Implementations must be safe for concurrent writers: sweep workers write
results back through the store as each unit of work finishes, so an
interrupted sweep leaves every completed unit behind and a re-run only
replays the unfinished ones.
"""

from __future__ import annotations

import contextlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.store.keys import CellKey


@dataclass(frozen=True)
class StoreStats:
    """One store's size summary (the ``repro-overlap cache stats`` payload)."""

    location: str
    entries: int
    total_bytes: int

    def as_dict(self) -> Dict[str, Any]:
        return {"location": self.location, "entries": self.entries,
                "total_bytes": self.total_bytes}


class ResultStore(ABC):
    """Persistent, content-addressed map from cell keys to result payloads.

    Payloads are plain JSON-serialisable dicts (see :mod:`repro.store.serde`).
    ``get`` returns ``None`` for missing *or unreadable* entries -- a corrupt
    entry behaves like a miss, so a damaged cache degrades to recomputation
    instead of failing the experiment (``verify`` reports the damage).
    """

    @abstractmethod
    def get(self, key: CellKey) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None``."""

    @abstractmethod
    def put(self, key: CellKey, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomically replacing any entry)."""

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """Digests of every stored entry (unspecified order)."""

    @abstractmethod
    def stats(self) -> StoreStats:
        """Entry count and on-disk size of the store."""

    @abstractmethod
    def prune(self, older_than_seconds: Optional[float] = None) -> int:
        """Delete entries (all, or only those older than the given age).

        Returns the number of entries removed.  A negative or non-finite
        age raises :class:`~repro.errors.StoreError` and deletes nothing.
        """

    @abstractmethod
    def verify(self, delete: bool = False) -> Tuple[int, List[str]]:
        """Check every entry's integrity.

        Returns ``(ok_count, bad_digests)``; with ``delete`` the corrupt
        entries are removed as they are found.
        """

    # -- conveniences shared by all implementations ------------------------
    def __contains__(self, key: CellKey) -> bool:
        """True if :meth:`get` returns a payload: a damaged entry is not in."""
        return self.get(key) is not None

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Commit the ``put`` calls of the block together, or none of them.

        The writes become durable when the block exits normally and are
        rolled back when it raises.  Stores without transactions write
        each entry at once, so the base class does nothing.
        """
        yield

    def close(self) -> None:
        """Release any resources (no-op for stateless stores)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
