"""File-backed result store.

Entries are sharded JSON files under the cache directory::

    <root>/v1/ab/abcdef....json     # first two digest hex chars shard the dir

Every entry embeds its own key and a checksum of the canonical payload JSON,
so ``verify`` can detect truncation, bit-rot or hand-editing without any
index.  Writes go through a temporary file in the destination directory
followed by :func:`os.replace`, which is atomic on POSIX -- concurrent sweep
workers (or concurrent experiment processes sharing one cache) can write the
same entry simultaneously and readers always observe a complete file.  There
is no lock, no daemon and no index to corrupt: the directory *is* the store,
which is what makes it safe to ship the store object to pool workers (it
pickles as its root path).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import StoreError
from repro.store.base import ResultStore, StoreStats
from repro.store.keys import STORE_FORMAT, CellKey, canonical_json
from repro.store.serde import is_valid_payload

#: Length of a SHA-256 hex digest (entry file names are validated against it).
_DIGEST_LENGTH = 64


def _checksum(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class FileResultStore(ResultStore):
    """Content-addressed result store over a plain directory tree."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        try:
            self._format_root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create cache directory "
                             f"{self._format_root}: {exc}") from exc

    @property
    def _format_root(self) -> Path:
        return self.root / f"v{STORE_FORMAT}"

    @property
    def location(self) -> str:
        return str(self.root)

    def _path_of(self, digest: str) -> Path:
        return self._format_root / digest[:2] / f"{digest}.json"

    # -- core operations ---------------------------------------------------
    def get(self, key: CellKey) -> Optional[Dict[str, Any]]:
        payload, _ = self._read(key.digest)
        return payload

    def put(self, key: CellKey, payload: Dict[str, Any]) -> None:
        entry = {
            "format": STORE_FORMAT,
            "key": key.digest,
            "variant": key.variant,
            "trace_digest": key.trace_digest,
            "checksum": _checksum(payload),
            "payload": payload,
        }
        path = self._path_of(key.digest)
        # Atomic publish: a unique temp file in the destination directory,
        # then os.replace.  Concurrent writers of the same key race
        # harmlessly -- the entries are identical by construction (same
        # key, pure function) and replace is atomic.
        tmp = path.parent / f".{key.digest}.{os.getpid()}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            # Maintenance only sees ``*.json`` entries, so a temp file left
            # here would never be removed.
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise StoreError(f"cannot write cache entry {path}: {exc}") from exc

    def __contains__(self, key: CellKey) -> bool:
        return self._path_of(key.digest).exists()

    # -- maintenance -------------------------------------------------------
    def keys(self) -> Iterator[str]:
        yield from (path.stem for path in self._entry_paths())

    def stats(self) -> StoreStats:
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(location=self.location, entries=entries,
                          total_bytes=total_bytes)

    def prune(self, older_than_seconds: Optional[float] = None) -> int:
        import time

        if older_than_seconds is not None and not (
                math.isfinite(older_than_seconds) and older_than_seconds >= 0):
            # A negative age puts the cutoff in the future and NaN fails
            # every comparison: either would delete every entry.
            raise StoreError(f"prune age must be finite and non-negative, "
                             f"got {older_than_seconds!r} seconds")
        cutoff = (time.time() - older_than_seconds
                  if older_than_seconds is not None else None)
        removed = 0
        for path in list(self._entry_paths()):
            try:
                if cutoff is not None and path.stat().st_mtime > cutoff:
                    continue
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def verify(self, delete: bool = False) -> Tuple[int, List[str]]:
        ok = 0
        bad: List[str] = []
        for path in list(self._entry_paths()):
            payload, healthy = self._read(path.stem, path=path)
            if healthy and payload is not None:
                ok += 1
                continue
            bad.append(path.stem)
            if delete:
                with contextlib.suppress(OSError):
                    path.unlink()
        return ok, sorted(bad)

    # -- internals ---------------------------------------------------------
    def _entry_paths(self) -> Iterator[Path]:
        if not self._format_root.is_dir():
            return
        for shard in sorted(self._format_root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                if len(path.stem) == _DIGEST_LENGTH:
                    yield path

    def _read(self, digest: str, path: Optional[Path] = None
              ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(payload, healthy)`` -- payload ``None`` on miss or corruption."""
        path = path or self._path_of(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None, True
        except (OSError, UnicodeDecodeError):
            return None, False
        try:
            entry = json.loads(text)
        except json.JSONDecodeError:
            return None, False
        if not isinstance(entry, dict) or entry.get("key") != digest:
            return None, False
        payload = entry.get("payload")
        if not is_valid_payload(payload):
            return None, False
        if entry.get("checksum") != _checksum(payload):
            return None, False
        return payload, True


def open_store(cache_dir: Union[str, Path, None]) -> Optional[FileResultStore]:
    """A store over ``cache_dir``, or ``None`` when no directory is given."""
    if cache_dir is None:
        return None
    return FileResultStore(cache_dir)
