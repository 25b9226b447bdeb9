"""SQLite-backed result store.

Every entry lives in one SQLite database in the cache directory, under a
subdirectory named after the store format
(:data:`~repro.store.keys.STORE_FORMAT`, so ``v4`` today)::

    <root>/v4/results.sqlite     # plus its -wal and -shm files while open

One row per entry holds the cell digest (the primary key), the variant and
trace digest (provenance), the canonical payload JSON, a checksum over the
digest and those exact bytes, and the write time.  A read checks the
checksum before it parses, so a truncated, tampered or re-keyed row reads as
a miss and ``verify`` reports it.

The database runs in write-ahead-log mode with ``synchronous=NORMAL``: a
commit is atomic, readers never block the writer, and a crash may lose the
last commits but never leaves a half-written entry.  Writers in several
processes queue on SQLite's write lock (with a busy timeout), so concurrent
sweep workers -- or concurrent experiment processes sharing one cache -- can
write the same keys.  :meth:`FileResultStore.batch` commits the writes of
one finished unit in one transaction; a ``put`` outside a batch commits at
once.  WAL needs a local file system: do not put the cache on NFS.

Each process opens its own connection on first use (SQLite forbids using a
connection across ``fork``), and the store pickles as its root path, which
is what makes it safe to ship to pool workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import StoreError
from repro.store.base import ResultStore, StoreStats
from repro.store.keys import STORE_FORMAT, CellKey, canonical_json
from repro.store.serde import is_valid_payload

#: The subdirectory of the cache directory that holds this format's entries.
_FORMAT_DIR = f"v{STORE_FORMAT}"

#: The database file inside the format directory.
_DATABASE = "results.sqlite"

#: How long a write waits for another process's transaction, in seconds.
_BUSY_TIMEOUT_S = 30.0

#: SQLite's page cache, in KiB.  A run reads each entry once, so a larger
#: cache buys nothing and costs resident memory.
_PAGE_CACHE_KIB = 128

_SCHEMA = """CREATE TABLE IF NOT EXISTS entries (
    digest TEXT PRIMARY KEY NOT NULL,
    variant TEXT NOT NULL,
    trace_digest TEXT NOT NULL,
    checksum TEXT NOT NULL,
    payload BLOB NOT NULL,
    written REAL NOT NULL)"""

_SELECT = "SELECT checksum, payload FROM entries WHERE digest = ?"

_INSERT = "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?)"

#: Connections a forked child inherited from its parent.  SQLite forbids
#: using one in the child, and closing it there could undo the parent's
#: locks, so the child keeps them referenced and never touches them.
_INHERITED: List[Any] = []


def _sqlite() -> Any:
    """The :mod:`sqlite3` module, imported by the first store that needs it
    (runs without a store never load it)."""
    import sqlite3

    return sqlite3


def _checksum(digest: str, data: bytes) -> str:
    return hashlib.sha256(digest.encode("utf-8") + data).hexdigest()


def _decode(digest: str, checksum: Any, data: Any) -> Optional[Dict[str, Any]]:
    """The payload of one row, or ``None`` if the row is damaged."""
    if not isinstance(data, bytes) or checksum != _checksum(digest, data):
        return None
    try:
        payload = json.loads(data)
    except ValueError:  # undecodable bytes or malformed JSON
        return None
    return payload if is_valid_payload(payload) else None


class FileResultStore(ResultStore):
    """Content-addressed result store in one SQLite file of a directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._connected: Any = None
        self._pid = 0
        try:
            self._format_root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"cannot create cache directory "
                             f"{self._format_root}: {exc}") from exc

    def __reduce__(self):
        # The connection belongs to this process: a copy opens its own.
        return type(self), (self.root,)

    @classmethod
    def existing(cls, root: Union[str, Path]) -> "FileResultStore":
        """The store already at ``root``, opened without creating anything.

        Maintenance (stats, verify, prune) must not create a store at a
        mistyped path and then report it as empty and healthy.
        """
        if not (Path(root) / _FORMAT_DIR / _DATABASE).is_file():
            raise StoreError(f"no result cache at {root}")
        return cls(root)

    @property
    def _format_root(self) -> Path:
        return self.root / _FORMAT_DIR

    @property
    def _database(self) -> Path:
        return self._format_root / _DATABASE

    @property
    def location(self) -> str:
        return str(self.root)

    # -- core operations ---------------------------------------------------
    def get(self, key: CellKey) -> Optional[Dict[str, Any]]:
        row = self._execute(_SELECT, (key.digest,), "read").fetchone()
        return None if row is None else _decode(key.digest, *row)

    def put(self, key: CellKey, payload: Dict[str, Any]) -> None:
        data = canonical_json(payload).encode("utf-8")
        self._execute(_INSERT, (key.digest, key.variant, key.trace_digest,
                                _checksum(key.digest, data), data,
                                time.time()), "write")

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        connection = self._connection()
        self._execute("BEGIN IMMEDIATE", (), "write")
        try:
            yield
            self._execute("COMMIT", (), "write")
        except BaseException:
            with contextlib.suppress(_sqlite().Error):
                connection.rollback()
            raise

    def __contains__(self, key: CellKey) -> bool:
        return self._execute("SELECT 1 FROM entries WHERE digest = ?",
                             (key.digest,), "read").fetchone() is not None

    def close(self) -> None:
        """Close this process's connection; a later call opens a new one."""
        connection, self._connected = self._connected, None
        if connection is None:
            return
        if self._pid == os.getpid():
            connection.close()
        else:
            _INHERITED.append(connection)

    # -- maintenance -------------------------------------------------------
    def keys(self) -> Iterator[str]:
        rows = self._execute("SELECT digest FROM entries", (),
                             "read").fetchall()
        yield from (digest for (digest,) in rows)

    def stats(self) -> StoreStats:
        """``total_bytes`` counts the stored payload JSON, not file sizes."""
        entries, total_bytes = self._execute(
            "SELECT COUNT(*), COALESCE(SUM(length(payload)), 0) "
            "FROM entries", (), "read").fetchone()
        return StoreStats(location=self.location, entries=entries,
                          total_bytes=total_bytes)

    def prune(self, older_than_seconds: Optional[float] = None) -> int:
        if older_than_seconds is None:
            return self._execute("DELETE FROM entries", (), "write").rowcount
        if not (math.isfinite(older_than_seconds) and older_than_seconds >= 0):
            # A negative age puts the cutoff in the future and NaN fails
            # every comparison: either would delete every entry.
            raise StoreError(f"prune age must be finite and non-negative, "
                             f"got {older_than_seconds!r} seconds")
        return self._execute("DELETE FROM entries WHERE written <= ?",
                             (time.time() - older_than_seconds,),
                             "write").rowcount

    def verify(self, delete: bool = False) -> Tuple[int, List[str]]:
        ok = 0
        bad: List[str] = []
        rows = self._execute("SELECT digest, checksum, payload FROM entries",
                             (), "read")
        try:
            for digest, checksum, data in rows:
                if _decode(digest, checksum, data) is None:
                    bad.append(digest)
                else:
                    ok += 1
        except _sqlite().Error as exc:
            raise StoreError(f"cannot read result cache {self._database}: "
                             f"{exc}") from exc
        if delete and bad:
            with self.batch():
                for digest in bad:
                    self._execute("DELETE FROM entries WHERE digest = ?",
                                  (digest,), "write")
        return ok, sorted(bad)

    # -- internals ---------------------------------------------------------
    def _connection(self) -> Any:
        if self._pid != os.getpid():
            self.close()  # a connection opened before a fork stays unused
            self._pid = os.getpid()
        if self._connected is None:
            self._connected = self._open()
        return self._connected

    def _open(self) -> Any:
        sqlite3 = _sqlite()
        try:
            connection = sqlite3.connect(str(self._database),
                                         timeout=_BUSY_TIMEOUT_S,
                                         isolation_level=None)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open result cache {self._database}: "
                             f"{exc}") from exc
        try:
            deadline = time.monotonic() + _BUSY_TIMEOUT_S
            while True:
                try:
                    connection.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    # Switching a new database to WAL takes a lock that the
                    # busy timeout does not wait for, so processes that
                    # create the store at the same time retry here.
                    if "locked" not in str(exc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA cache_size=-{_PAGE_CACHE_KIB}")
            connection.execute(_SCHEMA)
        except sqlite3.Error as exc:
            connection.close()
            raise StoreError(f"cannot open result cache {self._database}: "
                             f"{exc}") from exc
        return connection

    def _execute(self, sql: str, parameters: Tuple[Any, ...],
                 action: str) -> Any:
        """Run one statement on this process's connection."""
        try:
            return self._connection().execute(sql, parameters)
        except _sqlite().Error as exc:
            raise StoreError(f"cannot {action} result cache "
                             f"{self._database}: {exc}") from exc


def open_store(cache_dir: Union[str, Path, None]) -> Optional[FileResultStore]:
    """A store over ``cache_dir``, or ``None`` when no directory is given."""
    if cache_dir is None:
        return None
    return FileResultStore(cache_dir)
