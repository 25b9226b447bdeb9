"""SQLite-backed result store: roundtrips, corruption handling, batches and
maintenance."""

import json
import multiprocessing
import os
import pickle

import pytest

from repro.dimemas.platform import Platform
from repro.errors import StoreError
from repro.store import STORE_FORMAT, CellKey, FileResultStore, open_store
from repro.store.serde import CACHED_RESULT_FIELDS, is_valid_payload

TRACE_DIGEST = "c" * 64


def make_key(bandwidth=100.0, variant="original"):
    return CellKey.compute(TRACE_DIGEST,
                           Platform(bandwidth_mbps=bandwidth), variant)


def make_payload(total_time=1.5):
    payload = {field: 0.0 for field in CACHED_RESULT_FIELDS}
    payload.update(total_time=total_time, bandwidth_mbps=100.0,
                   topology="flat", collective_model="analytical",
                   transfers=4, bytes_transferred=1024)
    return payload


class TestRoundtrip:
    def test_put_then_get(self, store):
        key = make_key()
        store.put(key, make_payload())
        assert store.get(key) == make_payload()
        assert key in store

    def test_missing_key_is_none(self, store):
        assert store.get(make_key()) is None
        assert make_key() not in store

    def test_put_overwrites(self, store):
        key = make_key()
        store.put(key, make_payload(total_time=1.0))
        store.put(key, make_payload(total_time=2.0))
        assert store.get(key)["total_time"] == 2.0
        assert store.stats().entries == 1

    def test_entries_survive_reopening(self, store, tmp_path):
        # A put outside a batch commits at once: another connection sees
        # it while the writer is still open.
        store.put(make_key(), make_payload())
        with FileResultStore(tmp_path) as reopened:
            assert reopened.get(make_key()) == make_payload()

    def test_store_is_picklable(self, store):
        store.put(make_key(), make_payload())
        with pickle.loads(pickle.dumps(store)) as clone:
            assert clone.get(make_key()) == make_payload()

    def test_open_store_none_is_none(self, tmp_path):
        assert open_store(None) is None
        with open_store(tmp_path) as opened:
            assert isinstance(opened, FileResultStore)

    def test_closed_store_reopens_on_use(self, store):
        store.put(make_key(), make_payload())
        store.close()
        assert store.get(make_key()) == make_payload()


class TestBatch:
    def test_batch_commits_when_the_block_exits(self, store, tmp_path):
        with FileResultStore(tmp_path) as reader:
            with store.batch():
                store.put(make_key(1.0), make_payload())
                store.put(make_key(2.0), make_payload())
                assert reader.stats().entries == 0  # not committed yet
            assert reader.stats().entries == 2

    def test_batch_rolls_back_when_the_block_raises(self, store):
        store.put(make_key(1.0), make_payload())
        with pytest.raises(RuntimeError, match="unit failed"):
            with store.batch():
                store.put(make_key(2.0), make_payload())
                store.put(make_key(1.0), make_payload(total_time=9.0))
                raise RuntimeError("unit failed")
        assert make_key(2.0) not in store
        assert store.get(make_key(1.0)) == make_payload()


def _damage(store_rows, store, sql, *parameters):
    store_rows(store.root).execute(sql, parameters)


class TestCorruption:
    def test_truncated_entry_degrades_to_a_miss(self, store, store_rows):
        key = make_key()
        store.put(key, make_payload())
        _damage(store_rows, store,
                "UPDATE entries SET payload = substr(payload, 1, 40)")
        assert store.get(key) is None

    def test_tampered_payload_fails_the_checksum(self, store, store_rows):
        key = make_key()
        store.put(key, make_payload(total_time=1.0))
        (data,), = store_rows(store.root).execute(
            "SELECT payload FROM entries").fetchall()
        payload = json.loads(data)
        payload["total_time"] = 99.0
        _damage(store_rows, store, "UPDATE entries SET payload = ?",
                json.dumps(payload).encode("utf-8"))
        assert store.get(key) is None

    def test_entry_under_a_foreign_name_is_rejected(self, store, store_rows):
        key, other = make_key(100.0), make_key(200.0)
        store.put(key, make_payload())
        _damage(store_rows, store, "UPDATE entries SET digest = ?",
                other.digest)
        assert store.get(other) is None
        assert store.verify() == (0, [other.digest])

    @pytest.mark.parametrize("shape", [list, " ".join])
    def test_checksummed_non_dict_payload_is_a_miss(self, store, shape):
        # The checksum holds (put wrote these bytes), but a list or string
        # naming every cached field is no payload.
        key = make_key()
        store.put(key, shape(CACHED_RESULT_FIELDS))
        assert store.get(key) is None
        assert store.verify() == (0, [key.digest])

    def test_incomplete_payload_is_invalid(self):
        partial = make_payload()
        del partial["total_time"]
        assert not is_valid_payload(partial)
        assert not is_valid_payload(None)
        assert is_valid_payload(make_payload())

    def test_verify_reports_and_optionally_deletes(self, store, store_rows):
        good, bad = make_key(100.0), make_key(200.0)
        store.put(good, make_payload())
        store.put(bad, make_payload())
        _damage(store_rows, store,
                "UPDATE entries SET payload = CAST('{not json' AS BLOB) "
                "WHERE digest = ?", bad.digest)
        ok, corrupt = store.verify()
        assert ok == 1 and corrupt == [bad.digest]
        ok, corrupt = store.verify(delete=True)
        assert corrupt == [bad.digest]
        assert store.stats().entries == 1
        assert store.verify() == (1, [])


class TestMaintenance:
    def test_stats_counts_entries_and_bytes(self, store, tmp_path):
        assert store.stats().entries == 0
        for bandwidth in (1.0, 2.0, 3.0):
            store.put(make_key(bandwidth), make_payload())
        stats = store.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert stats.location == str(tmp_path)

    def test_keys_lists_every_digest(self, store):
        expected = set()
        for bandwidth in (1.0, 2.0):
            key = make_key(bandwidth)
            store.put(key, make_payload())
            expected.add(key.digest)
        assert set(store.keys()) == expected

    def test_prune_everything(self, store):
        for bandwidth in (1.0, 2.0):
            store.put(make_key(bandwidth), make_payload())
        assert store.prune() == 2
        assert store.stats().entries == 0

    def test_prune_respects_the_age_cutoff(self, store, store_rows):
        old, fresh = make_key(1.0), make_key(2.0)
        store.put(old, make_payload())
        store.put(fresh, make_payload())
        _damage(store_rows, store,
                "UPDATE entries SET written = written - 7200 WHERE digest = ?",
                old.digest)
        assert store.prune(older_than_seconds=3600) == 1
        assert old not in store and fresh in store

    @pytest.mark.parametrize("age", [-1.0, float("nan"), float("inf")])
    def test_prune_rejects_a_negative_or_non_finite_age(self, store, age):
        for bandwidth in (1.0, 2.0, 3.0):
            store.put(make_key(bandwidth), make_payload())
        with pytest.raises(StoreError, match="finite and non-negative"):
            store.prune(older_than_seconds=age)
        assert store.stats().entries == 3

    def test_failed_write_raises_and_leaves_no_entry(self, store):
        key = make_key()
        store._connection().execute("PRAGMA query_only = ON")
        with pytest.raises(StoreError, match="cannot write"):
            store.put(key, make_payload())
        assert key not in store

    def test_batch_failing_part_way_leaves_no_entry(self, store):
        first, second = make_key(1.0), make_key(2.0)
        with pytest.raises(StoreError, match="cannot write"):
            with store.batch():
                store.put(first, make_payload())
                store._connection().execute("PRAGMA query_only = ON")
                store.put(second, make_payload())
        assert first not in store and second not in store

    def test_unwritable_root_raises_store_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        with pytest.raises(StoreError, match="cannot create"):
            FileResultStore(blocker)

    def test_existing_refuses_a_directory_without_a_database(self, tmp_path):
        # The JSON-file layout of earlier releases is not read.
        shard = tmp_path / "v3" / "ab"
        shard.mkdir(parents=True)
        with pytest.raises(StoreError, match="no result cache"):
            FileResultStore.existing(tmp_path)
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "ab", "v3"]

    def test_a_store_of_an_earlier_format_is_not_read(self, tmp_path):
        # A format bump changes every cell key; the old database stays
        # where it was and is neither read nor written.
        with FileResultStore(tmp_path) as store:
            store.put(make_key(), make_payload())
        current = tmp_path / f"v{STORE_FORMAT}"
        current.rename(tmp_path / f"v{STORE_FORMAT - 1}")
        with pytest.raises(StoreError, match="no result cache"):
            FileResultStore.existing(tmp_path)
        with FileResultStore(tmp_path) as store:
            assert store.get(make_key()) is None
            assert store.stats().entries == 0


#: The keys both writers of the two-process test write.
SHARED_KEYS = 200


def _write_shared_keys(root, total_time, start):
    """One writer of the two-process test: every shared key, half of them
    in batches of ten and half as single puts, all with this writer's
    payload.  Both writers open the store only once ``start`` releases
    them, so they race to create the database too."""
    keys = [make_key(float(bandwidth)) for bandwidth in range(SHARED_KEYS)]
    payload = make_payload(total_time=total_time)
    start.wait(timeout=60)
    with FileResultStore(root) as store:
        half = SHARED_KEYS // 2
        for first in range(0, half, 10):
            with store.batch():
                for key in keys[first:first + 10]:
                    store.put(key, payload)
        for key in keys[half:]:
            store.put(key, payload)


def _write_and_exit_without_closing(root):
    store = FileResultStore(root)
    with store.batch():
        store.put(make_key(1.0), make_payload())
    store.put(make_key(2.0), make_payload())
    os._exit(0)  # no close and no finalizer: the write-ahead log stays


def _run_to_completion(process):
    """Join a started ``process`` (killing it after two minutes) and
    return its exit code."""
    process.join(timeout=120)
    if process.is_alive():
        process.kill()
        process.join()
    return process.exitcode


class TestAcrossProcesses:
    def test_commits_outlive_a_writer_that_never_closes(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        writer = context.Process(target=_write_and_exit_without_closing,
                                 args=(tmp_path,))
        writer.start()
        assert _run_to_completion(writer) == 0
        with FileResultStore(tmp_path) as store:
            assert store.verify() == (2, [])

    def test_two_processes_write_the_same_keys(self, tmp_path):
        root = tmp_path / "shared"  # neither writer has opened it yet
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(2)
        writers = [context.Process(target=_write_shared_keys,
                                   args=(root, total_time, start))
                   for total_time in (1.0, 2.0)]
        for writer in writers:
            writer.start()
        assert [_run_to_completion(writer) for writer in writers] == [0, 0]
        with FileResultStore(root) as store:
            for bandwidth in range(SHARED_KEYS):
                assert store.get(make_key(float(bandwidth))) in (
                    make_payload(total_time=1.0), make_payload(total_time=2.0))
            assert store.verify() == (SHARED_KEYS, [])
            assert store.stats().entries == SHARED_KEYS
