"""File-backed result store: roundtrips, corruption handling, maintenance."""

import json
import os
import pickle
from pathlib import Path

import pytest

from repro.dimemas.platform import Platform
from repro.store import CellKey, FileResultStore, open_store
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
    def test_put_then_get(self, tmp_path):
        store = FileResultStore(tmp_path)
        key = make_key()
        store.put(key, make_payload())
        assert store.get(key) == make_payload()
        assert key in store

    def test_missing_key_is_none(self, tmp_path):
        store = FileResultStore(tmp_path)
        assert store.get(make_key()) is None
        assert make_key() not in store

    def test_put_overwrites(self, tmp_path):
        store = FileResultStore(tmp_path)
        key = make_key()
        store.put(key, make_payload(total_time=1.0))
        store.put(key, make_payload(total_time=2.0))
        assert store.get(key)["total_time"] == 2.0

    def test_entries_survive_reopening(self, tmp_path):
        FileResultStore(tmp_path).put(make_key(), make_payload())
        assert FileResultStore(tmp_path).get(make_key()) == make_payload()

    def test_get_many(self, tmp_path):
        store = FileResultStore(tmp_path)
        hit, miss = make_key(100.0), make_key(200.0)
        store.put(hit, make_payload())
        found = store.get_many([hit, miss])
        assert found == {hit.digest: make_payload()}

    def test_store_is_picklable(self, tmp_path):
        store = FileResultStore(tmp_path)
        store.put(make_key(), make_payload())
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get(make_key()) == make_payload()

    def test_open_store_none_is_none(self, tmp_path):
        assert open_store(None) is None
        assert isinstance(open_store(tmp_path), FileResultStore)


def _entry_path(store, key):
    paths = [path for path in store.root.rglob(f"{key.digest}.json")]
    assert len(paths) == 1
    return paths[0]


class TestCorruption:
    def test_truncated_entry_degrades_to_a_miss(self, tmp_path):
        store = FileResultStore(tmp_path)
        key = make_key()
        store.put(key, make_payload())
        path = _entry_path(store, key)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        assert store.get(key) is None

    def test_tampered_payload_fails_the_checksum(self, tmp_path):
        store = FileResultStore(tmp_path)
        key = make_key()
        store.put(key, make_payload(total_time=1.0))
        path = _entry_path(store, key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["payload"]["total_time"] = 99.0
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.get(key) is None

    def test_entry_under_a_foreign_name_is_rejected(self, tmp_path):
        store = FileResultStore(tmp_path)
        key, other = make_key(100.0), make_key(200.0)
        store.put(key, make_payload())
        target = store._path_of(other.digest)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(_entry_path(store, key), target)
        assert store.get(other) is None

    def test_incomplete_payload_is_invalid(self):
        partial = make_payload()
        del partial["total_time"]
        assert not is_valid_payload(partial)
        assert not is_valid_payload(None)
        assert is_valid_payload(make_payload())

    def test_verify_reports_and_optionally_deletes(self, tmp_path):
        store = FileResultStore(tmp_path)
        good, bad = make_key(100.0), make_key(200.0)
        store.put(good, make_payload())
        store.put(bad, make_payload())
        _entry_path(store, bad).write_text("{not json", encoding="utf-8")
        ok, corrupt = store.verify()
        assert ok == 1 and corrupt == [bad.digest]
        ok, corrupt = store.verify(delete=True)
        assert corrupt == [bad.digest]
        assert store.stats().entries == 1
        assert store.verify() == (1, [])


class TestMaintenance:
    def test_stats_counts_entries_and_bytes(self, tmp_path):
        store = FileResultStore(tmp_path)
        assert store.stats().entries == 0
        for bandwidth in (1.0, 2.0, 3.0):
            store.put(make_key(bandwidth), make_payload())
        stats = store.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert stats.location == str(tmp_path)

    def test_keys_lists_every_digest(self, tmp_path):
        store = FileResultStore(tmp_path)
        expected = set()
        for bandwidth in (1.0, 2.0):
            key = make_key(bandwidth)
            store.put(key, make_payload())
            expected.add(key.digest)
        assert set(store.keys()) == expected

    def test_prune_everything(self, tmp_path):
        store = FileResultStore(tmp_path)
        for bandwidth in (1.0, 2.0):
            store.put(make_key(bandwidth), make_payload())
        assert store.prune() == 2
        assert store.stats().entries == 0

    def test_prune_respects_the_age_cutoff(self, tmp_path):
        store = FileResultStore(tmp_path)
        old, fresh = make_key(1.0), make_key(2.0)
        store.put(old, make_payload())
        store.put(fresh, make_payload())
        path = _entry_path(store, old)
        stat = path.stat()
        os.utime(path, (stat.st_atime - 7200, stat.st_mtime - 7200))
        assert store.prune(older_than_seconds=3600) == 1
        assert old not in store and fresh in store

    @pytest.mark.parametrize("age", [-1.0, float("nan"), float("inf")])
    def test_prune_rejects_a_negative_or_non_finite_age(self, tmp_path, age):
        from repro.errors import StoreError

        store = FileResultStore(tmp_path)
        for bandwidth in (1.0, 2.0, 3.0):
            store.put(make_key(bandwidth), make_payload())
        with pytest.raises(StoreError, match="finite and non-negative"):
            store.prune(older_than_seconds=age)
        assert store.stats().entries == 3

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch,
                                              failing):
        from repro.errors import StoreError

        store = FileResultStore(tmp_path)
        key = make_key()
        disk_full = OSError(28, "No space left on device")
        if failing == "write":
            write_text = Path.write_text

            def partial_write(path, data, *args, **kwargs):
                write_text(path, data[:10], *args, **kwargs)
                raise disk_full

            monkeypatch.setattr(Path, "write_text", partial_write)
        else:
            def refuse(*args, **kwargs):
                raise disk_full

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(StoreError, match="cannot write"):
            store.put(key, make_payload())
        monkeypatch.undo()
        leftovers = [path.name for path in store.root.rglob("*")
                     if path.is_file()]
        assert leftovers == []
        assert key not in store

    def test_unwritable_root_raises_store_error(self, tmp_path):
        from repro.errors import StoreError

        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        with pytest.raises(StoreError, match="cannot create"):
            FileResultStore(blocker)
