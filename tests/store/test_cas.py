"""Tests for the shared content-addressed object pool."""

import hashlib

import pytest

from repro.common.errors import (
    CorruptObjectError,
    MissingObjectError,
    StoreError,
)
from repro.store import ContentStore


@pytest.fixture
def store(tmp_path):
    return ContentStore(tmp_path / "objects", quarantine_dir=tmp_path / "quarantine")


def oid_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestIngest:
    def test_put_bytes_round_trip(self, store):
        result = store.put_bytes(b"payload")
        assert result.oid == oid_of(b"payload")
        assert result.size == 7
        assert not result.deduped
        assert store.get_bytes(result.oid) == b"payload"

    def test_second_write_dedupes(self, store):
        first = store.put_bytes(b"same")
        second = store.put_bytes(b"same")
        assert first.oid == second.oid
        assert not first.deduped and second.deduped

    def test_put_file_matches_put_bytes(self, store, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"file contents")
        assert store.put_file(path).oid == oid_of(b"file contents")

    def test_put_file_dedupes_against_bytes(self, store, tmp_path):
        store.put_bytes(b"shared")
        path = tmp_path / "f"
        path.write_bytes(b"shared")
        assert store.put_file(path).deduped

    def test_put_nonfile_rejected(self, store, tmp_path):
        with pytest.raises(StoreError):
            store.put_file(tmp_path)

    def test_no_temp_files_left_behind(self, store, tmp_path):
        store.put_bytes(b"a")
        p = tmp_path / "f"
        p.write_bytes(b"a")
        store.put_file(p)  # dedup path discards its temp
        strays = [
            f
            for f in store.objects_dir.iterdir()
            if f.is_file() and f.name.startswith(".ingest-")
        ]
        assert strays == []


class TestRead:
    def test_missing_object(self, store):
        with pytest.raises(MissingObjectError):
            store.get_bytes("0" * 64)

    def test_short_id_rejected(self, store):
        with pytest.raises(StoreError, match="full object id"):
            store.object_path("abcd")

    def test_contains(self, store):
        oid = store.put_bytes(b"x").oid
        assert oid in store
        assert "f" * 64 not in store
        assert "short" not in store  # malformed ids are just absent

    def test_size_of(self, store):
        oid = store.put_bytes(b"12345").oid
        assert store.size_of(oid) == 5

    def test_ids_sorted(self, store):
        oids = {store.put_bytes(bytes([i])).oid for i in range(8)}
        listed = list(store.ids())
        assert listed == sorted(listed)
        assert set(listed) == oids


class TestCorruption:
    def test_bit_rot_quarantined_on_read(self, store):
        oid = store.put_bytes(b"good").oid
        store.object_path(oid).write_bytes(b"rotten")
        with pytest.raises(CorruptObjectError):
            store.get_bytes(oid)
        # The object left the pool and sits in quarantine.
        assert oid not in store
        assert store.quarantined() == [oid]
        assert store.quarantine_path(oid).read_bytes() == b"rotten"

    def test_verify_all_partitions_pool(self, store):
        good = store.put_bytes(b"good").oid
        bad = store.put_bytes(b"will rot").oid
        store.object_path(bad).write_bytes(b"zap")
        healthy, corrupt = store.verify_all()
        assert healthy == 1
        assert corrupt == [bad]
        assert good in store and bad not in store

    def test_stats_counts_quarantine(self, store):
        oid = store.put_bytes(b"abc").oid
        store.quarantine(oid)
        stats = store.stats()
        assert stats["objects"] == 0
        assert stats["bytes"] == 0
        assert stats["quarantined"] == 1
        assert stats["loose_objects"] == 0
        assert stats["packed_objects"] == 0


class TestMaterialize:
    def test_copy_round_trip(self, store, tmp_path):
        oid = store.put_bytes(b"artifact").oid
        dest = tmp_path / "out" / "artifact.bin"
        assert store.materialize(oid, dest) == 8
        assert dest.read_bytes() == b"artifact"

    def test_copy_is_independent_of_pool(self, store, tmp_path):
        oid = store.put_bytes(b"v1").oid
        dest = tmp_path / "f"
        store.materialize(oid, dest)
        dest.write_bytes(b"consumer truncates in place")
        assert store.get_bytes(oid) == b"v1"

    def test_replaces_existing_destination(self, store, tmp_path):
        oid = store.put_bytes(b"new").oid
        dest = tmp_path / "f"
        dest.write_bytes(b"old")
        store.materialize(oid, dest)
        assert dest.read_bytes() == b"new"

    def test_missing_object_raises(self, store, tmp_path):
        with pytest.raises(MissingObjectError):
            store.materialize("0" * 64, tmp_path / "f")


class TestDelete:
    def test_delete(self, store):
        oid = store.put_bytes(b"x").oid
        assert store.delete(oid)
        assert not store.delete(oid)
        assert oid not in store
