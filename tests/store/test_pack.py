"""Packfiles: format round trips, delta encoding, repack transparency,
doctor repairs for crashed repacks, and the CLI surface."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.check.smoke
import repro.fuzz
import repro.serve
from repro.common.crash import CrashPlan, SimulatedCrash, install_crash_plan
from repro.common.hashing import sha256_bytes
from repro.core.cli import main
from repro.store.cas import ContentStore
from repro.store.doctor import diagnose, repair
from repro.store.pack import (
    PackError,
    PackReader,
    _affix_split,
    pack_name,
    rebuild_index,
    write_pack,
)


def payloads(count=6, twin=False):
    """Deterministic blobs; ``twin=True`` shares a long affix so the
    delta encoder has something to bite on."""
    affix = hashlib.sha256(b"affix").digest() * 16 if twin else b""
    blobs = {}
    for i in range(count):
        data = affix + f"payload-{i:03d}\n".encode("ascii") * 3 + affix
        blobs[sha256_bytes(data)] = data
    return blobs


@pytest.fixture
def store(tmp_path):
    return ContentStore(tmp_path / "objects", durable=False)


class TestPackFormat:
    def test_round_trip_every_object(self, tmp_path):
        blobs = payloads()
        pack, idx = write_pack(blobs, tmp_path, durable=False)
        reader = PackReader(idx)
        assert sorted(reader.ids()) == sorted(blobs)
        for oid, data in blobs.items():
            assert reader.get_bytes(oid) == data
            assert reader.size_of(oid) == len(data)
        assert reader.verify() == []

    def test_pack_name_is_content_derived_and_write_idempotent(self, tmp_path):
        blobs = payloads()
        first = write_pack(blobs, tmp_path, durable=False)
        second = write_pack(blobs, tmp_path, durable=False)
        assert first == second
        assert first[0].name == f"{pack_name(list(blobs))}.pack"

    def test_empty_pack_refused(self, tmp_path):
        with pytest.raises(PackError):
            write_pack({}, tmp_path)

    def test_affix_twins_delta_encode_and_round_trip(self, tmp_path):
        blobs = payloads(count=8, twin=True)
        _, idx = write_pack(blobs, tmp_path, durable=False)
        reader = PackReader(idx)
        assert reader.delta_count() > 0
        logical = sum(len(v) for v in blobs.values())
        assert reader.packed_bytes < logical // 4  # the affixes collapsed
        for oid, data in blobs.items():
            assert reader.get_bytes(oid) == data

    def test_no_delta_flag_stores_whole_payloads(self, tmp_path):
        blobs = payloads(count=8, twin=True)
        _, idx = write_pack(blobs, tmp_path, delta=False, durable=False)
        assert PackReader(idx).delta_count() == 0

    def test_rebuild_index_matches_the_original(self, tmp_path):
        blobs = payloads(count=8, twin=True)
        pack, idx = write_pack(blobs, tmp_path, durable=False)
        original = json.loads(idx.read_text())
        idx.unlink()
        rebuilt = rebuild_index(pack, durable=False)
        assert json.loads(rebuilt.read_text()) == original

    def test_truncated_pack_detected(self, tmp_path):
        blobs = payloads()
        pack, idx = write_pack(blobs, tmp_path, durable=False)
        raw = pack.read_bytes()
        pack.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(PackError):
            rebuild_index(pack)
        assert sorted(PackReader(idx).verify()) == sorted(blobs)


def loop_affix_split(base, data):
    """The byte-at-a-time loop ``_affix_split`` replaced: the reference."""
    limit = min(len(base), len(data))
    prefix = 0
    while prefix < limit and base[prefix] == data[prefix]:
        prefix += 1
    suffix = 0
    rest = limit - prefix
    while (
        suffix < rest
        and base[len(base) - 1 - suffix] == data[len(data) - 1 - suffix]
    ):
        suffix += 1
    return prefix, suffix, data[prefix : len(data) - suffix]


#: Chunks over a three-byte alphabet, so the inputs share affixes by
#: construction and agree by accident at the seams.
chunks = st.binary(max_size=48).map(lambda raw: bytes(b % 3 for b in raw))


class TestAffixSplit:
    @settings(max_examples=500, deadline=None)
    @given(chunks, chunks, chunks, chunks)
    def test_matches_the_byte_loop(self, head, base_mid, data_mid, tail):
        base, data = head + base_mid + tail, head + data_mid + tail
        assert _affix_split(base, data) == loop_affix_split(base, data)
        assert _affix_split(data, base) == loop_affix_split(data, base)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_matches_the_byte_loop_on_unrelated_inputs(self, base, data):
        assert _affix_split(base, data) == loop_affix_split(base, data)

    def test_identical_and_empty_inputs(self):
        blob = b"abcabc" * 100
        assert _affix_split(blob, blob) == (len(blob), 0, b"")
        assert _affix_split(b"", blob) == (0, 0, blob)
        assert _affix_split(blob, b"") == (0, 0, b"")


class TestStoreTransparency:
    def test_repack_folds_loose_and_reads_stay_identical(self, store):
        blobs = payloads(count=8, twin=True)
        for data in blobs.values():
            store.put_bytes(data)
        report = store.repack()
        assert not report.noop
        assert report.loose_folded == len(blobs)
        assert report.deltas > 0
        assert list(store.loose_ids()) == []
        assert list(store.ids()) == sorted(blobs)
        for oid, data in blobs.items():
            assert store.get_bytes(oid) == data
            assert oid in store
            assert store.size_of(oid) == len(data)

    def test_second_repack_is_a_noop(self, store):
        for data in payloads().values():
            store.put_bytes(data)
        assert not store.repack().noop
        assert store.repack().noop

    def test_repack_folds_old_packs_with_new_loose(self, store):
        first = payloads(count=4)
        for data in first.values():
            store.put_bytes(data)
        store.repack()
        extra = b"late arrival\n" * 4
        store.put_bytes(extra)
        report = store.repack()
        assert report.packs_folded == 1
        assert report.loose_folded == 1
        assert len(store.pack_readers()) == 1
        assert store.get_bytes(sha256_bytes(extra)) == extra
        for oid, data in first.items():
            assert store.get_bytes(oid) == data

    def test_min_objects_gate(self, store):
        store.put_bytes(b"only one object")
        assert store.repack(min_objects=2).noop

    def test_verify_all_covers_packed_objects(self, store):
        blobs = payloads()
        for data in blobs.values():
            store.put_bytes(data)
        store.repack()
        healthy, corrupt = store.verify_all()
        assert (healthy, corrupt) == (len(blobs), [])

    def test_corrupt_pack_quarantined_whole_on_read(self, store):
        blobs = payloads()
        for data in blobs.values():
            store.put_bytes(data)
        store.repack()
        reader = store.pack_readers()[0]
        raw = bytearray(reader.pack_path.read_bytes())
        for entry in reader.entries.values():
            raw[entry.offset] ^= 0xFF  # damage every payload's first byte
        reader.pack_path.write_bytes(bytes(raw))
        store._invalidate_packs()
        with pytest.raises(Exception):
            store.get_bytes(sorted(blobs)[0])
        assert store.pack_readers(refresh=True) == []
        assert any(
            p.name.endswith(".pack") for p in store.quarantine_dir.iterdir()
        )

    def test_stats_split_loose_and_packed(self, store):
        blobs = payloads(count=5, twin=True)
        for data in blobs.values():
            store.put_bytes(data)
        before = store.stats()
        assert before["loose_objects"] == 5
        assert before["packed_objects"] == 0
        store.repack()
        store.put_bytes(b"fresh loose tail")
        after = store.stats()
        assert after["loose_objects"] == 1
        assert after["packed_objects"] == 5
        assert after["objects"] == 6
        assert after["pack_files"] == 1
        assert after["pack_deltas"] > 0
        assert after["packed_logical_bytes"] == sum(
            len(v) for v in blobs.values()
        )
        assert after["bytes"] == after["loose_bytes"] + after["packed_bytes"]


class TestDoctorPackRepairs:
    def make_pool(self, tmp_path, twin=True):
        root = tmp_path / "repo" / ".pvcs" / "cache"
        store = ContentStore(root / "objects", durable=False)
        blobs = payloads(count=6, twin=twin)
        for data in blobs.values():
            store.put_bytes(data)
        return tmp_path / "repo", store, blobs

    def test_unindexed_pack_gets_its_index_rebuilt(self, tmp_path):
        repo, store, blobs = self.make_pool(tmp_path)
        install_crash_plan(CrashPlan.parse("at:pack.write.rename:1"))
        try:
            with pytest.raises(SimulatedCrash):
                store.repack()
        finally:
            install_crash_plan(None)
        report = diagnose(repo, tmp_age_s=0.0)
        kinds = {f.kind for f in report.findings}
        assert "unindexed-pack" in kinds
        repair(report)
        assert not report.unrepaired
        healed = ContentStore(store.objects_dir, durable=False)
        assert len(healed.pack_readers()) == 1
        for oid, data in blobs.items():
            assert healed.get_bytes(oid) == data
        assert diagnose(repo, tmp_age_s=0.0).clean

    def test_orphan_pack_temp_swept(self, tmp_path):
        repo, store, blobs = self.make_pool(tmp_path)
        install_crash_plan(CrashPlan.parse("at:pack.write.tmp:1"))
        try:
            with pytest.raises(SimulatedCrash):
                store.repack()
        finally:
            install_crash_plan(None)
        temps = list(store.packs_dir.glob(".*"))
        assert temps
        report = repair(diagnose(repo, tmp_age_s=0.0))
        assert {f.kind for f in report.findings} == {"orphan-temp"}
        assert not list(store.packs_dir.glob(".*"))
        # Nothing was folded: every object still reads from loose.
        for oid, data in blobs.items():
            assert store.get_bytes(oid) == data

    def test_dangling_pack_index_unlinked(self, tmp_path):
        repo, store, blobs = self.make_pool(tmp_path)
        store.repack()
        reader = store.pack_readers()[0]
        reader.pack_path.unlink()  # the sweep order crash: pack gone first
        report = repair(diagnose(repo, tmp_age_s=0.0))
        kinds = {f.kind for f in report.findings}
        assert "dangling-pack-index" in kinds
        assert not reader.idx_path.exists()

    def test_truncated_pack_quarantined(self, tmp_path):
        repo, store, blobs = self.make_pool(tmp_path)
        store.repack()
        reader = store.pack_readers()[0]
        raw = reader.pack_path.read_bytes()
        reader.pack_path.write_bytes(raw[:-9])
        report = repair(diagnose(repo, tmp_age_s=0.0))
        assert "truncated-pack" in {f.kind for f in report.findings}
        assert not report.unrepaired
        assert not reader.pack_path.exists()
        quarantine = store.objects_dir.parent / "quarantine"
        assert (quarantine / reader.pack_path.name).exists()

    def test_dangling_record_scan_knows_packed_objects(self, tmp_path):
        """A repack must not make the doctor unlink healthy records."""
        repo_dir = tmp_path / "repo"
        repo_dir.mkdir()
        assert main(["-C", str(repo_dir), "init"]) == 0
        assert main(["-C", str(repo_dir), "add", "torpor", "one"]) == 0
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert main(["-C", str(repo_dir), "cache", "repack"]) == 0
        report = diagnose(repo_dir, tmp_age_s=0.0)
        assert "dangling-index-record" not in {
            f.kind for f in report.findings
        }


class TestCliSurface:
    @pytest.fixture
    def repo_dir(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        assert main(["-C", str(repo), "init"]) == 0
        assert main(["-C", str(repo), "add", "torpor", "one"]) == 0
        assert main(["-C", str(repo), "run", "--all"]) == 0
        return repo

    def test_cache_repack_then_stats_report_packs(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "cache", "repack"]) == 0
        out = capsys.readouterr().out
        assert "repack:" in out and "pack-" in out
        assert main(["-C", str(repo_dir), "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "packed:" in out
        assert "dedup ratio incl. pack deltas" in out
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 0

    def test_store_smoke_cli(self, monkeypatch, capsys):
        # The other self-checks are stubbed so only the store one runs.
        monkeypatch.setattr(repro.check.smoke, "perf_smoke", lambda: "perf stub")
        monkeypatch.setattr(repro.fuzz, "fuzz_smoke", lambda: "fuzz stub")
        monkeypatch.setattr(repro.serve, "serve_smoke", lambda: "serve stub")
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "store smoke:" in out
        assert "publish crash repaired" in out

    def test_default_ci_matrix_includes_the_store_job(self):
        from repro.ci.config import CIConfig
        from repro.core.repo import DEFAULT_TRAVIS

        config = CIConfig.from_yaml(DEFAULT_TRAVIS)
        jobs = [env.get("POPPER_JOB") for env in config.expand_matrix()]
        assert "selftest" in jobs
        assert len(jobs) == 6
