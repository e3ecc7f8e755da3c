"""``popper doctor``: every kind of crash debris is found, the repair
matrix is applied, and healthy state is never touched."""

import json
import os
import subprocess
import sys

import pytest

from repro.common.locking import LockInfo, RepoLock
from repro.store.doctor import diagnose, repair


@pytest.fixture
def root(tmp_path):
    """A bare repository skeleton: the doctor works on the tree alone."""
    (tmp_path / ".pvcs" / "locks").mkdir(parents=True)
    (tmp_path / ".pvcs" / "cache" / "objects").mkdir(parents=True)
    (tmp_path / ".pvcs" / "cache" / "index").mkdir(parents=True)
    (tmp_path / ".pvcs" / "cache" / "quarantine").mkdir(parents=True)
    return tmp_path


def dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def write_lock(path, pid):
    info = LockInfo(pid=pid, host=os.uname().nodename, label="t", created=1.0)
    path.write_text(info.to_json() + "\n", encoding="utf-8")


def kinds(report):
    return sorted(f.kind for f in report.findings)


class TestCleanRepo:
    def test_empty_tree_is_clean(self, root):
        report = diagnose(root)
        assert report.clean
        assert "is clean" in report.describe()

    def test_missing_root_is_clean(self, tmp_path):
        assert diagnose(tmp_path / "nope").clean

    def test_healthy_state_not_flagged(self, root):
        # Released lock (empty file), healthy journal, complete record.
        (root / ".pvcs" / "locks" / "store.lock").write_bytes(b"")
        (root / "journal.jsonl").write_text('{"event": "ok"}\n')
        oid = "ab" + "cd" * 31
        pool = root / ".pvcs" / "cache" / "objects" / oid[:2]
        pool.mkdir(parents=True)
        (pool / oid[2:]).write_bytes(b"payload")
        (root / ".pvcs" / "cache" / "index" / "k.json").write_text(
            json.dumps({"key": "k", "outputs": [{"oid": oid}]})
        )
        assert diagnose(root).clean


class TestStaleLocks:
    def test_dead_holder_flagged_and_truncated(self, root):
        path = root / ".pvcs" / "locks" / "store.lock"
        write_lock(path, dead_pid())
        report = diagnose(root)
        assert kinds(report) == ["stale-lock"]
        assert "is dead" in report.findings[0].detail
        repair(report)
        assert report.findings[0].repaired
        assert path.read_bytes() == b""
        assert diagnose(root).clean

    def test_live_holder_left_alone(self, root):
        write_lock(root / ".pvcs" / "locks" / "store.lock", os.getpid())
        assert diagnose(root).clean

    def test_unreadable_metadata_flagged(self, root):
        (root / ".pvcs" / "locks" / "refs.lock").write_text("garbage")
        report = diagnose(root)
        assert kinds(report) == ["stale-lock"]
        assert "unreadable" in report.findings[0].detail

    def test_truncated_lock_is_acquirable_again(self, root):
        path = root / ".pvcs" / "locks" / "store.lock"
        write_lock(path, dead_pid())
        repair(diagnose(root))
        with RepoLock(path, timeout_s=0.5):
            pass


class TestOrphanTemps:
    def test_old_ingest_temp_swept(self, root):
        temp = root / ".pvcs" / "cache" / "objects" / ".ingest-abc123"
        temp.write_bytes(b"half an object")
        os.utime(temp, (1.0, 1.0))
        report = diagnose(root)
        assert kinds(report) == ["orphan-temp"]
        repair(report)
        assert not temp.exists()

    def test_fresh_temp_spared_by_age_gate(self, root):
        """A young temp may belong to a live writer; doctor must be safe
        to run next to an in-flight popper run."""
        temp = root / ".pvcs" / "cache" / "objects" / ".ingest-live"
        temp.write_bytes(b"in flight")
        assert diagnose(root, tmp_age_s=60.0).clean
        assert kinds(diagnose(root, tmp_age_s=0.0)) == ["orphan-temp"]

    def test_atomic_write_temp_swept_but_locks_spared(self, root):
        temp = root / ".pvcs" / ".HEAD.x7f3"
        temp.write_text("refs/heads/main")
        os.utime(temp, (1.0, 1.0))
        lock = root / ".pvcs" / "locks" / "store.lock"
        lock.write_bytes(b"")
        os.utime(lock, (1.0, 1.0))
        report = diagnose(root)
        assert [f.path for f in report.findings] == [temp]


class TestTornJsonl:
    def test_dangling_tail_truncated_to_last_good_line(self, root):
        path = root / "experiments" / "e" / "journal.jsonl"
        path.parent.mkdir(parents=True)
        good = '{"event": "run_start"}\n'
        path.write_text(good + '{"event": "span_start", "na')
        report = diagnose(root)
        assert kinds(report) == ["torn-jsonl"]
        repair(report)
        assert path.read_text() == good
        assert diagnose(root).clean

    def test_terminated_garbage_line_truncated(self, root):
        path = root / "journal.jsonl"
        path.write_text('{"event": "ok"}\nnot json\n')
        report = diagnose(root)
        assert kinds(report) == ["torn-jsonl"]
        repair(report)
        assert path.read_text() == '{"event": "ok"}\n'

    def test_complete_record_missing_newline_is_kept(self, root):
        """A write cut exactly before the terminator lost nothing; the
        record must be completed, not discarded."""
        path = root / "journal.jsonl"
        path.write_text('{"event": "ok"}\n{"event": "late"}')
        repair(diagnose(root))
        assert path.read_text() == '{"event": "ok"}\n{"event": "late"}\n'

    def test_torn_only_line_leaves_empty_file(self, root):
        path = root / "journal.jsonl"
        path.write_text('{"event": "o')
        repair(diagnose(root))
        assert path.read_bytes() == b""

    def test_sealed_fragment_found_and_dropped(self, root):
        """A writer reopened without doctor seals the fragment off and
        appends after it: doctor must find what every reader skips."""
        from repro.common.groupcommit import GroupCommitWriter, read_jsonl

        path = root / ".pvcs" / "profiles" / "c1.jsonl"
        path.parent.mkdir()
        path.write_text('{"a": 1}\n{"b": ')
        with GroupCommitWriter(path) as writer:
            writer.append('{"c": 3}')
        report = diagnose(root, tmp_age_s=0)
        assert kinds(report) == ["torn-jsonl"]
        repair(report)
        assert read_jsonl(path) == ([{"a": 1}, {"c": 3}], 0)
        assert diagnose(root, tmp_age_s=0).clean

    def test_object_pool_contents_never_parsed(self, root):
        """Payloads under objects/ are opaque; a stored .jsonl artifact
        must never be 'repaired' by the doctor."""
        pool = root / ".pvcs" / "cache" / "objects" / "ab"
        pool.mkdir(parents=True)
        torn = pool / "payload.jsonl"
        torn.write_text('{"half": tr')
        assert diagnose(root).clean


class TestIndexRecords:
    def test_partial_record_unlinked(self, root):
        path = root / ".pvcs" / "cache" / "index" / "k.json"
        path.write_text('{"key": "k", "outp')
        report = diagnose(root)
        assert kinds(report) == ["partial-index-record"]
        repair(report)
        assert not path.exists()

    def test_dangling_record_unlinked(self, root):
        oid = "11" * 32
        path = root / ".pvcs" / "cache" / "index" / "k.json"
        path.write_text(json.dumps({"key": "k", "outputs": [{"oid": oid}]}))
        report = diagnose(root)
        assert kinds(report) == ["dangling-index-record"]
        repair(report)
        assert not path.exists()


class TestQuarantine:
    def test_quarantined_object_reported_not_repaired(self, root):
        path = root / ".pvcs" / "cache" / "quarantine" / ("aa" * 32)
        path.write_bytes(b"bit rot")
        report = diagnose(root)
        assert kinds(report) == ["quarantined-object"]
        assert not report.repairable
        repair(report)
        assert path.exists()
        assert "report-only" in report.findings[0].describe()


class TestReportShape:
    def test_diagnose_never_modifies(self, root):
        temp = root / ".pvcs" / "cache" / "objects" / ".ingest-x"
        temp.write_bytes(b"x")
        os.utime(temp, (1.0, 1.0))
        (root / "journal.jsonl").write_text('{"a": 1}\n{"b"')
        before = sorted(p for p in root.rglob("*") if p.is_file())
        diagnose(root)
        assert sorted(p for p in root.rglob("*") if p.is_file()) == before
        assert (root / "journal.jsonl").read_text() == '{"a": 1}\n{"b"'

    def test_repair_is_idempotent(self, root):
        (root / "journal.jsonl").write_text('{"a": 1}\n{"b"')
        repair(diagnose(root))
        second = repair(diagnose(root))
        assert second.clean

    def test_unrepaired_tracks_failures(self, root):
        write_lock(root / ".pvcs" / "locks" / "store.lock", dead_pid())
        report = diagnose(root)
        assert report.repairable and report.unrepaired == report.repairable
        repair(report)
        assert report.unrepaired == []


class TestScratchTrees:
    """Fuzz sandboxes and CI checkouts are whole repositories a live
    campaign or build may be using: doctor never reaches inside one."""

    def test_stale_sandbox_reported_once_without_its_contents(self, root):
        sandbox = root / ".pvcs" / "fuzz" / "work" / "deadbeefdeadbeef"
        (sandbox / ".pvcs" / "locks").mkdir(parents=True)
        write_lock(sandbox / ".pvcs" / "locks" / "store.lock", dead_pid())
        temp = sandbox / ".pvcs" / ".HEAD.x7f3"
        temp.write_text("refs/heads/main")
        os.utime(temp, (1.0, 1.0))
        os.utime(sandbox, (1.0, 1.0))
        report = diagnose(root)
        assert [(f.kind, f.path) for f in report.findings] == [
            ("stale-fuzz-sandbox", sandbox)
        ]

    def test_aged_ci_checkout_files_are_not_temps(self, root):
        checkout = root / ".pvcs" / "ci-workspaces" / "build-1" / "job-1"
        checkout.mkdir(parents=True)
        travis = checkout / ".travis.yml"
        travis.write_text("language: python\n")
        os.utime(travis, (1.0, 1.0))
        assert diagnose(root).clean
        assert travis.exists()

    def test_torn_ledger_in_a_young_sandbox_left_alone(self, root):
        sandbox = root / ".pvcs" / "fuzz" / "work" / "cafecafecafecafe"
        ledger = sandbox / "experiments" / "e" / "journal.jsonl"
        ledger.parent.mkdir(parents=True)
        ledger.write_text('{"event": "ok"}\n{"event": "li')
        assert diagnose(root, tmp_age_s=60).clean
