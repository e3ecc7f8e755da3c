"""Doctor coverage for fuzz-state debris and profile-history damage."""

import json

import pytest

from repro.store.doctor import diagnose, repair


@pytest.fixture
def root(tmp_path):
    (tmp_path / ".pvcs" / "fuzz").mkdir(parents=True)
    return tmp_path


def kinds(report):
    return sorted(f.kind for f in report.findings)


class TestFuzzDebris:
    def test_stale_sandbox_swept(self, root):
        sandbox = root / ".pvcs" / "fuzz" / "work" / "deadbeefdeadbeef"
        (sandbox / "experiments" / "exp").mkdir(parents=True)
        (sandbox / "experiments" / "exp" / "vars.yml").write_text("a: 1\n")
        report = diagnose(root, tmp_age_s=0.0)
        assert "stale-fuzz-sandbox" in kinds(report)
        repair(report)
        assert not sandbox.exists()
        assert diagnose(root, tmp_age_s=0.0).clean

    def test_fresh_sandbox_spared_by_age_gate(self, root):
        sandbox = root / ".pvcs" / "fuzz" / "work" / "cafecafecafecafe"
        sandbox.mkdir(parents=True)
        report = diagnose(root, tmp_age_s=3600.0)
        assert "stale-fuzz-sandbox" not in kinds(report)

    def test_partial_corpus_entry_swept(self, root):
        partial = root / ".pvcs" / "fuzz" / "corpus" / "0123456789abcdef"
        (partial / "experiment").mkdir(parents=True)
        (partial / "experiment" / "vars.yml").write_text("a: 1\n")
        report = diagnose(root, tmp_age_s=0.0)
        assert "partial-corpus-entry" in kinds(report)
        repair(report)
        assert not partial.exists()

    def test_complete_corpus_entry_untouched(self, root):
        complete = root / ".pvcs" / "fuzz" / "corpus" / "fedcba9876543210"
        (complete / "experiment").mkdir(parents=True)
        (complete / "meta.json").write_text(json.dumps({"variant": "x"}))
        report = diagnose(root, tmp_age_s=0.0)
        repair(report)
        assert (complete / "meta.json").is_file()

    def test_partial_reproducer_swept_too(self, root):
        partial = root / ".pvcs" / "fuzz" / "repro" / "1111222233334444"
        partial.mkdir(parents=True)
        report = diagnose(root, tmp_age_s=0.0)
        assert "partial-corpus-entry" in kinds(report)
        repair(report)
        assert not partial.exists()

    def test_torn_corpus_index_truncated(self, root):
        index = root / ".pvcs" / "fuzz" / "corpus.jsonl"
        good = json.dumps({"variant": "a" * 64}) + "\n"
        index.write_text(good + '{"variant": "torn')
        report = diagnose(root, tmp_age_s=0.0)
        assert "torn-jsonl" in kinds(report)
        repair(report)
        assert index.read_text() == good

    def test_torn_coverage_map_truncated(self, root):
        coverage = root / ".pvcs" / "fuzz" / "coverage.jsonl"
        good = json.dumps({"variant": "a" * 64, "keys": ["event:metric"]})
        coverage.write_text(good + "\n" + '{"variant": "b", "keys": [')
        report = diagnose(root, tmp_age_s=0.0)
        assert "torn-jsonl" in kinds(report)
        repair(report)
        assert coverage.read_text() == good + "\n"


class TestProfileHistoryDamage:
    """`.pvcs/profiles/` is commit-attached perf history: a torn append
    must be diagnosed and repaired like any other JSONL store."""

    def test_torn_profile_tail_diagnosed_and_repaired(self, root):
        profiles = root / ".pvcs" / "profiles"
        profiles.mkdir(parents=True)
        target = profiles / f"{'c' * 40}.jsonl"
        good = (
            json.dumps({"commit": "c" * 40, "metric": "runtime", "mean": 1.2})
            + "\n"
        )
        target.write_text(good + '{"commit": "dddd", "metr')
        report = diagnose(root, tmp_age_s=0.0)
        findings = [f for f in report.findings if f.path == target]
        assert [f.kind for f in findings] == ["torn-jsonl"]
        repair(report)
        assert target.read_text() == good
        # one clean pass after repair: damage is gone, nothing else flagged
        assert diagnose(root, tmp_age_s=0.0).clean

    def test_healthy_profile_history_untouched(self, root):
        profiles = root / ".pvcs" / "profiles"
        profiles.mkdir(parents=True)
        content = (
            json.dumps({"commit": "c" * 40, "metric": "runtime"}) + "\n"
        )
        ledger = profiles / f"{'c' * 40}.jsonl"
        ledger.write_text(content)
        report = diagnose(root, tmp_age_s=0.0)
        repair(report)
        assert ledger.read_text() == content
