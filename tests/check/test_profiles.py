"""Commit-attached profiles: validation, merging, durable history."""

import json
import os

import pytest

from repro.check.profiles import (
    PROFILE_FORMAT_VERSION,
    Profile,
    ProfileHistory,
    harvest_profile,
)
from repro.common.errors import CheckError
from repro.monitor.metrics import MetricStore


class TestProfile:
    def test_validation(self):
        with pytest.raises(CheckError):
            Profile(commit="")
        with pytest.raises(CheckError):
            Profile(commit="c", series={"": [1.0]})
        with pytest.raises(CheckError):
            Profile(commit="c", series={"k": ["oops"]})

    def test_merge_concatenates_shared_series(self):
        a = Profile("c", series={"x": [1.0, 2.0]}, meta={"run": 1})
        b = Profile("c", series={"x": [3.0], "y": [9.0]}, meta={"run": 2})
        merged = a.merged(b)
        assert merged.series == {"x": [1.0, 2.0, 3.0], "y": [9.0]}
        assert merged.meta == {"run": 2}
        # inputs untouched
        assert a.series == {"x": [1.0, 2.0]}

    def test_merge_rejects_different_commits(self):
        with pytest.raises(CheckError):
            Profile("c1").merged(Profile("c2"))

    def test_json_round_trip(self):
        profile = Profile(
            "abc123", series={"e/stage/run": [1.5, 2.5]}, meta={"backend": "serial"}
        )
        payload = profile.to_json()
        assert payload["version"] == PROFILE_FORMAT_VERSION
        assert Profile.from_json(payload) == profile

    def test_unsupported_version_rejected(self):
        with pytest.raises(CheckError):
            Profile.from_json({"version": 99, "commit": "c"})

    @pytest.mark.parametrize(
        "payload",
        [
            {"version": PROFILE_FORMAT_VERSION, "series": {}},
            {"version": PROFILE_FORMAT_VERSION, "commit": "c", "series": [1.0]},
            {"version": PROFILE_FORMAT_VERSION, "commit": "c", "series": {"x": ["slow"]}},
            [{"version": PROFILE_FORMAT_VERSION, "commit": "c"}],
        ],
        ids=["no-commit", "series-not-a-mapping", "non-numeric-sample", "top-level-list"],
    )
    def test_wrong_shape_is_unreadable(self, tmp_path, payload):
        with pytest.raises(CheckError, match="unreadable profile"):
            Profile.from_json(payload)
        # Read back as a prior commit's profile, it fails the same way.
        history = ProfileHistory(tmp_path)
        history.dir.mkdir()
        history._path_for("c").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckError, match="unreadable profile"):
            history.baseline_for(["c"])


class TestHarvest:
    def test_stage_seconds_become_experiment_scoped_keys(self):
        store = MetricStore()
        for value in (1.0, 1.1, 0.9):
            store.record(
                "popper.stage_seconds",
                value,
                labels={"experiment": "one", "stage": "run"},
            )
        store.record("custom.count", 7.0, labels={"phase": "a"})
        store.record("bare", 3.0)
        profile = harvest_profile("c1", store=store)
        assert profile.series["one/stage/run"] == [1.0, 1.1, 0.9]
        assert profile.series["custom.count{phase=a}"] == [7.0]
        assert profile.series["bare"] == [3.0]

    def test_run_start_event_contributes_meta(self):
        events = [
            {"event": "run_start", "backend": "process", "workers": 4},
            {"event": "metric", "name": "ignored"},
        ]
        profile = harvest_profile("c1", events=events, meta={"experiment": "one"})
        assert profile.meta["backend"] == "process"
        assert profile.meta["workers"] == 4
        assert profile.meta["experiment"] == "one"


class TestProfileHistory:
    def test_attach_get_require(self, tmp_path):
        history = ProfileHistory(tmp_path)
        assert history.get("c1") is None
        with pytest.raises(CheckError, match="no profile attached"):
            history.require("c1")
        path = history.attach(Profile("c1", series={"x": [1.0, 2.0, 3.0]}))
        assert path.is_file()
        assert history.require("c1").series == {"x": [1.0, 2.0, 3.0]}

    def test_reattach_merges_samples(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        history.attach(Profile("c1", series={"x": [2.0]}))
        assert history.require("c1").series == {"x": [1.0, 2.0]}
        # one ledger holds both attaches
        assert history.commits() == ["c1"]

    def test_attach_appends_one_line_without_reading(self, tmp_path, monkeypatch):
        history = ProfileHistory(tmp_path)
        for value in (1.0, 2.0, 3.0):
            history.attach(Profile("c1", series={"x": [value]}))
        ledger = history._ledger_for("c1")
        before = ledger.read_text(encoding="utf-8").splitlines()
        assert len(before) == 3

        def no_reads(commit):
            raise AssertionError("attach must not read the profile")

        monkeypatch.setattr(history, "get", no_reads)
        assert history.attach(Profile("c1", series={"x": [4.0]})) == ledger
        after = ledger.read_text(encoding="utf-8").splitlines()
        assert after[:3] == before
        assert len(after) == 4
        monkeypatch.undo()
        assert history.require("c1").series == {"x": [1.0, 2.0, 3.0, 4.0]}

    def test_legacy_profile_then_ledger_lines_fold_in_attach_order(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.dir.mkdir()
        legacy = Profile("c1", series={"x": [1.0, 2.0]}, meta={"run": 0, "kept": True})
        history._path_for("c1").write_text(
            json.dumps(legacy.to_json(), indent=2), encoding="utf-8"
        )
        history.attach(Profile("c1", series={"x": [3.0], "y": [7.0]}, meta={"run": 1}))
        history.attach(Profile("c1", series={"x": [4.0]}, meta={"run": 2}))
        profile = history.require("c1")
        assert profile.series == {"x": [1.0, 2.0, 3.0, 4.0], "y": [7.0]}
        assert profile.meta == {"run": 2, "kept": True}
        # The legacy file is read, never rewritten.
        assert json.loads(history._path_for("c1").read_text()) == legacy.to_json()
        assert history.commits() == ["c1"]

    def test_torn_ledger_tail_is_skipped(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        with open(history._ledger_for("c1"), "a", encoding="utf-8") as handle:
            handle.write('{"commit": "c1", "ser')  # crash mid-append
        assert history.require("c1").series == {"x": [1.0]}

    def test_commits_in_latest_attach_order(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for second, commit in enumerate(("c-new", "c-old", "c-mid", "c-new"), 1):
            ledger = history.attach(Profile(commit, series={"x": [1.0]}))
            os.utime(ledger, ns=(second * 10**9, second * 10**9))
        assert history.commits() == ["c-old", "c-mid", "c-new"]

    def test_commits_attached_at_once_are_listed_by_name(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for commit in ("c2", "c3", "c1"):
            ledger = history.attach(Profile(commit, series={"x": [1.0]}))
            os.utime(ledger, ns=(10**9, 10**9))
        assert history.commits() == ["c1", "c2", "c3"]

    def test_attach_writes_only_the_commits_ledger(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        history.attach(Profile("c1", series={"x": [2.0]}))
        history.attach(Profile("c2", series={"x": [3.0]}))
        assert sorted(p.name for p in history.dir.iterdir()) == [
            "c1.jsonl",
            "c2.jsonl",
        ]

    def test_an_old_index_is_never_listed(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        (history.dir / "index.jsonl").write_text(
            '{"commit": "c-gone", "samples": 1, "series": 1}\n'
        )
        assert history.commits() == ["c1"]

    def test_legacy_profile_is_listed_with_the_ledgers(self, tmp_path):
        history = ProfileHistory(tmp_path)
        ledger = history.attach(Profile("c1", series={"x": [1.0]}))
        os.utime(ledger, ns=(10**9, 10**9))
        orphan = Profile("c-orphan", series={"x": [2.0]})
        legacy = history._path_for("c-orphan")
        legacy.write_text(json.dumps(orphan.to_json()), encoding="utf-8")
        os.utime(legacy, ns=(2 * 10**9, 2 * 10**9))
        assert history.commits() == ["c1", "c-orphan"]

    def test_a_commit_with_a_legacy_profile_and_a_ledger_is_listed_once(
        self, tmp_path
    ):
        history = ProfileHistory(tmp_path)
        ledger = history.attach(Profile("c1", series={"x": [1.0]}))
        os.utime(ledger, ns=(3 * 10**9, 3 * 10**9))
        other = history.attach(Profile("c2", series={"x": [2.0]}))
        os.utime(other, ns=(2 * 10**9, 2 * 10**9))
        legacy = history._path_for("c1")
        legacy.write_text(
            json.dumps(Profile("c1", series={"x": [0.5]}).to_json()),
            encoding="utf-8",
        )
        os.utime(legacy, ns=(10**9, 10**9))
        # c1's newer file, its ledger, places it.
        assert history.commits() == ["c2", "c1"]

    def test_files_that_are_not_profiles_are_not_listed(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        (history.dir / "notes.txt").write_text("not a profile", encoding="utf-8")
        (history.dir / "c2.jsonl.tmp").write_text("{}", encoding="utf-8")
        assert history.commits() == ["c1"]

    def test_unreadable_profile_errors(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        history._path_for("c1").write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckError, match="unreadable profile"):
            history.get("c1")

    def test_path_traversal_rejected(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for bad in ("", "../escape", ".hidden", "index"):
            with pytest.raises(CheckError):
                history._path_for(bad)

    def test_baseline_pools_newest_window(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for i in range(4):
            history.attach(Profile(f"c{i}", series={"x": [float(i)]}))
        # oldest-first candidate list; window 2 pools c3 then c2
        baseline = history.baseline_for(["c0", "c1", "c2", "c3"], window=2)
        assert baseline.commit == "baseline"
        assert sorted(baseline.series["x"]) == [2.0, 3.0]

    def test_baseline_skips_unprofiled_commits(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c0", series={"x": [5.0]}))
        baseline = history.baseline_for(["c0", "c-unprofiled"], window=3)
        assert baseline.series["x"] == [5.0]

    def test_baseline_none_when_nothing_profiled(self, tmp_path):
        history = ProfileHistory(tmp_path)
        assert history.baseline_for(["c0", "c1"]) is None
        with pytest.raises(CheckError):
            history.baseline_for(["c0"], window=0)


class TestEachSampleListCountsOnce:
    """A cache replay re-attaches result columns a commit already holds;
    ``holds`` lets the replay skip the append, and ``get`` skips copies
    that ledgers written before that check already carry."""

    COLD = {"e/stage/run": [0.5], "e/results/t": [1.0, 2.0], "e/results/n": [3.0]}
    REPLAY = {"e/results/t": [1.0, 2.0], "e/results/n": [3.0]}

    def test_cold_line_and_three_replay_copies_read_as_the_cold_line(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series=self.COLD, meta={"run": "cold"}))
        for copy in range(3):
            history.attach(Profile("c1", series=self.REPLAY, meta={"run": copy}))
        assert len(history._ledger_for("c1").read_text().splitlines()) == 4
        assert history.require("c1") == Profile(
            "c1", series=self.COLD, meta={"run": "cold"}
        )

    def test_a_line_with_new_samples_still_counts(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series=self.COLD))
        history.attach(Profile("c1", series={"e/results/t": [2.0, 1.0]}))
        history.attach(Profile("c1", series={**self.REPLAY, "e/results/x": [9.0]}))
        assert history.require("c1").series == {
            "e/stage/run": [0.5],
            "e/results/t": [1.0, 2.0, 2.0, 1.0, 1.0, 2.0],
            "e/results/n": [3.0, 3.0],
            "e/results/x": [9.0],
        }

    def test_a_copy_of_the_legacy_document_is_skipped(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.dir.mkdir()
        history._path_for("c1").write_text(
            json.dumps(Profile("c1", series=self.COLD).to_json(), indent=2),
            encoding="utf-8",
        )
        history.attach(Profile("c1", series=self.REPLAY))
        assert history.require("c1").series == self.COLD

    def test_holds_needs_one_line_with_every_series(self, tmp_path):
        history = ProfileHistory(tmp_path)
        assert not history.holds(Profile("c1", series=self.REPLAY))
        history.attach(Profile("c1", series={"e/results/t": [1.0, 2.0]}))
        history.attach(Profile("c1", series={"e/results/n": [3.0]}))
        # Each series is on some line, but no one line has both.
        assert not history.holds(Profile("c1", series=self.REPLAY))
        history.attach(Profile("c1", series=self.COLD))
        assert history.holds(Profile("c1", series=self.REPLAY))
        assert history.holds(Profile("c1", series={"e/results/t": [1, 2]}))
        assert not history.holds(Profile("c1", series={"e/results/t": [2.0, 1.0]}))
        assert not history.holds(Profile("c1", series={"e/results/t": [1.0]}))
        assert not history.holds(Profile("c2", series=self.REPLAY))

    def test_missing_cells_match_as_nan(self, tmp_path):
        history = ProfileHistory(tmp_path)
        series = {"e/results/t": [1.0, float("nan")]}
        history.attach(Profile("c1", series=series))
        assert history.holds(Profile("c1", series=series))
        history.attach(Profile("c1", series=series))
        assert len(history.require("c1").series["e/results/t"]) == 2

    def test_a_torn_line_holds_nothing(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series=self.COLD))
        ledger = history._ledger_for("c1")
        line = ledger.read_text(encoding="utf-8")
        # Cut after the series text: every needle is there, the JSON is not.
        ledger.write_text(line[: line.index('"version"')], encoding="utf-8")
        assert not history.holds(Profile("c1", series=self.REPLAY))
