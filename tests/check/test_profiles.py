"""Commit-attached profiles: validation, merging, durable history."""

import json

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
        # the index journal saw both attaches; commits() deduplicates
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

    def test_commits_in_first_attach_order(self, tmp_path):
        history = ProfileHistory(tmp_path)
        for commit in ("c-new", "c-old", "c-mid"):
            history.attach(Profile(commit, series={"x": [1.0]}))
        assert history.commits() == ["c-new", "c-old", "c-mid"]

    def test_torn_index_tail_is_skipped(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        with open(history.index_path, "a", encoding="utf-8") as handle:
            handle.write('{"commit": "c-torn", "ser')  # crash mid-append
        assert history.commits() == ["c1"]

    def test_profile_file_without_index_line_still_listed(self, tmp_path):
        history = ProfileHistory(tmp_path)
        history.attach(Profile("c1", series={"x": [1.0]}))
        orphan = Profile("c-orphan", series={"x": [2.0]})
        history._path_for("c-orphan").write_text(
            json.dumps(orphan.to_json()), encoding="utf-8"
        )
        assert history.commits() == ["c1", "c-orphan"]

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
