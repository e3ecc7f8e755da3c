"""Tests for the CI server and the performance-regression gate."""

import numpy as np
import pytest

from repro.common.errors import CIError
from repro.common.rng import derive_rng
from repro.ci.regression import PerformanceHistory, RegressionGate
from repro.ci.runner import BuildStatus, CIServer
from repro.vcs.repository import Repository


@pytest.fixture
def repo(tmp_path):
    repo = Repository.init(tmp_path / "paper-repo")
    (repo.root / "README.md").write_text("# paper\n")
    return repo


def commit_travis(repo, travis_text, extra=None):
    (repo.root / ".travis.yml").write_text(travis_text)
    for rel, text in (extra or {}).items():
        path = repo.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    repo.add_all()
    return repo.commit("update ci config")


class TestCIServer:
    def test_passing_build(self, repo):
        commit_travis(
            repo,
            "install:\n  - pkg install make\n"
            "script:\n  - test -f /build/README.md\n  - echo build ok\n",
        )
        server = CIServer(repo)
        record = server.trigger()
        assert record.ok
        assert record.status == BuildStatus.PASSED
        assert server.badge() == "build: passing"

    def test_failing_script_fails_build(self, repo):
        commit_travis(repo, "script:\n  - false\n")
        server = CIServer(repo)
        record = server.trigger()
        assert not record.ok
        assert server.badge() == "build: failing"

    def test_failure_short_circuits_later_steps(self, repo):
        commit_travis(repo, "script:\n  - false\n  - echo never\n")
        record = CIServer(repo).trigger()
        commands = [s.command for s in record.jobs[0].steps]
        assert "echo never" not in commands

    def test_after_failure_runs_on_failure(self, repo):
        commit_travis(
            repo,
            "script:\n  - false\nafter_failure:\n  - echo cleanup\n",
        )
        record = CIServer(repo).trigger()
        phases = [s.phase for s in record.jobs[0].steps]
        assert "after_failure" in phases

    def test_matrix_builds_all_jobs(self, repo):
        commit_travis(
            repo,
            "env:\n  - NODES=1\n  - NODES=2\n  - NODES=4\n"
            "script:\n  - echo running with $NODES\n",
        )
        record = CIServer(repo).trigger()
        assert len(record.jobs) == 3
        outputs = [job.steps[-1].stdout for job in record.jobs]
        assert outputs == ["running with 1\n", "running with 2\n", "running with 4\n"]

    def test_env_visible_to_steps(self, repo):
        commit_travis(
            repo,
            "env:\n  global:\n    - GREETING=hello\n"
            "script:\n  - echo $GREETING world\n",
        )
        record = CIServer(repo).trigger()
        assert record.jobs[0].steps[0].stdout == "hello world\n"

    def test_missing_config_errors(self, repo):
        repo.add_all()
        repo.commit("no travis file")
        server = CIServer(repo)
        with pytest.raises(CIError):
            server.trigger()
        assert server.latest().status == BuildStatus.ERRORED

    def test_history_accumulates(self, repo):
        commit_travis(repo, "script: [echo one]\n")
        server = CIServer(repo)
        server.trigger()
        commit_travis(repo, "script: [echo two]\n")
        server.trigger()
        assert [b.number for b in server.history] == [1, 2]

    def test_builds_for_commit(self, repo):
        oid = commit_travis(repo, "script: [echo x]\n")
        server = CIServer(repo)
        server.trigger()
        assert server.builds_for(oid[:12])[0].commit == oid

    def test_workspace_cleaned_up(self, repo):
        commit_travis(repo, "script: [echo x]\n")
        server = CIServer(repo)
        server.trigger()
        assert not any(Path.iterdir(p) for p in [server.workspace_root] if p.exists()) or True
        # stronger: the specific build dir is gone
        assert not (server.workspace_root / "build-1").exists()

    def test_unknown_badge_before_builds(self, repo):
        assert CIServer(repo).badge() == "build: unknown"


from pathlib import Path  # noqa: E402


class TestRegressionGate:
    def _samples(self, mean, n=10, cov=0.03, label="x"):
        rng = derive_rng(11, "reg", label, str(mean))
        return mean * (1.0 + cov * rng.standard_normal(n))

    def test_no_regression_on_identical_distribution(self):
        gate = RegressionGate(threshold=0.10)
        report = gate.check(self._samples(10, label="a"), self._samples(10, label="b"))
        assert not report.regressed

    def test_detects_large_slowdown(self):
        gate = RegressionGate(threshold=0.10)
        report = gate.check(self._samples(10, label="a"), self._samples(13, label="b"))
        assert report.regressed
        assert report.ratio == pytest.approx(1.3, rel=0.1)

    def test_small_slowdown_below_threshold_passes(self):
        gate = RegressionGate(threshold=0.10)
        report = gate.check(self._samples(10, label="a"), self._samples(10.4, label="b"))
        assert not report.regressed

    def test_lower_is_worse_mode(self):
        gate = RegressionGate(threshold=0.10, higher_is_worse=False)
        report = gate.check(
            self._samples(100, label="tp-a"), self._samples(70, label="tp-b")
        )
        assert report.regressed

    def test_zero_variance_decided_by_effect(self):
        gate = RegressionGate(threshold=0.10)
        assert gate.check([10.0] * 5, [14.0] * 5).regressed
        assert not gate.check([10.0] * 5, [10.0] * 5).regressed

    def test_sample_count_enforced(self):
        gate = RegressionGate()
        with pytest.raises(CIError):
            gate.check([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_nonpositive_samples_rejected(self):
        with pytest.raises(CIError):
            RegressionGate().check([1.0, 0.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_parameter_validation(self):
        with pytest.raises(CIError):
            RegressionGate(threshold=0.0)
        with pytest.raises(CIError):
            RegressionGate(alpha=2.0)

    def test_report_string(self):
        gate = RegressionGate(threshold=0.10)
        report = gate.check(self._samples(10, label="a"), self._samples(14, label="b"))
        assert "REGRESSION" in str(report)


class TestPerformanceHistory:
    def test_rolling_baseline_and_judgement(self):
        history = PerformanceHistory(window=3)
        rng = derive_rng(5, "hist")
        for i in range(4):
            history.record(f"c{i}", 10 * (1 + 0.02 * rng.standard_normal(8)))
        good = history.judge("good", 10 * (1 + 0.02 * rng.standard_normal(8)))
        assert not good.regressed
        bad = history.judge("bad", 13 * (1 + 0.02 * rng.standard_normal(8)))
        assert bad.regressed

    def test_regressed_commit_not_recorded(self):
        history = PerformanceHistory(window=3)
        history.record("base", [10.0, 10.1, 9.9, 10.0])
        before = history.baseline.size
        history.judge("bad", [14.0, 14.1, 13.9, 14.2])
        assert history.baseline.size == before

    def test_window_evicts_oldest(self):
        history = PerformanceHistory(window=2)
        history.record("a", [1.0, 1.0, 1.0])
        history.record("b", [2.0, 2.0, 2.0])
        history.record("c", [3.0, 3.0, 3.0])
        assert set(np.unique(history.baseline)) == {2.0, 3.0}

    def test_empty_baseline_rejected(self):
        with pytest.raises(CIError):
            PerformanceHistory().baseline


class TestPerformanceHistoryPersistence:
    def test_save_load_round_trip(self, tmp_path):
        history = PerformanceHistory(metric="latency", window=3)
        history.record("c1", [10.0, 10.2, 9.8])
        history.record("c2", [10.1, 9.9, 10.0])
        path = tmp_path / "history.json"
        history.save(path)
        loaded = PerformanceHistory.load(path)
        assert loaded.metric == "latency"
        assert loaded.window == 3
        np.testing.assert_array_equal(loaded.baseline, history.baseline)

    def test_save_is_versioned_and_terminated(self, tmp_path):
        import json

        history = PerformanceHistory()
        history.record("c1", [1.0, 2.0, 3.0])
        path = tmp_path / "history.json"
        history.save(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["version"] == 1

    def test_unversioned_mapping_rejected(self, tmp_path):
        """No writer ever stored a bare {commit: [samples]} mapping."""
        import json

        path = tmp_path / "unversioned.json"
        path.write_text(
            json.dumps({"c1": [10.0, 10.1, 9.9], "c2": [10.2, 9.8, 10.0]})
        )
        with pytest.raises(CIError, match="malformed performance history"):
            PerformanceHistory.load(path)

    def test_unreadable_or_malformed_errors(self, tmp_path):
        with pytest.raises(CIError):
            PerformanceHistory.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(CIError):
            PerformanceHistory.load(bad)
        torn = tmp_path / "torn.json"
        torn.write_text('{"c1": ["not-a-num')
        with pytest.raises(CIError):
            PerformanceHistory.load(torn)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"version": 99, "commits": []}')
        with pytest.raises(CIError):
            PerformanceHistory.load(path)
