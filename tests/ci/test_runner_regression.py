"""Tests for the CI server."""

import pytest

from repro.common.errors import CIError
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
