"""Cache replays and the profile history: each sample counts once.

A warm ``popper run`` replays stored results and re-runs nothing, so when
HEAD's profile ledger already holds a replay's samples it attaches
nothing.  A replay at a commit whose ledger does not hold them attaches
once, and a cold run always attaches.  The regression baseline is read
only when a validation calls ``no_regression``.
"""

import collections
import json

import pytest

from repro.check.profiles import ProfileHistory
from repro.common.crash import CrashPlan
from repro.common.groupcommit import read_jsonl
from repro.core.cli import main
from repro.core.pipeline import ExperimentPipeline
from repro.core.repo import PopperRepository
from repro.vcs.repository import Repository

TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"


def make_repo(path, names=("one", "two")):
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    for name in names:
        assert main(["-C", str(path), "add", "torpor", name]) == 0
        (path / "experiments" / name / "vars.yml").write_text(TORPOR_VARS)
    return path


def run_all(repo_dir, *extra):
    assert main(["-C", str(repo_dir), "run", "--all", *extra]) == 0


def commit(repo_dir, message="notes"):
    """Commit the working tree plus a new file; returns the new HEAD."""
    (repo_dir / "notes.txt").write_text(f"{message}\n")
    repo = PopperRepository.open(repo_dir)
    repo.vcs.add_all()
    return repo.vcs.commit(message)


def head(repo_dir):
    return PopperRepository.open(repo_dir).vcs.head_commit()


def history(repo_dir):
    return PopperRepository.open(repo_dir).profile_history


def snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture
def warm_repo(tmp_path):
    """Two experiments, swept once cold: every later sweep is a replay."""
    repo_dir = make_repo(tmp_path / "paper-repo")
    run_all(repo_dir)
    return repo_dir


def record_crash_points(monkeypatch):
    """Count every crash point a command consults."""
    seen = collections.Counter()
    check = CrashPlan.check

    def recording_check(plan, point):
        seen[point] += 1
        return check(plan, point)

    monkeypatch.setattr(CrashPlan, "check", recording_check)
    return seen


def count_calls(monkeypatch, *targets):
    """Count calls of each ``(owner, attribute)`` in *targets*."""
    calls = collections.Counter()
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestReplayAddsNothing:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_warm_sweep_leaves_the_profiles_byte_identical(
        self, warm_repo, monkeypatch, capsys, jobs
    ):
        profiles = warm_repo / ".pvcs" / "profiles"
        before = snapshot(profiles)
        seen = record_crash_points(monkeypatch)
        capsys.readouterr()
        run_all(warm_repo, "-j", jobs, "--inject-crash", "rate:*:0")
        assert capsys.readouterr().out.count("(cached)") == 2
        assert snapshot(profiles) == before
        assert [point for point in seen if point.startswith("profiles.")] == []

    def test_cold_run_still_attaches(self, warm_repo, monkeypatch):
        seen = record_crash_points(monkeypatch)
        ledger = history(warm_repo)._ledger_for(head(warm_repo))
        lines = len(ledger.read_bytes().splitlines())
        run_all(warm_repo, "--no-cache", "--inject-crash", "rate:*:0")
        # Its stage timings are new samples: one more line per experiment.
        assert len(ledger.read_bytes().splitlines()) == lines + 2
        assert seen["profiles.attach.torn"] == 2

    def test_a_cold_attach_leaves_one_file_per_commit(self, warm_repo):
        old = head(warm_repo)
        new = commit(warm_repo)
        run_all(warm_repo, "--no-cache")
        profiles = warm_repo / ".pvcs" / "profiles"
        assert sorted(p.name for p in profiles.iterdir()) == sorted(
            [f"{old}.jsonl", f"{new}.jsonl"]
        )

    def test_three_warm_runs_read_as_the_cold_run(self, warm_repo):
        at = head(warm_repo)
        cold = history(warm_repo).get(at)
        for _ in range(3):
            run_all(warm_repo)
        assert history(warm_repo).get(at) == cold

    def test_validate_only_adds_nothing_either(self, warm_repo):
        profiles = warm_repo / ".pvcs" / "profiles"
        before = snapshot(profiles)
        run_all(warm_repo, "--validate-only")
        assert snapshot(profiles) == before

    def test_torn_only_line_is_replaced_exactly_once(self, tmp_path):
        repo_dir = make_repo(tmp_path / "paper-repo", names=("one",))
        run_all(repo_dir)
        at = head(repo_dir)
        cold = history(repo_dir).get(at)
        ledger = history(repo_dir)._ledger_for(at)
        line = ledger.read_bytes()
        assert line.count(b"\n") == 1
        ledger.write_bytes(line[: len(line) // 2])  # a crash mid-append
        replay = {k: v for k, v in cold.series.items() if "/results/" in k}
        for _ in range(2):
            run_all(repo_dir)
            with pytest.warns(UserWarning, match="torn trailing line"):
                records, torn = read_jsonl(ledger)
            assert torn == 1
            assert [record["series"] for record in records] == [replay]


class TestReplayAtANewCommit:
    def test_first_cached_run_attaches_once_then_nothing(self, warm_repo, capsys):
        old = head(warm_repo)
        new = commit(warm_repo)
        ledger = history(warm_repo)._ledger_for(new)
        run_all(warm_repo)
        first = ledger.read_bytes()
        assert len(first.splitlines()) == 2  # one replay per experiment
        run_all(warm_repo)
        assert ledger.read_bytes() == first
        capsys.readouterr()
        assert main(["-C", str(warm_repo), "perf", old, "HEAD"]) == 0
        assert "no degradation detected" in capsys.readouterr().out


NO_REGRESSION = '\nexpect no_regression(speedup)\nexpect no_regression("speedup")\n'


class TestBaselineOnlyForNoRegression:
    def test_warm_sweep_without_no_regression_reads_no_history(
        self, warm_repo, monkeypatch
    ):
        commit(warm_repo)
        calls = count_calls(
            monkeypatch, (Repository, "log"), (ProfileHistory, "baseline_for")
        )
        run_all(warm_repo)
        assert calls == {}

    def test_baseline_resolved_once_per_pipeline(self, tmp_path, monkeypatch):
        repo_dir = make_repo(tmp_path / "paper-repo", names=("one",))
        validations = repo_dir / "experiments" / "one" / "validations.aver"
        validations.write_text(validations.read_text() + NO_REGRESSION)
        run_all(repo_dir)
        journal = (repo_dir / "experiments" / "one" / "journal.jsonl").read_text()
        notes = [
            json.loads(line).get("note", "") for line in journal.splitlines()
        ]
        assert any("vacuous pass" in note for note in notes)

        commit(repo_dir)
        calls = count_calls(
            monkeypatch,
            (Repository, "log"),
            (ProfileHistory, "baseline_for"),
        )
        run_all(repo_dir, "--no-cache")
        assert calls == {"log": 1, "baseline_for": 1}
        journal = (repo_dir / "experiments" / "one" / "journal.jsonl").read_text()
        events = [json.loads(line) for line in journal.splitlines()]
        assert any(e.get("detector") for e in events if e["event"] == "degradation")

    def test_unresolvable_head_keeps_the_stateless_message(self, tmp_path, monkeypatch):
        repo_dir = make_repo(tmp_path / "paper-repo", names=("one",))
        validations = repo_dir / "experiments" / "one" / "validations.aver"
        validations.write_text("expect no_regression(speedup)\n")
        run_all(repo_dir)
        monkeypatch.setattr(Repository, "head_commit", lambda self: None)
        repo = PopperRepository.open(repo_dir)
        result = ExperimentPipeline(repo, "one").validate_existing()
        assert not result.validated
        assert "needs a regression context" in result.report_text()
