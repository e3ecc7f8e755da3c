"""The ``popper perf`` subcommand over commit-attached profiles."""

import pytest

from repro.check.profiles import Profile
from repro.common.rng import derive_rng
from repro.core.cli import main
from repro.core.repo import PopperRepository


def noisy(mean, n=10, label="x"):
    rng = derive_rng(17, "cli-perf", label, str(mean))
    return [float(v) for v in mean * (1.0 + 0.03 * rng.standard_normal(n))]


@pytest.fixture
def repo(tmp_path):
    root = tmp_path / "perf-repo"
    root.mkdir()
    assert main(["-C", str(root), "init"]) == 0
    return PopperRepository.open(root)


def second_commit(repo):
    (repo.root / "note.txt").write_text("tweak\n")
    repo.vcs.add_all()
    return repo.vcs.commit("tweak")


def attach(repo, commit, mean, label):
    repo.profile_history.attach(
        Profile(
            commit,
            series={"one/results/runtime_s": noisy(mean, label=label)},
        )
    )


class TestPopperPerf:
    def test_clean_pair_exits_zero(self, repo, capsys):
        old = repo.vcs.head_commit()
        attach(repo, old, 10.0, "base")
        new = second_commit(repo)
        attach(repo, new, 10.0, "same")
        code = main(["-C", str(repo.root), "perf", old[:12], new[:12]])
        out = capsys.readouterr().out
        assert code == 0
        assert "no degradation detected" in out
        assert "(1 commit apart)" in out

    def test_degraded_pair_exits_one_with_verdict_table(self, repo, capsys):
        old = repo.vcs.head_commit()
        attach(repo, old, 10.0, "base")
        new = second_commit(repo)
        attach(repo, new, 14.0, "slow")
        code = main(["-C", str(repo.root), "perf", old[:12], "HEAD"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DEGRADATION in 1 metric(s): one/results/runtime_s" in out
        # all three detectors appear in the table
        for name in ("average-amount", "integral", "exclusive-time-outliers"):
            assert name in out

    def test_all_verdicts_shows_quiet_rows(self, repo, capsys):
        old = repo.vcs.head_commit()
        attach(repo, old, 10.0, "base")
        new = second_commit(repo)
        attach(repo, new, 10.0, "same")
        code = main(
            ["-C", str(repo.root), "perf", old[:12], "HEAD", "--all-verdicts"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no-change" in out

    def test_unknown_revision_is_a_usage_error(self, repo, capsys):
        code = main(["-C", str(repo.root), "perf", "deadbeef"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown revision 'deadbeef'" in err

    def test_unprofiled_commit_names_profiled_ones(self, repo, capsys):
        old = repo.vcs.head_commit()
        attach(repo, old, 10.0, "base")
        new = second_commit(repo)
        code = main(["-C", str(repo.root), "perf", old[:12], new[:12]])
        err = capsys.readouterr().err
        assert code == 2
        assert "no profile attached" in err
        assert old[:12] in err  # the hint lists what IS profiled
