"""Tests for the popper CLI (the paper's Listing 2 session)."""

import pytest

from repro.core.cli import main


@pytest.fixture
def repo_dir(tmp_path):
    path = tmp_path / "mypaper-repo"
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    return path


class TestListing2:
    def test_init_message(self, tmp_path, capsys):
        path = tmp_path / "r"
        path.mkdir()
        assert main(["-C", str(path), "init"]) == 0
        assert "-- Initialized Popper repo" in capsys.readouterr().out

    def test_experiment_list_shows_paper_templates(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "-- available templates" in out
        for name in (
            "ceph-rados", "proteustm", "mpi-comm-variability", "cloverleaf",
            "gassyfs", "zlog", "spark-standalone", "torpor", "malacology",
        ):
            assert name in out

    def test_add_torpor_myexp(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "add", "torpor", "myexp"]) == 0
        assert "Added experiment myexp" in capsys.readouterr().out
        assert (repo_dir / "experiments" / "myexp" / "vars.yml").is_file()

    def test_add_unknown_template(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "add", "warpdrive", "x"]) == 2
        assert "no template" in capsys.readouterr().err


class TestOtherVerbs:
    def test_check_compliant(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "check"]) == 0
        assert "compliant" in capsys.readouterr().out

    def test_check_failure_exit_code(self, repo_dir):
        (repo_dir / ".travis.yml").unlink()
        assert main(["-C", str(repo_dir), "check"]) == 1

    def test_run_requires_names(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "run"]) == 2

    def test_run_executes_and_validates(self, repo_dir, capsys):
        main(["-C", str(repo_dir), "add", "torpor", "myexp"])
        (repo_dir / "experiments" / "myexp" / "vars.yml").write_text(
            "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        assert main(["-C", str(repo_dir), "run", "myexp"]) == 0
        out = capsys.readouterr().out
        assert "result rows, ok" in out
        assert (repo_dir / "experiments" / "myexp" / "results.csv").is_file()

    def test_run_validate_only(self, repo_dir, capsys):
        main(["-C", str(repo_dir), "add", "torpor", "myexp"])
        (repo_dir / "experiments" / "myexp" / "vars.yml").write_text(
            "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        main(["-C", str(repo_dir), "run", "myexp"])
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "run", "--validate-only", "myexp"]) == 0

    def test_run_failing_validation_exit_code(self, repo_dir, capsys):
        main(["-C", str(repo_dir), "add", "torpor", "myexp"])
        exp = repo_dir / "experiments" / "myexp"
        (exp / "vars.yml").write_text("runner: torpor-variability\nruns: 2\n")
        (exp / "validations.aver").write_text("expect speedup > 1000\n")
        assert main(["-C", str(repo_dir), "run", "myexp"]) == 1

    def test_rm(self, repo_dir, capsys):
        main(["-C", str(repo_dir), "add", "torpor", "myexp"])
        assert main(["-C", str(repo_dir), "rm", "myexp"]) == 0
        assert not (repo_dir / "experiments" / "myexp").exists()

    def test_paper_list_add_build(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "paper", "list"]) == 0
        out = capsys.readouterr().out
        assert "generic-article" in out and "bams-article" in out
        assert main(["-C", str(repo_dir), "paper", "add", "bams-article"]) == 0
        assert main(["-C", str(repo_dir), "paper", "build"]) == 0
        assert (repo_dir / "paper" / "output.pdf").is_file()

    def test_status(self, repo_dir, capsys):
        main(["-C", str(repo_dir), "add", "torpor", "myexp"])
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "status"]) == 0
        out = capsys.readouterr().out
        assert "myexp" in out and "never ran" in out

    def test_outside_repo(self, tmp_path, capsys):
        assert main(["-C", str(tmp_path), "status"]) == 2


class TestCiVerb:
    def test_ci_passing(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "ci"]) == 0
        out = capsys.readouterr().out
        assert "build #1" in out and "build: passing" in out

    def test_each_build_keeps_its_journal(self, repo_dir, capsys):
        journals = repo_dir / ".pvcs" / "ci-journals"
        assert main(["-C", str(repo_dir), "ci"]) == 0
        assert "-- build #1 " in capsys.readouterr().out
        first = (journals / "build-1.jsonl").read_bytes()
        assert main(["-C", str(repo_dir), "ci"]) == 0
        assert "-- build #2 " in capsys.readouterr().out
        assert (journals / "build-1.jsonl").read_bytes() == first
        assert (journals / "build-2.jsonl").is_file()

    def test_ci_failing(self, repo_dir, capsys):
        (repo_dir / ".travis.yml").write_text("script:\n  - false\n")
        from repro.core.repo import PopperRepository

        repo = PopperRepository.open(repo_dir)
        repo.vcs.add_all()
        repo.vcs.commit("break ci")
        assert main(["-C", str(repo_dir), "ci"]) == 1
        assert "build: failing" in capsys.readouterr().out
