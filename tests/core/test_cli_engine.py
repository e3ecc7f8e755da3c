"""`popper run` and `popper ci` through the execution engine: -j,
--strict, error recovery, matrix jobs on worker processes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.core.repo import PopperRepository

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def repo_dir(tmp_path):
    path = tmp_path / "mypaper-repo"
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    return path


def add_torpor(repo_dir, name, vars_text=None):
    assert main(["-C", str(repo_dir), "add", "torpor", name]) == 0
    if vars_text is not None:
        (repo_dir / "experiments" / name / "vars.yml").write_text(vars_text)
    return repo_dir / "experiments" / name


class TestStrictForwarding:
    """The --strict flag must reach ExperimentPipeline.run."""

    def test_strict_failure_reported_and_exit_1(self, repo_dir, capsys):
        exp = add_torpor(
            repo_dir, "myexp", "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        (exp / "validations.aver").write_text("expect speedup > 1000\n")
        assert main(["-C", str(repo_dir), "run", "--strict", "myexp"]) == 1
        out = capsys.readouterr().out
        assert "myexp: VALIDATION FAILED (strict)" in out

    def test_strict_marks_journal_validation_failed(self, repo_dir):
        from repro.monitor.journal import read_journal

        exp = add_torpor(
            repo_dir, "myexp", "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        (exp / "validations.aver").write_text("expect speedup > 1000\n")
        main(["-C", str(repo_dir), "run", "--strict", "myexp"])
        events = read_journal(exp / "journal.jsonl")
        assert events[-1]["status"] == "validation-failed"

    def test_strict_passing_run_still_exits_0(self, repo_dir):
        add_torpor(
            repo_dir, "myexp", "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        assert main(["-C", str(repo_dir), "run", "--strict", "myexp"]) == 0


class TestSweepErrorRecovery:
    """One broken experiment must not abort `popper run --all`."""

    def setup_sweep(self, repo_dir):
        add_torpor(
            repo_dir, "broken", "runner: no-such-runner\nseed: 7\n"
        )
        add_torpor(
            repo_dir, "healthy", "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )

    def test_sweep_continues_past_errored_experiment(self, repo_dir, capsys):
        self.setup_sweep(repo_dir)
        assert main(["-C", str(repo_dir), "run", "--all"]) == 2
        out = capsys.readouterr().out
        assert "broken: ERRORED" in out
        assert "healthy" in out and "result rows, ok" in out
        results = repo_dir / "experiments" / "healthy" / "results.csv"
        assert results.is_file()

    def test_errored_beats_validation_failure_in_exit_code(self, repo_dir, capsys):
        self.setup_sweep(repo_dir)
        failing = repo_dir / "experiments" / "healthy" / "validations.aver"
        failing.write_text("expect speedup > 1000\n")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 2

    def test_impossible_field_errors_only_its_experiment(self, repo_dir, capsys):
        # A bww field bigger than the host fails before numpy allocates.
        assert main(["-C", str(repo_dir), "add", "jupyter-bww", "air"]) == 0
        (repo_dir / "experiments" / "air" / "vars.yml").write_text(
            "runner: bww-airtemp\nyears: 2147483647\nseed: 7\n"
        )
        add_torpor(
            repo_dir, "healthy", "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        assert main(["-C", str(repo_dir), "run", "--all"]) == 2
        out = capsys.readouterr().out
        assert "-- air: ERRORED (" in out
        assert "physical memory" in out
        assert "-- healthy: 24 result rows, ok" in out

    def test_validation_failure_alone_exits_1(self, repo_dir):
        add_torpor(
            repo_dir, "healthy", "runner: torpor-variability\nruns: 2\nseed: 7\n"
        )
        failing = repo_dir / "experiments" / "healthy" / "validations.aver"
        failing.write_text("expect speedup > 1000\n")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 1


class TestParallelSweep:
    def test_jobs_flag_runs_all_experiments(self, repo_dir, capsys):
        for name in ("one", "two", "three"):
            add_torpor(
                repo_dir,
                name,
                "runner: torpor-variability\nruns: 2\nseed: 7\n",
            )
        assert main(["-C", str(repo_dir), "run", "--all", "-j", "3"]) == 0
        out = capsys.readouterr().out
        for name in ("one", "two", "three"):
            assert f"-- {name}:" in out
            exp = repo_dir / "experiments" / name
            assert (exp / "results.csv").is_file()
            assert (exp / "journal.jsonl").is_file()

    def test_parallel_journals_are_not_cross_contaminated(self, repo_dir):
        from repro.monitor.journal import read_journal

        for name in ("one", "two"):
            add_torpor(
                repo_dir,
                name,
                "runner: torpor-variability\nruns: 2\nseed: 7\n",
            )
        assert main(["-C", str(repo_dir), "run", "--all", "-j", "2"]) == 0
        for name in ("one", "two"):
            events = read_journal(
                repo_dir / "experiments" / name / "journal.jsonl"
            )
            assert events[0]["event"] == "run_start"
            assert events[0]["experiment"] == name
            assert events[-1]["event"] == "run_end"
            assert events[-1]["status"] == "ok"
            seqs = [e["seq"] for e in events]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_bad_jobs_value_rejected(self, repo_dir, capsys):
        add_torpor(repo_dir, "myexp")
        assert main(["-C", str(repo_dir), "run", "-j", "0", "myexp"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestParallelCi:
    def test_ci_with_jobs_passes(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "ci", "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "build #1" in out and "build: passing" in out

    def test_parallel_ci_matches_serial_verdict(self, repo_dir):
        (repo_dir / ".travis.yml").write_text(
            "env:\n"
            "  - CHECK=layout\n"
            "  - CHECK=layout2\n"
            "script:\n"
            "  - popper check\n"
        )
        repo = PopperRepository.open(repo_dir)
        repo.vcs.add_all()
        repo.vcs.commit("matrix ci")
        assert main(["-C", str(repo_dir), "ci"]) == 0
        assert main(["-C", str(repo_dir), "ci", "-j", "2"]) == 0

    def test_bad_jobs_value_rejected(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "ci", "-j", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (repo_dir / ".pvcs" / "ci-journals").exists()


def commit_matrix(repo_dir, commands):
    """Run one small experiment, then commit it with a one-step matrix:
    job *i* runs ``commands[i]``."""
    add_torpor(repo_dir, "one", "runner: torpor-variability\nruns: 2\nseed: 7\n")
    assert main(["-C", str(repo_dir), "run", "one"]) == 0
    envs = "".join(f'  - CMD="{command}"\n' for command in commands)
    (repo_dir / ".travis.yml").write_text(f"env:\n{envs}script:\n  - ${{CMD}}\n")
    repo = PopperRepository.open(repo_dir)
    repo.vcs.add_all()
    repo.vcs.commit("ci matrix")


class TestCiJobsOnProcesses:
    """`popper ci -j N` runs each matrix job in a worker process."""

    def test_crash_plan_stays_in_its_job(self, repo_dir, capsys):
        # Job 2's crash point is never reached by its own --no-cache
        # run, which sleeps with the plan installed.  Jobs sharing one
        # process fired it in the checkout of a job started meanwhile.
        commit_matrix(
            repo_dir,
            [
                "echo one",
                "popper run --all --no-cache --inject-faults delay:run:0.5"
                " --inject-crash at:cas.ingest.tmp:1",
                "echo three",
                "echo four",
                "echo five",
                "popper run --all --validate-only",
            ],
        )
        capsys.readouterr()
        printed = {}
        for jobs in ("1", "2"):
            assert main(["-C", str(repo_dir), "ci", "-j", jobs]) == 0
            printed[jobs] = capsys.readouterr().out.splitlines()[1:]
        assert printed["2"] == printed["1"]
        assert sum(line.endswith(": ok") for line in printed["2"]) == 6

    def test_step_outputs_match_serial(self, repo_dir):
        from repro.core.ci_integration import make_ci_server

        commit_matrix(
            repo_dir, ["popper check", "popper run --all --validate-only"]
        )
        repo = PopperRepository.open(repo_dir)
        serial = make_ci_server(repo, jobs=1).trigger()
        parallel = make_ci_server(repo, jobs=2).trigger()
        assert (serial.number, parallel.number) == (1, 2)
        assert parallel.jobs == serial.jobs
        assert all(job.steps and job.ok for job in parallel.jobs)

    def test_worker_death_fails_only_its_job(self, repo_dir):
        commit_matrix(
            repo_dir,
            [
                "popper run --all --validate-only",
                "popper run --all --no-cache"
                " --inject-crash at:runstate.append.torn:1 --crash-hard",
                "popper run --all --validate-only",
            ],
        )
        # A hard crash ends the process it runs in: at -j 1, this one.
        proc = subprocess.run(
            [sys.executable, "-m", "repro.core.cli", "-C", str(repo_dir),
             "ci", "-j", "2"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("-- build #1 ") and lines[0].endswith(": failed")
        verdicts = [line for line in lines if line.startswith("   job [")]
        assert [line.rsplit(": ", 1)[1] for line in verdicts] == [
            "ok", "FAILED", "ok",
        ]
        reason = lines[lines.index(verdicts[1]) + 1]
        assert "worker process" in reason and "(exit code 70)" in reason
        assert lines[-1] == "-- build: failing"
        assert (repo_dir / ".pvcs" / "ci-journals" / "build-1.jsonl").is_file()
