"""The acceptance loop of the crash-consistency layer: for every
registered crash point, kill → ``popper doctor`` → ``popper run
--resume`` yields byte-identical results and a clean ``cache verify``.

Also covers the CLI surface (``--inject-crash``, ``--crash-smoke``,
``doctor`` exit codes) and signal-driven cancellation of a live sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.crash import (
    EXIT_CRASH,
    CrashPlan,
    SimulatedCrash,
    install_crash_plan,
)
from repro.core.cli import main
from repro.core.repo import PopperRepository
from repro.engine import EXIT_SIGTERM

SRC = Path(__file__).resolve().parents[2] / "src"
TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"

#: Every crash point a plain sweep exercises.  ``refs.update`` fires on
#: commits, not runs — covered separately below.
RUN_CRASH_POINTS = [
    "cas.ingest.tmp",
    "cas.ingest.publish",
    "index.record",
    "runstate.append.torn",
    "journal.append.torn",
    # Group-commit windows: the crash fires before the window's bytes
    # land, losing the buffered event(s) whole — never a torn prefix.
    "runstate.append.window",
    "journal.append.window",
    "fsutil.atomic_write.tmp",
    "fsutil.atomic_write.rename",
    # The run's profile line, then its index line (journal_append).
    "profiles.attach.torn",
    "profiles.index.torn",
]


def make_repo(path, names=("one",)):
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    for name in names:
        assert main(["-C", str(path), "add", "torpor", name]) == 0
        (path / "experiments" / name / "vars.yml").write_text(TORPOR_VARS)
    return path


@pytest.fixture
def repo_dir(tmp_path):
    return make_repo(tmp_path / "crashy-repo")


@pytest.fixture(scope="module")
def control_results(tmp_path_factory):
    """results.csv bytes from an undisturbed run (torpor is seeded, so
    every correct recovery must reproduce these exactly)."""
    path = make_repo(tmp_path_factory.mktemp("control") / "control-repo")
    assert main(["-C", str(path), "run", "--all"]) == 0
    return (path / "experiments" / "one" / "results.csv").read_bytes()


class TestCrashDoctorResume:
    @pytest.mark.parametrize("point", RUN_CRASH_POINTS)
    def test_kill_repair_resume_is_byte_identical(
        self, repo_dir, control_results, point, capsys
    ):
        args = ["-C", str(repo_dir)]
        assert (
            main([*args, "run", "--all", "--inject-crash", f"at:{point}:1"])
            == EXIT_CRASH
        )
        out = capsys.readouterr().out
        assert f"simulated crash at {point} (hit 1)" in out
        assert "popper doctor" in out  # the recovery hint

        assert main([*args, "doctor", "--tmp-age", "0"]) == 0
        assert main([*args, "run", "--all", "--resume"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        assert results.read_bytes() == control_results
        capsys.readouterr()
        assert main([*args, "cache", "verify"]) == 0
        assert main([*args, "doctor", "--dry-run", "--tmp-age", "0"]) == 0

    def test_every_point_in_one_unlucky_run(
        self, repo_dir, control_results, capsys
    ):
        """Crash, repair and re-crash at the next point, once per
        registered point — recovery composes."""
        args = ["-C", str(repo_dir)]
        for hit, point in enumerate(RUN_CRASH_POINTS, start=1):
            code = main(
                [*args, "run", "--all", "--resume", "--inject-crash", f"at:{point}:1"]
            )
            assert code in (EXIT_CRASH, 0), (point, code)
            assert main([*args, "doctor", "--tmp-age", "0"]) == 0
        assert main([*args, "run", "--all", "--resume"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        assert results.read_bytes() == control_results
        capsys.readouterr()
        assert main([*args, "cache", "verify"]) == 0


class TestPackCrashRecovery:
    """The two mid-packfile hazards: crash during the pack temp write
    and between pack publish and index write.  Both must be repairable
    by popper doctor with a byte-identical warm run afterwards."""

    @pytest.mark.parametrize("point", ["pack.write.tmp", "pack.publish"])
    def test_repack_crash_doctor_rerun_is_byte_identical(
        self, repo_dir, control_results, point, capsys
    ):
        args = ["-C", str(repo_dir)]
        assert main([*args, "run", "--all"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        assert results.read_bytes() == control_results

        store = PopperRepository.open(repo_dir).artifact_store
        install_crash_plan(CrashPlan.parse(f"at:{point}:1"))
        try:
            with pytest.raises(SimulatedCrash):
                store.repack()
        finally:
            install_crash_plan(None)

        assert main([*args, "doctor", "--tmp-age", "0"]) == 0
        assert main([*args, "doctor", "--dry-run", "--tmp-age", "0"]) == 0
        capsys.readouterr()
        assert main([*args, "cache", "verify"]) == 0

        # The warm re-run serves from the (possibly packed) store and
        # reproduces the control bytes exactly.
        results.unlink()
        assert main([*args, "run", "--all"]) == 0
        assert results.read_bytes() == control_results


class TestRepackedWarmRun:
    def test_warm_run_from_a_fully_packed_store_is_byte_identical(
        self, repo_dir, capsys
    ):
        args = ["-C", str(repo_dir)]
        assert main([*args, "run", "--all"]) == 0
        results = repo_dir / "experiments" / "one" / "results.csv"
        control = results.read_bytes()

        assert main([*args, "cache", "repack"]) == 0
        store = PopperRepository.open(repo_dir).artifact_store
        stats = store.stats()
        assert stats["loose_objects"] == 0
        assert stats["packed_objects"] > 0

        results.unlink()
        capsys.readouterr()
        assert main([*args, "run", "--all"]) == 0
        out = capsys.readouterr().out
        assert "(cached)" in out  # served from the packed store
        assert results.read_bytes() == control
        assert main([*args, "cache", "verify"]) == 0
        assert main([*args, "doctor", "--dry-run", "--tmp-age", "0"]) == 0


class TestRefsCrash:
    def test_torn_ref_update_never_happens(self, repo_dir):
        """refs.update crashes *before* the atomic replace, so the old
        ref survives intact and the commit is simply absent."""
        repo = PopperRepository.open(repo_dir)
        branch, before = repo.vcs.refs.head()
        (repo_dir / "experiments" / "one" / "vars.yml").write_text(
            TORPOR_VARS + "# touched\n"
        )
        install_crash_plan(CrashPlan.parse("at:refs.update:1"))
        try:
            repo.vcs.add_all()
            with pytest.raises(SimulatedCrash):
                repo.vcs.commit("doomed commit")
        finally:
            install_crash_plan(None)
        reopened = PopperRepository.open(repo_dir)
        assert reopened.vcs.refs.head() == (branch, before)
        # Nothing to repair: the ref write is atomic end to end.
        assert main(["-C", str(repo_dir), "doctor", "--dry-run"]) == 0
        reopened.vcs.add_all()
        reopened.vcs.commit("retry lands")
        assert reopened.vcs.refs.head()[1] != before


class TestCrashSmokeCli:
    def test_crash_smoke_full_cycle(self, repo_dir, capsys):
        assert main(["-C", str(repo_dir), "run", "--all", "--crash-smoke"]) == 0
        out = capsys.readouterr().out
        assert "simulated crash at runstate.append.torn" in out
        assert "-- doctor:" in out
        assert "crash smoke: crashed, repaired, resumed clean" in out

    def test_crash_smoke_fails_when_plan_never_fires(self, repo_dir, capsys):
        code = main(
            [
                "-C",
                str(repo_dir),
                "run",
                "--all",
                "--crash-smoke",
                "--inject-crash",
                "at:no.such.point:1",
            ]
        )
        assert code == 1
        assert "plan never fired" in capsys.readouterr().out

    def test_crash_smoke_rejects_conflicting_modes(self, repo_dir, capsys):
        code = main(
            ["-C", str(repo_dir), "run", "--all", "--crash-smoke", "--cache-check"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_crash_hard_requires_a_spec(self, repo_dir, capsys):
        code = main(["-C", str(repo_dir), "run", "--all", "--crash-hard"])
        assert code == 2
        assert "--inject-crash" in capsys.readouterr().err

    def test_bad_crash_spec_rejected_before_any_work(self, repo_dir, capsys):
        code = main(
            ["-C", str(repo_dir), "run", "--all", "--inject-crash", "sometimes:x:1"]
        )
        assert code == 2
        assert not (repo_dir / "experiments" / "one" / "results.csv").exists()


class TestDoctorCli:
    def test_dry_run_reports_without_touching(self, repo_dir, capsys):
        journal = repo_dir / "experiments" / "one" / "journal.jsonl"
        journal.write_text('{"event": "ok"}\n{"event": "to')
        assert main(["-C", str(repo_dir), "doctor", "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "torn-jsonl" in out
        assert journal.read_text() == '{"event": "ok"}\n{"event": "to'

    def test_repair_then_clean(self, repo_dir, capsys):
        journal = repo_dir / "experiments" / "one" / "journal.jsonl"
        journal.write_text('{"event": "ok"}\n{"event": "to')
        assert main(["-C", str(repo_dir), "doctor"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert journal.read_text() == '{"event": "ok"}\n'
        assert main(["-C", str(repo_dir), "doctor", "--dry-run"]) == 0


#: The child slows down the *second* experiment only: the signal lands
#: while "two" is mid-payload, after "one" completed and checkpointed.
SLOW_RUN = (
    "import sys, time\n"
    "from pathlib import Path\n"
    "import repro.core.runners as runners\n"
    "real = runners.EXPERIMENT_RUNNERS['torpor-variability']\n"
    "calls = []\n"
    "def slow(variables):\n"
    "    calls.append(1)\n"
    "    if len(calls) == 2:\n"
    "        Path(sys.argv[2]).touch()\n"
    "        time.sleep(3.0)\n"
    "    return real(variables)\n"
    "runners.EXPERIMENT_RUNNERS['torpor-variability'] = slow\n"
    "from repro.core.cli import main\n"
    "sys.exit(main(['-C', sys.argv[1], 'run', '--all']))\n"
)


class TestSignalledSweep:
    def test_sigterm_drains_checkpoints_and_resumes(self, tmp_path, capsys):
        """SIGTERM mid-sweep: the in-flight experiment drains and
        checkpoints, the exit code is 143, and --resume serves the
        completed work from cache instead of re-executing it."""
        repo_dir = make_repo(tmp_path / "signalled-repo", names=("one", "two"))
        marker = tmp_path / "started"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", SLOW_RUN, str(repo_dir), str(marker)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert time.monotonic() < deadline, "runner never started"
            assert proc.poll() is None, "sweep died before being signalled"
            time.sleep(0.02)
        time.sleep(0.2)  # land the signal mid-payload, not mid-startup
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_SIGTERM, out
        assert "completed tasks are checkpointed" in out
        assert "resume with: popper run --all --resume" in out

        # The first experiment finished before the signal and is
        # checkpointed as such in the sweep state.
        states = {}
        for line in (repo_dir / ".pvcs" / "sweep-state.jsonl").read_text().splitlines():
            record = json.loads(line)
            states[record["task"]] = record["state"]
        assert states.get("one") == "ok"
        assert states.get("two") != "ok"

        # The resume serves it from the checkpoint instead of
        # re-executing and finishes the interrupted one.
        assert main(["-C", str(repo_dir), "run", "--all", "--resume"]) == 0
        resumed = capsys.readouterr().out
        for name in ("one", "two"):
            assert (repo_dir / "experiments" / name / "results.csv").is_file()
        assert "-- one:" in resumed and "(cached)" in resumed.split("-- two:")[0]
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 0
