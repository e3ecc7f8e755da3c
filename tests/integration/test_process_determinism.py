"""The process pool must not change results: ``-j 1`` serial and
``-j 2`` on worker processes are bit-identical.

Same contract as ``test_parallel_determinism``, at the worker count the
default CI matrix runs (``run --all -j 2``).  The sweep payloads cross
a pickle boundary, execute under fork, and journal into per-worker
shards that are merged back into one tree — none of which may leak into
``results.csv``, the validation verdicts, or journal well-formedness.
Also covers the operational surface the pool adds: the run-journal
header naming backend and worker count, worker-count clamping, the
default CI matrix's ``-j 2`` job, and SIGTERM drain + re-run.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.ci.config import CIConfig
from repro.common.crash import EXIT_CRASH
from repro.core.cli import main
from repro.core.repo import DEFAULT_TRAVIS
from repro.core.sweep import SweepExperimentJob
from repro.engine import EXIT_SIGTERM
from repro.monitor.journal import read_journal
from tests.integration.test_crash_recovery import filed, snapshot
from tests.integration.test_parallel_determinism import EXPERIMENTS, build_repo

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Run the identical repository serially and on two worker processes."""
    serial = build_repo(tmp_path_factory.mktemp("proc-det") / "serial")
    process = build_repo(tmp_path_factory.mktemp("proc-det") / "process")
    assert main(["-C", str(serial.root), "run", "--all", "-j", "1"]) == 0
    assert main(["-C", str(process.root), "run", "--all", "-j", "2"]) == 0
    return serial, process


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_results_csv_byte_identical(sweeps, experiment):
    serial, process = sweeps
    serial_csv = (serial.experiment_dir(experiment) / "results.csv").read_bytes()
    process_csv = (
        process.experiment_dir(experiment) / "results.csv"
    ).read_bytes()
    assert serial_csv == process_csv


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_validation_verdicts_identical(sweeps, experiment):
    serial, process = sweeps
    serial_report = (
        serial.experiment_dir(experiment) / "validation_report.txt"
    ).read_text()
    process_report = (
        process.experiment_dir(experiment) / "validation_report.txt"
    ).read_text()
    assert serial_report == process_report
    assert "ALL VALIDATIONS PASSED" in process_report


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_journal_header_names_backend_and_workers(sweeps, experiment):
    """The run journal records who executed it: backend + worker count."""
    serial, process = sweeps
    events = read_journal(process.experiment_dir(experiment) / "journal.jsonl")
    assert events[0]["event"] == "run_start"
    assert events[0]["backend"] == "process"
    assert events[0]["workers"] == min(2, os.cpu_count() or 1)
    assert events[-1]["event"] == "run_end"
    assert events[-1]["status"] == "ok"
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(1, len(events) + 1))
    span_ends = {e["name"] for e in events if e["event"] == "span_end"}
    assert {"task/setup", "task/run", "task/validate"} <= span_ends
    assert f"pipeline/run/{experiment}" in span_ends
    header = read_journal(serial.experiment_dir(experiment) / "journal.jsonl")[0]
    assert (header["backend"], header["workers"]) == ("serial", 1)


def test_trace_renders_critical_path_after_process_run(sweeps, capsys):
    _, process = sweeps
    assert main(["-C", str(process.root), "trace", "exp-torpor"]) == 0
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "pipeline/run/exp-torpor" in out


def test_sweep_payloads_are_pickle_safe():
    """The job the CLI ships to workers survives the boundary by design:
    ``bind()`` attaches the live repository and cancel token, pickling
    drops them, and the worker re-opens the repo from its path."""
    job = SweepExperimentJob(
        repo_root="/tmp/nowhere", name="exp", backend="process", workers=2
    ).bind(repo=object(), cancel=object())
    clone = pickle.loads(pickle.dumps(job))
    assert clone.repo_root == "/tmp/nowhere"
    assert clone.name == "exp"
    assert not hasattr(clone, "_repo")
    assert not hasattr(clone, "_cancel")


def test_oversubscribed_process_pool_clamps_with_warning(tmp_path, capsys):
    repo_dir = tmp_path / "clamped-repo"
    repo_dir.mkdir()
    assert main(["-C", str(repo_dir), "init"]) == 0
    assert main(["-C", str(repo_dir), "add", "torpor", "one"]) == 0
    (repo_dir / "experiments" / "one" / "vars.yml").write_text(
        "runner: torpor-variability\nruns: 2\nseed: 11\n"
    )
    cpus = os.cpu_count() or 1
    capsys.readouterr()
    assert main(["-C", str(repo_dir), "run", "--all", "-j", str(cpus + 7)]) == 0
    err = capsys.readouterr().err
    assert "clamping" in err
    events = read_journal(repo_dir / "experiments" / "one" / "journal.jsonl")
    assert events[0]["backend"] == "process"
    assert events[0]["workers"] == cpus


def test_default_ci_matrix_includes_a_process_backend_job():
    config = CIConfig.from_yaml(DEFAULT_TRAVIS)
    jobs = [env.get("POPPER_JOB") for env in config.expand_matrix()]
    assert "run --all -j 2" in jobs
    assert "selftest" in jobs
    assert len(jobs) == 6


#: Child harness: slow down one torpor run *inside a worker process* so
#: the SIGTERM lands in the parent while that experiment is in flight.
#: The monkeypatch happens before the pool forks, so workers inherit it;
#: each worker counts its own calls, hence ``-j 2`` keeps at least one
#: worker on its second (slowed) experiment.
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
    "sys.exit(main(['-C', sys.argv[1], 'run', '--all', '-j', '2']))\n"
)


def _make_repo(path, names):
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    for name in names:
        assert main(["-C", str(path), "add", "torpor", name]) == 0
        (path / "experiments" / name / "vars.yml").write_text(
            "runner: torpor-variability\nruns: 2\nseed: 11\n"
        )
    return path


class TestSignalledProcessSweep:
    def test_sigterm_drains_workers_and_resumes(self, tmp_path, capsys):
        """SIGTERM mid-sweep on the process pool: in-flight worker
        payloads drain (whole-experiment granularity — workers see no
        cancel token), the exit code is 143, and a plain re-run serves
        the experiments the artifact index holds from cache."""
        repo_dir = _make_repo(
            tmp_path / "signalled-repo", names=("one", "two", "three")
        )
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
        assert "run cancelled by SIGTERM; finish with: popper run --all" in out

        # At least the first experiment completed and was filed before
        # the signal landed (exact coverage depends on how many workers
        # the host's cpu count allowed; a drained one is filed too).
        names = ("one", "two", "three")
        finished = filed(repo_dir, names)
        assert "one" in finished
        before = {name: snapshot(repo_dir, name) for name in finished}

        # The re-run serves filed work from cache, byte for byte, and
        # completes the rest; results land for every experiment.
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in names:
            [line] = [text for text in lines if text.startswith(f"-- {name}: ")]
            assert line.endswith("(cached)") == (name in finished), line
            assert (repo_dir / "experiments" / name / "results.csv").is_file()
        assert {name: snapshot(repo_dir, name) for name in finished} == before
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 0


class TestOwnerDiesHard:
    def test_owner_crash_ends_a_sweep_with_a_busy_worker(self, tmp_path):
        """The owner of a ``-j 2`` sweep dies hard in its own write while
        a worker runs an experiment, and the command still ends at once.

        The first experiment's edited ``vars.yml`` misses every stage,
        so a worker runs it; the second is a whole-experiment hit whose
        deleted ``results.csv`` the owner materializes, and crashes
        there.  The busy worker holds the command's stdout, so the
        command returning shows the worker exited too.
        """
        repo_dir = _make_repo(tmp_path / "owner-repo", names=("one", "two"))
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        (repo_dir / "experiments" / "one" / "vars.yml").write_text(
            "runner: torpor-variability\nruns: 2\nseed: 12\n"
        )
        (repo_dir / "experiments" / "two" / "results.csv").unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        started = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.core.cli", "-C", str(repo_dir),
                "run", "--all", "-j", "2",
                "--inject-crash", "at:cas.materialize.tmp:1", "--crash-hard",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_CRASH, proc.stdout + proc.stderr
        assert time.monotonic() - started < 10
