"""Parallelism must not change results: -j 1 and -j 4 are bit-identical.

The engine's contract (and the paper's re-executability requirement) is
that scheduling is an observability/wall-clock concern only — the four
paper experiments are deterministic functions of their seeds, so a
serial sweep and a 4-way sweep on worker processes of the same
repository must produce byte-identical ``results.csv`` files and
identical validation verdicts.  Journals may interleave differently but
must stay well-formed per experiment.
"""

import pytest

from repro.common import minyaml
from repro.common.fsutil import write_text
from repro.core.cli import main
from repro.core.repo import PopperRepository
from repro.monitor.journal import read_journal

#: The four paper experiments, shrunk to CI size but fully seeded.
EXPERIMENTS: dict[str, tuple[str, dict]] = {
    "exp-gassyfs": (
        "gassyfs",
        {
            "node_counts": [1, 2, 4],
            "sites": ["cloudlab-wisc"],
            "workloads": ["git-compile"],
            "workload_scale": 0.1,
            "seed": 7,
        },
    ),
    "exp-torpor": ("torpor", {"runs": 2, "seed": 7}),
    "exp-mpi": ("mpi-comm-variability", {"iterations": 10, "runs": 5, "seed": 7}),
    "exp-bww": ("jupyter-bww", {"seed": 7}),
}


def build_repo(root):
    repo = PopperRepository.init(root)
    for experiment, (template, overrides) in EXPERIMENTS.items():
        repo.add_experiment(template, experiment, commit=False)
        vars_path = repo.experiment_dir(experiment) / "vars.yml"
        doc = minyaml.load_file(vars_path)
        doc.update(overrides)
        write_text(vars_path, minyaml.dumps(doc))
    repo.vcs.add_all()
    repo.vcs.commit("instantiate the four paper experiments")
    return repo


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Run the identical repository serially and on worker processes."""
    serial = build_repo(tmp_path_factory.mktemp("det") / "serial")
    parallel = build_repo(tmp_path_factory.mktemp("det") / "parallel")
    assert main(["-C", str(serial.root), "run", "--all", "-j", "1"]) == 0
    assert main(["-C", str(parallel.root), "run", "--all", "-j", "4"]) == 0
    return serial, parallel


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_results_csv_byte_identical(sweeps, experiment):
    serial, parallel = sweeps
    serial_csv = (serial.experiment_dir(experiment) / "results.csv").read_bytes()
    parallel_csv = (
        parallel.experiment_dir(experiment) / "results.csv"
    ).read_bytes()
    assert serial_csv == parallel_csv


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_validation_verdicts_identical(sweeps, experiment):
    serial, parallel = sweeps
    serial_report = (
        serial.experiment_dir(experiment) / "validation_report.txt"
    ).read_text()
    parallel_report = (
        parallel.experiment_dir(experiment) / "validation_report.txt"
    ).read_text()
    assert serial_report == parallel_report
    assert "ALL VALIDATIONS PASSED" in parallel_report


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_parallel_journals_well_formed(sweeps, experiment):
    """Each experiment's journal is complete and self-consistent."""
    _, parallel = sweeps
    events = read_journal(parallel.experiment_dir(experiment) / "journal.jsonl")
    assert events[0]["event"] == "run_start"
    assert events[0]["experiment"] == experiment
    assert events[-1]["event"] == "run_end"
    assert events[-1]["status"] == "ok"
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(1, len(events) + 1))
    # The stage spans all closed, under the experiment's own root span.
    span_ends = {e["name"] for e in events if e["event"] == "span_end"}
    assert {"task/setup", "task/run", "task/validate"} <= span_ends
    assert f"pipeline/run/{experiment}" in span_ends


def test_trace_renders_critical_path_after_parallel_run(sweeps, capsys):
    _, parallel = sweeps
    assert main(["-C", str(parallel.root), "trace", "exp-torpor"]) == 0
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "pipeline/run/exp-torpor" in out


@pytest.fixture(scope="module")
def retry_sweeps(tmp_path_factory):
    """The same sweep under injected faults + retries, -j 1 vs -j 4.

    Every ``run`` stage fails its first attempt with a transient fault
    and succeeds on retry; the resilience machinery (deterministic
    backoff jitter, per-experiment fault plans) must keep the sweep
    bit-reproducible across backends.
    """
    chaos = ["--retries", "2", "--inject-faults", "flaky:run:1"]
    serial = build_repo(tmp_path_factory.mktemp("retry-det") / "serial")
    parallel = build_repo(tmp_path_factory.mktemp("retry-det") / "parallel")
    assert main(["-C", str(serial.root), "run", "--all", "-j", "1"] + chaos) == 0
    assert main(["-C", str(parallel.root), "run", "--all", "-j", "4"] + chaos) == 0
    return serial, parallel


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_retried_results_csv_byte_identical(retry_sweeps, experiment):
    serial, parallel = retry_sweeps
    serial_csv = (serial.experiment_dir(experiment) / "results.csv").read_bytes()
    parallel_csv = (
        parallel.experiment_dir(experiment) / "results.csv"
    ).read_bytes()
    assert serial_csv == parallel_csv


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_retried_runs_journal_their_attempts(retry_sweeps, experiment):
    """Both attempts of the flaky run stage land in the journal."""
    _, parallel = retry_sweeps
    events = read_journal(parallel.experiment_dir(experiment) / "journal.jsonl")
    run_attempts = [
        e for e in events if e["event"] == "attempt" and e["task"] == "run"
    ]
    assert [e["attempt"] for e in run_attempts] == [1, 2]
    span_ends = {e["name"] for e in events if e["event"] == "span_end"}
    assert {"task/run/attempt-1", "task/run/attempt-2"} <= span_ends
    assert events[-1]["status"] == "ok"
