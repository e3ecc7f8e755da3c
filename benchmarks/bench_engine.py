"""Engine throughput: what ``popper run -j 2`` buys over ``-j 1``.

Sweeps 16 experiments — the four paper experiments (`gassyfs`,
`torpor`, `mpi-comm-variability`, `jupyter-bww`), shrunk to a
seconds-scale budget, each at seeds 7-10 — as users run them: every
operation is one fresh ``python -m repro.core.cli run --all`` process.
Four modes, each on its own repository:

* ``j1_cold`` / ``j2_cold`` — ``--no-cache``: every experiment executes,
  serially or on two worker processes;
* ``j1_warm`` / ``j2_warm`` — every experiment is served from the
  artifact store (each repository is primed by one untimed sweep).

Wall time is measured around the process; CPU time is the process's
``wait4`` rusage, which includes the worker processes it reaped.  Ten
rounds run every mode once, the order rotating each round, and each
mode records its raw samples with their median and quartiles, plus
``cpu_count`` and the commit, to ``BENCH_engine.json`` at the
repository root.

Also asserts the engine's correctness contract: all four modes leave
byte-identical ``results.csv`` files (``results_identical``).

Run standalone (``python benchmarks/bench_engine.py``) or via pytest
(``pytest benchmarks/bench_engine.py``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import commit, summary

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_engine.json"

#: The four paper experiments, shrunk to a seconds-scale budget.
EXPERIMENTS = {
    "exp-gassyfs": (
        "gassyfs",
        {
            "node_counts": [1, 2, 4],
            "sites": ["cloudlab-wisc"],
            "workloads": ["git-compile"],
            "workload_scale": 0.1,
        },
    ),
    "exp-torpor": ("torpor", {"runs": 2}),
    "exp-mpi": ("mpi-comm-variability", {"iterations": 10, "runs": 5}),
    "exp-bww": ("jupyter-bww", {}),
}
SEEDS = (7, 8, 9, 10)
ROUNDS = 10

#: mode -> extra ``popper run --all`` arguments.
MODES = {
    "j1_cold": ["-j", "1", "--no-cache"],
    "j2_cold": ["-j", "2", "--no-cache"],
    "j1_warm": ["-j", "1"],
    "j2_warm": ["-j", "2"],
}


def build_repo(root: Path):
    from repro.common import minyaml
    from repro.common.fsutil import write_text
    from repro.core.repo import PopperRepository

    repo = PopperRepository.init(root)
    for experiment, (template, overrides) in EXPERIMENTS.items():
        for seed in SEEDS:
            name = f"{experiment}-{seed}"
            repo.add_experiment(template, name, commit=False)
            vars_path = repo.experiment_dir(name) / "vars.yml"
            doc = minyaml.load_file(vars_path)
            doc.update(overrides, seed=seed)
            write_text(vars_path, minyaml.dumps(doc))
    repo.vcs.add_all()
    repo.vcs.commit("instantiate the benchmark experiments")
    return repo


def sweep(root: Path, args: list[str], log: Path) -> tuple[float, float]:
    """One fresh-process ``popper run --all``; returns (wall s, CPU s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    argv = [sys.executable, "-m", "repro.core.cli", "-C", str(root),
            "run", "--all", *args]
    with log.open("wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, (
        f"popper run --all {' '.join(args)} exited {proc.returncode}:\n"
        + log.read_text(errors="replace")
    )
    return wall, usage.ru_utime + usage.ru_stime


def run_bench(base: Path) -> dict:
    repos = {mode: build_repo(base / mode).root for mode in MODES}
    log = base / "sweep.log"
    # Untimed: fills the warm modes' artifact stores, and warms the
    # page cache for the cold ones.
    for mode, args in MODES.items():
        sweep(repos[mode], args, log)
    order = list(MODES)
    wall: dict[str, list[float]] = {mode: [] for mode in MODES}
    cpu: dict[str, list[float]] = {mode: [] for mode in MODES}
    for round_no in range(ROUNDS):
        shift = round_no % len(order)
        for mode in order[shift:] + order[:shift]:
            seconds, cpu_seconds = sweep(repos[mode], MODES[mode], log)
            wall[mode].append(seconds)
            cpu[mode].append(cpu_seconds)

    names = sorted(
        f"{experiment}-{seed}" for experiment in EXPERIMENTS for seed in SEEDS
    )
    results_identical = all(
        len({(repos[mode] / "experiments" / name / "results.csv").read_bytes()
             for mode in MODES}) == 1
        for name in names
    )
    assert results_identical, "results.csv differs between modes"

    report = {
        "benchmark": "engine-sweep",
        "experiments": len(names),
        "rounds": ROUNDS,
        "operation": "one fresh `python -m repro.core.cli run --all` process",
        "modes": {
            mode: {
                "args": MODES[mode],
                "wall_s": summary(wall[mode]),
                "cpu_s": summary(cpu[mode]),
            }
            for mode in MODES
        },
        "j2_faster_rounds": {
            temp: sum(
                j2 < j1
                for j1, j2 in zip(wall[f"j1_{temp}"], wall[f"j2_{temp}"])
            )
            for temp in ("cold", "warm")
        },
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "commit": commit(),
        "results_identical": results_identical,
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_bench_engine_sweep(tmp_path):
    report = run_bench(tmp_path)
    assert report["results_identical"]
    for mode in MODES:
        assert len(report["modes"][mode]["wall_s"]["samples"]) == ROUNDS
    assert json.loads(BENCH_FILE.read_text(encoding="utf-8")) == report


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = run_bench(Path(tmp))
    print(json.dumps(out, indent=2))
