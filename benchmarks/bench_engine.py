"""Engine throughput: the four-experiment sweep across all backends.

Runs the four paper experiments (`gassyfs`, `torpor`,
`mpi-comm-variability`, `jupyter-bww`) through ``popper run --all``
three ways — serial (``-j 1``), threaded (``-j 4``) and process
(``--backend process -j 4``) — and records wall seconds plus a
per-mode ``speedup_vs_serial`` to ``BENCH_engine.json`` at the
repository root — the repo's perf-trajectory data point for the
execution engine.

Also asserts the engine's correctness contract while it is at it: all
three modes must produce byte-identical ``results.csv`` files.

The speedups are hardware-dependent: the experiment payloads are
CPU-bound Python, so threading is GIL-bounded everywhere and the
process backend only wins on a multi-core host (it clamps its pool to
``cpu_count``, so on one core it degenerates to serial plus fork
overhead).  ``cpu_count`` and each parallel mode's requested vs
effective worker counts are recorded alongside the timings so the
numbers can be read in context.

Run standalone (``python benchmarks/bench_engine.py``) or via pytest
(``pytest benchmarks/bench_engine.py``).
"""

import json
import os
import time
from pathlib import Path

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
            "seed": 7,
        },
    ),
    "exp-torpor": ("torpor", {"runs": 2, "seed": 7}),
    "exp-mpi": ("mpi-comm-variability", {"iterations": 10, "runs": 5, "seed": 7}),
    "exp-bww": ("jupyter-bww", {"seed": 7}),
}

#: (mode name, extra ``popper run`` arguments) for each backend.
MODES = [
    ("serial_j1", ["-j", "1"]),
    ("threaded_j4", ["-j", "4"]),
    ("process_j4", ["--backend", "process", "-j", "4"]),
]


def build_repo(root: Path):
    from repro.common import minyaml
    from repro.common.fsutil import write_text
    from repro.core.repo import PopperRepository

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


def sweep(repo, extra_args: list[str]) -> float:
    """Run the full sweep; returns wall seconds (exit code must be 0)."""
    from repro.core.cli import main

    started = time.perf_counter()
    code = main(["-C", str(repo.root), "run", "--all", *extra_args])
    seconds = time.perf_counter() - started
    assert code == 0, f"sweep with {extra_args} exited {code}"
    return seconds


def run_bench(base: Path) -> dict:
    cpus = os.cpu_count() or 1
    # The first sweep in an interpreter pays its lazy imports (about a
    # second); an untimed one keeps that off whichever mode runs first.
    sweep(build_repo(base / "warm-up"), ["-j", "1"])
    repos = {mode: build_repo(base / mode) for mode, _ in MODES}
    seconds = {
        mode: sweep(repos[mode], extra) for mode, extra in MODES
    }

    reference = None
    for experiment in EXPERIMENTS:
        blobs = {
            mode: (
                repos[mode].experiment_dir(experiment) / "results.csv"
            ).read_bytes()
            for mode, _ in MODES
        }
        reference = blobs["serial_j1"]
        for mode, blob in blobs.items():
            assert blob == reference, f"{experiment}: {mode} results differ"
    assert reference is not None

    serial_s = seconds["serial_j1"]
    modes = {"serial_j1": {"wall_seconds": round(serial_s, 4)}}
    for mode, requested in (("threaded_j4", 4), ("process_j4", 4)):
        wall = seconds[mode]
        modes[mode] = {
            "wall_seconds": round(wall, 4),
            "speedup_vs_serial": round(serial_s / wall, 3) if wall else None,
            "workers_requested": requested,
            # Threading never clamps (oversubscription just time-shares
            # the GIL); the process pool clamps to the core count.
            "workers_effective": (
                min(requested, cpus) if mode == "process_j4" else requested
            ),
        }

    report = {
        "benchmark": "engine-sweep",
        "experiments": sorted(EXPERIMENTS),
        "modes": modes,
        "cpu_count": cpus,
        "results_identical": True,
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_bench_engine_sweep(tmp_path):
    report = run_bench(tmp_path)
    assert report["results_identical"]
    for mode, _ in MODES:
        assert report["modes"][mode]["wall_seconds"] > 0
    assert report["modes"]["process_j4"]["workers_effective"] >= 1
    assert BENCH_FILE.is_file()


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = run_bench(Path(tmp))
    print(json.dumps(out, indent=2))
