"""A ``popper`` process imports only the code its command runs.

scipy costs about a second per fresh process and only the detectors'
verdicts and the statistical comparisons use it, so it is imported at
those call sites.  ``multiprocessing`` is imported only when a worker
pool starts, and the pool module only when a sweep needs workers.  A
warm ``popper run --all`` asks for neither, nor for the fuzz, serve or
store self-check code that only ``popper selftest`` runs, nor for the
doctor, nor for the stage code a cached experiment never executes.
Importing the CLI loads no numpy at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"
TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"

#: Modules only a cold stage, a ``-j N`` pool or another command runs.
COLD_ONLY = (
    "repro.orchestration",
    "repro.container",
    "repro.platform",
    "repro.baseliner",
    "repro.stats",
    "repro.notebook",
    "repro.engine.procsched",
    "repro.engine.pool",
    "repro.monitor.report",
    "repro.core.templates",
    "repro.core.check",
    "repro.core.baseline",
    "repro.check.smoke",
)

WARM_SWEEP = (
    "import sys\n"
    "from repro.core.cli import main\n"
    "code = main(['-C', sys.argv[1], 'run', '--all'])\n"
    "lazy = ('scipy', 'multiprocessing')\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] in lazy)\n"
    "print('lazy modules:', loaded)\n"
    "checks = ('repro.fuzz', 'repro.serve', 'repro.store.smoke',\n"
    "          'repro.store.doctor')\n"
    "print('self-check modules:', [m for m in checks if m in sys.modules])\n"
    f"cold = {COLD_ONLY!r}\n"
    "print('cold-only modules:', sorted(\n"
    "    m for m in sys.modules if m.startswith(cold)))\n"
    "sys.exit(code)\n"
)


def fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def warm_sweep(tmp_path_factory):
    """The output of a warm ``popper run --all`` in a fresh interpreter."""
    repo = tmp_path_factory.mktemp("lazy") / "repo"
    repo.mkdir()
    assert main(["-C", str(repo), "init"]) == 0
    assert main(["-C", str(repo), "add", "torpor", "one"]) == 0
    (repo / "experiments" / "one" / "vars.yml").write_text(TORPOR_VARS)
    assert main(["-C", str(repo), "run", "--all"]) == 0  # cold: primes the cache

    proc = fresh_python("-c", WARM_SWEEP, str(repo))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(cached)" in proc.stdout
    return proc.stdout


def test_warm_sweep_in_a_fresh_interpreter_loads_no_scipy(warm_sweep):
    assert "lazy modules: []" in warm_sweep, warm_sweep
    assert "self-check modules: []" in warm_sweep, warm_sweep


def test_warm_sweep_loads_no_cold_stage_code(warm_sweep):
    assert "cold-only modules: []" in warm_sweep, warm_sweep


def test_importing_the_cli_loads_no_numpy_and_no_pipeline():
    proc = fresh_python(
        "-c",
        "import sys, repro.core.cli\n"
        "print(sorted(m for m in ('numpy', 'repro.core.pipeline')"
        " if m in sys.modules))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
