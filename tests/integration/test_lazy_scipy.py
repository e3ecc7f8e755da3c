"""A ``popper`` process imports only the code its command runs.

scipy costs about a second per fresh process and only the detectors'
verdicts and the statistical comparisons use it, so it is imported at
those call sites.  ``multiprocessing`` is imported only when a worker
pool starts, and the pool module only when a sweep needs workers.  A
warm ``popper run --all`` asks for neither, nor for the fuzz, serve or
store self-check code that only ``popper selftest`` runs, nor for the
doctor, nor for the stage code a cached experiment never executes.
Importing the CLI loads no numpy at all, and neither does a warm sweep:
Aver validates the cached results on plain floats.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common import minyaml
from repro.core.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"

#: One experiment per paper template, shrunk to run in seconds; their
#: validations use every trend validator the templates ship and
#: ``count()``.
TEMPLATES = {
    "gassyfs": {
        "node_counts": [1, 2, 4],
        "sites": ["cloudlab-wisc"],
        "workloads": ["git-compile"],
        "workload_scale": 0.1,
    },
    "torpor": {"runs": 2},
    "mpi-comm-variability": {"iterations": 10, "runs": 5},
    "jupyter-bww": {},
}

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

#: A warm sweep in a fresh interpreter; the last line of its output is
#: the sorted names of every module it loaded.
WARM_SWEEP = (
    "import json, sys\n"
    "from repro.core.cli import main\n"
    "code = main(['-C', sys.argv[1], 'run', '--all', *sys.argv[2:]])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
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


def loaded(modules, *names):
    """The *modules* that are one of *names* or inside one of them."""
    inside = tuple(name + "." for name in names)
    return sorted(m for m in modules if m in names or m.startswith(inside))


@pytest.fixture(scope="module")
def warm_repo(tmp_path_factory):
    """A repository with one experiment per template, swept once cold."""
    repo = tmp_path_factory.mktemp("lazy") / "repo"
    repo.mkdir()
    assert main(["-C", str(repo), "init"]) == 0
    for template, overrides in TEMPLATES.items():
        assert main(["-C", str(repo), "add", template, template]) == 0
        path = repo / "experiments" / template / "vars.yml"
        doc = minyaml.load_file(path)
        doc.update(overrides, seed=11)
        path.write_text(minyaml.dumps(doc))
    assert main(["-C", str(repo), "run", "--all"]) == 0  # cold: primes the cache
    return repo


def warm_sweep_modules(repo, *flags):
    """The modules a warm ``popper run --all *flags`` loads."""
    proc = fresh_python("-c", WARM_SWEEP, str(repo), *flags)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *output, modules = proc.stdout.splitlines()
    assert sum("(cached)" in line for line in output) == len(TEMPLATES)
    return json.loads(modules)


@pytest.fixture(scope="module")
def warm_sweep(warm_repo):
    return warm_sweep_modules(warm_repo)


def test_warm_sweep_in_a_fresh_interpreter_loads_no_scipy(warm_sweep):
    assert loaded(warm_sweep, "scipy", "multiprocessing") == []
    assert loaded(
        warm_sweep, "repro.fuzz", "repro.serve", "repro.store.smoke",
        "repro.store.doctor",
    ) == []


def test_warm_sweep_loads_no_cold_stage_code(warm_sweep):
    assert loaded(warm_sweep, *COLD_ONLY) == []


def test_warm_sweep_over_every_template_loads_no_numpy(warm_sweep):
    assert loaded(warm_sweep, "numpy") == []


def test_warm_parallel_sweep_loads_no_pool_and_no_numpy(warm_repo):
    modules = warm_sweep_modules(warm_repo, "-j", "2")
    assert loaded(modules, "repro.engine.pool", "multiprocessing", "numpy") == []


def test_importing_the_cli_loads_no_numpy_and_no_pipeline():
    proc = fresh_python(
        "-c",
        "import sys, repro.core.cli\n"
        "print(sorted(m for m in ('numpy', 'repro.core.pipeline')"
        " if m in sys.modules))\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_trace_of_a_fuzz_campaign_loads_no_campaign_code(tmp_path):
    """``popper trace --fuzz`` reads the campaign's journal; it runs no
    fuzzing, so it loads neither the campaign nor numpy."""
    assert main(["-C", str(tmp_path), "init"]) == 0
    journal = tmp_path / ".pvcs" / "fuzz" / "journal.jsonl"
    journal.parent.mkdir(parents=True)
    journal.write_text('{"event": "run_start", "seed": 5, "iterations": 1}\n')
    proc = fresh_python(
        "-c",
        "import json, sys\n"
        "from repro.core.cli import main\n"
        "code = main(['-C', sys.argv[1], 'trace', '--fuzz'])\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "sys.exit(code)\n",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *output, modules = proc.stdout.splitlines()
    assert "== fuzz campaign" in output[0]
    assert loaded(json.loads(modules), "repro.fuzz.campaign", "numpy") == []
