"""A fully cached ``popper run --all`` never imports scipy.

scipy costs about a second per fresh process and only the detectors'
verdicts and the statistical comparisons use it, so it is imported at
those call sites.  A warm sweep asks for neither.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.core.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"
TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"

WARM_SWEEP = (
    "import sys\n"
    "from repro.core.cli import main\n"
    "code = main(['-C', sys.argv[1], 'run', '--all'])\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "print('scipy modules:', loaded)\n"
    "sys.exit(code)\n"
)


def test_warm_sweep_in_a_fresh_interpreter_loads_no_scipy(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    assert main(["-C", str(repo), "init"]) == 0
    assert main(["-C", str(repo), "add", "torpor", "one"]) == 0
    (repo / "experiments" / "one" / "vars.yml").write_text(TORPOR_VARS)
    assert main(["-C", str(repo), "run", "--all"]) == 0  # cold: primes the cache

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", WARM_SWEEP, str(repo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(cached)" in proc.stdout
    assert "scipy modules: []" in proc.stdout, proc.stdout
