"""Build and prime one benchmark repository, in one process.

Usage: ``python prime.py '<json>'`` with ``src`` on ``PYTHONPATH``.  The
JSON names ``root``, ``experiments`` (``name -> [template, vars]``),
``steps`` (``popper`` argument lists) and ``commit``.  It does what
``popper init``, ``popper add``, an edit of each ``vars.yml`` and then
each step would do, without an interpreter start per command.  Each step
must exit 0, and each ``run`` step must leave every results.csv
byte-identical to the first run's.  With ``commit`` the work tree is
committed at the end.  Set-up runs apart from the benchmark's generator
so that the generator never holds ``repro`` in memory: a child's
``ru_maxrss`` includes its parent's resident set at the fork.
"""

import contextlib
import io
import json
import sys
from pathlib import Path


def prime(spec: dict) -> int:
    from repro.common import minyaml
    from repro.common.fsutil import write_text
    from repro.core.cli import main as popper
    from repro.core.repo import PopperRepository

    root = Path(spec["root"])
    repo = PopperRepository.init(root)
    for name, (template, overrides) in spec["experiments"].items():
        repo.add_experiment(template, name, commit=False)
        path = repo.experiment_dir(name) / "vars.yml"
        doc = minyaml.load_file(path)
        doc.update(overrides)
        write_text(path, minyaml.dumps(doc))
    repo.vcs.add_all()
    repo.vcs.commit("benchmark experiments")

    first: dict[str, bytes] | None = None
    for argv in spec["steps"]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = popper(["-C", str(root), *argv])
        if code != 0:
            print(f"popper {' '.join(argv)} exited {code}:\n{buffer.getvalue()}")
            return 1
        if argv[0] != "run":
            continue
        now = {p.parent.name: p.read_bytes() for p in root.glob("experiments/*/results.csv")}
        first = first or now
        differing = sorted(n for n, data in first.items() if now.get(n) != data)
        if differing:
            print(f"popper {' '.join(argv)} changed results.csv of {', '.join(differing)}")
            return 1
    if spec["commit"]:
        repo.vcs.add_all()
        repo.vcs.commit("record results")
    return 0


if __name__ == "__main__":
    sys.exit(prime(json.loads(sys.argv[1])))
