"""Post-processing stage: the ``process-result.py`` of Listing 1.

An experiment may ship a ``process-result.py`` defining::

    def process(results):          # MetricsTable in
        ...
        return table_or_dict       # MetricsTable, or {figure-name: table}

The pipeline executes it after the run and writes each returned table as
``figure.csv`` (or ``<name>.csv``) next to ``results.csv`` — the data
behind the ``figure.png`` of the paper's repository layout.  Scripts run
in-process (a Popper repository's code is exactly as trusted as the rest
of the experiment it describes).
"""

from __future__ import annotations

from pathlib import Path

from repro.common.errors import PopperError
from repro.common.fsutil import atomic_write
from repro.common.tables import MetricsTable

__all__ = ["run_postprocess", "PROCESS_SCRIPT"]

PROCESS_SCRIPT = "process-result.py"


def run_postprocess(directory: Path, results: MetricsTable) -> dict[str, Path]:
    """Execute the experiment's processing script, if present.

    Returns a mapping of figure name → written CSV path (empty when the
    experiment ships no script).
    """
    script = directory / PROCESS_SCRIPT
    if not script.is_file():
        return {}
    namespace: dict = {
        "__name__": "__popper_process__",
        "__file__": str(script),
        "MetricsTable": MetricsTable,
    }
    source = script.read_text(encoding="utf-8")
    try:
        exec(compile(source, str(script), "exec"), namespace)
    except Exception as exc:
        raise PopperError(f"{PROCESS_SCRIPT} failed to load: {exc}") from exc
    process = namespace.get("process")
    if not callable(process):
        raise PopperError(f"{PROCESS_SCRIPT} must define process(results)")
    try:
        produced = process(results)
    except Exception as exc:
        raise PopperError(f"{PROCESS_SCRIPT} process() raised: {exc}") from exc

    figures: dict[str, MetricsTable]
    if isinstance(produced, MetricsTable):
        figures = {"figure": produced}
    elif isinstance(produced, dict) and all(
        isinstance(v, MetricsTable) for v in produced.values()
    ):
        figures = produced
    else:
        raise PopperError(
            f"{PROCESS_SCRIPT} must return a MetricsTable or a dict of them"
        )

    written: dict[str, Path] = {}
    for name, table in figures.items():
        if "/" in name or not name:
            raise PopperError(f"bad figure name from {PROCESS_SCRIPT}: {name!r}")
        path = directory / f"{name}.csv"
        atomic_write(
            path,
            table.to_csv().encode("utf-8"),
            durable=False,
            crash_label="postprocess.figure",
        )
        written[name] = path
    return written
