"""Shared helpers for the benchmark harness.

Every ``bench_fig_*`` module regenerates one of the paper's figures:
it runs the experiment, asserts the figure's *shape* (who wins, by what
rough factor, where the curve bends — absolute numbers are simulator
outputs), saves the underlying series to ``benchmarks/output/*.csv``
and registers headline numbers in the pytest-benchmark ``extra_info``
so they appear in ``--benchmark-json`` exports.
"""

import statistics
import subprocess
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def save_figure_data(table, name: str) -> Path:
    """Persist a figure's underlying rows as a CSV artifact."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.csv"
    table.save_csv(path)
    return path


def summary(samples: list[float], digits: int = 4) -> dict:
    """Raw samples with their median and quartiles, for a record."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "samples": [round(s, digits) for s in samples],
        "median": round(statistics.median(samples), digits),
        "q1": round(q1, digits),
        "q3": round(q3, digits),
    }


def commit() -> str:
    """The measured commit; ``-dirty`` marks uncommitted changes."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()
