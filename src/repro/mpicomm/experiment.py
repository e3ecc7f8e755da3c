"""The MPI noisy-neighborhood characterization experiment (ASPLOS §5.3).

Runs the LULESH proxy repeatedly on an HPC allocation with and without
noisy-neighbor injection, measuring run-to-run variability of wall time
and MPI fraction.  This regenerates the figure the paper promised for
the final version: communication-time spread across executions, with the
root cause visible in the mpiP call-site attribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.rng import SeedSequenceFactory
from repro.common.tables import MetricsTable
from repro.monitor.tracing import current_tracer
from repro.mpicomm.lulesh import LuleshConfig, run_lulesh
from repro.platform.sites import Site, default_sites

__all__ = ["VariabilityStats", "run_noise_experiment", "variability_stats"]


@dataclass(frozen=True)
class VariabilityStats:
    """Spread statistics for one (noise setting) series of runs."""

    noise: bool
    runs: int
    mean_wall: float
    cov_wall: float            # std/mean of wall time
    mean_mpi_fraction: float
    max_over_min: float

    def __str__(self) -> str:
        return (
            f"noise={'on' if self.noise else 'off'} runs={self.runs} "
            f"wall={self.mean_wall:.3f}s cov={self.cov_wall:.3%} "
            f"mpi%={self.mean_mpi_fraction:.1%}"
        )


def run_noise_experiment(
    config: LuleshConfig | None = None,
    site: Site | None = None,
    runs: int = 10,
    seed: int = 42,
) -> MetricsTable:
    """Execute the full experiment; rows: (noise, run, wall_time,
    mpi_fraction, dominant_callsite)."""
    config = config or LuleshConfig()
    site = site or default_sites(seed)["hpc"]
    seeds = SeedSequenceFactory(seed)
    table = MetricsTable(
        ["noise", "run", "ranks", "wall_time", "mpi_fraction", "dominant_callsite"]
    )
    for noise in (False, True):
        with current_tracer().span(
            "mpicomm/setting", noise=noise, runs=runs, ranks=config.ranks
        ):
            for run_id in range(runs):
                with site.allocate(config.ranks) as allocation:
                    result = run_lulesh(
                        config,
                        list(allocation),
                        seeds.child("noise" if noise else "clean"),
                        run_id=run_id,
                        noise_injection=noise,
                    )
                _append_run(table, config, noise, run_id, result)
    return table


def _append_run(
    table: MetricsTable, config: LuleshConfig, noise: bool, run_id: int, result
) -> None:
    table.append(
        {
            "noise": noise,
            "run": run_id,
            "ranks": config.ranks,
            "wall_time": result.wall_time,
            "mpi_fraction": result.mpi_fraction,
            "dominant_callsite": result.report.dominant_callsite().callsite,
        }
    )


def variability_stats(table: MetricsTable, noise: bool) -> VariabilityStats:
    """Summarize one noise setting's series."""
    sub = table.where_equals(noise=noise)
    wall = np.asarray(sub.numeric("wall_time"))
    fractions = np.asarray(sub.numeric("mpi_fraction"))
    return VariabilityStats(
        noise=noise,
        runs=len(sub),
        mean_wall=float(wall.mean()),
        cov_wall=float(wall.std(ddof=1) / wall.mean()) if len(sub) > 1 else 0.0,
        mean_mpi_fraction=float(fractions.mean()),
        max_over_min=float(wall.max() / wall.min()),
    )
