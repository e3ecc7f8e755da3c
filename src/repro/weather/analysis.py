"""The BWW air-temperature analysis (Fig. `bww-airtemp`).

Mirrors the paper's Jupyter-notebook pipeline: load the referenced
dataset, compute the seasonal climatology, zonal means and the global
mean series, and emit the rows the figure plots (seasonal zonal-mean
temperature by latitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ReproError
from repro.common.tables import MetricsTable
from repro.monitor.tracing import current_tracer
from repro.weather.dataset import LabeledArray
from repro.weather.generator import season_of_day

__all__ = ["AirTempAnalysis", "analyze_air_temperature"]

SEASONS = ("DJF", "MAM", "JJA", "SON")


@dataclass(frozen=True)
class AirTempAnalysis:
    """Products of the analysis pipeline."""

    seasonal_zonal: MetricsTable      # rows: (season, lat, temperature)
    global_mean_k: float
    equator_minus_pole_k: float
    seasonal_amplitude_by_lat: MetricsTable  # rows: (lat, amplitude)

    def zonal_series(self, season: str) -> tuple[np.ndarray, np.ndarray]:
        """(latitudes, temperatures) for one season, sorted by latitude."""
        sub = self.seasonal_zonal.where_equals(season=season).sort_by("lat")
        if len(sub) == 0:
            raise ReproError(f"unknown season {season!r}")
        lats = np.asarray(sub.numeric("lat"))
        return lats, np.asarray(sub.numeric("temperature"))


def analyze_air_temperature(air: LabeledArray) -> AirTempAnalysis:
    """Run the full analysis on an ``(time, lat, lon)`` temperature field."""
    for dim in ("time", "lat", "lon"):
        air.axis_of(dim)

    tracer = current_tracer()
    with tracer.span("weather/climatology", shape=list(air.data.shape)):
        zonal = air.mean("lon")  # (time, lat)
        by_season = zonal.groupby("time", season_of_day)

    seasonal_zonal = MetricsTable(["season", "lat", "temperature"])
    lats = air.coord("lat")
    season_means: dict[str, np.ndarray] = {}
    for season in SEASONS:
        if season not in by_season:
            raise ReproError(f"dataset does not cover season {season}")
        mean = by_season[season].mean("time")  # (lat,)
        season_means[season] = mean.data
        for lat, temp in zip(lats, mean.data):
            seasonal_zonal.append(
                {"season": season, "lat": float(lat), "temperature": float(temp)}
            )

    annual_zonal = zonal.mean("time")  # (lat,)
    weights = np.cos(np.deg2rad(lats))
    global_mean = float(
        np.sum(annual_zonal.data * weights) / np.sum(weights)
    )
    equator = float(annual_zonal.sel(lat=0.0).scalar())
    pole = float(
        (annual_zonal.sel(lat=90.0).scalar() + annual_zonal.sel(lat=-90.0).scalar())
        / 2.0
    )

    amplitude = MetricsTable(["lat", "amplitude"])
    stack = np.stack([season_means[s] for s in SEASONS])  # (4, lat)
    for i, lat in enumerate(lats):
        amplitude.append(
            {
                "lat": float(lat),
                "amplitude": float(stack[:, i].max() - stack[:, i].min()),
            }
        )

    return AirTempAnalysis(
        seasonal_zonal=seasonal_zonal,
        global_mean_k=global_mean,
        equator_minus_pole_k=equator - pole,
        seasonal_amplitude_by_lat=amplitude,
    )
