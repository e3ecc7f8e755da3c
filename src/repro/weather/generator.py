"""Synthetic NCEP/NCAR-Reanalysis-style air-temperature generator.

The BWW use case references the "NCEP/NCAR Reanalysis 1" air-temperature
product.  We cannot redistribute it, so this generator produces a
gridded (time, lat, lon) surface-air-temperature field with the physical
structure the analysis depends on:

* equator-to-pole gradient (warm tropics, cold poles),
* a seasonal cycle whose amplitude grows poleward and whose sign flips
  across the equator (NH summer = SH winter),
* land/ocean-ish longitudinal texture (a fixed smooth spatial field),
* day-to-day weather noise (red in time).

All of it is deterministic in the seed, so the dataset can be published
as a data package with stable hashes.
"""

from __future__ import annotations

import math
import os

import numpy as np

from repro.common.errors import ReproError
from repro.common.rng import derive_rng
from repro.weather.dataset import LabeledArray

__all__ = ["generate_air_temperature", "season_of_day"]

#: The field's element type; each element is summed in float64 first.
_FIELD_DTYPE = np.float32


def season_of_day(day_of_year: float) -> str:
    """Meteorological season (DJF/MAM/JJA/SON) of a 0-based day-of-year."""
    day = int(day_of_year) % 365
    # Dec(334+), Jan, Feb(<59)
    if day >= 334 or day < 59:
        return "DJF"
    if day < 151:
        return "MAM"
    if day < 243:
        return "JJA"
    return "SON"


def _field_shape(
    years: int, lat_step: float, lon_step: float, samples_per_day: int
) -> tuple[int, int, int]:
    """The ``(time, lat, lon)`` shape of a field, computed without allocating.

    The grid lengths are ``np.arange``'s own, ``ceil((stop - start) / step)``.
    """
    return (
        int(365 * years * samples_per_day),
        math.ceil((90.0 + lat_step / 2 - -90.0) / lat_step),
        math.ceil(360.0 / lon_step),
    )


def _physical_memory() -> int | None:
    """Bytes of physical memory on this host, or ``None`` where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def generate_air_temperature(
    seed: int = 42,
    years: int = 1,
    lat_step: float = 5.0,
    lon_step: float = 5.0,
    samples_per_day: int = 1,
) -> LabeledArray:
    """Generate the synthetic reanalysis product.

    Returns a ``LabeledArray`` named ``"air"`` with dims
    ``(time, lat, lon)``; time coordinates are fractional days since
    the start, temperatures are Kelvin.

    Memory is bounded by the float32 field itself plus one time step of
    float64 ``(lat, lon)`` rows (and the small ``(time, lat)`` seasonal
    table): each step of the AR(1) noise is written straight into the
    field.  A field larger than the host's physical memory raises
    ``ReproError`` before anything is allocated.
    """
    if years < 1 or samples_per_day < 1:
        raise ReproError("years and samples_per_day must be >= 1")
    if not (0 < lat_step <= 30 and 0 < lon_step <= 30):
        raise ReproError("grid steps must be in (0, 30] degrees")
    shape = _field_shape(years, lat_step, lon_step, samples_per_day)
    needed = math.prod(shape) * np.dtype(_FIELD_DTYPE).itemsize
    available = _physical_memory()
    if available is not None and needed > available:
        raise ReproError(
            f"an air-temperature field of shape (time, lat, lon) = {shape} "
            f"needs {needed} bytes, more than this host's {available} bytes "
            "of physical memory"
        )
    rng = derive_rng(seed, "weather", "air-temperature")

    lats = np.arange(-90.0, 90.0 + lat_step / 2, lat_step)
    lons = np.arange(0.0, 360.0, lon_step)
    steps = shape[0]
    times = np.arange(steps, dtype=np.float64) / samples_per_day

    lat_rad = np.deg2rad(lats)

    # Annual-mean meridional structure: ~303K at the equator, ~235K poles.
    base = 235.0 + 68.0 * np.cos(lat_rad) ** 1.6          # (lat,)

    # Seasonal cycle: amplitude grows poleward, sign flips hemispheres;
    # peak ~day 197 (mid-July) in the NH.
    amplitude = 28.0 * np.sin(np.abs(lat_rad)) ** 1.2      # (lat,)
    hemisphere = np.sign(lat_rad + 1e-12)                  # (lat,)
    phase = 2 * np.pi * (times[:, None] % 365.0 - 197.0) / 365.0  # (time, 1)
    seasonal = amplitude[None, :] * hemisphere[None, :] * np.cos(phase)

    # Fixed longitudinal texture ("continents"): smooth harmonics.
    lon_rad = np.deg2rad(lons)
    texture_rng = derive_rng(seed, "weather", "texture")
    texture = np.zeros((lats.size, lons.size))
    for k in range(1, 4):
        phase_k = texture_rng.uniform(0, 2 * np.pi)
        amp_k = 4.0 / k
        texture += amp_k * np.outer(
            np.cos(lat_rad) ** 0.5, np.cos(k * lon_rad + phase_k)
        )

    # Weather noise: AR(1) in time, independent per cell, stronger at
    # mid/high latitudes (storm tracks).  Each step is summed in float64
    # as ((base + seasonal) + texture) + noise and rounded into the
    # float32 field in place.
    noise_scale = (1.5 + 4.0 * np.sin(np.abs(lat_rad)) ** 2)[:, None]  # (lat, 1)
    data = np.empty(shape, dtype=_FIELD_DTYPE)
    frame = np.empty((lats.size, lons.size))
    previous = rng.standard_normal((lats.size, lons.size))
    for t in range(steps):
        shock = rng.standard_normal((lats.size, lons.size))
        previous = 0.8 * previous + 0.6 * shock
        np.add((base + seasonal[t])[:, None], texture, out=frame)
        frame += previous * noise_scale
        data[t] = frame

    return LabeledArray(
        name="air",
        data=data,
        dims=("time", "lat", "lon"),
        coords={"time": times, "lat": lats, "lon": lons},
        attrs={
            "units": "K",
            "source": "synthetic NCEP/NCAR Reanalysis 1 surrogate",
            "seed": seed,
        },
    )
