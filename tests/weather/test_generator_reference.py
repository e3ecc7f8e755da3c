"""The streaming air-temperature generator against its vectorized reference.

``generate_air_temperature`` writes each AR(1) time step straight into
its float32 field.  :func:`reference_air_temperature` is the vectorized
form it replaced: a float64 noise cube, summed with the climate terms
in four full-size temporaries, then cast.  Every element goes through
the same float64 operations in the same order, so the bytes must agree.

The float32 rounding hides most reorderings of a float64 sum (adding
the noise before the texture leaves every float32 byte of these grids
unchanged), so one test also compares the sums before rounding.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.common.rng import derive_rng
from repro.weather import generator
from repro.weather.generator import generate_air_temperature


def reference_air_temperature(
    seed, years, lat_step, lon_step, samples_per_day, dtype=np.float32
):
    """The vectorized generator: returns ``(data, times, lats, lons)``.

    *dtype* is what the float64 sum is cast to.
    """
    rng = derive_rng(seed, "weather", "air-temperature")

    lats = np.arange(-90.0, 90.0 + lat_step / 2, lat_step)
    lons = np.arange(0.0, 360.0, lon_step)
    steps = int(365 * years * samples_per_day)
    times = np.arange(steps, dtype=np.float64) / samples_per_day

    lat_rad = np.deg2rad(lats)
    base = 235.0 + 68.0 * np.cos(lat_rad) ** 1.6
    amplitude = 28.0 * np.sin(np.abs(lat_rad)) ** 1.2
    hemisphere = np.sign(lat_rad + 1e-12)
    phase = 2 * np.pi * (times[:, None] % 365.0 - 197.0) / 365.0
    seasonal = amplitude[None, :] * hemisphere[None, :] * np.cos(phase)

    lon_rad = np.deg2rad(lons)
    texture_rng = derive_rng(seed, "weather", "texture")
    texture = np.zeros((lats.size, lons.size))
    for k in range(1, 4):
        phase_k = texture_rng.uniform(0, 2 * np.pi)
        amp_k = 4.0 / k
        texture += amp_k * np.outer(
            np.cos(lat_rad) ** 0.5, np.cos(k * lon_rad + phase_k)
        )

    noise_scale = 1.5 + 4.0 * np.sin(np.abs(lat_rad)) ** 2
    noise = np.empty((steps, lats.size, lons.size), dtype=np.float64)
    previous = rng.standard_normal((lats.size, lons.size))
    for t in range(steps):
        shock = rng.standard_normal((lats.size, lons.size))
        previous = 0.8 * previous + 0.6 * shock
        noise[t] = previous * noise_scale[:, None]

    data = (
        base[None, :, None]
        + seasonal[:, :, None]
        + texture[None, :, :]
        + noise
    ).astype(dtype)
    return data, times, lats, lons


@pytest.mark.parametrize(
    "seed,years,step,samples_per_day",
    list(itertools.product((0, 7, 42), (1, 2), (2.5, 5.0, 30.0), (1, 2))),
)
def test_streamed_field_is_bit_identical_to_the_reference(
    seed, years, step, samples_per_day
):
    air = generate_air_temperature(
        seed=seed,
        years=years,
        lat_step=step,
        lon_step=step,
        samples_per_day=samples_per_day,
    )
    data, times, lats, lons = reference_air_temperature(
        seed, years, step, step, samples_per_day
    )
    assert air.data.dtype == np.float32
    assert air.data.shape == data.shape
    assert air.data.tobytes() == data.tobytes()
    for name, expected in (("time", times), ("lat", lats), ("lon", lons)):
        assert air.coords[name].dtype == expected.dtype
        assert air.coords[name].tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed,step", [(7, 5.0), (42, 30.0)])
def test_float64_sums_match_before_rounding(monkeypatch, seed, step):
    monkeypatch.setattr(generator, "_FIELD_DTYPE", np.float64)
    air = generate_air_temperature(seed=seed, lat_step=step, lon_step=step)
    data, *_ = reference_air_temperature(seed, 1, step, step, 1, np.float64)
    assert air.data.dtype == np.float64
    assert air.data.tobytes() == data.tobytes()


@pytest.mark.parametrize("step", [5.0, 2.5])
def test_peak_memory_is_the_field_plus_one_step(step):
    generate_air_temperature(seed=7, lat_step=step, lon_step=step)  # warm-up
    tracemalloc.start()
    try:
        air = generate_air_temperature(seed=7, lat_step=step, lon_step=step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= air.data.nbytes + 2**20, (peak, air.data.nbytes)
