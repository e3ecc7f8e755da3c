"""Tests for the labeled-array algebra, the generator and the analysis."""

import tracemalloc

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.weather.analysis import SEASONS, analyze_air_temperature
from repro.weather.dataset import DatasetError, LabeledArray
from repro.weather.generator import generate_air_temperature, season_of_day


def small_array():
    return LabeledArray(
        name="t",
        data=np.arange(24, dtype=float).reshape(2, 3, 4),
        dims=("time", "lat", "lon"),
        coords={
            "time": np.array([0.0, 1.0]),
            "lat": np.array([-45.0, 0.0, 45.0]),
            "lon": np.array([0.0, 90.0, 180.0, 270.0]),
        },
    )


class TestLabeledArray:
    def test_validation_shape_mismatch(self):
        with pytest.raises(DatasetError):
            LabeledArray(
                name="x",
                data=np.zeros((2, 2)),
                dims=("a", "b"),
                coords={"a": np.zeros(2), "b": np.zeros(3)},
            )

    def test_validation_missing_coord(self):
        with pytest.raises(DatasetError):
            LabeledArray(
                name="x", data=np.zeros(2), dims=("a",), coords={}
            )

    def test_duplicate_dims(self):
        with pytest.raises(DatasetError):
            LabeledArray(
                name="x",
                data=np.zeros((2, 2)),
                dims=("a", "a"),
                coords={"a": np.zeros(2)},
            )

    def test_isel_scalar_drops_dim(self):
        arr = small_array().isel(time=0)
        assert arr.dims == ("lat", "lon")
        assert arr.shape == (3, 4)

    def test_isel_slice_keeps_dim(self):
        arr = small_array().isel(lon=slice(0, 2))
        assert arr.shape == (2, 3, 2)

    def test_sel_nearest(self):
        arr = small_array().sel(lat=44.0)  # nearest is 45
        assert arr.dims == ("time", "lon")
        np.testing.assert_array_equal(
            arr.data, small_array().data[:, 2, :]
        )

    def test_sel_range(self):
        arr = small_array().sel(lon=(0.0, 90.0))
        assert arr.shape == (2, 3, 2)

    def test_sel_empty_range(self):
        with pytest.raises(DatasetError):
            small_array().sel(lon=(400.0, 500.0))

    def test_mean_reduces(self):
        arr = small_array().mean("time")
        assert arr.dims == ("lat", "lon")
        np.testing.assert_allclose(arr.data, small_array().data.mean(axis=0))

    def test_chained_reductions_to_scalar(self):
        value = small_array().mean("time").mean("lat").mean("lon").scalar()
        assert value == pytest.approx(small_array().data.mean())

    def test_scalar_on_non_scalar(self):
        with pytest.raises(DatasetError):
            small_array().scalar()

    def test_unknown_dim(self):
        with pytest.raises(DatasetError):
            small_array().mean("altitude")

    def test_groupby(self):
        arr = small_array()
        groups = arr.groupby("lat", lambda v: "south" if v < 0 else "north")
        assert set(groups) == {"south", "north"}
        assert groups["south"].shape == (2, 1, 4)
        assert groups["north"].shape == (2, 2, 4)

    def test_arithmetic(self):
        arr = small_array()
        doubled = arr + arr
        np.testing.assert_array_equal(doubled.data, arr.data * 2)
        anomaly = arr - arr
        assert np.all(anomaly.data == 0)
        scaled = arr * 0.5
        np.testing.assert_array_equal(scaled.data, arr.data / 2)

    def test_arithmetic_misaligned(self):
        with pytest.raises(DatasetError):
            small_array() + small_array().isel(time=0)

    def test_save_load_round_trip(self, tmp_path):
        arr = small_array()
        path = tmp_path / "air.npz"
        arr.save(path)
        again = LabeledArray.load(path)
        assert again.dims == arr.dims
        np.testing.assert_array_equal(again.data, arr.data)
        np.testing.assert_array_equal(again.coords["lat"], arr.coords["lat"])

    def test_save_adds_the_npz_suffix_as_numpy_does(self, tmp_path):
        small_array().save(tmp_path / "air")
        assert [p.name for p in tmp_path.iterdir()] == ["air.npz"]

    def test_a_crash_mid_save_keeps_the_old_archive(self, tmp_path):
        from repro.common.crash import (
            CrashPlan,
            SimulatedCrash,
            install_crash_plan,
        )

        path = tmp_path / "air.npz"
        arr = small_array()
        arr.save(path)
        before = path.read_bytes()
        install_crash_plan(CrashPlan.parse("at:weather.array.tmp:1"))
        try:
            with pytest.raises(SimulatedCrash):
                (arr * 2).save(path)
        finally:
            install_crash_plan(None)
        assert path.read_bytes() == before


class TestSeasonOfDay:
    @pytest.mark.parametrize(
        "day,season",
        [(0, "DJF"), (40, "DJF"), (80, "MAM"), (180, "JJA"), (280, "SON"), (350, "DJF")],
    )
    def test_boundaries(self, day, season):
        assert season_of_day(day) == season

    def test_wraps_across_years(self):
        assert season_of_day(365) == season_of_day(0)


class TestGenerator:
    @pytest.fixture(scope="class")
    def air(self):
        return generate_air_temperature(seed=42, years=1, lat_step=10, lon_step=15)

    def test_structure(self, air):
        assert air.dims == ("time", "lat", "lon")
        assert air.shape == (365, 19, 24)
        assert air.attrs["units"] == "K"

    def test_physical_range(self, air):
        assert 180 < float(air.data.min()) and float(air.data.max()) < 330

    def test_deterministic(self):
        a = generate_air_temperature(seed=1, lat_step=15, lon_step=30)
        b = generate_air_temperature(seed=1, lat_step=15, lon_step=30)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seed_matters(self):
        a = generate_air_temperature(seed=1, lat_step=15, lon_step=30)
        b = generate_air_temperature(seed=2, lat_step=15, lon_step=30)
        assert not np.array_equal(a.data, b.data)

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            generate_air_temperature(years=0)
        with pytest.raises(ReproError):
            generate_air_temperature(lat_step=90)

    @pytest.mark.parametrize(
        "kwargs,shape",
        [
            ({"years": 2147483647}, (783831531155, 37, 72)),
            ({"lat_step": 1e-9}, (365, 180000000001, 72)),
        ],
    )
    def test_a_field_larger_than_memory_raises_before_allocating(
        self, kwargs, shape
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ReproError) as raised:
                generate_air_temperature(**kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(raised.value)
        assert str(shape) in message
        assert f"needs {4 * shape[0] * shape[1] * shape[2]} bytes" in message
        assert peak < 2**20


class TestAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self):
        air = generate_air_temperature(seed=42, years=1, lat_step=10, lon_step=15)
        return analyze_air_temperature(air)

    def test_equator_to_pole_gradient(self, analysis):
        assert analysis.equator_minus_pole_k > 30.0

    def test_global_mean_plausible(self, analysis):
        assert 270.0 < analysis.global_mean_k < 295.0

    def test_hemispheric_seasonality(self, analysis):
        """NH warm in JJA, cold in DJF; mirrored in the south."""
        lats, jja = analysis.zonal_series("JJA")
        _, djf = analysis.zonal_series("DJF")
        north = lats > 30
        south = lats < -30
        assert np.all(jja[north] > djf[north])
        assert np.all(djf[south] > jja[south])

    def test_amplitude_grows_poleward(self, analysis):
        table = analysis.seasonal_amplitude_by_lat
        tropics = [r["amplitude"] for r in table if abs(r["lat"]) < 15]
        high = [r["amplitude"] for r in table if abs(r["lat"]) > 60]
        assert np.mean(high) > 3 * np.mean(tropics)

    def test_figure_rows_complete(self, analysis):
        assert len(analysis.seasonal_zonal) == 4 * 19
        assert set(analysis.seasonal_zonal.column("season")) == set(SEASONS)

    def test_unknown_season_series(self, analysis):
        with pytest.raises(ReproError):
            analysis.zonal_series("WINTER")
