"""A labeled N-dimensional array (the xarray substitution).

The BWW use case analyzes NCEP/NCAR-Reanalysis-style gridded data with
the ``xarray`` idioms: named dimensions, coordinate arrays, label-based
selection, dimension-reducing means and group-by.  :class:`LabeledArray`
implements exactly that subset over numpy, plus an ``.npz``-based
save/load for dataset packaging.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.common.errors import ReproError
from repro.common.fsutil import atomic_write

__all__ = ["LabeledArray"]


class DatasetError(ReproError):
    """Shape/dimension misuse in the labeled-array algebra."""


@dataclass(frozen=True)
class LabeledArray:
    """An N-D array with named dims and per-dim coordinate vectors."""

    name: str
    data: np.ndarray
    dims: tuple[str, ...]
    coords: dict[str, np.ndarray]
    attrs: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != len(self.dims):
            raise DatasetError(
                f"{self.name}: {self.data.ndim} axes but {len(self.dims)} dims"
            )
        if len(set(self.dims)) != len(self.dims):
            raise DatasetError(f"{self.name}: duplicate dims {self.dims}")
        for axis, dim in enumerate(self.dims):
            if dim not in self.coords:
                raise DatasetError(f"{self.name}: no coordinates for dim {dim!r}")
            if len(self.coords[dim]) != self.data.shape[axis]:
                raise DatasetError(
                    f"{self.name}: dim {dim!r} has {self.data.shape[axis]} "
                    f"entries but {len(self.coords[dim])} coordinates"
                )

    # -- introspection -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def axis_of(self, dim: str) -> int:
        try:
            return self.dims.index(dim)
        except ValueError:
            raise DatasetError(
                f"{self.name}: no dim {dim!r} (have {self.dims})"
            ) from None

    def coord(self, dim: str) -> np.ndarray:
        self.axis_of(dim)
        return self.coords[dim]

    # -- selection ----------------------------------------------------------------
    def isel(self, **indexers: int | slice | np.ndarray) -> "LabeledArray":
        """Positional selection, dropping dims indexed by a scalar."""
        index: list[Any] = [slice(None)] * self.data.ndim
        for dim, picker in indexers.items():
            index[self.axis_of(dim)] = picker
        new_data = self.data[tuple(index)]
        new_dims = []
        new_coords = {}
        for axis, dim in enumerate(self.dims):
            picker = indexers.get(dim, slice(None))
            if isinstance(picker, (int, np.integer)):
                continue  # scalar: dim dropped
            new_dims.append(dim)
            new_coords[dim] = np.atleast_1d(self.coords[dim][picker])
        return LabeledArray(
            name=self.name,
            data=new_data,
            dims=tuple(new_dims),
            coords=new_coords,
            attrs=self.attrs,
        )

    def sel(self, **selectors: Any) -> "LabeledArray":
        """Label-based selection: exact value, nearest value, or a
        ``(lo, hi)`` inclusive range tuple."""
        indexers: dict[str, Any] = {}
        for dim, selector in selectors.items():
            coords = self.coord(dim)
            if isinstance(selector, tuple) and len(selector) == 2:
                lo, hi = selector
                mask = (coords >= lo) & (coords <= hi)
                if not mask.any():
                    raise DatasetError(
                        f"{self.name}: empty range {selector} on {dim!r}"
                    )
                indexers[dim] = np.where(mask)[0]
            else:
                distances = np.abs(coords - selector)
                best = int(np.argmin(distances))
                indexers[dim] = best
        return self.isel(**indexers)

    # -- reductions -------------------------------------------------------------------
    def _reduce(self, dim: str, fn: Callable) -> "LabeledArray":
        axis = self.axis_of(dim)
        new_data = fn(self.data, axis=axis)
        new_dims = tuple(d for d in self.dims if d != dim)
        new_coords = {d: self.coords[d] for d in new_dims}
        return LabeledArray(
            name=self.name,
            data=new_data,
            dims=new_dims,
            coords=new_coords,
            attrs=self.attrs,
        )

    def mean(self, dim: str) -> "LabeledArray":
        return self._reduce(dim, np.mean)

    def std(self, dim: str) -> "LabeledArray":
        return self._reduce(dim, np.std)

    def min(self, dim: str) -> "LabeledArray":
        return self._reduce(dim, np.min)

    def max(self, dim: str) -> "LabeledArray":
        return self._reduce(dim, np.max)

    def scalar(self) -> float:
        """The value of a fully-reduced (0-D) array."""
        if self.data.ndim != 0:
            raise DatasetError(f"{self.name}: not a scalar (dims {self.dims})")
        return float(self.data)

    # -- group-by -------------------------------------------------------------------------
    def groupby(
        self, dim: str, key: Callable[[float], Any]
    ) -> dict[Any, "LabeledArray"]:
        """Partition along *dim* by ``key(coordinate)`` (e.g. season)."""
        axis = self.axis_of(dim)
        coords = self.coords[dim]
        groups: dict[Any, list[int]] = {}
        for i, value in enumerate(coords):
            groups.setdefault(key(float(value)), []).append(i)
        out: dict[Any, LabeledArray] = {}
        for label, idx in groups.items():
            out[label] = self.isel(**{dim: np.asarray(idx)})
        return out

    # -- arithmetic ------------------------------------------------------------------------
    def _binary(self, other: Any, fn: Callable, name: str) -> "LabeledArray":
        if isinstance(other, LabeledArray):
            if other.dims != self.dims or other.shape != self.shape:
                raise DatasetError(
                    f"operands not aligned: {self.dims}{self.shape} vs "
                    f"{other.dims}{other.shape}"
                )
            other_data = other.data
        else:
            other_data = other
        return LabeledArray(
            name=name,
            data=fn(self.data, other_data),
            dims=self.dims,
            coords=dict(self.coords),
            attrs=self.attrs,
        )

    def __add__(self, other: Any) -> "LabeledArray":
        return self._binary(other, np.add, self.name)

    def __sub__(self, other: Any) -> "LabeledArray":
        return self._binary(other, np.subtract, self.name)

    def __mul__(self, other: Any) -> "LabeledArray":
        return self._binary(other, np.multiply, self.name)

    # -- serialization -----------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist as ``.npz`` (data + coords) with a JSON header,
        through :func:`~repro.common.fsutil.atomic_write`.  As with
        ``np.savez``, a *path* not ending in ``.npz`` gains the suffix."""
        path = Path(path)
        if not path.name.endswith(".npz"):
            path = path.with_name(path.name + ".npz")
        header = {
            "name": self.name,
            "dims": list(self.dims),
            "attrs": self.attrs or {},
        }
        arrays = {"__data__": self.data}
        for dim, coord in self.coords.items():
            arrays[f"coord_{dim}"] = coord
        buffer = io.BytesIO()
        np.savez_compressed(buffer, header=json.dumps(header), **arrays)
        atomic_write(path, buffer.getvalue(), crash_label="weather.array")

    @classmethod
    def load(cls, path: str | Path) -> "LabeledArray":
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(str(archive["header"]))
            data = archive["__data__"]
            coords = {
                key[len("coord_"):]: archive[key]
                for key in archive.files
                if key.startswith("coord_")
            }
        return cls(
            name=header["name"],
            data=data,
            dims=tuple(header["dims"]),
            coords=coords,
            attrs=header.get("attrs") or None,
        )
