"""Columnar metrics tables — the interchange format between experiments,
monitoring, analysis and the Aver validation language.

The Popper pipeline produces ``results.csv`` files; Aver assertions are
evaluated against them; analysis scripts group and aggregate them.  A
:class:`MetricsTable` is a small, dependency-free columnar table with just
the operations those stages need: CSV round-trips, row filtering, column
extraction, group-by and aggregate.  Only :meth:`MetricsTable.aggregate`
uses numpy, and imports it when called, so reading a table and
validating it with Aver load no numpy.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.common.fsutil import atomic_write

__all__ = ["MetricsTable"]


def _coerce(value: Any) -> Any:
    """CSV cells arrive as strings; recover ints/floats/bools/None."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if text == "":
        return None
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


class MetricsTable:
    """An ordered collection of rows sharing a column set.

    Parameters
    ----------
    columns:
        Column names, in presentation order.
    rows:
        Iterable of per-row mappings or sequences aligned with *columns*.
    """

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Mapping[str, Any] | Sequence[Any]] = (),
    ) -> None:
        self.columns: list[str] = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names: {self.columns}")
        self._rows: list[dict[str, Any]] = []
        for row in rows:
            self.append(row)

    # -- construction -------------------------------------------------------
    def append(self, row: Mapping[str, Any] | Sequence[Any]) -> None:
        """Append one row (mapping, or sequence aligned with ``columns``)."""
        if isinstance(row, Mapping):
            unknown = set(row) - set(self.columns)
            if unknown:
                raise KeyError(f"row has columns not in table: {sorted(unknown)}")
            self._rows.append({c: row.get(c) for c in self.columns})
        else:
            values = list(row)
            if len(values) != len(self.columns):
                raise ValueError(
                    f"row has {len(values)} values, table has "
                    f"{len(self.columns)} columns"
                )
            self._rows.append(dict(zip(self.columns, values)))

    def extend(self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]]) -> "MetricsTable":
        """Build a table from mappings, unioning their keys in first-seen order."""
        columns: list[str] = []
        for record in records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        table = cls(columns)
        for record in records:
            table._rows.append({c: record.get(c) for c in columns})
        return table

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsTable):
            return NotImplemented
        return self.columns == other.columns and self._rows == other._rows

    def __repr__(self) -> str:
        return f"MetricsTable(columns={self.columns}, rows={len(self)})"

    # -- access --------------------------------------------------------------
    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"no such column: {name!r} (have {self.columns})")
        return [row[name] for row in self._rows]

    def numeric(self, name: str) -> list[float]:
        """One column as a list of floats (None becomes NaN).

        A new list per call; wrap it in ``np.asarray`` to compute on it
        with numpy.
        """
        out: list[float] = []
        for i, value in enumerate(self.column(name)):
            if value is None:
                out.append(math.nan)
            elif isinstance(value, (int, float)):
                out.append(float(value))
            else:
                raise TypeError(
                    f"column {name!r} is not numeric: row {i} holds {value!r}"
                )
        return out

    def distinct(self, name: str) -> list[Any]:
        """Distinct values of a column, in first-seen order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            seen.setdefault(value, None)
        return list(seen)

    # -- relational-ish operations --------------------------------------------
    def where(self, predicate: Callable[[dict[str, Any]], bool]) -> "MetricsTable":
        """Rows satisfying *predicate*, as a new table."""
        out = MetricsTable(self.columns)
        out._rows = [dict(row) for row in self._rows if predicate(row)]
        return out

    def where_equals(self, **conditions: Any) -> "MetricsTable":
        """Rows where every named column equals the given value."""
        for key in conditions:
            if key not in self.columns:
                raise KeyError(f"no such column: {key!r}")
        return self.where(
            lambda row: all(row[k] == v for k, v in conditions.items())
        )

    def select(self, *names: str) -> "MetricsTable":
        """Projection onto a subset of columns."""
        for name in names:
            if name not in self.columns:
                raise KeyError(f"no such column: {name!r}")
        out = MetricsTable(list(names))
        out._rows = [{n: row[n] for n in names} for row in self._rows]
        return out

    def sort_by(self, *names: str, reverse: bool = False) -> "MetricsTable":
        """Rows ordered by the named columns."""
        for name in names:
            if name not in self.columns:
                raise KeyError(f"no such column: {name!r}")
        out = MetricsTable(self.columns)
        out._rows = sorted(
            (dict(r) for r in self._rows),
            key=lambda row: tuple(
                (row[n] is None, row[n] if row[n] is not None else 0)
                for n in names
            ),
            reverse=reverse,
        )
        return out

    def group_by(self, *names: str) -> dict[tuple[Any, ...], "MetricsTable"]:
        """Partition rows by the tuple of the named columns' values."""
        groups: dict[tuple[Any, ...], MetricsTable] = {}
        for row in self._rows:
            key = tuple(row[n] for n in names)
            if key not in groups:
                groups[key] = MetricsTable(self.columns)
            groups[key]._rows.append(dict(row))
        return groups

    def aggregate(
        self,
        by: Sequence[str],
        metric: str,
        func: Callable[[list[float]], float] | None = None,
        output: str | None = None,
    ) -> "MetricsTable":
        """Group by *by* and reduce *metric* with *func*.

        *func* gets each group's :meth:`numeric` list; the default is
        ``numpy.mean``.
        """
        if func is None:
            import numpy as np

            func = np.mean
        output = output or metric
        out = MetricsTable(list(by) + [output])
        for key, group in self.group_by(*by).items():
            values = group.numeric(metric)
            out.append(list(key) + [float(func(values))])
        return out

    def with_column(self, name: str, values: Sequence[Any]) -> "MetricsTable":
        """New table with an extra column appended."""
        if name in self.columns:
            raise ValueError(f"column already exists: {name!r}")
        if len(values) != len(self):
            raise ValueError("column length does not match row count")
        out = MetricsTable(self.columns + [name])
        out._rows = [
            {**row, name: value} for row, value in zip(self._rows, values)
        ]
        return out

    def concat(self, other: "MetricsTable") -> "MetricsTable":
        """Stack two tables with identical column sets."""
        if self.columns != other.columns:
            raise ValueError(
                f"column mismatch: {self.columns} vs {other.columns}"
            )
        out = MetricsTable(self.columns)
        out._rows = [dict(r) for r in self._rows] + [dict(r) for r in other._rows]
        return out

    # -- serialization ---------------------------------------------------------
    def to_csv(self) -> str:
        """Render as CSV text with a header row."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self._rows:
            writer.writerow(
                ["" if row[c] is None else row[c] for c in self.columns]
            )
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MetricsTable":
        """Parse CSV text produced by :meth:`to_csv` (types are recovered)."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV document") from None
        table = cls(header)
        for values in reader:
            if not values:
                continue
            if len(values) != len(header):
                raise ValueError(
                    f"CSV row has {len(values)} cells, header has {len(header)}"
                )
            table._rows.append(
                {c: _coerce(v) for c, v in zip(header, values)}
            )
        return table

    def save_csv(self, path: str | os.PathLike) -> None:
        """Write the table to *path* as CSV, through
        :func:`~repro.common.fsutil.atomic_write`."""
        atomic_write(path, self.to_csv().encode("utf-8"), crash_label="tables.csv")

    @classmethod
    def load_csv(cls, path: str | os.PathLike) -> "MetricsTable":
        """Read a CSV file written by :meth:`save_csv`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_csv(handle.read())

    def to_records(self) -> list[dict[str, Any]]:
        """All rows as independent dicts."""
        return [dict(row) for row in self._rows]

    def to_text(self) -> str:
        """Render as an aligned plain-text table (header + rows).

        The terminal-facing sibling of :meth:`to_csv`: columns are
        padded to their widest cell, floats print with 4 significant
        digits, None prints empty.  Used by ``popper perf`` and friends
        for verdict tables.
        """

        def fmt(value: Any) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return str(value)
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        rendered = [[fmt(row[c]) for c in self.columns] for row in self._rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in rendered))
            if rendered
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(self.columns)).rstrip()
        ]
        for cells in rendered:
            lines.append(
                "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()
            )
        return "\n".join(lines) + "\n"
