"""A minimal executable-notebook format (the Jupyter substitution).

The convention's analysis/visualization category stores post-mortem
analysis as notebooks that readers can re-execute.  A
:class:`Notebook` is an ordered list of markdown and code cells with a
JSON on-disk format (a deliberate subset of ``.ipynb``); the executor in
:mod:`repro.notebook.executor` runs the code cells in one shared
namespace, capturing stdout and the last expression of each cell —
enough for CI to verify "the post-processing routines can be executed
without problems".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ReproError
from repro.common.fsutil import atomic_write

__all__ = ["Cell", "Notebook", "NotebookError"]


class NotebookError(ReproError):
    """Malformed notebook document or cell."""


_CELL_TYPES = ("markdown", "code")


@dataclass(frozen=True)
class Cell:
    """One notebook cell."""

    cell_type: str
    source: str

    def __post_init__(self) -> None:
        if self.cell_type not in _CELL_TYPES:
            raise NotebookError(f"unknown cell type: {self.cell_type!r}")

    @property
    def is_code(self) -> bool:
        return self.cell_type == "code"


@dataclass
class Notebook:
    """An ordered collection of cells plus document metadata."""

    cells: list[Cell] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------------
    def add_markdown(self, text: str) -> "Notebook":
        self.cells.append(Cell("markdown", text))
        return self

    def add_code(self, source: str) -> "Notebook":
        self.cells.append(Cell("code", source))
        return self

    @property
    def code_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.is_code]

    # -- serialization ------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "nbformat": 4,
                "metadata": self.metadata,
                "cells": [
                    {"cell_type": c.cell_type, "source": c.source}
                    for c in self.cells
                ],
            },
            indent=1,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Notebook":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise NotebookError(f"bad notebook JSON: {exc}") from exc
        if not isinstance(doc, dict) or "cells" not in doc:
            raise NotebookError("notebook document needs a 'cells' list")
        cells = []
        for raw in doc["cells"]:
            try:
                source = raw["source"]
                if isinstance(source, list):  # ipynb stores line lists
                    source = "".join(source)
                cells.append(Cell(raw["cell_type"], source))
            except (KeyError, TypeError) as exc:
                raise NotebookError(f"bad cell: {raw!r}") from exc
        return cls(cells=cells, metadata=doc.get("metadata") or {})

    def save(self, path: str | Path) -> None:
        atomic_write(path, self.to_json().encode("utf-8"), crash_label="notebook.save")

    @classmethod
    def load(cls, path: str | Path) -> "Notebook":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
