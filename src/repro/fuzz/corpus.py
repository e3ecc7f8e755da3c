"""The corpus: interesting variants, stored as runnable experiments.

Layout under the host repository's ``.pvcs/fuzz/``::

    corpus.jsonl                durable append-only index (one record
                                per admitted variant; read by read_jsonl)
    corpus/<variant16>/
        meta.json               scenario + mutation chain + verdict
        experiment/...          the variant's experiment files, ready to
                                copy into any repo and `popper run`
    repro/<variant16>/          minimized reproducers, same layout

Every file is content-derived — variant ids are scenario fingerprints
and no record carries a timestamp — so two campaigns with the same seed
produce byte-identical corpus trees (the determinism acceptance test
diffs them).  ``meta.json`` lands via ``atomic_write`` and the index
through one persistent group-commit writer, the same two durable-write
primitives as the rest of the store; the index reader skips a torn
line a crash left and raises :class:`FuzzError` on any other bad line.
``popper doctor`` knows how to repair a torn index and sweep a variant
directory whose ``meta.json`` never landed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import FuzzError
from repro.common.fsutil import atomic_write, ensure_dir
from repro.common.groupcommit import GroupCommitWriter, read_jsonl
from repro.fuzz.mutators import Mutation
from repro.fuzz.oracle import OracleVerdict
from repro.fuzz.scenario import Scenario

__all__ = ["CorpusEntry", "Corpus", "FUZZ_DIR", "CORPUS_INDEX"]

#: Fuzz state root, relative to the repository's ``.pvcs`` directory.
FUZZ_DIR = "fuzz"
CORPUS_INDEX = "corpus.jsonl"

META_FILE = "meta.json"
EXPERIMENT_DIR = "experiment"


@dataclass(frozen=True)
class CorpusEntry:
    """One admitted variant: scenario, provenance, and verdict."""

    variant: str
    scenario: Scenario
    chain: tuple[Mutation, ...]
    verdict: OracleVerdict
    outcome: str
    detail: str = ""
    novel: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "scenario": self.scenario.to_json(),
            "chain": [m.to_json() for m in self.chain],
            "verdict": self.verdict.to_json(),
            "outcome": self.outcome,
            "detail": self.detail,
            "novel": list(self.novel),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CorpusEntry":
        try:
            return cls(
                variant=str(payload["variant"]),
                scenario=Scenario.from_json(payload["scenario"]),
                chain=tuple(
                    Mutation.from_json(m) for m in payload.get("chain", [])
                ),
                verdict=OracleVerdict.from_json(payload.get("verdict", {})),
                outcome=str(payload.get("outcome", "")),
                detail=str(payload.get("detail", "")),
                novel=tuple(payload.get("novel", ())),
            )
        except (KeyError, TypeError) as exc:
            raise FuzzError(f"bad corpus entry: {exc}") from exc


class Corpus:
    """Variant storage under one directory (``corpus/`` or ``repro/``)."""

    def __init__(self, root: str | Path, index_name: str = CORPUS_INDEX) -> None:
        self.root = Path(root)
        self.index_path = self.root.parent / index_name
        self.directory = self.root
        self._writer: GroupCommitWriter | None = None

    # -- writes --------------------------------------------------------------
    def add(self, entry: CorpusEntry) -> Path:
        """Persist one entry; idempotent per variant id."""
        target = self.directory / entry.variant[:16]
        ensure_dir(target)
        entry.scenario.write_files(target / EXPERIMENT_DIR)
        # meta.json last: a directory without it is a partial entry the
        # doctor sweeps, never a half-readable one.
        atomic_write(
            target / META_FILE,
            json.dumps(entry.to_json(), sort_keys=True, indent=1).encode("utf-8"),
        )
        record = {
            "variant": entry.variant,
            "severity": entry.verdict.severity,
            "kinds": list(entry.verdict.kinds),
            "outcome": entry.outcome,
            "novel": list(entry.novel),
        }
        if self._writer is None or self._writer.closed:
            self._writer = GroupCommitWriter(
                self.index_path, durable=True, crash_label="fuzz.corpus"
            )
        self._writer.append(json.dumps(record, sort_keys=True))
        return target

    def flush(self) -> None:
        """Commit the index writer's open window."""
        if self._writer is not None and not self._writer.closed:
            self._writer.flush()

    def close(self) -> None:
        """Commit and release the persistent index writer."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # -- reads ---------------------------------------------------------------
    def variants(self) -> list[str]:
        """Variant ids with a complete (meta-carrying) directory."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p.name
            for p in self.directory.iterdir()
            if (p / META_FILE).is_file()
        )

    def load(self, variant: str) -> CorpusEntry:
        path = self.directory / variant[:16] / META_FILE
        if not path.is_file():
            raise FuzzError(f"no corpus entry for variant {variant!r}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FuzzError(f"corrupt corpus entry {path}: {exc}") from exc
        return CorpusEntry.from_json(payload)

    def entries(self) -> list[CorpusEntry]:
        return [self.load(v) for v in self.variants()]

    def index_records(self) -> list[dict]:
        """Parse the index, skipping a torn line and non-object records."""
        try:
            records, _torn = read_jsonl(self.index_path)
        except ValueError as exc:
            raise FuzzError(f"bad corpus index line at {exc}") from exc
        return [record for record in records if isinstance(record, dict)]

    def __len__(self) -> int:
        return len(self.variants())
