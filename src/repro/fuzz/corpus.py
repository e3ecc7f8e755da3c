"""The corpus: interesting variants, stored as runnable experiments.

Layout under the host repository's ``.pvcs/fuzz/``::

    corpus/<variant16>/
        meta.json               scenario + mutation chain + verdict
        experiment/...          the variant's experiment files, ready to
                                copy into any repo and `popper run`
    repro/<variant16>/          minimized reproducers, same layout

The entry directories are the whole record: there is no index beside
them, and a campaign's known variants are the ``variant`` fields of its
complete entries' ``meta.json`` files.  Every file is content-derived —
variant ids are scenario fingerprints and no record carries a
timestamp — so two campaigns with the same seed produce byte-identical
corpus trees (the determinism acceptance test diffs them).
``meta.json`` lands last, via ``atomic_write``, so an entry is complete
exactly when it has one; ``popper doctor`` sweeps a variant directory
whose ``meta.json`` never landed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import FuzzError
from repro.common.fsutil import atomic_write, ensure_dir
from repro.fuzz.mutators import Mutation
from repro.fuzz.oracle import OracleVerdict
from repro.fuzz.scenario import Scenario

__all__ = ["CorpusEntry", "Corpus", "FUZZ_DIR"]

#: Fuzz state root, relative to the repository's ``.pvcs`` directory.
FUZZ_DIR = "fuzz"

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

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.directory = self.root

    # -- writes --------------------------------------------------------------
    def add(self, entry: CorpusEntry) -> Path:
        """Persist one entry; idempotent per variant id."""
        target = self.directory / entry.variant[:16]
        ensure_dir(target)
        entry.scenario.write_files(
            target / EXPERIMENT_DIR, True, crash_label="fuzz.corpus.files"
        )
        # meta.json last: a directory without it is a partial entry the
        # doctor sweeps, never a half-readable one.
        atomic_write(
            target / META_FILE,
            json.dumps(entry.to_json(), sort_keys=True, indent=1).encode("utf-8"),
            crash_label="fuzz.corpus.meta",
        )
        return target

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

    def __len__(self) -> int:
        return len(self.variants())
