"""The artifact index: task fingerprint → output object ids + metadata.

The memoization half of the artifact store.  Each record says "a task
with this fingerprint already ran; its outputs are these objects at
these relative paths, and its value can be rebuilt from this metadata".
Records are one JSON file per fingerprint under ``index/``, written
atomically, so concurrent writers (two sweeps sharing one cache) can
only ever race whole records — the last complete write wins and both
candidates describe the same deterministic outputs anyway.

Fingerprints come from :func:`repro.engine.runstate.task_fingerprint`:
task identity plus a canonical hash of its parameters, which is exactly
the condition under which a stored artifact may stand in for a re-run.
Editing ``vars.yml`` changes the fingerprint and the entry simply never
hits again (gc reclaims it later).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import StoreError
from repro.common.fsutil import atomic_write, ensure_dir

__all__ = ["ArtifactOutput", "ArtifactRecord", "ArtifactIndex"]

_FINGERPRINT_OK = set("0123456789abcdef")


@dataclass(frozen=True)
class ArtifactOutput:
    """One produced file: logical name, path relative to the task root,
    content id and size."""

    name: str
    path: str
    oid: str
    bytes: int


@dataclass(frozen=True)
class ArtifactRecord:
    """One memoized task outcome."""

    key: str
    task: str
    outputs: tuple[ArtifactOutput, ...]
    meta: dict = field(default_factory=dict)
    #: Monotonic-ish stamp (ns) used only for relative recency in gc.
    seq: int = 0

    @property
    def total_bytes(self) -> int:
        return sum(output.bytes for output in self.outputs)

    def oids(self) -> set[str]:
        return {output.oid for output in self.outputs}

    def to_json(self) -> str:
        return json.dumps(
            {
                "key": self.key,
                "task": self.task,
                "outputs": [
                    {
                        "name": o.name,
                        "path": o.path,
                        "oid": o.oid,
                        "bytes": o.bytes,
                    }
                    for o in self.outputs
                ],
                "meta": self.meta,
                "seq": self.seq,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ArtifactRecord":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "key" not in doc:
            raise StoreError("malformed artifact index record")
        return cls(
            key=str(doc["key"]),
            task=str(doc.get("task", "")),
            outputs=tuple(
                ArtifactOutput(
                    name=str(o["name"]),
                    path=str(o["path"]),
                    oid=str(o["oid"]),
                    bytes=int(o.get("bytes", 0)),
                )
                for o in doc.get("outputs", [])
            ),
            meta=dict(doc.get("meta", {})),
            seq=int(doc.get("seq", 0)),
        )


class ArtifactIndex:
    """Directory of per-fingerprint records."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        ensure_dir(self.root)

    def _path(self, key: str) -> Path:
        if not key or not set(key) <= _FINGERPRINT_OK:
            raise StoreError(f"bad artifact fingerprint: {key!r}")
        return self.root / f"{key}.json"

    # -- reading -----------------------------------------------------------------
    def lookup(self, key: str) -> ArtifactRecord | None:
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            return ArtifactRecord.from_json(path.read_text(encoding="utf-8"))
        except (StoreError, json.JSONDecodeError, KeyError, ValueError):
            # A mangled record is equivalent to a miss: the task re-runs
            # and the next store() replaces the record wholesale.
            return None

    def entries(self) -> list[ArtifactRecord]:
        """Every readable record, oldest first (stable for gc)."""
        records = []
        for path in sorted(self.root.glob("*.json")):
            record = self.lookup(path.stem)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.seq, r.key))
        return records

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    # -- writing -----------------------------------------------------------------
    def record(
        self,
        key: str,
        task: str,
        outputs: tuple[ArtifactOutput, ...],
        meta: dict | None = None,
    ) -> ArtifactRecord:
        entry = ArtifactRecord(
            key=key,
            task=task,
            outputs=outputs,
            meta=dict(meta or {}),
            seq=time.time_ns(),
        )
        # Durable by default: a published record must reference objects
        # that survived the same crash window (they were fsynced first).
        atomic_write(
            self._path(key),
            (entry.to_json() + "\n").encode("utf-8"),
            crash_label="index.record",
        )
        return entry

    def remove(self, key: str) -> bool:
        path = self._path(key)
        if not path.is_file():
            return False
        path.unlink()
        return True
