"""The artifact store: a content pool plus a memoization index.

This is the layer that turns "this task already ran with these inputs"
into "materialize its outputs instead of executing it".  One store lives
under a repository's ``.pvcs/cache/`` and is shared by every substrate:

* the engine consults it before running a cache-aware task (see
  :mod:`repro.engine.cache`) — a hit materializes the recorded outputs
  (a copy) and the task completes as CACHED;
* the experiment pipeline and ``popper run --all`` sweeps store their
  stage outputs (``results.csv``, figures, baseline profiles) here;
* ``popper cache stats|verify|gc`` administers it.

GC policy: records group by *task id* (the logical task, across
fingerprints); ``gc(keep_last=N)`` keeps the N most recent records per
task and then sweeps objects no surviving record references.  The most
recent record per task is therefore never collected — which is exactly
the artifact set a re-run of the latest run serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.common.errors import StoreError
from repro.common.locking import ScopedLock
from repro.store.cas import ContentStore
from repro.store.index import ArtifactIndex, ArtifactOutput, ArtifactRecord

__all__ = ["StoreOutcome", "GcReport", "VerifyReport", "ArtifactStore"]


@dataclass(frozen=True)
class StoreOutcome:
    """What one ``store()`` call did: the record plus byte accounting."""

    record: ArtifactRecord
    bytes_stored: int
    bytes_deduped: int


@dataclass(frozen=True)
class GcReport:
    """What one gc pass removed."""

    records_removed: int
    objects_removed: int
    bytes_reclaimed: int


@dataclass
class VerifyReport:
    """Outcome of an fsck pass over the artifact store."""

    healthy_objects: int = 0
    #: Quarantined object id -> referrer descriptions (task ids/keys).
    corrupt: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.corrupt


class ArtifactStore:
    """Content pool + artifact index under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        # One inter-process lock for the whole store: ``store()`` holds
        # it across ingest + index publish (so a concurrent gc can never
        # sweep objects between those two steps), and gc and repack hold
        # it for their whole span.  Lock file: <root>/locks/store.lock.
        self.lock = ScopedLock(self.root, "store")
        self.cas = ContentStore(
            self.root / "objects", quarantine_dir=self.root / "quarantine"
        )
        self.index = ArtifactIndex(self.root / "index")

    # -- memoization ------------------------------------------------------------
    def lookup(self, key: str) -> ArtifactRecord | None:
        """The record for *key*, if every referenced object is present."""
        record = self.index.lookup(key)
        if record is None:
            return None
        if not all(self.cas.contains(output.oid) for output in record.outputs):
            # A swept or quarantined object makes the record useless;
            # treat as a miss so the task re-runs and re-stores.
            return None
        return record

    def store(
        self,
        key: str,
        task: str,
        outputs: Mapping[str, Path],
        root: Path,
        meta: dict | None = None,
    ) -> StoreOutcome:
        """Ingest a finished task's output files and index them.

        *outputs* maps logical names to produced files; paths are
        recorded relative to *root* so materialization can land them in a
        different checkout of the same layout.
        """
        recorded: list[ArtifactOutput] = []
        stored = 0
        deduped = 0
        with self.lock:
            for name, path in sorted(outputs.items()):
                path = Path(path)
                try:
                    rel = path.resolve().relative_to(Path(root).resolve()).as_posix()
                except ValueError as exc:
                    raise StoreError(
                        f"output {name!r} ({path}) is outside the task root {root}"
                    ) from exc
                ingest = self.cas.put_file(path)
                recorded.append(
                    ArtifactOutput(
                        name=name, path=rel, oid=ingest.oid, bytes=ingest.size
                    )
                )
                if ingest.deduped:
                    deduped += ingest.size
                else:
                    stored += ingest.size
            record = self.index.record(key, task, tuple(recorded), meta=meta)
        return StoreOutcome(
            record=record, bytes_stored=stored, bytes_deduped=deduped
        )

    def materialize(self, record: ArtifactRecord, root: Path) -> int:
        """Recreate a record's outputs under *root*; returns bytes restored.

        Raises :class:`~repro.common.errors.StoreError` when an object is
        missing or corrupt — callers treat that as a cache miss.
        """
        restored = 0
        for output in record.outputs:
            restored += self.cas.materialize(output.oid, Path(root) / output.path)
        return restored

    # -- administration ----------------------------------------------------------
    def verify(self) -> VerifyReport:
        """fsck the pool; quarantine corrupt objects, report referrers."""
        healthy, corrupt = self.cas.verify_all()
        report = VerifyReport(healthy_objects=healthy)
        if not corrupt:
            return report
        referrers: dict[str, list[str]] = {oid: [] for oid in corrupt}
        for record in self.index.entries():
            for output in record.outputs:
                if output.oid in referrers:
                    referrers[output.oid].append(
                        f"{record.task} ({record.key[:12]}, {output.path})"
                    )
        report.corrupt = referrers
        return report

    def gc(self, keep_last: int = 1) -> GcReport:
        """Drop all but the newest *keep_last* records per task; sweep.

        Objects still referenced by any surviving record are never
        collected, so the artifacts of the latest run per task survive
        every gc.
        """
        if keep_last < 1:
            raise StoreError(f"gc keep_last must be >= 1, got {keep_last}")
        # gc is the one operation that can *lose* a concurrent writer's
        # work (sweeping objects between its ingest and its index
        # publish), so it excludes publishes for its whole span.
        with self.lock:
            return self._gc_locked(keep_last)

    def _gc_locked(self, keep_last: int) -> GcReport:
        by_task: dict[str, list[ArtifactRecord]] = {}
        for record in self.index.entries():  # oldest first
            by_task.setdefault(record.task, []).append(record)
        keep: list[ArtifactRecord] = []
        drop: list[ArtifactRecord] = []
        for records in by_task.values():
            keep.extend(records[-keep_last:])
            drop.extend(records[:-keep_last])
        referenced = {oid for record in keep for oid in record.oids()}
        removed_records = 0
        for record in drop:
            if self.index.remove(record.key):
                removed_records += 1
        removed_objects = 0
        reclaimed = 0
        for oid in list(self.cas.loose_ids()):
            if oid in referenced:
                continue
            size = self.cas.object_path(oid).stat().st_size
            if self.cas.delete(oid):
                removed_objects += 1
                reclaimed += size
        # Packs are immutable, so collection is all-or-nothing per pack:
        # a pack nothing references any more is dropped whole; one with
        # a single live object survives intact (the next repack folds
        # the survivors into a fresh pack and the garbage goes then).
        for reader in list(self.cas.pack_readers(refresh=True)):
            packed = list(reader.ids())
            if any(oid in referenced for oid in packed):
                continue
            removed_objects += sum(
                1
                for oid in packed
                if not self.cas.object_path(oid).exists()
            )
            reclaimed += self.cas.drop_pack(reader)
        return GcReport(
            records_removed=removed_records,
            objects_removed=removed_objects,
            bytes_reclaimed=reclaimed,
        )

    def repack(self, min_objects: int = 2):
        """Fold the pool's loose tail (and old packs) into one pack.

        Holds the store lock for the whole fold — a repack moves every
        object, so it excludes concurrent publishes the way gc does.
        """
        with self.lock:
            return self.cas.repack(min_objects=min_objects)

    def stats(self) -> dict:
        """Pool + index accounting for ``popper cache stats``.

        ``bytes_deduped`` measures logical-over-physical saving from
        *both* content dedup and pack delta compression: ``logical``
        counts every recorded output at full size, ``bytes`` is what
        the disk actually holds (loose files + pack files).
        """
        pool = self.cas.stats()
        records = self.index.entries()
        logical = sum(record.total_bytes for record in records)
        physical = pool["bytes"]
        return {
            **pool,
            "records": len(records),
            "tasks": len({record.task for record in records}),
            "logical_bytes": logical,
            "bytes_deduped": max(0, logical - physical),
            "dedup_ratio": (logical / physical) if physical else 1.0,
        }
