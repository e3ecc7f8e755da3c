"""The content-addressed object pool shared by every substrate.

One implementation of "bytes filed under their SHA-256" backs the VCS
object store, the artifact cache, and the data-package registry.  The
layout mirrors git's: ``objects/ab/cdef...`` shards by the first two hex
characters, writes are atomic and idempotent (a second write of the same
content is a no-op, which is what makes the pool a *deduplicating*
store), and reads verify that the stored buffer still hashes to the id
it was filed under.

Bit rot has a remediation path rather than a bare exception: a corrupt
object is moved into the sibling ``quarantine/`` directory and the
raised :class:`~repro.common.errors.CorruptObjectError` names the
quarantined file, so ``popper cache verify`` can report it (with its
referrers) and a re-run can repopulate the object.

Crash consistency: an ingest fsyncs the temp file before publishing and
the shard directory after (``durable=False`` opts hot disposable pools
out), and the publish step runs under the pool's optional
:class:`~repro.common.locking.RepoLock` so two *processes* sharing one
cache serialize exactly the way two threads already did.  A crash
mid-ingest leaves only an ``.ingest-*`` orphan temp — never a partial
object — which ``popper doctor`` sweeps.

Packs: cold objects can be folded into packfiles under
``objects/pack/`` (see :mod:`repro.store.pack` and :meth:`ContentStore.repack`).
Reads consult the pack indexes before the loose shards, so callers
never notice whether an object is loose or packed; ingest still lands
loose (packs are immutable), and a repack folds the accumulated loose
tail into a fresh pack.  Shard iteration skips ``pack/`` naturally —
shard directories are exactly two hex characters.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.common.crash import SimulatedCrash, crashpoint
from repro.common.errors import CorruptObjectError, MissingObjectError, StoreError
from repro.common.hashing import sha256_bytes
from repro.common.fsutil import ensure_dir, fsync_path
from repro.common.locking import RepoLock
from repro.store.pack import PACK_DIR, PackError, PackReader, write_pack

__all__ = ["IngestResult", "RepackReport", "ContentStore"]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class IngestResult:
    """Outcome of filing one payload into the pool."""

    oid: str
    size: int
    #: True when the object was already present (the write deduped).
    deduped: bool


@dataclass(frozen=True)
class RepackReport:
    """What one :meth:`ContentStore.repack` pass did."""

    objects: int
    loose_folded: int
    packs_folded: int
    deltas: int
    bytes_before: int
    bytes_after: int
    pack: str = ""

    @property
    def noop(self) -> bool:
        return not self.pack

    def describe(self) -> str:
        if self.noop:
            return (
                f"-- repack: nothing to do "
                f"({self.objects} object(s) already packed)\n"
            )
        saved = self.bytes_before - self.bytes_after
        return (
            f"-- repack: {self.objects} object(s) -> {self.pack}\n"
            f"   folded {self.loose_folded} loose object(s) and "
            f"{self.packs_folded} old pack(s)\n"
            f"   {self.deltas} delta-encoded; "
            f"{self.bytes_before} -> {self.bytes_after} bytes "
            f"({saved:+d} reclaimed)\n"
        )


class ContentStore:
    """A sharded, verifying, deduplicating pool of immutable objects.

    Safe for concurrent writers: every write lands under a unique
    temporary name first and is published with ``os.replace``, so two
    threads (or two sweeps sharing one cache) racing to store the same
    content cannot interleave partial writes.
    """

    def __init__(
        self,
        objects_dir: str | Path,
        quarantine_dir: str | Path | None = None,
        durable: bool = True,
        lock: RepoLock | None = None,
    ) -> None:
        self.objects_dir = Path(objects_dir)
        self.quarantine_dir = (
            Path(quarantine_dir)
            if quarantine_dir is not None
            else self.objects_dir.parent / "quarantine"
        )
        #: fsync objects (and their shard dir) as they are published.
        self.durable = bool(durable)
        #: Optional inter-process lock serializing publishes across
        #: processes sharing this pool (reentrant: safe to hold already).
        self.lock = lock
        ensure_dir(self.objects_dir)
        self.packs_dir = self.objects_dir / PACK_DIR
        #: Lazily-built map of idx basename -> PackReader.  Invalidated
        #: by repack and refreshed on a lookup miss, so another process
        #: publishing a pack is picked up without restarting.
        self._pack_cache: dict[str, PackReader] | None = None

    def _publish_guard(self):
        return self.lock if self.lock is not None else nullcontext()

    # -- packs ----------------------------------------------------------------
    def _invalidate_packs(self) -> None:
        self._pack_cache = None

    def pack_readers(self, refresh: bool = False) -> list[PackReader]:
        """Readers for every well-formed published pack (sorted by name).

        A pack whose index is unreadable is skipped here — ``popper
        doctor`` owns repairing it — so a half-published pack never
        breaks reads (the loose copies it would have folded still exist
        until the repack sweep that follows index publication).
        """
        if self._pack_cache is None or refresh:
            cache: dict[str, PackReader] = {}
            if self.packs_dir.is_dir():
                for idx in sorted(self.packs_dir.glob("*.idx")):
                    try:
                        cache[idx.name] = PackReader(idx)
                    except PackError:
                        continue
                    if not cache[idx.name].pack_path.is_file():
                        del cache[idx.name]
            self._pack_cache = cache
        return [self._pack_cache[name] for name in sorted(self._pack_cache)]

    def _pack_for(self, oid: str) -> PackReader | None:
        for reader in self.pack_readers():
            if oid in reader:
                return reader
        if self._pack_cache is not None and self.packs_dir.is_dir():
            # Miss against the cached view: another process may have
            # published a pack since we scanned.  One rescan, then give up.
            known = len(self._pack_cache)
            fresh = len(list(self.packs_dir.glob("*.idx")))
            if fresh != known:
                for reader in self.pack_readers(refresh=True):
                    if oid in reader:
                        return reader
        return None

    def quarantine_pack(self, reader: PackReader) -> Path:
        """Move a corrupt pack (and its index) out of the pool."""
        ensure_dir(self.quarantine_dir)
        target = self.quarantine_dir / reader.pack_path.name
        os.replace(reader.pack_path, target)
        idx_target = self.quarantine_dir / reader.idx_path.name
        if reader.idx_path.is_file():
            os.replace(reader.idx_path, idx_target)
        self._invalidate_packs()
        return target

    # -- paths ----------------------------------------------------------------
    def object_path(self, oid: str) -> Path:
        if len(oid) != 64:
            raise StoreError(f"not a full object id: {oid!r}")
        return self.objects_dir / oid[:2] / oid[2:]

    def quarantine_path(self, oid: str) -> Path:
        return self.quarantine_dir / oid

    # -- writing --------------------------------------------------------------
    def _publish(self, tmp: Path, target: Path) -> None:
        crashpoint("cas.ingest.tmp")
        with self._publish_guard():
            ensure_dir(target.parent)
            os.replace(tmp, target)
            if self.durable:
                fsync_path(target.parent)
        crashpoint("cas.ingest.publish")

    def put_bytes(self, data: bytes) -> IngestResult:
        """File a bytes payload; returns its id.  Idempotent."""
        oid = sha256_bytes(data)
        target = self.object_path(oid)
        if target.exists():
            return IngestResult(oid=oid, size=len(data), deduped=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".ingest-", dir=str(self.objects_dir)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                if self.durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            self._publish(Path(tmp_name), target)
        except SimulatedCrash:
            # An injected crash leaves the orphan temp a real kill would.
            raise
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise
        return IngestResult(oid=oid, size=len(data), deduped=False)

    def put_file(self, path: str | Path) -> IngestResult:
        """File a host file's contents, streamed and hashed in one pass."""
        source = Path(path)
        if not source.is_file():
            raise StoreError(f"cannot ingest non-file: {source}")
        digest = hashlib.sha256()
        size = 0
        fd, tmp_name = tempfile.mkstemp(
            prefix=".ingest-", dir=str(self.objects_dir)
        )
        try:
            with os.fdopen(fd, "wb") as out, source.open("rb") as handle:
                while True:
                    chunk = handle.read(_CHUNK)
                    if not chunk:
                        break
                    digest.update(chunk)
                    size += len(chunk)
                    out.write(chunk)
                if self.durable:
                    out.flush()
                    os.fsync(out.fileno())
            oid = digest.hexdigest()
            target = self.object_path(oid)
            if target.exists():
                Path(tmp_name).unlink(missing_ok=True)
                return IngestResult(oid=oid, size=size, deduped=True)
            self._publish(Path(tmp_name), target)
        except SimulatedCrash:
            raise
        except BaseException:
            Path(tmp_name).unlink(missing_ok=True)
            raise
        return IngestResult(oid=oid, size=size, deduped=False)

    # -- reading --------------------------------------------------------------
    def get_bytes(self, oid: str, verify: bool = True) -> bytes:
        """Load an object, integrity-checked (quarantines on mismatch).

        Packs are consulted before the loose shards.  A packed object
        that fails its hash quarantines the *whole pack* (one corrupt
        file taints every delta chain through it) and the read falls
        back to a loose copy when one survives.
        """
        if len(oid) != 64:
            raise StoreError(f"not a full object id: {oid!r}")
        reader = self._pack_for(oid)
        if reader is not None:
            try:
                return reader.get_bytes(oid, verify=verify)
            except (PackError, CorruptObjectError):
                quarantined = self.quarantine_pack(reader)
                if not self.object_path(oid).exists():
                    raise CorruptObjectError(oid, str(quarantined)) from None
        path = self.object_path(oid)
        if not path.exists():
            raise MissingObjectError(oid)
        buffer = path.read_bytes()
        if verify and sha256_bytes(buffer) != oid:
            quarantined = self.quarantine(oid)
            raise CorruptObjectError(oid, str(quarantined) if quarantined else None)
        return buffer

    def contains(self, oid: str) -> bool:
        try:
            if self.object_path(oid).exists():
                return True
        except StoreError:
            return False
        return self._pack_for(oid) is not None

    def __contains__(self, oid: str) -> bool:
        return self.contains(oid)

    def size_of(self, oid: str) -> int:
        path = self.object_path(oid)
        if path.exists():
            return path.stat().st_size
        reader = self._pack_for(oid)
        if reader is not None:
            return reader.size_of(oid)
        raise MissingObjectError(oid)

    def loose_ids(self) -> Iterator[str]:
        """Ids of loose (shard-file) objects only, sorted."""
        if not self.objects_dir.exists():
            return
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for item in sorted(shard.iterdir()):
                if len(shard.name + item.name) == 64:
                    yield shard.name + item.name

    def packed_ids(self) -> Iterator[str]:
        """Ids reachable through pack indexes, sorted and deduplicated."""
        seen: set[str] = set()
        for reader in self.pack_readers():
            seen.update(reader.ids())
        yield from sorted(seen)

    def ids(self) -> Iterator[str]:
        """All stored object ids — loose and packed (sorted, deduped)."""
        seen = set(self.loose_ids())
        seen.update(self.packed_ids())
        yield from sorted(seen)

    # -- materialization ------------------------------------------------------
    def materialize(
        self, oid: str, dest: str | Path, verify: bool = True
    ) -> int:
        """Recreate an object's content at *dest*; returns bytes written.

        The destination is a copy, independent of the pool, and is
        replaced atomically, so a half-materialized artifact is never
        observable.  A packed object materializes by extraction.
        """
        path = self.object_path(oid)
        if path.exists() and not verify:
            data = None
        else:
            # Loose+verify, or packed either way: one verified read.
            data = self.get_bytes(oid, verify=verify)
        dest = Path(dest)
        ensure_dir(dest.parent)
        fd, tmp_name = tempfile.mkstemp(prefix=".mat-", dir=str(dest.parent))
        tmp = Path(tmp_name)
        try:
            if data is not None:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
            else:
                os.close(fd)
                shutil.copyfile(path, tmp)
            os.replace(tmp, dest)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path.stat().st_size if data is None else len(data)

    # -- integrity ------------------------------------------------------------
    def quarantine(self, oid: str) -> Path | None:
        """Move a (presumably corrupt) object out of the pool."""
        path = self.object_path(oid)
        if not path.exists():
            return None
        target = self.quarantine_path(oid)
        ensure_dir(target.parent)
        os.replace(path, target)
        return target

    def quarantined(self) -> list[str]:
        """Object ids currently sitting in quarantine."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(p.name for p in self.quarantine_dir.iterdir() if p.is_file())

    def verify_all(self) -> tuple[int, list[str]]:
        """Re-hash every object; returns ``(healthy, quarantined-ids)``.

        Corrupt loose objects are quarantined individually.  A pack
        with any failing object is quarantined whole (pack + index) and
        every object it held that has no surviving loose copy is
        reported corrupt.
        """
        healthy = 0
        corrupt: list[str] = []
        for reader in list(self.pack_readers(refresh=True)):
            bad = reader.verify()
            if bad:
                self.quarantine_pack(reader)
                for oid in reader.ids():
                    if not self.object_path(oid).exists():
                        corrupt.append(oid)
            else:
                healthy += len(reader)
        packed = set(self.packed_ids())
        for oid in list(self.loose_ids()):
            try:
                path = self.object_path(oid)
                buffer = path.read_bytes()
                if sha256_bytes(buffer) != oid:
                    self.quarantine(oid)
                    corrupt.append(oid)
                    continue
            except OSError:  # pragma: no cover - races only
                corrupt.append(oid)
                continue
            if oid not in packed:
                healthy += 1
        return healthy, sorted(set(corrupt))

    def delete(self, oid: str) -> bool:
        """Remove a *loose* object (gc); True when something was deleted.

        Packed objects are immutable; pack-level collection happens by
        dropping a whole pack once nothing references it (see
        :meth:`~repro.store.artifacts.ArtifactStore.gc`).
        """
        path = self.object_path(oid)
        if not path.exists():
            return False
        path.unlink()
        return True

    def drop_pack(self, reader: PackReader) -> int:
        """Unlink a whole pack (gc); returns physical bytes reclaimed.

        Pack first, index second — a crash between the two leaves a
        dangling index, which the doctor knows to sweep (the reverse
        order would leave an unindexed pack, a *repairable* state we
        reserve for publish crashes).
        """
        reclaimed = reader.packed_bytes
        try:
            reclaimed += reader.idx_path.stat().st_size
        except OSError:
            pass
        reader.pack_path.unlink(missing_ok=True)
        reader.idx_path.unlink(missing_ok=True)
        self._invalidate_packs()
        return reclaimed

    def stats(self) -> dict:
        """Loose/packed object counts and physical byte accounting."""
        loose = list(self.loose_ids())
        loose_bytes = sum(self.object_path(oid).stat().st_size for oid in loose)
        readers = self.pack_readers(refresh=True)
        packed = set(self.packed_ids())
        packed_bytes = sum(reader.packed_bytes for reader in readers)
        packed_logical = 0
        deltas = 0
        for reader in readers:
            packed_logical += sum(reader.size_of(oid) for oid in reader.ids())
            deltas += reader.delta_count()
        return {
            "objects": len(packed | set(loose)),
            "bytes": loose_bytes + packed_bytes,
            "quarantined": len(self.quarantined()),
            "loose_objects": len(loose),
            "loose_bytes": loose_bytes,
            "packed_objects": len(packed),
            "packed_bytes": packed_bytes,
            "packed_logical_bytes": packed_logical,
            "pack_files": len(readers),
            "pack_deltas": deltas,
        }

    # -- repacking ------------------------------------------------------------
    def repack(
        self, min_objects: int = 2, delta: bool = True
    ) -> RepackReport:
        """Fold every loose object and existing pack into one fresh pack.

        Steps, in crash-safe order: materialize every object (verified),
        publish the new pack + index (``pack.write.tmp`` /
        ``pack.publish`` crashpoints), then sweep the old packs and the
        loose copies.  A crash anywhere leaves every object readable —
        the sweep only removes copies the new pack already serves.
        """
        with self._publish_guard():
            return self._repack_locked(min_objects, delta)

    def _repack_locked(self, min_objects: int, delta: bool) -> RepackReport:
        readers = self.pack_readers(refresh=True)
        loose = list(self.loose_ids())
        objects: dict[str, bytes] = {}
        for reader in readers:
            for oid in reader.ids():
                objects[oid] = reader.get_bytes(oid)
        for oid in loose:
            objects[oid] = self.get_bytes(oid)
        already_packed = not loose and len(readers) == 1
        if len(objects) < max(2, min_objects) or already_packed:
            return RepackReport(
                objects=len(objects),
                loose_folded=0,
                packs_folded=0,
                deltas=0,
                bytes_before=0,
                bytes_after=0,
            )
        bytes_before = sum(
            self.object_path(oid).stat().st_size for oid in loose
        ) + sum(reader.packed_bytes for reader in readers)
        pack_path, idx_path = write_pack(
            objects, self.packs_dir, delta=delta, durable=self.durable
        )
        if self.durable:
            fsync_path(self.packs_dir)
        self._invalidate_packs()
        new_reader = PackReader(idx_path)
        # Sweep: old packs first (pack before idx), then loose copies.
        for reader in readers:
            if reader.pack_path != pack_path:
                self.drop_pack(reader)
        for oid in loose:
            self.delete(oid)
        self._invalidate_packs()
        return RepackReport(
            objects=len(objects),
            loose_folded=len(loose),
            packs_folded=sum(
                1 for r in readers if r.pack_path != pack_path
            ),
            deltas=new_reader.delta_count(),
            bytes_before=bytes_before,
            bytes_after=new_reader.packed_bytes,
            pack=pack_path.name,
        )
