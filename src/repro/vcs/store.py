"""VCS object store: a typed façade over the shared content pool.

The sharded layout, atomic/idempotent writes and read-time integrity
checks live in :class:`repro.store.cas.ContentStore`; this module adds
what the VCS layer needs on top — (de)serialization of typed objects,
prefix resolution, tree walking — and maps the storage-layer errors
onto the VCS exception family.  A corrupt object is quarantined by the
pool (``.pvcs/quarantine/``) before the error surfaces, so ``popper
cache verify`` and :meth:`~repro.vcs.repository.Repository.fsck` can
report it with referrers instead of tripping over it forever.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.common.errors import (
    CorruptObjectError,
    MissingObjectError,
    ObjectNotFound,
    StoreError,
    VcsError,
)
from repro.common.fsutil import atomic_write
from repro.store.cas import ContentStore
from repro.vcs.objects import (
    MODE_EXEC,
    AnyObject,
    Blob,
    Commit,
    Tree,
    TreeEntry,
    deserialize,
    serialize,
)

__all__ = ["ObjectStore"]


class ObjectStore:
    """Content-addressed storage rooted at a directory."""

    def __init__(
        self, root: str | Path, quarantine_dir: str | Path | None = None
    ) -> None:
        self.root = Path(root)
        self.cas = ContentStore(
            self.root,
            quarantine_dir=(
                Path(quarantine_dir)
                if quarantine_dir is not None
                else self.root / "quarantine"
            ),
        )

    # -- paths ----------------------------------------------------------------
    def _path(self, oid: str) -> Path:
        try:
            return self.cas.object_path(oid)
        except StoreError as exc:
            raise VcsError(str(exc)) from exc

    # -- primitives -------------------------------------------------------------
    def put(self, obj: AnyObject) -> str:
        """Store an object; returns its id.  Idempotent (dedupes)."""
        oid, buffer = serialize(obj)
        self.cas.put_bytes(buffer)
        return oid

    def get(self, oid: str) -> AnyObject:
        """Load and integrity-check the object with id *oid*.

        A failed integrity check quarantines the object and raises
        :class:`VcsError`; a later re-add of the same content heals the
        pool (same id, same path).
        """
        try:
            buffer = self.cas.get_bytes(oid)
        except MissingObjectError as exc:
            raise ObjectNotFound(oid) from exc
        except StoreError as exc:
            # CorruptObjectError lands here too; the message carries
            # "corrupt" plus the quarantine location.
            raise VcsError(str(exc)) from exc
        return deserialize(buffer)

    def contains(self, oid: str) -> bool:
        """True if *oid* is stored."""
        return self.cas.contains(oid)

    def __contains__(self, oid: str) -> bool:
        return self.contains(oid)

    def ids(self) -> Iterator[str]:
        """All stored object ids (sorted)."""
        yield from self.cas.ids()

    def quarantined(self) -> list[str]:
        """Object ids moved aside by a failed integrity check."""
        return self.cas.quarantined()

    def resolve_prefix(self, prefix: str) -> str:
        """Expand an abbreviated object id; errors if ambiguous/unknown."""
        if len(prefix) == 64:
            if not self.contains(prefix):
                raise ObjectNotFound(prefix)
            return prefix
        if len(prefix) < 4:
            raise VcsError(f"prefix too short: {prefix!r}")
        matches = [oid for oid in self.ids() if oid.startswith(prefix)]
        if not matches:
            raise ObjectNotFound(prefix)
        if len(matches) > 1:
            raise VcsError(f"ambiguous prefix {prefix!r}: {len(matches)} matches")
        return matches[0]

    # -- typed accessors ----------------------------------------------------------
    def get_blob(self, oid: str) -> Blob:
        obj = self.get(oid)
        if not isinstance(obj, Blob):
            raise VcsError(f"{oid[:12]} is a {obj.kind}, expected blob")
        return obj

    def get_tree(self, oid: str) -> Tree:
        obj = self.get(oid)
        if not isinstance(obj, Tree):
            raise VcsError(f"{oid[:12]} is a {obj.kind}, expected tree")
        return obj

    def get_commit(self, oid: str) -> Commit:
        obj = self.get(oid)
        if not isinstance(obj, Commit):
            raise VcsError(f"{oid[:12]} is a {obj.kind}, expected commit")
        return obj

    # -- tree walking ------------------------------------------------------------
    def walk_tree(self, tree_oid: str, prefix: str = "") -> Iterator[tuple[str, str]]:
        """Yield ``(path, blob-oid)`` for every file under a tree, sorted."""
        for path, entry in self._walk_entries(tree_oid, prefix):
            yield path, entry.oid

    def _walk_entries(
        self, tree_oid: str, prefix: str = ""
    ) -> Iterator[tuple[str, TreeEntry]]:
        tree = self.get_tree(tree_oid)
        for entry in tree.entries:
            path = f"{prefix}{entry.name}"
            if entry.is_dir:
                yield from self._walk_entries(entry.oid, path + "/")
            else:
                yield path, entry

    def read_path(self, tree_oid: str, path: str) -> bytes:
        """Contents of the file at *path* inside the tree *tree_oid*."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise VcsError("empty path")
        current = tree_oid
        for i, part in enumerate(parts):
            tree = self.get_tree(current)
            entry = tree.lookup(part)
            if entry is None:
                raise ObjectNotFound(f"{path} (missing {part!r})")
            if i == len(parts) - 1:
                if entry.is_dir:
                    raise VcsError(f"{path} is a directory")
                return self.get_blob(entry.oid).data
            if not entry.is_dir:
                raise VcsError(f"{'/'.join(parts[:i + 1])} is not a directory")
            current = entry.oid
        raise AssertionError("unreachable")

    def checkout_tree(self, tree_oid: str, dest: str | Path) -> int:
        """Write every file under a tree into *dest*; returns its bytes.

        The one materialization path shared by working-copy checkouts
        (``Repository.checkout``, ``merge`` and ``clone``) and CI job
        workspaces — payloads come out of the pool verified, each file
        lands atomically, and a file committed executable is checked
        out executable.  A file that already holds the blob's bytes is
        left as it is.
        """
        written = 0
        dest = Path(dest)
        for path, entry in self._walk_entries(tree_oid):
            data = self.get_blob(entry.oid).data
            target = dest / path
            # Checkouts are rebuildable from the pool, so skip the
            # per-file fsync tax — durability matters for the metadata
            # that *references* content, not the scratch materialization.
            atomic_write(target, data, durable=False, crash_label="vcs.checkout")
            if entry.mode == MODE_EXEC:
                target.chmod(target.stat().st_mode | 0o111)
            written += len(data)
        return written
