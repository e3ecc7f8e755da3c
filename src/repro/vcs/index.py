"""The staging area: a flat mapping from repo-relative path to blob id.

``add`` snapshots working-tree files into the object store and records
them here; ``commit`` turns the index into a nested tree.  The index is
persisted as a sorted text file so that repository state is diffable and
deterministic, and saved through
:func:`~repro.common.fsutil.atomic_write` (crash points ``vcs.index.*``):
a crash mid-save leaves the previous index whole, never a cut line that
would make the repository unopenable.
"""

from __future__ import annotations

from pathlib import Path

from repro.common.errors import VcsError
from repro.common.fsutil import atomic_write
from repro.vcs.objects import MODE_DIR, MODE_EXEC, MODE_FILE, Tree, TreeEntry
from repro.vcs.store import ObjectStore

__all__ = ["Index"]


def _check_rel_path(path: str) -> str:
    parts = path.split("/")
    if not path or path.startswith("/") or any(p in ("", ".", "..") for p in parts):
        raise VcsError(f"illegal repository path: {path!r}")
    return path


class Index:
    """Staged snapshot of the next commit's file set."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries: dict[str, tuple[str, str]] = {}  # path -> (oid, mode)
        if self.path.exists():
            self._load()

    # -- persistence -------------------------------------------------------------
    def _load(self) -> None:
        self.entries.clear()
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                mode, oid, rel = line.split(" ", 2)
            except ValueError as exc:
                raise VcsError(f"corrupt index line: {line!r}") from exc
            self.entries[rel] = (oid, mode)

    def save(self) -> None:
        lines = [
            f"{mode} {oid} {rel}"
            for rel, (oid, mode) in sorted(self.entries.items())
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        atomic_write(self.path, text.encode("utf-8"), crash_label="vcs.index")

    # -- mutation ------------------------------------------------------------------
    def stage(self, rel_path: str, oid: str, mode: str = MODE_FILE) -> None:
        """Record *rel_path* as pointing at blob *oid*."""
        _check_rel_path(rel_path)
        if mode not in (MODE_FILE, MODE_EXEC):
            raise VcsError(f"cannot stage mode {mode!r}")
        self.entries[rel_path] = (oid, mode)

    def unstage(self, rel_path: str) -> None:
        """Drop *rel_path* from the staged snapshot."""
        if rel_path not in self.entries:
            raise VcsError(f"path not staged: {rel_path!r}")
        del self.entries[rel_path]

    def clear(self) -> None:
        self.entries.clear()

    def replace_all(self, entries: dict[str, tuple[str, str]]) -> None:
        """Reset the index to exactly *entries* (used by checkout)."""
        self.entries = dict(entries)

    # -- tree building -----------------------------------------------------------------
    def build_tree(self, store: ObjectStore) -> str:
        """Write the staged snapshot as nested tree objects; returns root id."""
        root: dict = {}
        for rel, (oid, mode) in self.entries.items():
            parts = rel.split("/")
            node = root
            for part in parts[:-1]:
                child = node.setdefault(part, {})
                if not isinstance(child, dict):
                    raise VcsError(
                        f"path conflict: {part!r} is both a file and a directory"
                    )
                node = child
            if parts[-1] in node and isinstance(node[parts[-1]], dict):
                raise VcsError(
                    f"path conflict: {parts[-1]!r} is both a file and a directory"
                )
            node[parts[-1]] = (oid, mode)

        def write(node: dict) -> str:
            entries = []
            for name, value in sorted(node.items()):
                if isinstance(value, dict):
                    entries.append(
                        TreeEntry(name=name, oid=write(value), mode=MODE_DIR)
                    )
                else:
                    oid, mode = value
                    entries.append(TreeEntry(name=name, oid=oid, mode=mode))
            return store.put(Tree(tuple(entries)))

        return write(root)

    @classmethod
    def entries_from_tree(
        cls, store: ObjectStore, tree_oid: str
    ) -> dict[str, tuple[str, str]]:
        """Flatten a tree into index-shaped entries."""
        out: dict[str, tuple[str, str]] = {}

        def walk(oid: str, prefix: str) -> None:
            tree = store.get_tree(oid)
            for entry in tree.entries:
                path = prefix + entry.name
                if entry.is_dir:
                    walk(entry.oid, path + "/")
                else:
                    out[path] = (entry.oid, entry.mode)

        walk(tree_oid, "")
        return out
