"""High-level repository porcelain: init, add, commit, branch, tag,
checkout, log, status, diff and clone.

This is the version-control substrate the Popper convention sits on.  A
repository is a working directory plus a ``.pvcs`` metadata directory
(object store, refs, index, a logical commit clock).  The command surface
deliberately mirrors git so that a "Popperized" paper repository behaves
the way the paper describes, with none of git's host dependencies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.common.errors import ObjectNotFound, VcsError
from repro.common.fsutil import atomic_write, ensure_dir, is_atomic_temp
from repro.vcs.diff import Change, diff_commits, tree_changes
from repro.vcs.index import Index
from repro.vcs.objects import MODE_EXEC, MODE_FILE, Blob, Commit, Tag
from repro.vcs.refs import RefStore
from repro.vcs.store import ObjectStore

__all__ = ["Repository", "LogEntry", "Status"]

META_DIR = ".pvcs"
DEFAULT_BRANCH = "main"
DEFAULT_AUTHOR = "popper <popper@localhost>"


@dataclass(frozen=True)
class LogEntry:
    """One line of ``log`` output."""

    oid: str
    author: str
    timestamp: int
    message: str

    @property
    def subject(self) -> str:
        return self.message.splitlines()[0] if self.message else ""


@dataclass(frozen=True)
class Status:
    """Working-tree status relative to HEAD and the index."""

    staged: list[Change]
    modified: list[str]
    deleted: list[str]
    untracked: list[str]

    @property
    def clean(self) -> bool:
        return not (self.staged or self.modified or self.deleted or self.untracked)


class Repository:
    """A working tree under version control."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        self.meta = self.root / META_DIR
        if not self.meta.is_dir():
            raise VcsError(f"not a repository: {self.root}")
        self.store = ObjectStore(
            self.meta / "objects", quarantine_dir=self.meta / "quarantine"
        )
        self.refs = RefStore(self.meta)
        self.index = Index(self.meta / "index")

    # -- lifecycle ---------------------------------------------------------------
    @classmethod
    def init(cls, root: str | Path, branch: str = DEFAULT_BRANCH) -> "Repository":
        """Create a new repository at *root* (which may already have files)."""
        root = Path(root).resolve()
        meta = root / META_DIR
        if meta.exists():
            raise VcsError(f"repository already exists: {root}")
        ensure_dir(meta / "objects")
        refs = RefStore(meta)
        refs.set_head_branch(branch)
        (meta / "clock").write_text("0\n", encoding="utf-8")
        (meta / "index").write_text("", encoding="utf-8")
        return cls(root)

    @classmethod
    def open(cls, root: str | Path) -> "Repository":
        """Open an existing repository at *root* or any parent of it."""
        current = Path(root).resolve()
        for candidate in [current, *current.parents]:
            if (candidate / META_DIR).is_dir():
                return cls(candidate)
        raise VcsError(f"no repository found at or above {root}")

    @classmethod
    def is_repository(cls, root: str | Path) -> bool:
        """True when *root* itself is a repository working-tree root."""
        return (Path(root) / META_DIR).is_dir()

    # -- clock -------------------------------------------------------------------
    def _tick(self) -> int:
        path = self.meta / "clock"
        value = int(path.read_text(encoding="utf-8").strip() or "0") + 1
        atomic_write(path, f"{value}\n".encode("ascii"), crash_label="vcs.clock")
        return value

    # -- path plumbing -------------------------------------------------------------
    def _rel(self, path: str | Path) -> str:
        absolute = (self.root / path).resolve() if not Path(path).is_absolute() else Path(path).resolve()
        try:
            rel = absolute.relative_to(self.root)
        except ValueError as exc:
            raise VcsError(f"path outside repository: {path}") from exc
        rel_str = rel.as_posix()
        if rel_str.split("/")[0] == META_DIR:
            raise VcsError(f"cannot track repository metadata: {path}")
        return rel_str

    def _iter_workdir(self) -> Iterator[str]:
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = sorted(d for d in dirnames if d != META_DIR)
            for name in sorted(filenames):
                if is_atomic_temp(name):
                    continue  # a crashed write's debris, never content
                yield (Path(dirpath) / name).relative_to(self.root).as_posix()

    # -- staging ------------------------------------------------------------------
    def add(self, *paths: str | Path) -> list[str]:
        """Stage files (or directory subtrees); returns the staged paths."""
        staged: list[str] = []
        for path in paths:
            absolute = self.root / path
            if absolute.is_dir():
                targets = [
                    rel for rel in self._iter_workdir()
                    if rel == self._rel(path) or rel.startswith(self._rel(path) + "/")
                ]
                if not targets:
                    continue
            elif absolute.is_file():
                targets = [self._rel(path)]
            else:
                raise VcsError(f"pathspec did not match any file: {path}")
            for rel in targets:
                data = (self.root / rel).read_bytes()
                oid = self.store.put(Blob(data))
                mode = (
                    MODE_EXEC
                    if os.access(self.root / rel, os.X_OK)
                    else MODE_FILE
                )
                self.index.stage(rel, oid, mode)
                staged.append(rel)
        self.index.save()
        return staged

    def add_all(self) -> list[str]:
        """Stage every file in the working tree and drop deleted ones."""
        present = set(self._iter_workdir())
        for rel in list(self.index.entries):
            if rel not in present:
                self.index.unstage(rel)
        if present:
            return self.add(*sorted(present))  # add() saves the index
        self.index.save()
        return []

    def rm(self, *paths: str | Path, keep_workdir: bool = False) -> None:
        """Unstage files and (by default) remove them from the working tree."""
        for path in paths:
            rel = self._rel(path)
            self.index.unstage(rel)
            if not keep_workdir and (self.root / rel).exists():
                (self.root / rel).unlink()
        self.index.save()

    # -- committing ----------------------------------------------------------------
    def commit(self, message: str, author: str = DEFAULT_AUTHOR) -> str:
        """Commit the staged snapshot; returns the new commit id."""
        if not message.strip():
            raise VcsError("refusing an empty commit message")
        branch, head_oid = self.refs.head()
        tree_oid = self.index.build_tree(self.store)
        if head_oid is not None:
            head_commit = self.store.get_commit(head_oid)
            if head_commit.tree == tree_oid:
                raise VcsError("nothing to commit (tree unchanged)")
        commit = Commit(
            tree=tree_oid,
            parents=(head_oid,) if head_oid else (),
            author=author,
            message=message,
            timestamp=self._tick(),
        )
        oid = self.store.put(commit)
        if branch is not None:
            self.refs.write_branch(branch, oid)
        else:
            self.refs.set_head_detached(oid)
        return oid

    # -- history --------------------------------------------------------------------
    def head_commit(self) -> str | None:
        """Commit id HEAD points at (None on an unborn branch)."""
        _, oid = self.refs.head()
        return oid

    def log(self, ref: str = "HEAD", limit: int | None = None) -> list[LogEntry]:
        """First-parent history from *ref*, newest first."""
        try:
            oid: str | None = self.resolve(ref)
        except VcsError:
            if ref == "HEAD":
                return []
            raise
        entries: list[LogEntry] = []
        while oid is not None:
            commit = self.store.get_commit(oid)
            entries.append(
                LogEntry(
                    oid=oid,
                    author=commit.author,
                    timestamp=commit.timestamp,
                    message=commit.message,
                )
            )
            if limit is not None and len(entries) >= limit:
                break
            oid = commit.parents[0] if commit.parents else None
        return entries

    def commits_between(self, old: str, new: str = "HEAD") -> list[str]:
        """First-parent commit ids from *old* (exclusive) to *new* (inclusive).

        Returned oldest-first — the natural axis for a performance
        history walk.  Raises :class:`VcsError` when *old* is not an
        ancestor of *new* on the first-parent chain (the range is then
        not a line and a profile comparison over it is meaningless).
        """
        old_oid = self.resolve(old)
        new_oid = self.resolve(new)
        if old_oid == new_oid:
            return []
        span: list[str] = []
        oid: str | None = new_oid
        while oid is not None:
            if oid == old_oid:
                return list(reversed(span))
            span.append(oid)
            commit = self.store.get_commit(oid)
            oid = commit.parents[0] if commit.parents else None
        raise VcsError(
            f"{old!r} is not a first-parent ancestor of {new!r}"
        )

    def resolve(self, ref: str) -> str:
        """Resolve HEAD / branch / tag / oid-prefix to a commit id."""
        if ref == "HEAD":
            _, oid = self.refs.head()
            if oid is None:
                raise VcsError("HEAD is unborn (no commits yet)")
            return oid
        branch_oid = self.refs.read_branch(ref)
        if branch_oid is not None:
            return branch_oid
        tag_oid = self.refs.read_tag(ref)
        if tag_oid is not None:
            obj = self.store.get(tag_oid)
            if isinstance(obj, Tag):
                return obj.target
            return tag_oid
        return self.store.resolve_prefix(ref)

    # -- branches and tags -------------------------------------------------------------
    def branch(self, name: str, at: str = "HEAD") -> None:
        """Create branch *name* pointing at *at*."""
        if self.refs.read_branch(name) is not None:
            raise VcsError(f"branch already exists: {name!r}")
        self.refs.write_branch(name, self.resolve(at))

    def tag(self, name: str, at: str = "HEAD", message: str = "") -> str:
        """Create an annotated tag; returns the tag object id."""
        target = self.resolve(at)
        tag_oid = self.store.put(Tag(target=target, name=name, message=message))
        self.refs.write_tag(name, tag_oid)
        return tag_oid

    # -- checkout ------------------------------------------------------------------------
    def checkout(self, ref: str) -> None:
        """Make the working tree and index match *ref*.

        Refuses to run over uncommitted modifications so experiment state
        can never be silently destroyed.
        """
        status = self.status()
        if status.modified or status.deleted or status.staged:
            raise VcsError(
                "working tree has uncommitted changes; commit before checkout"
            )
        self._materialize(ref)

    def _materialize(self, ref: str) -> None:
        """Checkout without the dirty-tree safety check (clone bootstrap)."""
        target_oid = self.resolve(ref)
        commit = self.store.get_commit(target_oid)
        new_entries = Index.entries_from_tree(self.store, commit.tree)
        # Remove tracked files that vanish in the target snapshot.
        for rel in self.index.entries:
            if rel not in new_entries:
                victim = self.root / rel
                if victim.exists():
                    victim.unlink()
        # Materialize target contents.
        for rel, (oid, mode) in new_entries.items():
            blob = self.store.get_blob(oid)
            target = self.root / rel
            ensure_dir(target.parent)
            target.write_bytes(blob.data)
            if mode == MODE_EXEC:
                target.chmod(target.stat().st_mode | 0o111)
        self.index.replace_all(new_entries)
        self.index.save()
        if self.refs.read_branch(ref) is not None:
            self.refs.set_head_branch(ref)
        else:
            self.refs.set_head_detached(target_oid)

    # -- status / diff --------------------------------------------------------------------
    def status(self) -> Status:
        """Classify every path as staged / modified / deleted / untracked."""
        head_oid = self.head_commit()
        head_tree = self.store.get_commit(head_oid).tree if head_oid else None
        head_entries = (
            Index.entries_from_tree(self.store, head_tree) if head_tree else {}
        )

        staged: list[Change] = []
        for change in tree_changes(
            self.store, head_tree, self.index.build_tree(self.store)
        ):
            staged.append(change)

        modified: list[str] = []
        deleted: list[str] = []
        untracked: list[str] = []
        workdir = set(self._iter_workdir())
        for rel in sorted(workdir | set(self.index.entries)):
            if rel not in self.index.entries:
                untracked.append(rel)
                continue
            if rel not in workdir:
                deleted.append(rel)
                continue
            data = (self.root / rel).read_bytes()
            oid, _ = self.index.entries[rel]
            from repro.vcs.objects import serialize

            current_oid, _buf = serialize(Blob(data))
            if current_oid != oid:
                modified.append(rel)
        _ = head_entries  # head snapshot is folded into `staged` above
        return Status(
            staged=staged,
            modified=modified,
            deleted=deleted,
            untracked=untracked,
        )

    def diff(self, old_ref: str | None, new_ref: str = "HEAD") -> str:
        """Unified diff between two refs."""
        old_oid = self.resolve(old_ref) if old_ref else None
        new_oid = self.resolve(new_ref)
        return diff_commits(self.store, old_oid, new_oid)

    def cat(self, ref: str, path: str) -> bytes:
        """File contents at *path* as of commit *ref*."""
        commit = self.store.get_commit(self.resolve(ref))
        return self.store.read_path(commit.tree, path)

    def ls(self, ref: str = "HEAD") -> list[str]:
        """Tracked file paths as of commit *ref*, sorted."""
        commit = self.store.get_commit(self.resolve(ref))
        return sorted(path for path, _ in self.store.walk_tree(commit.tree))

    # -- merging -------------------------------------------------------------------------------
    def merge(self, ref: str, author: str = DEFAULT_AUTHOR) -> str:
        """Merge *ref* into the current branch.

        Fast-forwards when possible; otherwise performs a three-way
        content merge and creates a two-parent merge commit.  Conflicts
        raise :class:`~repro.vcs.merge.MergeConflict` (with per-path
        conflict-marked previews) and leave the repository untouched.
        Returns the resulting HEAD commit id.
        """
        from repro.vcs.merge import MergeConflict, merge_base, merge_blobs

        status = self.status()
        if not status.clean:
            raise VcsError("working tree not clean; commit before merging")
        branch, ours = self.refs.head()
        theirs = self.resolve(ref)
        if ours is None:
            raise VcsError("cannot merge into an unborn branch")
        if ours == theirs:
            return ours
        base = merge_base(self.store, ours, theirs)
        if base == theirs:
            return ours  # already up to date
        if base == ours:
            # fast-forward
            if branch is not None:
                self.refs.write_branch(branch, theirs)
                self._materialize(branch)
            else:
                self._materialize(theirs)
            return theirs

        ours_commit = self.store.get_commit(ours)
        theirs_commit = self.store.get_commit(theirs)
        base_tree = self.store.get_commit(base).tree if base else None
        base_files = dict(self.store.walk_tree(base_tree)) if base_tree else {}
        ours_files = dict(self.store.walk_tree(ours_commit.tree))
        theirs_files = dict(self.store.walk_tree(theirs_commit.tree))

        merged: dict[str, str] = {}  # path -> blob oid
        conflicts: dict[str, str] = {}
        for path in sorted(set(base_files) | set(ours_files) | set(theirs_files)):
            base_oid = base_files.get(path)
            ours_oid = ours_files.get(path)
            theirs_oid = theirs_files.get(path)
            if ours_oid == theirs_oid:
                if ours_oid is not None:
                    merged[path] = ours_oid
                continue
            if ours_oid == base_oid:
                # only theirs changed (modify or delete)
                if theirs_oid is not None:
                    merged[path] = theirs_oid
                continue
            if theirs_oid == base_oid:
                if ours_oid is not None:
                    merged[path] = ours_oid
                continue
            # both sides changed differently
            if ours_oid is None or theirs_oid is None:
                conflicts[path] = "delete/modify conflict"
                continue
            data, conflicted = merge_blobs(
                self.store, base_oid, ours_oid, theirs_oid,
                ours_label=branch or "HEAD", theirs_label=ref,
            )
            if conflicted:
                conflicts[path] = data.decode("utf-8", errors="replace")
            else:
                merged[path] = self.store.put(Blob(data))
        if conflicts:
            raise MergeConflict(conflicts)

        # Build the merged tree via a scratch index.
        scratch = Index(self.meta / "index.merge")
        for path, oid in merged.items():
            scratch.stage(path, oid)
        tree_oid = scratch.build_tree(self.store)
        (self.meta / "index.merge").unlink(missing_ok=True)
        commit = Commit(
            tree=tree_oid,
            parents=(ours, theirs),
            author=author,
            message=f"merge {ref} into {branch or 'HEAD'}",
            timestamp=self._tick(),
        )
        merge_oid = self.store.put(commit)
        if branch is not None:
            self.refs.write_branch(branch, merge_oid)
            self._materialize(branch)
        else:
            self._materialize(merge_oid)
        return merge_oid

    # -- clone ---------------------------------------------------------------------------------
    def clone(self, destination: str | Path) -> "Repository":
        """Copy history into a fresh repository and check out HEAD."""
        destination = Path(destination)
        if destination.exists() and any(destination.iterdir()):
            raise VcsError(f"clone destination not empty: {destination}")
        branch, head_oid = self.refs.head()
        other = Repository.init(destination, branch=branch or DEFAULT_BRANCH)
        for oid in self.store.ids():
            obj = self.store.get(oid)
            other.store.put(obj)
        for name in self.refs.branches():
            value = self.refs.read_branch(name)
            if value:
                other.refs.write_branch(name, value)
        for name in self.refs.tags():
            value = self.refs.read_tag(name)
            if value:
                other.refs.write_tag(name, value)
        if head_oid is not None:
            if branch is not None:
                other.refs.set_head_branch(branch)
                other._materialize(branch)
            else:
                other._materialize(head_oid)
        return other

    # -- integrity ---------------------------------------------------------------------------------
    def fsck(self) -> list[str]:
        """Verify every object; returns the ids that fail (empty == healthy).

        Failing objects are quarantined by the pool as they are found
        (the ids list is snapshotted first, since quarantining renames
        files out from under the shard iteration).
        """
        bad: list[str] = []
        for oid in list(self.store.ids()):
            try:
                self.store.get(oid)
            except VcsError:
                bad.append(oid)
            except ObjectNotFound:  # pragma: no cover - races only
                bad.append(oid)
        return bad

    def referrers(self, oids: set[str]) -> dict[str, list[str]]:
        """Which commits (by subject) reach each of *oids*.

        Walks every branch's history and each commit's tree; unreadable
        (e.g. quarantined) trees are skipped — the commit that names
        them directly is still reported.
        """
        found: dict[str, list[str]] = {oid: [] for oid in oids}
        if not oids:
            return found

        def tree_oids(tree_oid: str) -> set[str]:
            reached = {tree_oid}
            try:
                tree = self.store.get_tree(tree_oid)
            except (VcsError, ObjectNotFound):
                return reached
            for entry in tree.entries:
                if entry.is_dir:
                    reached |= tree_oids(entry.oid)
                else:
                    reached.add(entry.oid)
            return reached

        for branch in self.refs.branches():
            oid = self.refs.read_branch(branch)
            seen: set[str] = set()
            while oid and oid not in seen:
                seen.add(oid)
                try:
                    commit = self.store.get_commit(oid)
                except (VcsError, ObjectNotFound):
                    if oid in found:
                        found[oid].append(f"{branch} (unreadable commit)")
                    break
                subject = commit.message.splitlines()[0] if commit.message else ""
                reached = {oid} | tree_oids(commit.tree)
                label = f"{branch}@{oid[:12]} ({subject})"
                for target in oids & reached:
                    found[target].append(label)
                oid = commit.parents[0] if commit.parents else None
        return found
