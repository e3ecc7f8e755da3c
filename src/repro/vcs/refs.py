"""Reference management: branches, tags and HEAD.

Refs live under ``.pvcs/refs/heads/<branch>`` and ``.pvcs/refs/tags/<tag>``;
``HEAD`` is either symbolic (``ref: refs/heads/main``) or detached (a raw
object id), matching git's model closely enough that users' intuitions
carry over.

Ref updates are the repository's commit points — losing one un-does a
commit the user was told succeeded — so every write goes through
:func:`~repro.common.fsutil.atomic_write` with durability on (crash
points ``refs.update.tmp`` / ``refs.update.rename``), under the
repository-wide ``refs`` :class:`~repro.common.locking.ScopedLock` so
two processes committing into one repo serialize their updates.  The
listings skip dot-names: a crash mid-update leaves its temp beside the
ref until ``popper doctor`` sweeps it, and a temp is never a ref.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.common.errors import VcsError
from repro.common.fsutil import atomic_write, ensure_dir
from repro.common.locking import ScopedLock

__all__ = ["RefStore"]

_REF_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._/\-]*$")


def _check_name(name: str) -> str:
    # No component may start with ".": the listings skip dot-names.
    bad = ".." in name or "/." in name or name.endswith("/")
    if bad or not _REF_NAME.match(name):
        raise VcsError(f"illegal ref name: {name!r}")
    return name


class RefStore:
    """Branch/tag/HEAD bookkeeping rooted at the repository metadata dir."""

    def __init__(self, meta_dir: str | Path) -> None:
        self.meta = Path(meta_dir)
        self.lock = ScopedLock(self.meta, "refs")
        ensure_dir(self.meta / "refs" / "heads")
        ensure_dir(self.meta / "refs" / "tags")

    def _names(self, kind: str) -> list[str]:
        """Ref names under ``refs/<kind>/``, skipping dot-named temps."""
        root = self.meta / "refs" / kind
        return [
            str(path.relative_to(root))
            for path in sorted(root.rglob("*"))
            if path.is_file() and not path.name.startswith(".")
        ]

    def _write_ref(self, path: Path, content: str) -> None:
        """Publish one ref durably and atomically, under the refs lock."""
        with self.lock:
            atomic_write(path, content.encode("utf-8"), crash_label="refs.update")

    # -- HEAD -----------------------------------------------------------------
    @property
    def head_path(self) -> Path:
        return self.meta / "HEAD"

    def set_head_branch(self, branch: str) -> None:
        """Point HEAD symbolically at a branch."""
        _check_name(branch)
        self._write_ref(self.head_path, f"ref: refs/heads/{branch}\n")

    def set_head_detached(self, oid: str) -> None:
        """Detach HEAD onto a raw object id."""
        self._write_ref(self.head_path, oid + "\n")

    def head(self) -> tuple[str | None, str | None]:
        """Return ``(branch-name, commit-oid)``.

        The branch name is None when detached; the oid is None on an
        unborn branch (no commits yet).
        """
        if not self.head_path.exists():
            raise VcsError("repository has no HEAD")
        content = self.head_path.read_text(encoding="utf-8").strip()
        if content.startswith("ref: "):
            ref = content[len("ref: "):]
            if not ref.startswith("refs/heads/"):
                raise VcsError(f"HEAD points outside refs/heads: {ref!r}")
            branch = ref[len("refs/heads/"):]
            return branch, self.read_branch(branch)
        return None, content

    # -- branches --------------------------------------------------------------
    def _branch_path(self, name: str) -> Path:
        return self.meta / "refs" / "heads" / _check_name(name)

    def write_branch(self, name: str, oid: str) -> None:
        self._write_ref(self._branch_path(name), oid + "\n")

    def read_branch(self, name: str) -> str | None:
        path = self._branch_path(name)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8").strip()

    def delete_branch(self, name: str) -> None:
        path = self._branch_path(name)
        if not path.exists():
            raise VcsError(f"no such branch: {name!r}")
        head_branch, _ = self.head()
        if head_branch == name:
            raise VcsError(f"cannot delete the checked-out branch {name!r}")
        path.unlink()

    def branches(self) -> list[str]:
        return self._names("heads")

    # -- tags -------------------------------------------------------------------
    def _tag_path(self, name: str) -> Path:
        return self.meta / "refs" / "tags" / _check_name(name)

    def write_tag(self, name: str, oid: str) -> None:
        path = self._tag_path(name)
        with self.lock:
            if path.exists():
                raise VcsError(f"tag already exists: {name!r}")
            atomic_write(
                path, (oid + "\n").encode("utf-8"), crash_label="refs.update"
            )

    def read_tag(self, name: str) -> str | None:
        path = self._tag_path(name)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8").strip()

    def tags(self) -> list[str]:
        return self._names("tags")
