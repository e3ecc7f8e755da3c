"""Small filesystem helpers shared by the substrates that touch disk.

Half of the crash-consistency contract lives here: :func:`atomic_write`
is the one way a whole file reaches disk (temp file → fsync → rename →
parent-directory fsync, so a file is either absent or complete *and
durable* after a crash).  The other half, the one way JSONL ledgers
grow, is :class:`~repro.common.groupcommit.GroupCommitWriter`.  Both
name their :func:`~repro.common.crash.crashpoint` hazards from the
caller's label, so every write site is a crash point by construction
and the crash-injection harness can kill the process exactly where a
real power cut would bite.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Iterator

from repro.common.crash import SimulatedCrash, crashpoint

__all__ = [
    "ensure_dir",
    "write_text",
    "read_text",
    "atomic_write",
    "is_atomic_temp",
    "fsync_path",
    "walk_files",
    "rmtree_quiet",
]

#: Ends the name of every temp file :func:`atomic_write` creates, so
#: its debris is recognisable anywhere, the working tree included.
_TEMP_MARKER = ".popper-tmp"


def ensure_dir(path: str | os.PathLike) -> Path:
    """Create *path* (and parents) if needed; return it as a Path."""
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    return target


def write_text(path: str | os.PathLike, text: str) -> Path:
    """Write *text* to *path*, creating parent directories."""
    target = Path(path)
    ensure_dir(target.parent)
    target.write_text(text, encoding="utf-8")
    return target


def read_text(path: str | os.PathLike) -> str:
    """Read a UTF-8 text file."""
    return Path(path).read_text(encoding="utf-8")


def fsync_path(path: str | os.PathLike) -> None:
    """fsync a file or directory by path, quietly skipping refusals.

    Directory fsync is what makes a rename durable; some filesystems
    (and some container mounts) refuse it, in which case we have done
    all the platform allows.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem-dependent
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: str | os.PathLike,
    data: bytes,
    durable: bool = True,
    *,
    crash_label: str,
) -> None:
    """Write *data* so readers never observe a partial file.

    The temporary file gets a unique dot-name (``mkstemp``) in the
    target's directory, so concurrent writers to the same target cannot
    interleave partial writes — the last complete ``os.replace`` wins.
    The name carries a fixed marker (:func:`is_atomic_temp`), so
    ``popper doctor`` sweeps the temp a crash leaves behind and a commit
    never stages it.

    *crash_label* names the write site: the crash points
    ``<label>.tmp`` (temp written, rename not yet issued) and
    ``<label>.rename`` (renamed, parent directory not yet fsynced) fire
    under it.

    With ``durable`` (the default) the temp file is fsynced before the
    rename and the parent directory after it, so after a crash the
    target holds either the old or the new content *on disk*, never a
    cached-only rename that a power cut would undo.  Pass
    ``durable=False`` on hot paths writing disposable data (workspace
    checkouts, scratch materialization) where the ~0.5 ms per-write
    fsync cost buys nothing.
    """
    import tempfile

    target = Path(path)
    ensure_dir(target.parent)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=_TEMP_MARKER, dir=str(target.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        crashpoint(f"{crash_label}.tmp")
        os.replace(tmp_name, target)
        crashpoint(f"{crash_label}.rename")
        if durable:
            fsync_path(target.parent)
    except SimulatedCrash:
        # The "process" died mid-write: leave the debris (orphan temp,
        # un-fsynced rename) exactly as a real crash would for doctor.
        raise
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise


def is_atomic_temp(name: str) -> bool:
    """Whether file *name* is a temp :func:`atomic_write` made."""
    return name.startswith(".") and name.endswith(_TEMP_MARKER)


def walk_files(root: str | os.PathLike) -> Iterator[Path]:
    """Yield every regular file under *root*, sorted for determinism."""
    base = Path(root)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            yield Path(dirpath) / name


def rmtree_quiet(path: str | os.PathLike) -> None:
    """Remove a tree if it exists; missing targets are not an error."""
    shutil.rmtree(path, ignore_errors=True)
