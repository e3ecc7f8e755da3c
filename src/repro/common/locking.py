"""Inter-process locking for the on-disk substrates under ``.pvcs/``.

Everything the toolchain persists — the CAS pool, the artifact index,
refs, run-state checkpoints — is written atomically, which protects
readers from torn *files*; it does not serialize multi-step updates
("ingest these objects, then publish the record that references them")
across two ``popper run`` processes sharing one repository.  That is
this module's job.

:class:`RepoLock` is an advisory ``fcntl.flock`` on a well-known lock
file.  Acquiring writes PID/host/label/timestamp metadata into the file
— purely informational, so a blocked process (and ``popper doctor``)
can name the holder.  The kernel releases a ``flock`` the instant its
holder dies, so a crashed process can never wedge the repository; what
a crash *does* leave is stale metadata in the lock file, which
``popper doctor`` detects (dead PID on this host, lock acquirable) and
clears.  On platforms without ``fcntl`` the lock degrades to an
``O_EXCL`` lock file where stale-holder breaking (dead PID, or metadata
older than ``stale_s``) is load-bearing rather than cosmetic.

Locks are reentrant per instance (a holder may call code that takes
the same lock again) and thread-safe: one ``threading.RLock``
serializes threads of this process while the file lock serializes
processes.

:func:`ScopedLock` is the naming convention: scope ``"refs"`` under
``.pvcs`` becomes ``.pvcs/locks/refs.lock``.  The lock *layout* is part
of the repository format — see ``docs/robustness.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.common.errors import LockError, LockTimeout

try:  # pragma: no cover - always available on the platforms we test
    import fcntl

    _HAVE_FCNTL = True
except ImportError:  # pragma: no cover - windows fallback
    _HAVE_FCNTL = False

__all__ = ["LockInfo", "RepoLock", "ScopedLock"]


class LockInfo:
    """Holder metadata read back from a lock file."""

    __slots__ = ("pid", "host", "label", "created")

    def __init__(self, pid: int, host: str, label: str, created: float) -> None:
        self.pid = pid
        self.host = host
        self.label = label
        self.created = created

    @classmethod
    def from_json(cls, text: str) -> "LockInfo | None":
        try:
            doc = json.loads(text)
            return cls(
                pid=int(doc["pid"]),
                host=str(doc.get("host", "")),
                label=str(doc.get("label", "")),
                created=float(doc.get("created", 0.0)),
            )
        except (ValueError, TypeError, KeyError):
            return None

    def to_json(self) -> str:
        return json.dumps(
            {
                "pid": self.pid,
                "host": self.host,
                "label": self.label,
                "created": self.created,
            },
            sort_keys=True,
        )

    def describe(self) -> str:
        return f"pid {self.pid} on {self.host or '?'} ({self.label or 'unlabeled'})"

    def alive(self) -> bool:
        """Best-effort "does the recorded holder still exist".

        Only meaningful for this host; a foreign hostname is assumed
        alive (we cannot probe it, and breaking a live remote holder is
        the worse failure).
        """
        if self.host and self.host != os.uname().nodename:
            return True
        if self.pid <= 0:
            return False
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - exists, not ours
            return True
        return True


class RepoLock:
    """An advisory inter-process lock on one file, reentrant per instance."""

    def __init__(
        self,
        path: str | os.PathLike,
        label: str = "",
        timeout_s: float = 30.0,
        poll_s: float = 0.02,
        stale_s: float = 3600.0,
    ) -> None:
        self.path = Path(path)
        self.label = label or self.path.stem
        self.timeout_s = float(timeout_s)
        self.poll_s = float(poll_s)
        #: Fallback (no-fcntl) mode only: metadata older than this with a
        #: dead or unknown holder is broken.  With flock the kernel does
        #: the breaking and this is never consulted.
        self.stale_s = float(stale_s)
        self._rlock = threading.RLock()
        self._depth = 0
        self._fd: int | None = None

    # -- metadata ---------------------------------------------------------------
    def holder(self) -> LockInfo | None:
        """Metadata of the recorded holder, if the lock file carries any."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return None
        if not text.strip():
            return None
        return LockInfo.from_json(text)

    def _write_holder(self, fd: int) -> None:
        info = LockInfo(
            pid=os.getpid(),
            host=os.uname().nodename,
            label=self.label,
            created=time.time(),
        )
        os.ftruncate(fd, 0)
        os.lseek(fd, 0, os.SEEK_SET)
        os.write(fd, (info.to_json() + "\n").encode("utf-8"))

    # -- acquire / release --------------------------------------------------------
    def acquire(self, timeout_s: float | None = None) -> "RepoLock":
        """Take the lock, waiting up to *timeout_s* (default: instance's).

        Raises :class:`~repro.common.errors.LockTimeout` (transient — a
        retry may well succeed) when the deadline passes, naming the
        recorded holder.
        """
        deadline_s = self.timeout_s if timeout_s is None else float(timeout_s)
        self._rlock.acquire()
        if self._depth:
            self._depth += 1
            return self
        try:
            self._fd = (
                self._acquire_flock(deadline_s)
                if _HAVE_FCNTL
                else self._acquire_exclusive(deadline_s)
            )
            self._write_holder(self._fd)
            self._depth = 1
        except BaseException:
            self._rlock.release()
            raise
        return self

    def release(self) -> None:
        # Only the thread that acquired can release: it already holds
        # self._rlock (acquire() keeps one hold per nesting level).
        if not self._depth:
            raise LockError(f"lock {self.path} is not held")
        try:
            self._depth -= 1
            if self._depth == 0:
                fd, self._fd = self._fd, None
                if fd is not None:
                    # Clear the metadata before letting go: an empty lock
                    # file is the "released cleanly" marker doctor trusts.
                    os.ftruncate(fd, 0)
                    if _HAVE_FCNTL:
                        fcntl.flock(fd, fcntl.LOCK_UN)
                    os.close(fd)
                if not _HAVE_FCNTL:  # pragma: no cover - windows fallback
                    self.path.unlink(missing_ok=True)
        finally:
            self._rlock.release()

    def __enter__(self) -> "RepoLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    @property
    def held(self) -> bool:
        return self._depth > 0

    # -- backends -----------------------------------------------------------------
    def _open(self) -> int:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)

    def _acquire_flock(self, deadline_s: float) -> int:
        fd = self._open()
        deadline = time.monotonic() + deadline_s
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    return fd
                except OSError:
                    if time.monotonic() >= deadline:
                        holder = self.holder()
                        raise LockTimeout(
                            f"lock {self.path} not acquired within "
                            f"{deadline_s:g}s"
                            + (f"; held by {holder.describe()}" if holder else "")
                        ) from None
                    time.sleep(self.poll_s)
        except BaseException:
            os.close(fd)
            raise

    def _acquire_exclusive(self, deadline_s: float) -> int:  # pragma: no cover
        """O_EXCL fallback for platforms without ``fcntl``.

        The lock *file's existence* is the lock, so a crashed holder
        leaves it behind; breaking (dead PID on this host, or metadata
        past ``stale_s``) is what keeps the repository usable.
        """
        deadline = time.monotonic() + deadline_s
        while True:
            try:
                return os.open(
                    self.path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                holder = self.holder()
                stale = holder is None or not holder.alive() or (
                    holder.created
                    and time.time() - holder.created > self.stale_s
                )
                if stale:
                    self.path.unlink(missing_ok=True)
                    continue
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        f"lock {self.path} not acquired within {deadline_s:g}s"
                        + (f"; held by {holder.describe()}" if holder else "")
                    ) from None
                time.sleep(self.poll_s)


def ScopedLock(
    meta_dir: str | os.PathLike, scope: str, **kwargs
) -> RepoLock:
    """The lock for one named scope of a metadata directory.

    ``ScopedLock(repo / ".pvcs", "refs")`` → ``.pvcs/locks/refs.lock``.
    Every substrate takes its locks through this helper so the lock
    layout stays one documented directory.
    """
    if not scope or "/" in scope or scope.startswith("."):
        raise LockError(f"bad lock scope: {scope!r}")
    kwargs.setdefault("label", scope)
    return RepoLock(Path(meta_dir) / "locks" / f"{scope}.lock", **kwargs)
