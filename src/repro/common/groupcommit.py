"""The one JSONL append path, :class:`GroupCommitWriter`, and its one
reader, :func:`read_jsonl`.

A per-line ``fsync`` prices a durable append at ~80x a buffered one
(``BENCH_durability.json``).  A :class:`GroupCommitWriter` keeps the
*write* per-append (every line still lands in the file, and in the OS
page cache, as it happens — a killed process loses nothing it wrote)
but pays the durability barrier once per bounded *window* of appends:
size-, byte- and time-triggered, with an explicit :meth:`flush` at
span/run boundaries.

Durability contract (documented in ``docs/robustness.md``):

* a **process** crash (kill -9, injected crash) loses nothing — every
  append was written and flushed to the kernel before :meth:`append`
  returned;
* a **machine** crash (power cut) loses at most the current unsynced
  window — a contiguous suffix of whole lines plus, at worst, one torn
  trailing line.  Never a torn prefix: appends are sequential, so the
  tear is always at the tail.

Readers and ``popper doctor`` follow one rule, :func:`decode_jsonl`:
a line that does not decode is crash debris only when it ends the
file or is followed by a blank line.  The blank line is the *seal* a
writer adds when it opens a file whose last byte is not a newline, so
a reopen after a crash, with or without ``popper doctor``, never glues
its first record onto the fragment.

Bulk writers (a process-parallel run's worker-event replay, fuzz
coverage harvests) can opt into :meth:`batched` mode, which
additionally buffers the *writes* into one syscall per window — the
loop-append fix for callers that used to pay a write+flush (or a whole
file open) per event.

Crash injection: with a :class:`~repro.common.crash.CrashPlan`
installed the writer degrades to one window per append, so the
``<label>.torn`` crashpoint fires with exactly half the line flushed,
and the ``<label>.window`` crashpoint fires *before* the window's
bytes reach the file — the "crash inside a group-commit window"
hazard, which loses the window cleanly.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from threading import Lock
from typing import IO, Any, AnyStr, Callable, Iterator, Sequence

from repro.common.crash import active_crash_plan, crashpoint
from repro.common.fsutil import ensure_dir

__all__ = ["GroupCommitWriter", "decode_jsonl", "read_jsonl"]

#: Default window bounds: whichever trips first commits the window.
DEFAULT_MAX_EVENTS = 256
DEFAULT_MAX_BYTES = 64 * 1024
DEFAULT_MAX_DELAY_S = 0.05


class GroupCommitWriter:
    """Append-only line writer with one durability barrier per window.

    Thread-safe: concurrent appenders (the serve daemon's HTTP and tick
    threads on its queue journal, a ``--task-timeout`` watchdog thread
    beside the thread it outlived) serialize on an internal lock, and
    every line lands as one contiguous write.  ``durable=False``
    writers never fsync — for them the window only batches write
    syscalls in :meth:`batched` mode, and plain appends cost one write
    and flush per line.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        durable: bool = False,
        fresh: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_delay_s: float = DEFAULT_MAX_DELAY_S,
        crash_label: str = "journal.append",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.durable = bool(durable)
        self.max_events = max(1, int(max_events))
        self.max_bytes = max(1, int(max_bytes))
        self.max_delay_s = float(max_delay_s)
        self.crash_label = crash_label
        self._clock = clock
        self._lock = Lock()
        ensure_dir(self.path.parent)
        if fresh:
            # Truncate separately, then append: append-mode writes can
            # only ever grow the file, never clobber another writer.
            self.path.write_text("", encoding="utf-8")
        self._fh: IO[str] | None = self.path.open("a", encoding="utf-8")
        if not fresh:
            self._seal_torn_tail()
        # Buffered lines (batched mode only) and their byte count.
        self._buffer: list[str] = []
        self._buffered_bytes = 0
        # Written-but-unsynced appends (durable write-through mode).
        self._unsynced = 0
        self._window_opened: float | None = None
        self._batch_depth = 0
        #: Counters for benchmarks and tests: ``syncs`` << ``appends``
        #: is the amortization the group commit exists to provide.
        self.appends = 0
        self.commits = 0
        self.syncs = 0

    def _seal_torn_tail(self) -> None:
        """Follow a crash's trailing fragment with ``"\n\n"``.

        No lock and no truncation: racing another process's append, the
        worst case is two extra blank lines, which every reader skips.
        A run with no crash never writes a seal.
        """
        size = os.fstat(self._fh.fileno()).st_size
        if not size:
            return
        with self.path.open("rb") as handle:
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
        self._fh.write("\n\n")
        self._fh.flush()

    # -- window bookkeeping -----------------------------------------------------
    def _window_full(self, events: int, nbytes: int) -> bool:
        if events >= self.max_events or nbytes >= self.max_bytes:
            return True
        return (
            self._window_opened is not None
            and self._clock() - self._window_opened >= self.max_delay_s
        )

    def pending(self) -> int:
        """Appends not yet committed (buffered or written-but-unsynced)."""
        with self._lock:
            return len(self._buffer) + self._unsynced

    # -- writing ------------------------------------------------------------------
    def append(self, line: str) -> None:
        """Queue one line; commits the window when a bound trips.

        The line is written (and flushed to the kernel) before this
        returns unless a :meth:`batched` section is active; the fsync —
        for durable writers — is deferred to the window commit.
        """
        if "\n" in line:
            raise ValueError("GroupCommitWriter.append takes a single line")
        with self._lock:
            if self._fh is None:
                raise ValueError(f"group-commit writer {self.path} is closed")
            self.appends += 1
            if active_crash_plan() is not None:
                # Crash determinism: one window per append, so an
                # injected crash always lands at the same line.  The
                # window crashpoint fires with nothing on disk (the
                # event is lost whole); the torn crashpoint fires with
                # exactly half the line flushed.
                self._drain_locked()
                crashpoint(f"{self.crash_label}.window")
                half = max(1, len(line) // 2)
                self._fh.write(line[:half])
                self._fh.flush()
                crashpoint(f"{self.crash_label}.torn")
                self._fh.write(line[half:] + "\n")
                self._fh.flush()
                self.commits += 1
                self._sync_locked()
                self._window_opened = None
                return
            if self._batch_depth > 0:
                self._buffer.append(line + "\n")
                self._buffered_bytes += len(line) + 1
                if self._window_opened is None:
                    self._window_opened = self._clock()
                if self._window_full(len(self._buffer), self._buffered_bytes):
                    self._commit_locked()
                return
            # Write-through: the line survives a process kill the moment
            # this returns; only the machine-crash barrier is deferred.
            self._fh.write(line + "\n")
            self._fh.flush()
            if not self.durable:
                return
            self._unsynced += 1
            if self._window_opened is None:
                self._window_opened = self._clock()
            if self._window_full(self._unsynced, 0):
                self._commit_locked()

    def _drain_locked(self) -> None:
        """Write any batched lines out (one write), without syncing."""
        if not self._buffer:
            return
        payload = "".join(self._buffer)
        self._buffer.clear()
        self._buffered_bytes = 0
        crashpoint(f"{self.crash_label}.window")
        self._fh.write(payload)
        self._fh.flush()

    def _sync_locked(self) -> None:
        if self.durable and self._fh is not None:
            os.fsync(self._fh.fileno())
            self.syncs += 1
        self._unsynced = 0

    def _commit_locked(self) -> None:
        had_work = bool(self._buffer) or self._unsynced > 0
        self._drain_locked()
        if had_work:
            self.commits += 1
            self._sync_locked()
        self._window_opened = None

    def flush(self) -> None:
        """Commit the open window: drain batched lines, fsync if durable.

        Span/run boundaries call this explicitly, so the at-most-one-
        window loss bound never spans a boundary the caller cares about.
        """
        with self._lock:
            if self._fh is not None:
                self._commit_locked()

    @contextmanager
    def batched(self) -> Iterator["GroupCommitWriter"]:
        """Buffer writes (one syscall per window) for a bulk append loop.

        Nests; the outermost exit commits whatever remains.  With a
        crash plan installed appends keep their deterministic one-
        window-per-line behavior even inside a batch.
        """
        with self._lock:
            self._batch_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._fh is not None:
                    self._commit_locked()

    def close(self) -> None:
        with self._lock:
            if self._fh is None:
                return
            self._commit_locked()
            self._fh.close()
            self._fh = None

    @property
    def in_batch(self) -> bool:
        """True while a :meth:`batched` section is active."""
        return self._batch_depth > 0

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __enter__(self) -> "GroupCommitWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def decode_jsonl(
    lines: Sequence[AnyStr], source: object = ""
) -> tuple[list[Any], list[int]]:
    """Decode JSONL *lines* under the one debris rule.

    Returns ``(records, debris)``.  Blank lines are skipped.  A line
    that does not decode is crash debris when it ends the file or
    precedes a blank line, and its index goes into ``debris``; any
    other raises :class:`ValueError` naming *source* and the line.
    Takes ``str`` or ``bytes`` lines, so ``popper doctor`` can apply
    the readers' rule to bytes that may not even be valid UTF-8.
    """
    records: list[Any] = []
    debris: list[int] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            following = lines[index + 1] if index + 1 < len(lines) else ""
            if following.strip():
                raise ValueError(f"{source}:{index + 1}: {exc}") from exc
            debris.append(index)
    return records, debris


def read_jsonl(path: str | os.PathLike) -> tuple[list[Any], int]:
    """Decode a JSONL ledger; returns ``(records, torn-lines-skipped)``.

    A missing file reads as empty.  Debris lines (see
    :func:`decode_jsonl`) are skipped with a warning and counted; any
    other undecodable line raises :class:`ValueError`, which the
    ledger's owner re-raises as its own error.  Records come back as
    decoded: their shape is the owner's business.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return [], 0
    records, debris = decode_jsonl(text.split("\n"), source=path)
    for index in debris:
        warnings.warn(
            f"{path}: skipping torn trailing line {index + 1} (crashed append)",
            stacklevel=3,
        )
    return records, len(debris)
