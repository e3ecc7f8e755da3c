"""The per-run journal: append-only JSONL provenance of one run.

Every pipeline run (and every CI build) writes a journal — one JSON
object per line, flushed as events happen so a crashed run still leaves
a record up to the failure point.  The journal is the inspectable
provenance the HotOS panel and Keahey et al. identify as the gap between
"re-runnable" and "reproducible": what executed, in what order, how
long each piece took, what the environment fingerprint said, and what
the Aver verdicts were.

Event kinds and their fields are documented in ``docs/observability.md``;
the common envelope is::

    {"seq": <int>, "ts": <unix seconds>, "event": "<kind>", ...fields}

``seq`` is a per-journal monotonic counter (total order even when ``ts``
ties); ``ts`` is wall-clock time.  Everything else is kind-specific.

:func:`read_journal` parses a journal back into event dicts;
:mod:`repro.monitor.report` renders them into timing tables and a
critical-path summary.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import MonitorError
from repro.common.groupcommit import GroupCommitWriter, read_jsonl

__all__ = [
    "JOURNAL_FILE",
    "EVENT_KINDS",
    "RunJournal",
    "load_journal",
    "read_journal",
    "replay_events",
]

#: Default journal file name inside an experiment directory.
JOURNAL_FILE = "journal.jsonl"

#: Every event kind the toolchain emits (open set: readers must ignore
#: kinds they do not know).
EVENT_KINDS = (
    "run_start",
    "span_start",
    "span_end",
    "metric",
    "baseline",
    "aver_verdict",
    "attempt",
    "task_aborted",
    "cache",
    "degradation",
    "profile_attached",
    "profile_error",
    "fuzz_variant",
    "fuzz_minimized",
    # serve: the persistent job queue's state machine (see docs/serve.md)
    "job_submitted",
    "job_leased",
    "job_heartbeat",
    "job_done",
    "job_failed",
    "job_requeued",
    "job_dead",
    "job_shed",
    "run_end",
)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of *value* into JSON-serializable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    # numpy scalars and anything else numeric-like
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


#: Event kinds that commit the journal's group-commit window when they
#: land: the run/span boundaries after which a reader (or a durability
#: contract) expects everything earlier to be on disk.
FLUSH_KINDS = frozenset({"run_start", "span_end", "run_end"})


class RunJournal:
    """Appends events to one JSONL file through a group-commit writer.

    A journal is *per run*: constructing one truncates any journal a
    previous run left at the same path (pass ``fresh=False`` to append
    to it instead).  Use as a context
    manager or call :meth:`close` explicitly.

    Writes are lock-protected: two threads can share one journal (the
    serve daemon's HTTP and tick threads both append to its queue
    journal, and a ``--task-timeout`` watchdog thread journals the
    spans of the payload it runs), and each event must land as one
    intact line with a unique ``seq``.

    Durability is group-committed: every event is written and flushed
    as it happens (a killed run keeps its record up to the failure
    point), but durable journals fsync once per bounded window rather
    than per event, with an explicit commit at span/run boundaries
    (:data:`FLUSH_KINDS`) and on :meth:`close`.  Bulk replays (a
    process-parallel run's worker events) wrap themselves in
    :meth:`batched` to also batch the write syscalls.
    """

    def __init__(
        self,
        path: str | Path,
        fresh: bool = True,
        clock: Callable[[], float] = time.time,
        durable: bool = False,
        crash_label: str = "journal.append",
        start_seq: int = 0,
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        # ``start_seq`` lets a journal that survives process restarts
        # (``fresh=False``, e.g. the serve queue's) continue its
        # monotonic sequence instead of restarting at 1.
        self._seq = int(start_seq)
        self._lock = threading.Lock()
        self.durable = bool(durable)
        self._writer: GroupCommitWriter | None = self._open(fresh, crash_label)

    def _open(self, fresh: bool, crash_label: str) -> GroupCommitWriter:
        """The writer the journal's lines go through: its file's."""
        return GroupCommitWriter(
            self.path,
            durable=self.durable,
            fresh=fresh,
            crash_label=crash_label,
        )

    # -- writing -----------------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Append one event; returns the full record as written."""
        if not kind:
            raise MonitorError("journal event kind required")
        record: dict[str, Any] = {"event": kind}
        for key, value in fields.items():
            record[key] = _jsonable(value)
        with self._lock:
            if self._writer is None:
                raise MonitorError(f"journal {self.path} is closed")
            self._seq += 1
            record = {"seq": self._seq, "ts": self._clock(), **record}
            self._writer.append(json.dumps(record, sort_keys=False))
            # Inside a batched bulk replay the window bounds govern; a
            # boundary flush per replayed span would defeat the batch.
            if kind in FLUSH_KINDS and not self._writer.in_batch:
                self._writer.flush()
        return record

    def flush(self) -> None:
        """Commit the open group-commit window (fsync when durable)."""
        with self._lock:
            if self._writer is not None:
                self._writer.flush()

    def batched(self):
        """Context manager batching a bulk append loop's writes.

        Used by the process scheduler, which replays thousands of worker
        events through :meth:`event` at join.
        """
        with self._lock:
            if self._writer is None:
                raise MonitorError(f"journal {self.path} is closed")
            return self._writer.batched()

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self._seq


def load_journal(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Parse a JSONL journal; returns ``(events, torn-lines-skipped)``.

    A journal's only legitimate damage is a torn line a crash left at
    the tail (see :func:`~repro.common.groupcommit.read_jsonl`), which
    is skipped with a warning and counted.  Garbage anywhere else means
    the file was edited or corrupted and raises :class:`MonitorError`.
    """
    path = Path(path)
    if not path.is_file():
        raise MonitorError(f"no run journal at {path}")
    try:
        events, skipped = read_jsonl(path)
    except ValueError as exc:
        raise MonitorError(f"bad journal line at {exc}") from exc
    for event in events:
        if not isinstance(event, dict) or "event" not in event:
            raise MonitorError(f"{path}: journal line is not an event: {event!r:.80}")
    return events, skipped


def read_journal(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL journal back into its event records, in order."""
    return load_journal(path)[0]


def replay_events(
    journal: RunJournal,
    events: list[dict[str, Any]],
    span_id_map: dict[int, int] | None = None,
    default_parent_id: int | None = None,
    **extra_fields: Any,
) -> int:
    """Re-emit *events* (from another journal) into *journal*.

    The process scheduler's join: a worker process returns each task's
    events with the task's result, and the parent replays them into the
    run's real journal.  Replayed events get a fresh monotonic ``seq``
    from the target journal but keep their original ``ts`` (wall-clock
    time is meaningful across processes; ``seq`` is not).
    ``span_id_map`` remaps the worker's ``span_id``/``parent_id`` values
    into the target's id space; a ``parent_id`` with no mapping (the
    task's root span) is re-parented to ``default_parent_id``.
    ``extra_fields`` (e.g. ``worker=3``) are stamped onto every replayed
    event.  Returns the number of events written.
    """
    span_id_map = span_id_map or {}
    written = 0
    for event in events:
        fields = {k: v for k, v in event.items() if k not in ("seq", "event")}
        if "span_id" in fields and fields["span_id"] in span_id_map:
            fields["span_id"] = span_id_map[fields["span_id"]]
        if "parent_id" in fields:
            fields["parent_id"] = span_id_map.get(
                fields["parent_id"], default_parent_id
            )
        fields.update(extra_fields)
        # ``ts`` survives because explicit fields override the target
        # journal's clock stamp; ``seq`` is always freshly assigned.
        journal.event(event.get("event", "?"), **fields)
        written += 1
    return written
