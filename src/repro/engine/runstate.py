"""Run state: the checkpoint file that makes sweeps resumable.

An aborted sweep should not restart from scratch — the HotOS XIX
reproducibility panel calls partial re-runs one of the two dominant
practical obstacles to artifact re-evaluation.  A :class:`RunStateStore`
persists one JSONL record per finished task, keyed by a *task
fingerprint* (payload identity + parameters hash, see
:func:`task_fingerprint`), to a ``run-state.jsonl`` next to the run's
``journal.jsonl``.  Records are appended and flushed as tasks finish, so
a killed run keeps everything it completed.

On ``popper run --resume`` / ``popper ci --resume`` the store is
reloaded and the scheduler short-circuits any task whose fingerprint has
a successful record: the task is *restored* (its value rebuilt by the
task's ``restore`` callback, e.g. re-reading ``results.csv`` from disk)
instead of re-executed.  Failed and skipped tasks have no successful
record and re-run.  A fingerprint covers the task's parameters, so
editing ``vars.yml`` invalidates the checkpoint automatically.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

from repro.common.errors import EngineError
from repro.common.groupcommit import GroupCommitWriter, read_jsonl
from repro.common.hashing import sha256_text
from repro.common.locking import RepoLock

__all__ = ["RUN_STATE_FILE", "task_fingerprint", "RunStateStore"]

#: Default run-state file name (lands next to ``journal.jsonl``).
RUN_STATE_FILE = "run-state.jsonl"


def task_fingerprint(task_id: str, params: Any = None) -> str:
    """A stable identity for "this task with these parameters".

    Hashes the task id plus a canonical JSON rendering of *params*
    (sorted keys; non-JSON values fall back to ``str``).  Two runs
    agree on a fingerprint exactly when they would execute the same
    payload with the same inputs — the condition under which a stored
    outcome may stand in for a re-execution.
    """
    if not task_id:
        raise EngineError("task_fingerprint: task id required")
    payload = json.dumps(
        {"task": task_id, "params": params}, sort_keys=True, default=str
    )
    return sha256_text(payload)[:16]


class RunStateStore:
    """Append-only JSONL checkpoint of per-task outcomes.

    Constructing with ``resume=False`` (a fresh run) truncates any state
    a previous run left; ``resume=True`` loads the existing records
    (last record per fingerprint wins) and appends.  Writes are
    lock-protected (both against sibling threads and, via a
    :class:`~repro.common.locking.RepoLock`, against other processes
    sharing the file) and land as single flushed lines through a
    :class:`~repro.common.groupcommit.GroupCommitWriter`: every record
    survives a process kill the moment :meth:`record` returns, while
    the durable (machine-crash) fsync barrier is group-committed — one
    fsync per bounded window instead of one per record, committed
    explicitly on :meth:`flush`/:meth:`close`.  A power cut can lose at
    most the last unsynced window of records (those tasks simply
    re-run on resume) and can tear at most the trailing record.

    A torn trailing line is exactly what a killed run leaves behind, so
    the loader skips it with a warning and counts it in :attr:`skipped`;
    any other bad line means the file was edited or corrupted and still
    raises :class:`~repro.common.errors.EngineError`.
    """

    def __init__(
        self, path: str | Path, resume: bool = False, durable: bool = True
    ) -> None:
        self.path = Path(path)
        self.resume = bool(resume)
        self.durable = bool(durable)
        self._lock = threading.Lock()
        self._records: dict[str, dict[str, Any]] = {}
        #: Torn lines skipped during load (one per crash left unrepaired).
        self.skipped = 0
        if self.resume:
            try:
                records, self.skipped = read_jsonl(self.path)
            except ValueError as exc:
                raise EngineError(f"bad run-state line at {exc}") from exc
            for record in records:
                if isinstance(record, dict) and record.get("fingerprint"):
                    self._records[str(record["fingerprint"])] = record
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._iplock = RepoLock(
            self.path.with_name(self.path.name + ".lock"), label="run-state"
        )
        # fresh=True truncates separately, then appends: an append-mode
        # handle can never overwrite a concurrent writer's records.
        self._writer: GroupCommitWriter | None = GroupCommitWriter(
            self.path,
            durable=self.durable,
            fresh=not self.resume,
            crash_label="runstate.append",
        )

    # -- reading -----------------------------------------------------------------
    def lookup(self, fingerprint: str) -> dict[str, Any] | None:
        """The restorable record for *fingerprint*, if any.

        Only successful, cacheable outcomes are restorable; failed or
        explicitly non-cacheable records return ``None`` so the task
        re-runs.
        """
        record = self._records.get(fingerprint)
        if record is None:
            return None
        if record.get("state") != "ok" or not record.get("cacheable", True):
            return None
        return record

    def states(self) -> dict[str, str]:
        """fingerprint -> recorded state, for reporting."""
        return {fp: str(r.get("state", "?")) for fp, r in self._records.items()}

    def __len__(self) -> int:
        return len(self._records)

    # -- writing -----------------------------------------------------------------
    def record(
        self,
        task_id: str,
        fingerprint: str,
        state: str,
        seconds: float = 0.0,
        attempts: int = 1,
        detail: dict[str, Any] | None = None,
        error: str = "",
        cacheable: bool = True,
    ) -> dict[str, Any]:
        """Append one task outcome; returns the record as written."""
        record: dict[str, Any] = {
            "task": task_id,
            "fingerprint": fingerprint,
            "state": state,
            "seconds": round(float(seconds), 6),
            "attempts": int(attempts),
            "cacheable": bool(cacheable),
        }
        if detail is not None:
            record["detail"] = detail
        if error:
            record["error"] = error
        with self._lock:
            if self._writer is None:
                raise EngineError(f"run-state store {self.path} is closed")
            with self._iplock:
                self._writer.append(json.dumps(record, sort_keys=False))
            self._records[fingerprint] = record
        return record

    def flush(self) -> None:
        """Commit the open group-commit window (fsync when durable)."""
        with self._lock:
            if self._writer is not None:
                self._writer.flush()

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def __enter__(self) -> "RunStateStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
