"""The persistent lease-based job queue under ``.pvcs/queue/``.

``popper serve`` must not lose an accepted job — not to a daemon crash,
not to a worker crash, not to a kill signal.  The queue therefore keeps
*no* authoritative state in memory: every transition is an append to a
durable JSONL journal (``.pvcs/queue/journal.jsonl``, written through a
:class:`~repro.common.groupcommit.GroupCommitWriter`), and constructing
a :class:`JobQueue` replays that journal to rebuild the state machine::

    submitted ──> queued ──> leased ──> done
                    ^           │
                    │ requeue   │ failure / lease expiry / crash
                    └───────────┤   (capped-exponential backoff,
                                │    bounded attempt budget)
                                └──> dead   (budget exhausted)

The journal is the queue's only state on disk: a lease, a heartbeat, a
result and a dead letter are each one journal record, and nothing else
under ``.pvcs/queue/`` is written or read.  The one ordering that
matters lives in the daemon, which files a job's outputs into the
artifact cache *before* :meth:`JobQueue.complete` journals ``job_done``
— a job whose ``job_done`` record a crash lost then re-runs as a cache
hit, idempotently and byte-identically.  The journal's own append is
covered by the ``queue.append.window`` / ``queue.append.torn`` crash
points.

Admission control: ``submit`` raises
:class:`~repro.common.errors.QueueFullError` once ``queued + leased``
reaches ``max_depth`` (the daemon maps it to HTTP 429 and journals a
``job_shed`` event), *except* for cache-served submissions
(``cached_meta``), which complete instantly without occupying a worker
or a queue slot — saturation degrades to cache-only service instead of
an outage.  ``claim`` is tenant-fair: among ready jobs it prefers the
tenant currently holding the fewest leases (FIFO within a tenant), and
never leases two jobs for the same experiment at once (their outputs
share a directory).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.common.errors import (
    QueueFullError,
    ServeError,
    UnknownJobError,
)
from repro.common.fsutil import ensure_dir
from repro.engine.resilience import RetryPolicy
from repro.monitor.journal import RunJournal, load_journal

__all__ = ["QueuedJob", "JobQueue", "REQUEUE_POLICY", "QUEUE_DIR"]

#: Queue state directory name under ``.pvcs/``.
QUEUE_DIR = "queue"

#: The default requeue-backoff budget: four leases per job, exponential
#: backoff with deterministic jitter, and — because lease expiry can
#: requeue the same job indefinitely under repeated daemon crashes — a
#: one-second ``max_backoff_s`` ceiling on every sleep, jitter included.
REQUEUE_POLICY = RetryPolicy(
    max_attempts=4,
    backoff_s=0.05,
    max_backoff_s=1.0,
    jitter=0.1,
)

#: Job states (journal events are transitions between them).
_STATES = ("queued", "leased", "done", "dead")


@dataclass
class QueuedJob:
    """One submitted run request and where it is in the state machine."""

    id: str
    experiment: str
    tenant: str = "default"
    state: str = "queued"
    #: Lease count so far (a job's first lease is attempt 1).
    attempts: int = 0
    submitted: float = 0.0
    #: Earliest claim time after a requeue (backoff).
    not_before: float = 0.0
    #: Lease expiry (``None`` unless leased).
    deadline: float | None = None
    cached: bool = False
    seconds: float = 0.0
    error: str = ""
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "experiment": self.experiment,
            "tenant": self.tenant,
            "state": self.state,
            "attempts": self.attempts,
            "submitted": self.submitted,
            "cached": self.cached,
            "seconds": self.seconds,
            "error": self.error,
            "meta": dict(self.meta),
        }


class JobQueue:
    """Durable job queue: journal-backed state, leases, backoff.

    Thread-safe: the HTTP handler threads submit and query while the
    daemon's scheduler thread claims, heartbeats and completes.
    """

    def __init__(
        self,
        root: str | Path,
        max_depth: int = 16,
        lease_s: float = 15.0,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] = time.time,
        durable: bool = True,
    ) -> None:
        if max_depth < 1:
            raise ServeError(f"max_depth must be >= 1, got {max_depth}")
        if lease_s <= 0:
            raise ServeError(f"lease_s must be positive, got {lease_s}")
        self.root = ensure_dir(root)
        self.max_depth = int(max_depth)
        self.lease_s = float(lease_s)
        self.retry = retry or REQUEUE_POLICY
        self._clock = clock
        self._lock = threading.RLock()
        self.jobs: dict[str, QueuedJob] = {}
        self.shed_count = 0
        self._serial = 0
        last_seq = self._recover_state()
        self._journal = RunJournal(
            self.root / "journal.jsonl",
            fresh=False,
            clock=clock,
            durable=durable,
            crash_label="queue.append",
            start_seq=last_seq,
        )
        # Jobs the previous daemon held leases on are re-admitted under
        # the normal requeue budget (journalled, so the recovery itself
        # is crash-safe).
        with self._lock:
            for job in sorted(self.jobs.values(), key=lambda j: j.id):
                if job.state == "leased":
                    self._requeue_locked(job, reason="recovered")

    # -- recovery ----------------------------------------------------------------
    def _recover_state(self) -> int:
        """Replay the journal into ``self.jobs``; returns the last seq."""
        path = self.root / "journal.jsonl"
        if not path.is_file():
            return 0
        events, _torn = load_journal(path)
        last_seq = 0
        for event in events:
            last_seq = max(last_seq, int(event.get("seq", 0)))
            self._apply(event)
        return last_seq

    def _apply(self, event: dict) -> None:
        """One journal record -> one state-machine transition.

        Unknown kinds are ignored (the journal format is an open set;
        an older daemon must be able to replay a newer one's journal).
        """
        kind = event.get("event")
        job_id = str(event.get("job", ""))
        if kind == "job_submitted":
            job = QueuedJob(
                id=job_id,
                experiment=str(event.get("experiment", "")),
                tenant=str(event.get("tenant", "default")),
                submitted=float(event.get("ts", 0.0)),
            )
            self.jobs[job.id] = job
            self._serial = max(self._serial, _serial_of(job.id) + 1)
            return
        job = self.jobs.get(job_id)
        if kind == "job_shed":
            self.shed_count += 1
            return
        if job is None:
            return
        if kind == "job_leased":
            job.state = "leased"
            job.attempts = int(event.get("attempt", job.attempts + 1))
            job.deadline = float(event.get("deadline", 0.0))
        elif kind == "job_heartbeat":
            job.deadline = float(event.get("deadline", job.deadline or 0.0))
        elif kind == "job_done":
            job.state = "done"
            job.deadline = None
            job.cached = bool(event.get("cached", False))
            job.seconds = float(event.get("seconds", 0.0))
            job.meta = {
                k: v
                for k, v in event.items()
                if k not in ("seq", "ts", "event", "job", "cached", "seconds")
            }
        elif kind == "job_failed":
            job.error = str(event.get("error", ""))
        elif kind == "job_requeued":
            job.state = "queued"
            job.deadline = None
            job.not_before = float(event.get("not_before", 0.0))
        elif kind == "job_dead":
            job.state = "dead"
            job.deadline = None
            job.error = str(event.get("error", job.error))

    # -- admission ---------------------------------------------------------------
    def depth(self) -> int:
        """Jobs occupying the queue: queued + leased."""
        with self._lock:
            return sum(
                1 for j in self.jobs.values() if j.state in ("queued", "leased")
            )

    def submit(
        self,
        experiment: str,
        tenant: str = "default",
        cached_meta: dict | None = None,
    ) -> QueuedJob:
        """Admit one job (or shed it when the queue is at its bound).

        With ``cached_meta`` the submission is cache-served: the job is
        journalled straight to ``done`` without
        consuming a queue slot — the saturation-degradation path.
        """
        with self._lock:
            if cached_meta is None and self.depth() >= self.max_depth:
                self.shed_count += 1
                self._journal.event(
                    "job_shed",
                    tenant=tenant,
                    experiment=experiment,
                    depth=self.depth(),
                )
                raise QueueFullError(
                    f"queue at its {self.max_depth}-job bound; "
                    "retry after a drain"
                )
            job = QueuedJob(
                id=f"job-{self._serial:06d}",
                experiment=experiment,
                tenant=tenant,
                submitted=self._clock(),
            )
            self._serial += 1
            self.jobs[job.id] = job
            self._journal.event(
                "job_submitted",
                job=job.id,
                experiment=experiment,
                tenant=tenant,
            )
            if cached_meta is not None:
                self._publish_locked(job, dict(cached_meta), 0.0, cached=True)
            return job

    # -- leasing -----------------------------------------------------------------
    def claim(self) -> QueuedJob | None:
        """Lease the next ready job (tenant-fair), or ``None``.

        Ready means queued, past its backoff, and no sibling job for
        the same experiment currently leased (their outputs share the
        experiment directory).  Fairness: fewest-held-leases tenant
        first, then FIFO.
        """
        with self._lock:
            now = self._clock()
            leased = [j for j in self.jobs.values() if j.state == "leased"]
            busy_experiments = {j.experiment for j in leased}
            held: dict[str, int] = {}
            for j in leased:
                held[j.tenant] = held.get(j.tenant, 0) + 1
            ready = [
                j
                for j in self.jobs.values()
                if j.state == "queued"
                and j.not_before <= now
                and j.experiment not in busy_experiments
            ]
            if not ready:
                return None
            job = min(
                ready, key=lambda j: (held.get(j.tenant, 0), j.submitted, j.id)
            )
            job.state = "leased"
            job.attempts += 1
            job.deadline = now + self.lease_s
            self._journal.event(
                "job_leased",
                job=job.id,
                attempt=job.attempts,
                deadline=job.deadline,
            )
            return job

    def heartbeat(self, job_id: str) -> None:
        """Extend a leased job's deadline (the holder is still alive)."""
        with self._lock:
            job = self._require(job_id)
            if job.state != "leased":
                return
            job.deadline = self._clock() + self.lease_s
            self._journal.event(
                "job_heartbeat", job=job.id, deadline=job.deadline
            )

    def expire_leases(self) -> list[QueuedJob]:
        """Requeue every leased job whose deadline passed; returns them."""
        with self._lock:
            now = self._clock()
            expired = [
                j
                for j in self.jobs.values()
                if j.state == "leased"
                and j.deadline is not None
                and j.deadline < now
            ]
            for job in sorted(expired, key=lambda j: j.id):
                self._requeue_locked(job, reason="lease-expired")
            return expired

    # -- completion --------------------------------------------------------------
    def complete(
        self,
        job_id: str,
        meta: dict | None = None,
        seconds: float = 0.0,
        cached: bool = False,
    ) -> QueuedJob:
        """Publish a leased job's result (idempotent on re-delivery)."""
        with self._lock:
            job = self._require(job_id)
            if job.state == "done":
                return job  # duplicate report after a re-lease race
            if job.state != "leased":
                raise ServeError(
                    f"cannot complete job {job_id} in state {job.state!r}"
                )
            self._publish_locked(job, dict(meta or {}), seconds, cached=cached)
            return job

    def _publish_locked(
        self, job: QueuedJob, meta: dict, seconds: float, cached: bool
    ) -> None:
        self._journal.event(
            "job_done", job=job.id, cached=cached, seconds=seconds, **meta
        )
        job.state = "done"
        job.deadline = None
        job.cached = cached
        job.seconds = seconds
        job.meta = meta

    def fail(self, job_id: str, error: str) -> QueuedJob:
        """Report a leased job's attempt failed; requeue or dead-letter."""
        with self._lock:
            job = self._require(job_id)
            if job.state != "leased":
                return job  # late report after expiry already requeued it
            job.error = str(error)
            self._journal.event(
                "job_failed", job=job.id, attempt=job.attempts, error=job.error
            )
            self._requeue_locked(job, reason="failed")
            return job

    def _requeue_locked(self, job: QueuedJob, reason: str) -> None:
        if job.attempts >= self.retry.max_attempts:
            job.state = "dead"
            job.deadline = None
            job.error = job.error or reason
            self._journal.event(
                "job_dead", job=job.id, attempts=job.attempts, error=job.error
            )
            return
        delay = self.retry.delay_s(job.id, max(job.attempts, 1))
        job.state = "queued"
        job.deadline = None
        job.not_before = self._clock() + delay
        self._journal.event(
            "job_requeued",
            job=job.id,
            attempt=job.attempts,
            not_before=job.not_before,
            delay_s=delay,
            reason=reason,
        )

    # -- queries -----------------------------------------------------------------
    def _require(self, job_id: str) -> QueuedJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id}")
        return job

    def get(self, job_id: str) -> QueuedJob:
        with self._lock:
            return self._require(job_id)

    def leased(self) -> list[QueuedJob]:
        with self._lock:
            return sorted(
                (j for j in self.jobs.values() if j.state == "leased"),
                key=lambda j: j.id,
            )

    def stats(self) -> dict:
        with self._lock:
            by_state = {state: 0 for state in _STATES}
            tenants: set[str] = set()
            cached = 0
            for job in self.jobs.values():
                by_state[job.state] += 1
                tenants.add(job.tenant)
                cached += int(job.cached)
            return {
                "depth": by_state["queued"] + by_state["leased"],
                "max_depth": self.max_depth,
                "states": by_state,
                "cache_served": cached,
                "shed": self.shed_count,
                "tenants": len(tenants),
            }

    # -- lifecycle ---------------------------------------------------------------
    def checkpoint(self) -> None:
        """Commit the journal's open group-commit window to disk."""
        self._journal.flush()

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serial_of(job_id: str) -> int:
    try:
        return int(job_id.rsplit("-", 1)[-1])
    except ValueError:
        return 0
