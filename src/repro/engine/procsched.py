"""The process-parallel scheduler: true multi-core graph execution.

The experiment payloads are pure-Python and GIL-bound, so only worker
*processes* let independent tasks use independent cores.
``ProcessScheduler`` runs the :class:`~repro.engine.graph.TaskGraph`
contract on a pool of them; ``popper run -j N`` and ``popper ci -j N``
(N > 1) run on it.

Design:

* **Picklable payloads, or a failed task.** Payloads must cross a
  process boundary.  A task whose job cannot be pickled at dispatch (a
  closure, a lambda, an unpicklable dependency value) fails with
  :class:`~repro.common.errors.UnpicklablePayloadError`; its dependents
  are skipped and independent branches run on, as for any failure.
* **A pool started on the first miss.** The worker pool starts when the
  first task misses the artifact store, so a fully cached graph forks
  nothing.
* **Parent-side assignment across topological levels.** The parent
  hands the oldest ready task to the next idle worker, whichever
  topological level it belongs to, so uneven stage durations never
  leave cores idle behind a level barrier.
* **Parent-side cache.** The parent performs the artifact-store lookup
  (CACHED short-circuit *before* dispatch) and, when a worker reports
  success, the cache filing, so the store needs no cross-process
  coordination beyond its existing inter-process locks.
* **Worker-side resilience.** Retry policies, per-task deadlines and
  fault plans ship with each job and execute inside the worker, exactly
  as the in-process backends run them (the shared
  :meth:`~repro.engine.scheduler.Scheduler._run_task` machinery runs in
  the worker).  Fault-plan counters ship as per-job snapshots; every
  attempt of a task runs inside one worker, so the deterministic
  per-task fault sequences are preserved.
* **Worker events, replayed deterministically.**  When the caller's
  tracer journals, a worker journals each task's spans into memory and
  returns the lines in the task's done-record.  At join the parent
  replays them into the run's real journal *per task in graph insertion
  order* (so the journal does not depend on which worker ran what),
  moving span ids into the caller's id space via
  :meth:`~repro.monitor.tracing.Tracer.reserve_span_ids` and
  re-parenting each task's root span under the calling span —
  ``popper trace`` / ``popper log`` see one tree.
* **Cooperative shutdown and crash containment.** A set
  :class:`~repro.engine.shutdown.CancelToken` stops new dispatch;
  in-flight experiments drain and file their outputs, then
  :class:`~repro.engine.shutdown.RunCancelled` raises as usual.  The
  workers are the supervised :class:`~repro.engine.pool.WorkerPool`
  that ``popper serve`` also runs on: a worker that dies without
  reporting (hard crash, ``kill -9``) fails only the task it was sent
  and had not reported, with
  :class:`~repro.common.errors.WorkerCrashError`, and while tasks are
  in flight and the run is not draining a replacement worker is spawned
  and the rest of the graph keeps running.

Values and errors returned by workers are round-trip-checked before
shipping: an unpicklable task value fails the task with
:class:`UnpicklablePayloadError` (dependents cannot receive it), and an
unpicklable exception degrades to an :class:`EngineError` carrying the
original type name and message.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.common.errors import (
    EngineError,
    UnpicklablePayloadError,
    WorkerCrashError,
)
from repro.engine.cache import MemoizedPayload
from repro.engine.faults import FaultPlan
from repro.engine.graph import (
    GraphResult,
    ReadySet,
    Task,
    TaskGraph,
    TaskOutcome,
    TaskState,
)
from repro.engine.resilience import RetryPolicy
from repro.engine.scheduler import RunOptions, Scheduler
from repro.monitor.journal import RunJournal, replay_events
from repro.monitor.tracing import Tracer

__all__ = ["ProcessScheduler"]


def _executable(payload: Any) -> Any:
    """The part of a payload that must cross the process boundary.

    A :class:`MemoizedPayload` ships only its inner callable — the cache
    protocol (key/outputs/meta/restore closures) runs parent-side, where
    the artifact store lives.
    """
    if isinstance(payload, MemoizedPayload):
        return payload.fn
    return payload


@dataclass
class _Job:
    """One dispatched task: everything a worker needs to run it."""

    task_id: str
    payload: Any
    results: dict[str, Any]
    states: dict[str, TaskState]
    retry: RetryPolicy | None
    timeout_s: float | None
    optional: bool
    faults: FaultPlan | None


class _Lines(list):
    """The lines a :class:`_TaskJournal` writes, standing in for its
    group-commit writer: there is nothing to flush, so it is always in
    a batch."""

    in_batch = True

    def batched(self):
        # A task that runs a process-parallel graph of its own (a CI
        # job's ``run --all -j N``) replays its workers' events here.
        return nullcontext()


class _TaskJournal(RunJournal):
    """One task's journal in a worker, kept in memory.

    :meth:`RunJournal.event` stamps and encodes each event as it would
    for a file; :attr:`lines` ride the task's done-record to the parent.
    """

    def _open(self, fresh: bool, crash_label: str) -> _Lines:
        self.lines = _Lines()
        return self.lines


def _sanitize(record: dict, optional: bool) -> dict:
    """Round-trip-check a done-record, degrading unshippable values/errors.

    The round trip runs worker-side, so a value or error that cannot
    cross the process boundary fails (or degrades) its task with the
    reason, instead of killing the worker when the pool pickles the
    record.
    """
    try:
        pickle.loads(pickle.dumps(record))
        return record
    except Exception:
        pass
    try:
        pickle.loads(pickle.dumps(record["value"]))
    except Exception as exc:
        record = dict(
            record,
            state=(TaskState.DEGRADED if optional else TaskState.FAILED).value,
            value=None,
            error=UnpicklablePayloadError(
                f"task {record['task']!r} returned a value that cannot "
                f"cross the process boundary ({type(exc).__name__}: {exc})"
            ),
        )
    try:
        pickle.loads(pickle.dumps(record["error"]))
    except Exception:
        error = record["error"]
        record = dict(
            record, error=EngineError(f"{type(error).__name__}: {error}")
        )
    return record


class _WorkerRunner(Scheduler):
    """One pool worker's task runner, built by ``_WorkerRunner(journaled, index)``.

    Reusing :meth:`Scheduler._run_task` gives worker-side execution the
    exact span / attempt / retry / deadline / fault semantics of the
    in-process backends.  The artifact store is absent in the worker
    (both halves of the cache protocol run parent-side).  When
    *journaled* (the caller's tracer journals), each task runs under a
    tracer of its own whose :class:`_TaskJournal` lines the done-record
    carries as ``events``.
    """

    backend = "process"

    def __init__(self, journaled: bool, index: int) -> None:
        self.journaled = journaled
        self.index = index

    def __call__(self, job: _Job) -> dict:
        """Execute one job; returns its sanitized done-record."""
        task = Task(
            id=job.task_id,
            payload=job.payload,
            dependencies=tuple(job.states),
            retry=job.retry,
            timeout_s=job.timeout_s,
            optional=job.optional,
        )
        result = GraphResult()
        for dep, state in job.states.items():
            result.outcomes[dep] = TaskOutcome(
                task_id=dep, state=state, value=job.results.get(dep)
            )
        journal = _TaskJournal(job.task_id) if self.journaled else None
        started = time.perf_counter()
        try:
            outcome = self._run_task(
                task, result, Tracer(journal=journal), None,
                RunOptions(faults=job.faults),
            )
        except BaseException as exc:
            # _run_task already recorded + journaled the ABORTED outcome.
            outcome = result.outcomes.get(job.task_id) or TaskOutcome(
                task_id=job.task_id,
                state=TaskState.ABORTED,
                error=exc,
                seconds=time.perf_counter() - started,
            )
        record = _sanitize(
            {
                "task": job.task_id,
                "state": outcome.state.value,
                "value": outcome.value,
                "error": outcome.error,
                "seconds": outcome.seconds,
                "attempts": outcome.attempts,
                "worker": self.index,
            },
            job.optional,
        )
        record["events"] = list(journal.lines) if journal is not None else None
        return record


class ProcessScheduler(Scheduler):
    """Runs independent tasks concurrently on a process pool."""

    backend = "process"

    #: How long to wait for a worker's record before checking for dead
    #: workers and cancellation (seconds).
    POLL_S = 0.1

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    # -- execution ---------------------------------------------------------------
    def _execute(self, graph, result, tracer, parent, options):
        if len(graph) == 0:
            return
        journal = tracer.journal
        cancel = options.cancel
        parent_id = parent.span_id if parent is not None else None
        ready = ReadySet(graph)
        # Built on the first task that misses the cache: a cached
        # graph neither imports the pool nor forks.
        pool = None
        inflight: set[str] = set()
        done_records: dict[str, dict] = {}
        abort_error: BaseException | None = None

        def draining() -> bool:
            return abort_error is not None or (
                cancel is not None and cancel.cancelled
            )

        def advance(task_id: str, outcome: TaskOutcome) -> list[str]:
            """Ready-set bookkeeping after one finished outcome."""
            if outcome.state is TaskState.FAILED:
                self._propagate_failure(graph, ready, result, task_id)
                return ready.take_ready()
            return ready.complete(task_id)

        def dispatch(task_ids: list[str]) -> None:
            nonlocal pool
            pending = list(task_ids)
            while pending:
                tid = pending.pop(0)
                if draining():
                    # Drain: hand out nothing new.  Undispatched tasks
                    # have no store record, so a re-run executes them.
                    continue
                task = graph.task(tid)
                cached = self._try_cache(task, options, journal)
                if cached is not None:
                    # CACHED: completed without dispatching.
                    result.outcomes[tid] = cached
                    pending.extend(advance(tid, cached))
                    continue
                job = _Job(
                    task_id=tid,
                    payload=_executable(task.payload),
                    results={
                        dep: result.outcomes[dep].value
                        for dep in task.dependencies
                        if result.outcomes[dep].state
                        in (TaskState.OK, TaskState.CACHED)
                    },
                    states={
                        dep: result.outcomes[dep].state
                        for dep in task.dependencies
                    },
                    retry=task.retry if task.retry is not None else options.retry,
                    timeout_s=(
                        task.timeout_s
                        if task.timeout_s is not None
                        else options.timeout_s
                    ),
                    optional=task.optional,
                    faults=options.faults,
                )
                if pool is None:
                    from repro.engine.pool import WorkerPool

                    pool = WorkerPool(
                        size=min(self.max_workers, len(graph)),
                        runner=partial(_WorkerRunner, journal is not None),
                    )
                if not pool.workers:
                    pool.start()
                try:
                    pool.dispatch(job, tid)
                except Exception as exc:
                    # A payload or dependency value that cannot cross
                    # the boundary fails its task; nothing runs it here.
                    outcome = TaskOutcome(
                        task_id=tid,
                        state=(
                            TaskState.DEGRADED
                            if task.optional
                            else TaskState.FAILED
                        ),
                        error=UnpicklablePayloadError(
                            f"task {tid!r} cannot cross the process "
                            f"boundary ({type(exc).__name__}: {exc})"
                        ),
                    )
                    result.outcomes[tid] = outcome
                    pending.extend(advance(tid, outcome))
                    continue
                inflight.add(tid)

        def on_done(record: dict) -> None:
            nonlocal abort_error
            tid = record["task"]
            if tid not in inflight:
                # Already written off (e.g. its worker was presumed dead
                # and the record surfaced late): first verdict stands.
                return
            inflight.discard(tid)
            done_records[tid] = record
            outcome = TaskOutcome(
                task_id=tid,
                state=TaskState(record["state"]),
                value=record["value"],
                error=record["error"],
                seconds=float(record["seconds"]),
                attempts=int(record["attempts"]),
            )
            result.outcomes[tid] = outcome
            task = graph.task(tid)
            if outcome.state is TaskState.ABORTED:
                # The worker journaled task_aborted into its events;
                # the parent starts draining.
                if abort_error is None:
                    abort_error = (
                        outcome.error
                        if isinstance(outcome.error, BaseException)
                        else EngineError(f"task {tid!r} aborted")
                    )
                return
            self._record_cache(task, outcome, options, journal)
            dispatch(advance(tid, outcome))

        def fail_inflight(
            tid: str, reason: str, exitcode: int | None = None
        ) -> None:
            inflight.discard(tid)
            task = graph.task(tid)
            error = WorkerCrashError(
                f"{reason} without reporting task {tid!r}", exitcode
            )
            outcome = TaskOutcome(
                task_id=tid,
                state=TaskState.DEGRADED if task.optional else TaskState.FAILED,
                error=error,
            )
            result.outcomes[tid] = outcome
            dispatch(advance(tid, outcome))

        def reap_dead_workers() -> None:
            # Counted before reaping too: a worker that closed its pipe
            # can still read as alive to reap() and as dead a moment
            # later; the next round reaps it with its exit code.
            alive_before = pool.alive_count()
            # Keep the pool at strength only for a graph still running.
            for lost in pool.reap(respawn=bool(inflight) and not draining()):
                if lost.key in inflight:
                    fail_inflight(
                        lost.key,
                        f"worker process {lost.worker} died "
                        f"(exit code {lost.exitcode})",
                        lost.exitcode,
                    )
            if inflight and alive_before == 0 and pool.alive_count() == 0:
                # No worker left to ever report these (e.g. a die-off
                # while draining): fail them rather than spin forever.
                for tid in sorted(inflight):
                    fail_inflight(tid, "every worker process died")

        def replay_worker_events() -> None:
            """Replay each task's worker events into the run journal.

            Per task in graph insertion order, so the journal does not
            depend on which worker ran which task; span ids move into
            the caller's id space and each task's root span goes under
            the calling span.
            """
            if journal is None:
                return
            # One batched group-commit writer for the whole replay: it
            # appends thousands of events and should pay one write per
            # window, not one write+flush per replayed line.
            with journal.batched():
                for tid in graph.ids():
                    record = done_records.get(tid)
                    if not record or not record["events"]:
                        continue
                    events = [json.loads(line) for line in record["events"]]
                    ids = list(
                        dict.fromkeys(e["span_id"] for e in events if "span_id" in e)
                    )
                    base = tracer.reserve_span_ids(len(ids))
                    replay_events(
                        journal,
                        events,
                        span_id_map={sid: base + i for i, sid in enumerate(ids)},
                        default_parent_id=parent_id,
                        worker=record["worker"],
                    )

        try:
            dispatch(ready.take_ready())
            while inflight:
                records = pool.poll(timeout_s=self.POLL_S)
                for record in records:
                    on_done(record)
                if not records:
                    reap_dead_workers()
        finally:
            if pool is not None:
                pool.drain()
            replay_worker_events()

        if abort_error is not None:
            raise abort_error
        if cancel is not None:
            cancel.raise_if_cancelled()
        if not ready.exhausted:  # pragma: no cover - validate() prevents this
            raise EngineError(f"unrunnable tasks left over: {ready.pending()}")
