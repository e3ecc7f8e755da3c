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
  first task misses both the artifact store and the checkpoint, so a
  fully cached or fully restored graph forks nothing.
* **Parent-side assignment across topological levels.** The parent
  hands the oldest ready task to the next idle worker, whichever
  topological level it belongs to, so uneven stage durations never
  leave cores idle behind a level barrier.
* **Parent-side cache and checkpoint.** The parent performs the
  artifact-store lookup (CACHED short-circuit *before* dispatch), the
  run-state restore, and — when a worker reports success — the cache
  filing and checkpoint append, so stores need no cross-process
  coordination beyond their existing inter-process locks.
* **Worker-side resilience.** Retry policies, per-task deadlines and
  fault plans ship with each job and execute inside the worker, exactly
  as the in-process backends run them (the shared
  :meth:`~repro.engine.scheduler.Scheduler._run_task` machinery runs in
  the worker).  Fault-plan counters ship as per-job snapshots; every
  attempt of a task runs inside one worker, so the deterministic
  per-task fault sequences are preserved.
* **Journal shards, merged deterministically.** Each worker journals
  its task spans into a private JSONL shard.  At join the parent merges
  the shards into the run's real journal *per task in graph insertion
  order* (so the merged journal does not depend on which worker ran
  what), remapping shard-local span ids via
  :meth:`~repro.monitor.tracing.Tracer.reserve_span_ids` and
  re-parenting shard roots under the calling span — ``popper trace`` /
  ``popper log`` see one tree.
* **Cooperative shutdown and crash containment.** A set
  :class:`~repro.engine.shutdown.CancelToken` stops new dispatch;
  in-flight experiments drain and checkpoint, then
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

import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
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
from repro.monitor.journal import RunJournal, load_journal, replay_events
from repro.monitor.tracing import SPAN_METRIC, Span, Tracer

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


def _shard(shard_dir: str | Path, index: int) -> Path:
    """Worker *index*'s private journal shard."""
    return Path(shard_dir) / f"shard-{index}.jsonl"


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
    """One pool worker's task runner, built by ``_WorkerRunner(shard_dir, index)``.

    Reusing :meth:`Scheduler._run_task` gives worker-side execution the
    exact span / attempt / retry / deadline / fault semantics of the
    in-process backends.  Cache and run-state stores are absent in the
    worker (both halves of that protocol run parent-side).  With a
    *shard_dir*, the worker journals its spans into its own shard, which
    :meth:`close` closes when the worker exits.
    """

    backend = "process"

    def __init__(self, shard_dir: str | None, index: int) -> None:
        self.index = index
        self.journal = (
            RunJournal(_shard(shard_dir, index)) if shard_dir else None
        )
        self.tracer = Tracer(journal=self.journal)

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
        journal = self.journal
        first_seq = len(journal) if journal is not None else 0
        started = time.perf_counter()
        try:
            outcome = self._run_task(
                task, result, self.tracer, None, RunOptions(faults=job.faults)
            )
        except BaseException as exc:
            # _run_task already recorded + journaled the ABORTED outcome.
            outcome = result.outcomes.get(job.task_id) or TaskOutcome(
                task_id=job.task_id,
                state=TaskState.ABORTED,
                error=exc,
                seconds=time.perf_counter() - started,
            )
        last_seq = len(journal) if journal is not None else 0
        record = {
            "task": job.task_id,
            "state": outcome.state.value,
            "value": outcome.value,
            "error": outcome.error,
            "seconds": outcome.seconds,
            "attempts": outcome.attempts,
            "worker": self.index,
            "span_range": (first_seq, last_seq) if journal is not None else None,
        }
        return _sanitize(record, job.optional)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


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
        shards = (
            Path(tempfile.mkdtemp(prefix="popper-shards-"))
            if journal is not None
            else None
        )
        # Built on the first task that misses the cache and the
        # checkpoint: a cached graph neither imports the pool nor forks.
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
                    # keep no run-state record, so --resume re-runs them.
                    continue
                task = graph.task(tid)
                short = self._try_cache(task, options, journal)
                if short is None:
                    short = self._try_restore(task, options, journal)
                if short is not None:
                    # CACHED / restored: completed without dispatching.
                    result.outcomes[tid] = short
                    self._record_state(task, short, options)
                    pending.extend(advance(tid, short))
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
                        runner=partial(
                            _WorkerRunner, str(shards) if shards else None
                        ),
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
                    self._record_state(task, outcome, options)
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
                # The worker journaled task_aborted into its shard; the
                # parent checkpoints the outcome and starts draining.
                self._record_state(task, outcome, options)
                if abort_error is None:
                    abort_error = (
                        outcome.error
                        if isinstance(outcome.error, BaseException)
                        else EngineError(f"task {tid!r} aborted")
                    )
                return
            self._record_cache(task, outcome, options, journal)
            self._record_state(task, outcome, options)
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
            self._record_state(task, outcome, options)
            dispatch(advance(tid, outcome))

        def reap_dead_workers() -> None:
            # Keep the pool at strength only for a graph still running.
            for lost in pool.reap(respawn=bool(inflight) and not draining()):
                if lost.key in inflight:
                    fail_inflight(
                        lost.key,
                        f"worker process {lost.worker} died "
                        f"(exit code {lost.exitcode})",
                        lost.exitcode,
                    )
            if inflight and pool.alive_count() == 0:
                # No worker left to ever report these (e.g. a die-off
                # while draining): fail them rather than spin forever.
                for tid in sorted(inflight):
                    fail_inflight(tid, "every worker process died")

        def merge_shards() -> None:
            """Replay every worker's journal shard into the run journal.

            Merged per task in graph insertion order, so the combined
            journal is independent of which worker ran which task; span
            ids are remapped into the parent tracer's id space and shard
            roots are re-parented under the calling span.
            """
            if shards is None:
                return
            shard_events: dict[int, list[dict]] = {}
            for index in {r["worker"] for r in done_records.values()}:
                path = _shard(shards, index)
                if not path.is_file() or path.stat().st_size == 0:
                    continue
                try:
                    shard_events[index] = load_journal(path)[0]
                except Exception:  # a torn shard loses at most one task's spans
                    continue
            slices: list[tuple[int, list[dict]]] = []
            for tid in graph.ids():
                record = done_records.get(tid)
                if not record or not record.get("span_range"):
                    continue
                lo, hi = record["span_range"]
                events = [
                    e
                    for e in shard_events.get(record["worker"], [])
                    if lo < e.get("seq", 0) <= hi
                ]
                if events:
                    slices.append((record["worker"], events))
            keys: list[tuple[int, int]] = []
            seen: set[tuple[int, int]] = set()
            for index, events in slices:
                for event in events:
                    sid = event.get("span_id")
                    if isinstance(sid, int) and (index, sid) not in seen:
                        seen.add((index, sid))
                        keys.append((index, sid))
            base = tracer.reserve_span_ids(len(keys))
            id_map = {key: base + i for i, key in enumerate(keys)}
            # One batched group-commit writer for the whole replay: the
            # merge appends thousands of events and should pay one write
            # per window, not one write+flush per replayed line.
            with journal.batched():
                for index, events in slices:
                    local = {
                        sid: gid for (w, sid), gid in id_map.items() if w == index
                    }
                    replay_events(
                        journal,
                        events,
                        span_id_map=local,
                        default_parent_id=parent_id,
                        worker=index,
                    )
                    self._graft_spans(tracer, events, local, parent_id)

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
            try:
                merge_shards()
            finally:
                if shards is not None:
                    shutil.rmtree(shards, ignore_errors=True)

        if abort_error is not None:
            raise abort_error
        if cancel is not None:
            cancel.raise_if_cancelled()
        if not ready.exhausted:  # pragma: no cover - validate() prevents this
            raise EngineError(f"unrunnable tasks left over: {ready.pending()}")

    @staticmethod
    def _graft_spans(
        tracer: Tracer,
        events: list[dict],
        id_map: dict[int, int],
        parent_id: int | None,
    ) -> None:
        """Rebuild finished Span objects from one shard slice.

        In-memory consumers (``tracer.span_tree()``, metric exports) see
        the same tree the merged journal describes.
        """
        starts: dict[int, dict] = {}
        for event in events:
            kind = event.get("event")
            if kind == "span_start":
                starts[event.get("span_id")] = event
            elif kind == "span_end":
                start = starts.pop(event.get("span_id"), None)
                sid = id_map.get(event.get("span_id"))
                if start is None or sid is None:
                    continue
                begun = float(start.get("ts", 0.0))
                span = Span(
                    name=str(event.get("name", "?")),
                    span_id=sid,
                    parent_id=id_map.get(start.get("parent_id"), parent_id),
                    start=begun,
                    end=begun + float(event.get("duration_s", 0.0)),
                    status=str(event.get("status", "ok")),
                    error=str(event.get("error", "")),
                    attributes=dict(event.get("attributes") or {}),
                )
                tracer.graft_span(span)
                if tracer.metrics is not None:
                    tracer.metrics.record(
                        SPAN_METRIC,
                        span.duration,
                        labels={"span": span.name, "status": span.status},
                    )
