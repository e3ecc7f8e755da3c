"""Schedulers: execute a :class:`~repro.engine.graph.TaskGraph`.

Interchangeable backends run the same graph:

* :class:`SerialScheduler` — one task at a time, in deterministic
  (insertion, dependency-respecting) order, in the calling process.  A
  failure's traceback is exactly where it happened and journals read
  top-to-bottom.
* :class:`~repro.engine.procsched.ProcessScheduler` — independent tasks
  on worker processes, one per core at most.  :func:`resolve_backend`
  picks it or :class:`SerialScheduler` for ``popper run -j`` and
  ``popper ci -j``.
* :class:`ThreadedScheduler` — a ``concurrent.futures`` thread pool of
  ``max_workers``.  No command runs on it: the payloads are GIL-bound,
  and it was slower than serial for playbook fan-out.  It stays while
  the end-to-end benchmark's layer table wraps ``ThreadedScheduler.run``.

Because the simulated workloads are deterministic functions of their
seeds, every backend produces bit-identical experiment results — only
wall-clock and journal event interleaving differ.

Semantics shared by every backend:

* **Tracing** — every task executes inside a ``task/<id>`` span.  The
  span's parent is the span that was active on the *calling* thread when
  :meth:`Scheduler.run` was entered, so a parallel run still journals as
  one tree and ``popper trace`` renders a correct critical path.  The
  caller's ambient tracer is re-activated on worker threads, so payload
  code that calls :func:`~repro.monitor.tracing.current_tracer` lands its
  spans in the right journal even under concurrency.
* **Failure propagation** — a task that raises is recorded as FAILED
  with its exception; every transitive dependent is recorded as SKIPPED
  (with the failed task blamed); tasks on independent branches keep
  running.  :meth:`~repro.engine.graph.GraphResult.raise_first_error`
  re-raises for callers that want fail-stop behavior.
* **Resilience** — a :class:`RunOptions` bundle (or per-task fields on
  :class:`~repro.engine.graph.Task`) adds retries with deterministic
  backoff, per-task deadlines, graceful degradation of *optional* tasks
  to DEGRADED (dependents still run), and deterministic fault
  injection via a :class:`~repro.engine.faults.FaultPlan`.  When a retry
  policy allows more than one attempt, each attempt runs in a
  ``task/<id>/attempt-N`` child span and journals an ``attempt`` event.
* **Abort accounting** — a ``BaseException`` (Ctrl-C, ``SystemExit``)
  inside a payload is *not* swallowed: the task is recorded as ABORTED
  (outcome and ``task_aborted`` journal event) and the exception
  re-raises to the caller, so an interrupted run's journal still
  accounts for the in-flight task.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from types import MappingProxyType

from repro.common.errors import EngineError
from repro.engine.cache import MemoizedPayload
from repro.engine.faults import FaultPlan
from repro.engine.graph import (
    GraphResult,
    ReadySet,
    Task,
    TaskContext,
    TaskGraph,
    TaskOutcome,
    TaskState,
)
from repro.engine.resilience import NO_RETRY, RetryPolicy, call_with_timeout
from repro.engine.shutdown import CancelToken, RunCancelled
from repro.store import ArtifactStore
from repro.monitor.tracing import Span, Tracer, activate, current_tracer

__all__ = [
    "RunOptions",
    "Scheduler",
    "SerialScheduler",
    "ThreadedScheduler",
    "resolve_backend",
]


@dataclass(frozen=True)
class RunOptions:
    """Run-level resilience defaults, overridable per task.

    * ``retry`` — default :class:`RetryPolicy` for tasks that do not set
      their own (``None`` means fail-stop, :data:`NO_RETRY`);
    * ``timeout_s`` — default per-task deadline (``None`` = no deadline);
    * ``faults`` — a :class:`FaultPlan` applied before every attempt;
    * ``artifact_store`` — an :class:`~repro.store.ArtifactStore`; tasks
      whose payload is a :class:`~repro.engine.cache.MemoizedPayload`
      consult its artifact index before executing, and a fingerprint hit
      materializes the recorded outputs instead of running the payload
      (cross-run memoization; the task completes as ``CACHED``);
    * ``cancel`` — a :class:`~repro.engine.shutdown.CancelToken`; the
      schedulers check it between tasks, drain in-flight work (which
      files its outputs normally) and raise
      :class:`~repro.engine.shutdown.RunCancelled` once quiescent —
      the cooperative half of signal-safe shutdown.
    """

    retry: RetryPolicy | None = None
    timeout_s: float | None = None
    faults: FaultPlan | None = None
    artifact_store: ArtifactStore | None = None
    cancel: CancelToken | None = None


#: The zero-cost default: no retries, no deadline, no faults, no store.
DEFAULT_OPTIONS = RunOptions()


class Scheduler:
    """Common machinery; subclasses choose the execution strategy."""

    #: Human-readable backend name (lands in span attributes and benches).
    backend = "abstract"

    def run(
        self,
        graph: TaskGraph,
        tracer: Tracer | None = None,
        options: RunOptions | None = None,
    ) -> GraphResult:
        """Execute every task; never raises for payload failures.

        *tracer* defaults to the calling thread's ambient tracer; pass
        one explicitly to journal task spans into a specific run.
        *options* carries the run-level resilience defaults.
        """
        graph.validate()
        eff_tracer = tracer if tracer is not None else current_tracer()
        eff_options = options if options is not None else DEFAULT_OPTIONS
        parent = eff_tracer.current()
        started = time.perf_counter()
        result = GraphResult()
        try:
            self._execute(graph, result, eff_tracer, parent, eff_options)
        finally:
            result.wall_seconds = time.perf_counter() - started
        return result

    # -- strategy hook -----------------------------------------------------------
    def _execute(
        self,
        graph: TaskGraph,
        result: GraphResult,
        tracer: Tracer,
        parent: Span | None,
        options: RunOptions,
    ) -> None:
        raise NotImplementedError

    # -- shared pieces -----------------------------------------------------------
    def _run_task(
        self,
        task: Task,
        result: GraphResult,
        tracer: Tracer,
        parent: Span | None,
        options: RunOptions,
    ) -> TaskOutcome:
        """Run one payload inside its ``task/<id>`` span.

        Called on whatever thread executes the task; re-activates the
        caller's tracer there so ambient instrumentation nests correctly.
        An abort (``BaseException`` that is not an ``Exception``) records
        an ABORTED outcome directly into *result* and re-raises.
        """
        dep_outcomes = {dep: result.outcomes[dep] for dep in task.dependencies}
        ctx = TaskContext(
            task_id=task.id,
            results={
                dep: o.value
                for dep, o in dep_outcomes.items()
                if o.state in (TaskState.OK, TaskState.CACHED)
            },
            states=MappingProxyType(
                {dep: o.state for dep, o in dep_outcomes.items()}
            ),
        )
        journal = tracer.journal
        cached = self._try_cache(task, options, journal)
        if cached is not None:
            return cached
        policy = task.retry if task.retry is not None else (
            options.retry if options.retry is not None else NO_RETRY
        )
        timeout_s = (
            task.timeout_s if task.timeout_s is not None else options.timeout_s
        )
        started = time.perf_counter()
        attempt = 0
        try:
            with activate(tracer):
                with tracer.span(
                    f"task/{task.id}", parent=parent, scheduler=self.backend
                ) as task_span:
                    value = None
                    while True:
                        attempt += 1
                        try:
                            value = self._attempt(
                                task, ctx, tracer, task_span, policy,
                                timeout_s, options.faults, attempt, journal,
                            )
                        except Exception as exc:
                            if attempt < policy.max_attempts and policy.retryable(exc):
                                time.sleep(policy.delay_s(task.id, attempt))
                                continue
                            raise
                        break
            outcome = TaskOutcome(
                task_id=task.id,
                state=TaskState.OK,
                value=value,
                seconds=time.perf_counter() - started,
                attempts=attempt,
            )
        except Exception as exc:
            outcome = TaskOutcome(
                task_id=task.id,
                state=TaskState.DEGRADED if task.optional else TaskState.FAILED,
                error=exc,
                seconds=time.perf_counter() - started,
                attempts=max(attempt, 1),
            )
        except BaseException as exc:
            # Interrupted mid-task: account for the in-flight work, then
            # let the interrupt propagate (journal lines are flushed per
            # event, so the record is durable before the re-raise).
            outcome = TaskOutcome(
                task_id=task.id,
                state=TaskState.ABORTED,
                error=exc,
                seconds=time.perf_counter() - started,
                attempts=max(attempt, 1),
            )
            result.outcomes[task.id] = outcome
            if journal is not None:
                journal.event(
                    "task_aborted",
                    task=task.id,
                    attempt=max(attempt, 1),
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise
        self._record_cache(task, outcome, options, journal)
        return outcome

    def _attempt(
        self,
        task: Task,
        ctx: TaskContext,
        tracer: Tracer,
        task_span: Span,
        policy: RetryPolicy,
        timeout_s: float | None,
        faults: FaultPlan | None,
        attempt: int,
        journal,
    ):
        """One attempt of one task, spanned and journaled when retrying."""
        if policy.max_attempts > 1:
            if journal is not None:
                journal.event(
                    "attempt",
                    task=task.id,
                    attempt=attempt,
                    max_attempts=policy.max_attempts,
                )
            with tracer.span(
                f"task/{task.id}/attempt-{attempt}",
                parent=task_span,
                attempt=attempt,
            ) as span:
                return self._invoke(task, ctx, tracer, span, timeout_s, faults)
        return self._invoke(task, ctx, tracer, task_span, timeout_s, faults)

    def _invoke(
        self,
        task: Task,
        ctx: TaskContext,
        tracer: Tracer,
        anchor: Span,
        timeout_s: float | None,
        faults: FaultPlan | None,
    ):
        """Execute the payload (plus injected faults), under the deadline.

        With a deadline, the payload runs on a watchdog thread: the
        tracer is re-activated and the attempt span adopted there so
        ambient instrumentation still nests under the right parent.
        Injected faults fire inside the timed region, so a ``delay``
        fault can trip the deadline.
        """
        if timeout_s is None:
            if faults is not None:
                faults.before(task.id)
            return task.payload(ctx)

        def guarded():
            with activate(tracer), tracer.adopt(anchor):
                if faults is not None:
                    faults.before(task.id)
                return task.payload(ctx)

        return call_with_timeout(guarded, timeout_s, label=f"task/{task.id}")

    @staticmethod
    def _try_cache(
        task: Task, options: RunOptions, journal
    ) -> TaskOutcome | None:
        """Complete the task from the artifact store, if its key hits.

        Any store trouble — a missing or corrupt object, a restore
        callback that cannot rebuild the value — silently degrades to a
        miss: the payload executes normally and re-stores its outputs.
        """
        store = options.artifact_store
        payload = task.payload
        if store is None or not isinstance(payload, MemoizedPayload):
            return None
        started = time.perf_counter()
        try:
            key = payload.cache_key()
            record = store.lookup(key)
            if record is None:
                return None
            restored_bytes = store.materialize(record, payload.cache_root())
            value = payload.cache_restore(dict(record.meta))
        except Exception:
            return None
        if journal is not None:
            journal.event(
                "cache",
                task=task.id,
                key=key,
                hit=True,
                bytes_saved=restored_bytes,
            )
        return TaskOutcome(
            task_id=task.id,
            state=TaskState.CACHED,
            value=value,
            seconds=time.perf_counter() - started,
        )

    @staticmethod
    def _record_cache(
        task: Task, outcome: TaskOutcome, options: RunOptions, journal
    ) -> None:
        """File a freshly-executed task's outputs into the artifact store.

        ``cache_meta`` returning ``None`` vetoes caching (e.g. a run
        whose validations failed must not be replayed on later runs).
        Storage failures never fail the task itself.
        """
        store = options.artifact_store
        payload = task.payload
        if (
            store is None
            or outcome.state is not TaskState.OK
            or not isinstance(payload, MemoizedPayload)
        ):
            return
        try:
            meta = payload.cache_meta(outcome.value)
            if meta is None:
                return
            key = payload.cache_key()
            stored = store.store(
                key,
                task.id,
                payload.cache_outputs(outcome.value),
                payload.cache_root(),
                meta=meta,
            )
        except Exception:
            return
        if journal is not None:
            journal.event(
                "cache",
                task=task.id,
                key=key,
                hit=False,
                bytes_stored=stored.bytes_stored,
                bytes_deduped=stored.bytes_deduped,
            )

    @staticmethod
    def _propagate_failure(
        graph: TaskGraph,
        ready: ReadySet,
        result: GraphResult,
        failed_id: str,
    ) -> None:
        """Mark every not-yet-finished transitive dependent as SKIPPED."""
        doomed = {
            tid
            for tid in graph.downstream(failed_id)
            if tid not in result.outcomes
        }
        ready.discard(doomed)
        for tid in sorted(doomed):
            result.outcomes[tid] = TaskOutcome(
                task_id=tid, state=TaskState.SKIPPED, blamed_on=failed_id
            )


class SerialScheduler(Scheduler):
    """Runs ready tasks one at a time, in insertion order."""

    backend = "serial"

    def _execute(self, graph, result, tracer, parent, options):
        ready = ReadySet(graph)
        queue = ready.take_ready()
        while queue:
            if options.cancel is not None:
                # Between tasks is the safe stop point: everything that
                # finished has filed its outputs, nothing is mid-write.
                options.cancel.raise_if_cancelled()
            task_id = queue.pop(0)
            outcome = self._run_task(
                graph.task(task_id), result, tracer, parent, options
            )
            result.outcomes[task_id] = outcome
            if outcome.state is TaskState.FAILED:
                self._propagate_failure(graph, ready, result, task_id)
                # Requeue whatever independent work the skip freed up.
                queue.extend(t for t in ready.take_ready() if t not in queue)
            else:
                # OK and DEGRADED both count as completion: dependents
                # of an optional task still run (graceful degradation).
                queue.extend(ready.complete(task_id))
        if not ready.exhausted:  # pragma: no cover - validate() prevents this
            raise EngineError(f"unrunnable tasks left over: {ready.pending()}")


class ThreadedScheduler(Scheduler):
    """Runs independent tasks concurrently on a thread pool."""

    backend = "threaded"

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers

    def _execute(self, graph, result, tracer, parent, options):
        if len(graph) == 0:
            return
        ready = ReadySet(graph)
        cancel = options.cancel
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            running: dict[Future, str] = {}

            def submit(task_ids: list[str]) -> None:
                if cancel is not None and cancel.cancelled:
                    # Draining: in-flight tasks finish and file their
                    # outputs, nothing new starts (unstarted tasks have
                    # no store record, so a re-run executes them).
                    return
                for tid in task_ids:
                    future = pool.submit(
                        self._run_task, graph.task(tid), result, tracer,
                        parent, options,
                    )
                    running[future] = tid

            submit(ready.take_ready())
            try:
                while running:
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    for future in done:
                        task_id = running.pop(future)
                        outcome = future.result()
                        result.outcomes[task_id] = outcome
                        if outcome.state is TaskState.FAILED:
                            self._propagate_failure(graph, ready, result, task_id)
                            submit(ready.take_ready())
                        else:
                            submit(ready.complete(task_id))
            except BaseException:
                # An aborted task re-raised through future.result() (or
                # the caller was interrupted in wait()): stop handing out
                # work, let in-flight tasks drain (they file their own
                # outputs), and propagate the interrupt.
                for future in running:
                    future.cancel()
                raise
        if cancel is not None:
            cancel.raise_if_cancelled()
        if not ready.exhausted and not any(
            o.state is TaskState.ABORTED for o in result.outcomes.values()
        ):  # pragma: no cover - validate() prevents this
            raise EngineError(f"unrunnable tasks left over: {ready.pending()}")


def resolve_backend(jobs: int = 1) -> tuple[Scheduler, int, str | None]:
    """Pick the scheduler for ``popper run -j JOBS`` and ``popper ci -j JOBS``.

    Returns ``(scheduler, effective_workers, warning)``; *warning* is a
    human-readable line (or ``None``) the CLI prints.  ``-j 1`` runs
    serially in the calling process.  ``-j N`` runs on N worker
    *processes*, clamped to ``os.cpu_count()`` with a warning: extra
    processes cost real memory and context switches and can never add
    throughput.
    """
    if jobs < 1:
        raise EngineError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialScheduler(), 1, None
    from repro.engine.procsched import ProcessScheduler

    cpus = os.cpu_count() or 1
    workers, warning = jobs, None
    if jobs > cpus:
        workers = cpus
        warning = (
            f"-j {jobs} exceeds the {cpus} available CPU core(s); "
            f"clamping the process pool to {workers} worker(s)"
        )
    return ProcessScheduler(max_workers=workers), workers, warning
