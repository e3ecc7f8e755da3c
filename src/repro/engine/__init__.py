"""The DAG-based execution engine shared by every execution layer.

Pipeline stages, ``popper run --all`` sweeps, CI matrix jobs and
playbook host fan-out all declare their work as a
:class:`~repro.engine.graph.TaskGraph` and hand it to a
:class:`~repro.engine.scheduler.Scheduler` —
:class:`~repro.engine.scheduler.SerialScheduler`, one task at a time in
the calling process, or :class:`~repro.engine.procsched.ProcessScheduler`
for true multi-core execution of picklable payloads
(:func:`~repro.engine.scheduler.resolve_backend` picks one from
``popper run -j`` and ``popper ci -j``; playbook fan-out runs serially).
See ``docs/engine.md``.  The process backend and ``popper serve`` run
on one supervised :class:`~repro.engine.pool.WorkerPool`.

The resilience layer (see ``docs/robustness.md``) rides on top:
:class:`~repro.engine.resilience.RetryPolicy` and per-task deadlines,
and deterministic chaos testing through a
:class:`~repro.engine.faults.FaultPlan`, all bundled into the
scheduler's :class:`~repro.engine.scheduler.RunOptions`.  Signal-safe
shutdown (same doc) routes SIGINT/SIGTERM through a
:class:`~repro.engine.shutdown.CancelToken` on ``RunOptions.cancel``:
in-flight tasks drain and file their outputs, then the run raises
:class:`~repro.engine.shutdown.RunCancelled`.

Cross-run memoization (see ``docs/caching.md``) rides on the same
bundle: a :class:`~repro.engine.cache.MemoizedPayload` is consulted
against ``RunOptions.artifact_store`` before executing; a hit
materializes the stored outputs and completes the task as
:attr:`~repro.engine.graph.TaskState.CACHED`.  It is the one
checkpoint: a re-run after a crash or a drain executes only what the
store cannot serve.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "graph": (
            "GraphResult",
            "ReadySet",
            "Task",
            "TaskContext",
            "TaskGraph",
            "TaskOutcome",
            "TaskState",
        ),
        "scheduler": (
            "RunOptions",
            "Scheduler",
            "SerialScheduler",
            "ThreadedScheduler",
            "resolve_backend",
        ),
        "procsched": ("ProcessScheduler",),
        "resilience": ("RetryPolicy", "NO_RETRY", "call_with_timeout"),
        "faults": ("FaultPlan", "FaultSpec"),
        "cache": ("MemoizedPayload", "task_fingerprint"),
        "shutdown": (
            "EXIT_SIGINT",
            "EXIT_SIGTERM",
            "CancelToken",
            "GracefulShutdown",
            "RunCancelled",
        ),
    },
)
