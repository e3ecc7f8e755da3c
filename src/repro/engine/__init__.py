"""The DAG-based execution engine shared by every execution layer.

Pipeline stages, ``popper run --all`` sweeps, CI matrix jobs and
playbook host fan-out all declare their work as a
:class:`~repro.engine.graph.TaskGraph` and hand it to a
:class:`~repro.engine.scheduler.Scheduler` —
:class:`~repro.engine.scheduler.SerialScheduler` for deterministic
debugging, :class:`~repro.engine.scheduler.ThreadedScheduler` for
I/O-overlapping parallelism, or
:class:`~repro.engine.procsched.ProcessScheduler` for true multi-core
execution of pickle-safe payloads
(:func:`~repro.engine.scheduler.resolve_backend` picks one from
``--backend``/``-j``).  See ``docs/engine.md``.  The process backend
and ``popper serve`` run on one supervised
:class:`~repro.engine.pool.WorkerPool`.

The resilience layer (see ``docs/robustness.md``) rides on top:
:class:`~repro.engine.resilience.RetryPolicy` and per-task deadlines,
checkpoint/resume through a
:class:`~repro.engine.runstate.RunStateStore`, and deterministic chaos
testing through a :class:`~repro.engine.faults.FaultPlan`, all bundled
into the scheduler's :class:`~repro.engine.scheduler.RunOptions`.
Signal-safe shutdown (same doc) routes SIGINT/SIGTERM through a
:class:`~repro.engine.shutdown.CancelToken` on ``RunOptions.cancel``:
in-flight tasks drain and checkpoint, then the run raises
:class:`~repro.engine.shutdown.RunCancelled`.

Cross-run memoization (see ``docs/caching.md``) rides on the same
bundle: a payload implementing
:class:`~repro.engine.cache.CacheAwarePayload` (usually via
:class:`~repro.engine.cache.MemoizedPayload`) is consulted against
``RunOptions.artifact_store`` before executing; a hit materializes the
stored outputs and completes the task as
:attr:`~repro.engine.graph.TaskState.CACHED`.
"""

from repro.engine.cache import CacheAwarePayload, MemoizedPayload
from repro.engine.faults import FaultPlan, FaultSpec
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
from repro.engine.runstate import (
    RUN_STATE_FILE,
    RunStateStore,
    task_fingerprint,
)
from repro.engine.procsched import ProcessScheduler, audit_pickle_safety
from repro.engine.scheduler import (
    BACKENDS,
    RunOptions,
    Scheduler,
    SerialScheduler,
    ThreadedScheduler,
    resolve_backend,
)
from repro.engine.shutdown import (
    EXIT_SIGINT,
    EXIT_SIGTERM,
    CancelToken,
    GracefulShutdown,
    RunCancelled,
)

__all__ = [
    "GraphResult",
    "ReadySet",
    "Task",
    "TaskContext",
    "TaskGraph",
    "TaskOutcome",
    "TaskState",
    "BACKENDS",
    "RunOptions",
    "Scheduler",
    "SerialScheduler",
    "ThreadedScheduler",
    "ProcessScheduler",
    "audit_pickle_safety",
    "resolve_backend",
    "RetryPolicy",
    "NO_RETRY",
    "call_with_timeout",
    "FaultPlan",
    "FaultSpec",
    "CacheAwarePayload",
    "MemoizedPayload",
    "RUN_STATE_FILE",
    "RunStateStore",
    "task_fingerprint",
    "EXIT_SIGINT",
    "EXIT_SIGTERM",
    "CancelToken",
    "GracefulShutdown",
    "RunCancelled",
]
