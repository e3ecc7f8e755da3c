"""Tasks and the task graph: the declarative half of the execution engine.

Every execution layer in this reproduction — pipeline stages, whole
experiments under ``popper run --all``, CI matrix jobs, playbook host
fan-out — is a set of units of work with dependencies between some of
them.  Collective Knowledge (SysML'19) and MLDev (2021) make the same
observation for experiment automation generally: model the lifecycle as
an explicit graph and drive it from one engine instead of hand-rolling a
sequential loop per layer.

A :class:`Task` is one unit: an id, the ids it depends on, and a payload
callable.  A :class:`TaskGraph` owns a set of tasks and answers the
structural questions (are all dependencies known? is the graph acyclic?
what can run now?).  Scheduling — serial or threaded — lives in
:mod:`repro.engine.scheduler`; results come back as a
:class:`GraphResult` recap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from repro.common.errors import EngineError
from repro.engine.resilience import RetryPolicy

__all__ = [
    "Task",
    "TaskContext",
    "TaskGraph",
    "ReadySet",
    "TaskState",
    "TaskOutcome",
    "GraphResult",
]


class TaskState(str, enum.Enum):
    """Lifecycle of one task inside a graph run."""

    PENDING = "pending"
    RUNNING = "running"
    OK = "ok"
    #: The task did not execute: its fingerprint hit the artifact index
    #: and its outputs were materialized from the content store (see
    #: :mod:`repro.engine.cache`).  Counts as success everywhere OK does.
    CACHED = "cached"
    FAILED = "failed"
    SKIPPED = "skipped"
    #: An *optional* task failed: the run is degraded, not broken —
    #: dependents still run and exit codes do not flip.
    DEGRADED = "degraded"
    #: The run was interrupted (Ctrl-C / BaseException) mid-task; the
    #: outcome is recorded so the journal accounts for in-flight work.
    ABORTED = "aborted"


@dataclass(frozen=True)
class TaskContext:
    """What a payload sees when it runs: its id and its inputs.

    ``results`` maps each *direct* dependency's id to the value that
    dependency's payload returned — the data-flow edge of the graph.
    ``states`` maps every direct dependency to its
    :class:`TaskState`; a DEGRADED dependency (an optional task that
    failed) appears in ``states`` but carries no value.
    """

    task_id: str
    results: Mapping[str, Any]
    states: Mapping[str, "TaskState"] = field(
        default_factory=lambda: MappingProxyType({})
    )

    def result(self, task_id: str) -> Any:
        """The value dependency *task_id* produced.

        Raises :class:`EngineError` naming the task and its state when
        the dependency is undeclared or did not succeed — never a bare
        ``KeyError``.
        """
        if task_id in self.results:
            return self.results[task_id]
        if task_id in self.states:
            state = self.states[task_id]
            raise EngineError(
                f"task {self.task_id!r}: dependency {task_id!r} is "
                f"{state.value}; no value is available"
            )
        raise EngineError(
            f"task {self.task_id!r} did not declare a dependency on {task_id!r}"
        )


#: A payload receives the :class:`TaskContext` and returns the task's value.
Payload = Callable[[TaskContext], Any]


@dataclass(frozen=True)
class Task:
    """One schedulable unit: id, dependency ids, payload.

    The resilience fields are all opt-in:

    * ``retry`` — a per-task :class:`~repro.engine.resilience.RetryPolicy`
      (overrides the run-level default);
    * ``timeout_s`` — per-task deadline (overrides the run-level default);
    * ``optional`` — a failure yields DEGRADED instead of FAILED:
      dependents still run and ``GraphResult.ok`` stays true.

    A task skips itself on a later run by having a
    :class:`~repro.engine.cache.MemoizedPayload` as its payload.
    """

    id: str
    payload: Payload
    dependencies: tuple[str, ...] = ()
    description: str = ""
    retry: RetryPolicy | None = None
    timeout_s: float | None = None
    optional: bool = False

    def __post_init__(self) -> None:
        if not self.id:
            raise EngineError("task id required")
        if self.id in self.dependencies:
            raise EngineError(f"task {self.id!r} depends on itself")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise EngineError(
                f"task {self.id!r}: timeout must be positive, got {self.timeout_s}"
            )


class TaskGraph:
    """An insertion-ordered DAG of tasks.

    Insertion order is meaningful: when several tasks are ready at once,
    schedulers start them in the order they were added, which is what
    makes :class:`~repro.engine.scheduler.SerialScheduler` deterministic.
    """

    def __init__(self) -> None:
        self._tasks: dict[str, Task] = {}

    # -- construction ------------------------------------------------------------
    def add(
        self,
        task_or_id: Task | str,
        payload: Payload | None = None,
        dependencies: tuple[str, ...] | list[str] = (),
        description: str = "",
        **task_fields: Any,
    ) -> Task:
        """Add a :class:`Task` (or build one from id + payload).

        Extra keyword arguments (``retry``, ``timeout_s``, ``optional``)
        pass through to the :class:`Task` constructor.
        """
        if isinstance(task_or_id, Task):
            if task_fields:
                raise EngineError(
                    "pass task fields on the Task, not to add(); got "
                    f"{sorted(task_fields)}"
                )
            task = task_or_id
        else:
            if payload is None:
                raise EngineError(f"task {task_or_id!r} needs a payload")
            task = Task(
                id=task_or_id,
                payload=payload,
                dependencies=tuple(dependencies),
                description=description,
                **task_fields,
            )
        if task.id in self._tasks:
            raise EngineError(f"duplicate task id {task.id!r}")
        self._tasks[task.id] = task
        return task

    # -- lookup ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def ids(self) -> list[str]:
        return list(self._tasks)

    def task(self, task_id: str) -> Task:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise EngineError(f"no such task {task_id!r}") from None

    def dependents(self, task_id: str) -> list[str]:
        """Ids of tasks that *directly* depend on ``task_id``."""
        return [t.id for t in self if task_id in t.dependencies]

    def downstream(self, task_id: str) -> set[str]:
        """All transitive dependents of ``task_id`` (not including it)."""
        out: set[str] = set()
        frontier = [task_id]
        while frontier:
            current = frontier.pop()
            for dep_id in self.dependents(current):
                if dep_id not in out:
                    out.add(dep_id)
                    frontier.append(dep_id)
        return out

    # -- structural checks -------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`EngineError` on unknown dependencies or cycles."""
        for task in self:
            for dep in task.dependencies:
                if dep not in self._tasks:
                    raise EngineError(
                        f"task {task.id!r} depends on unknown task {dep!r}"
                    )
        self.topological_levels()  # raises on cycles

    def topological_levels(self) -> list[list[str]]:
        """Kahn's algorithm, grouped into levels.

        Level 0 holds tasks with no dependencies; level *n* holds tasks
        whose dependencies all sit in levels < *n* — the tasks inside one
        level are mutually independent and may run concurrently.  Raises
        :class:`EngineError` when the graph has a cycle.
        """
        remaining = {t.id: set(t.dependencies) for t in self}
        levels: list[list[str]] = []
        done: set[str] = set()
        while remaining:
            level = [tid for tid, deps in remaining.items() if deps <= done]
            if not level:
                cycle = sorted(remaining)
                raise EngineError(f"task graph has a cycle among {cycle}")
            levels.append(level)
            done.update(level)
            for tid in level:
                del remaining[tid]
        return levels


class ReadySet:
    """Tracks which tasks are ready as their dependencies complete.

    The scheduler's bookkeeping core: :meth:`take_ready` hands out every
    task whose dependencies are all satisfied (each task is handed out
    once, in graph insertion order); :meth:`complete` marks a task's
    dependents one step closer to ready; :meth:`discard` removes tasks
    that will never run (failure propagation).
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._waiting: dict[str, set[str]] = {
            t.id: set(t.dependencies) for t in graph
        }

    @property
    def exhausted(self) -> bool:
        """True when every task has been handed out or discarded."""
        return not self._waiting

    def pending(self) -> list[str]:
        """Tasks not yet handed out, in insertion order."""
        return list(self._waiting)

    def take_ready(self) -> list[str]:
        """Pop and return every currently-ready task id, in order."""
        ready = [tid for tid, deps in self._waiting.items() if not deps]
        for tid in ready:
            del self._waiting[tid]
        return ready

    def complete(self, task_id: str) -> list[str]:
        """Record a successful completion; return newly-ready task ids."""
        for deps in self._waiting.values():
            deps.discard(task_id)
        return self.take_ready()

    def discard(self, task_ids: set[str]) -> None:
        """Drop tasks that will never become ready (skipped downstream)."""
        for tid in task_ids:
            self._waiting.pop(tid, None)


@dataclass
class TaskOutcome:
    """How one task ended: state, value or error, and wall seconds."""

    task_id: str
    state: TaskState
    value: Any = None
    error: BaseException | None = None
    seconds: float = 0.0
    #: For SKIPPED tasks: the id of the failed task that doomed this one.
    blamed_on: str | None = None
    #: How many attempts the task took (1 unless a retry policy fired).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.state in (TaskState.OK, TaskState.CACHED)

    def describe(self) -> str:
        if self.state is TaskState.CACHED:
            return f"{self.task_id}: cached ({self.seconds:.3f}s)"
        if self.state is TaskState.OK:
            suffix = f" [{self.attempts} attempts]" if self.attempts > 1 else ""
            return f"{self.task_id}: ok ({self.seconds:.3f}s){suffix}"
        if self.state is TaskState.SKIPPED:
            return f"{self.task_id}: skipped (upstream {self.blamed_on} failed)"
        if self.state is TaskState.DEGRADED:
            return f"{self.task_id}: degraded (optional task failed: {self.error})"
        return f"{self.task_id}: {self.state.value} ({self.error})"


@dataclass
class GraphResult:
    """The recap of one graph run: every task's outcome plus wall time.

    ``outcomes`` is keyed by task id in *completion* order (which varies
    under the threaded scheduler); use the graph's own ordering when a
    stable iteration is needed.
    """

    outcomes: dict[str, TaskOutcome] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every task is OK, CACHED or DEGRADED."""
        return all(
            o.state in (TaskState.OK, TaskState.CACHED, TaskState.DEGRADED)
            for o in self.outcomes.values()
        )

    def ids(self, state: TaskState) -> list[str]:
        return [tid for tid, o in self.outcomes.items() if o.state is state]

    @property
    def succeeded(self) -> list[str]:
        return self.ids(TaskState.OK)

    @property
    def failed(self) -> list[str]:
        return self.ids(TaskState.FAILED)

    @property
    def skipped(self) -> list[str]:
        return self.ids(TaskState.SKIPPED)

    @property
    def degraded(self) -> list[str]:
        return self.ids(TaskState.DEGRADED)

    @property
    def cached(self) -> list[str]:
        return self.ids(TaskState.CACHED)

    @property
    def aborted(self) -> list[str]:
        return self.ids(TaskState.ABORTED)

    def outcome(self, task_id: str) -> TaskOutcome:
        try:
            return self.outcomes[task_id]
        except KeyError:
            raise EngineError(f"no outcome for task {task_id!r}") from None

    def value(self, task_id: str) -> Any:
        """The value a task returned; raises unless the task is OK/CACHED."""
        outcome = self.outcome(task_id)
        if outcome.state not in (TaskState.OK, TaskState.CACHED):
            raise EngineError(
                f"task {task_id!r} did not succeed: {outcome.describe()}"
            )
        return outcome.value

    def raise_first_error(self) -> None:
        """Re-raise the first failed task's exception (no-op when ok)."""
        for outcome in self.outcomes.values():
            if outcome.state is TaskState.FAILED and outcome.error is not None:
                raise outcome.error

    def recap(self) -> str:
        """A ``PLAY RECAP``-style human summary, one line per task."""
        counts = (
            f"{len(self.succeeded)} ok, {len(self.failed)} failed, "
            f"{len(self.skipped)} skipped"
        )
        if self.cached:
            counts += f", {len(self.cached)} cached"
        if self.degraded:
            counts += f", {len(self.degraded)} degraded"
        if self.aborted:
            counts += f", {len(self.aborted)} aborted"
        lines = [
            f"graph: {len(self.outcomes)} tasks: {counts} "
            f"(wall {self.wall_seconds:.3f}s)"
        ]
        for outcome in self.outcomes.values():
            lines.append("  " + outcome.describe())
        return "\n".join(lines)
