"""Deterministic fault injection: chaos-testing the execution stack.

A :class:`FaultPlan` wraps task execution with deliberate failures so
the whole resilience layer — retry policies, timeouts, degraded states,
cached re-runs — can be exercised end to end (``popper run
--inject-faults SPEC``).  Determinism is the point: the same spec and
seed produce the same faults on every run, so a chaos test is itself a
reproducible experiment.

The spec grammar is a comma-separated list of clauses::

    flaky:<glob>:<n>     first n attempts of matching tasks raise a
                         TransientInjectedFault, then they succeed
    fail:<glob>          matching tasks always raise InjectedFault
                         (permanent: never retried)
    delay:<glob>:<s>     sleep s seconds before matching tasks run
                         (trips per-task deadlines)
    rate:<glob>:<p>      each attempt of a matching task fails with
                         probability p, drawn from a seeded stream

``<glob>`` is an ``fnmatch`` pattern over task ids (``run``, ``exp-*``,
``host/*``).  Counters are per-plan and per-task, guarded by a lock so
the threaded scheduler sees the same deterministic sequence as the
serial one.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.common.errors import (
    EngineError,
    InjectedFault,
    TransientInjectedFault,
)
from repro.common.rng import derive_rng

__all__ = ["FaultSpec", "FaultPlan"]

_MODES = ("flaky", "fail", "delay", "rate")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed clause of a fault plan."""

    mode: str
    target: str
    arg: float = 0.0

    def matches(self, task_id: str) -> bool:
        return fnmatchcase(task_id, self.target)


def _parse_clause(clause: str) -> FaultSpec:
    parts = clause.split(":")
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise EngineError(
            f"bad fault clause {clause!r}; expected mode:target[:arg]"
        )
    mode, target = parts[0], parts[1]
    if mode not in _MODES:
        raise EngineError(
            f"unknown fault mode {mode!r}; known: {', '.join(_MODES)}"
        )
    if mode == "fail":
        if len(parts) > 2:
            raise EngineError(f"fault clause {clause!r}: 'fail' takes no arg")
        return FaultSpec(mode=mode, target=target)
    if len(parts) != 3:
        raise EngineError(f"fault clause {clause!r}: {mode!r} needs an arg")
    try:
        arg = float(parts[2])
    except ValueError:
        raise EngineError(
            f"fault clause {clause!r}: bad numeric arg {parts[2]!r}"
        ) from None
    if not math.isfinite(arg):
        raise EngineError(f"fault clause {clause!r}: arg must be finite")
    if arg < 0:
        raise EngineError(f"fault clause {clause!r}: arg must be >= 0")
    if mode == "rate" and arg > 1:
        raise EngineError(f"fault clause {clause!r}: rate must be <= 1")
    return FaultSpec(mode=mode, target=target, arg=arg)


class FaultPlan:
    """A seeded set of fault specs, applied before each task attempt.

    The scheduler calls :meth:`before` at the start of every attempt of
    every task; matching clauses fire in spec order.  All bookkeeping
    (attempt counters, probability streams) is deterministic under the
    plan's seed and thread-safe.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...], seed: int = 42) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counts: dict[tuple[int, str], int] = {}

    @classmethod
    def parse(cls, text: str, seed: int = 42) -> "FaultPlan":
        """Parse a spec string (see module docstring for the grammar)."""
        clauses = [c.strip() for c in str(text).split(",") if c.strip()]
        if not clauses:
            raise EngineError(f"empty fault spec: {text!r}")
        return cls([_parse_clause(c) for c in clauses], seed=seed)

    def describe(self) -> str:
        return ",".join(
            f"{s.mode}:{s.target}" + (f":{s.arg:g}" if s.mode != "fail" else "")
            for s in self.specs
        )

    def __getstate__(self) -> dict:
        # The lock cannot cross a process boundary; counters ship as a
        # snapshot.  Each task runs all of its attempts inside a single
        # worker, and counters are keyed per task, so per-job snapshots
        # observe the same deterministic sequence a shared plan would.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _bump(self, index: int, task_id: str) -> int:
        with self._lock:
            key = (index, task_id)
            self._counts[key] = self._counts.get(key, 0) + 1
            return self._counts[key]

    def before(self, task_id: str) -> None:
        """Apply every matching clause to one attempt of *task_id*.

        Raises the injected exception (or sleeps, for ``delay``); a task
        no clause matches is untouched.
        """
        for index, spec in enumerate(self.specs):
            if not spec.matches(task_id):
                continue
            count = self._bump(index, task_id)
            if spec.mode == "delay":
                time.sleep(spec.arg)
            elif spec.mode == "fail":
                raise InjectedFault(
                    f"injected permanent fault for task {task_id!r}"
                )
            elif spec.mode == "flaky":
                if count <= int(spec.arg):
                    raise TransientInjectedFault(
                        f"injected transient fault for task {task_id!r} "
                        f"(attempt {count} of {int(spec.arg)} doomed)"
                    )
            elif spec.mode == "rate":
                rng = derive_rng(self.seed, "fault", spec.target, task_id, count)
                if float(rng.random()) < spec.arg:
                    raise TransientInjectedFault(
                        f"injected random fault for task {task_id!r} "
                        f"(attempt {count}, p={spec.arg:g})"
                    )
