"""Deterministic crash injection: killing the process at write hazards.

The fault plan in :mod:`repro.engine.faults` makes *payloads* fail; this
module makes the *toolchain itself* die mid-write, which is the failure
class crash consistency is about.  Every hazardous write site in the
storage stack calls :func:`crashpoint` with a dotted site name::

    cas.ingest.tmp          object bytes written, not yet published
    cas.ingest.publish      object published, index record not yet written
    index.record            about to publish an artifact-index record
    refs.update             about to replace a ref file
    runstate.append.torn    half a run-state record flushed to disk
    journal.append.torn     half a journal event flushed to disk
    runstate.append.window  a group-commit window about to land (the
                            buffered records are lost whole, no tear)
    journal.append.window   same, for the run journal's writer
    fuzz.coverage.window / fuzz.coverage.torn  the coverage map's writer
    fuzz.corpus.window / fuzz.corpus.torn      the corpus index's writer
    queue.claim             job lease marker durable, journal record
                            not yet appended (the job stays claimable)
    queue.publish           job result file durable, journal record not
                            yet appended (the lease expires and the job
                            re-runs — idempotent through the cache)
    queue.append.window / queue.append.torn    the serve queue journal's
                            group-commit writer
    profiles.attach.torn    half a run's profile line flushed to its
                            commit's ledger (``profiles/<commit>.jsonl``)
    profiles.index.torn     half a profiles index line flushed
    pack.write.tmp          packfile temp durable, rename not yet issued
    pack.publish            pack renamed in, index not yet written
    fsutil.atomic_write.tmp     temp file durable, rename not yet issued
    fsutil.atomic_write.rename  renamed, parent directory not yet fsynced

With no plan installed the hook is a cheap no-op.  A :class:`CrashPlan`
(``popper run --inject-crash SPEC``) matches site names against globbed
clauses and kills the process at the matching hit — either *soft*
(raising :class:`SimulatedCrash`, a ``BaseException`` that unwinds like
a ``kill`` would, skipping the ``except Exception`` recovery paths) or
*hard* (``os._exit``, the honest ``kill -9``).  Determinism mirrors
``FaultPlan``: the same spec and seed crash at the same write on every
run, so a crash test is itself a reproducible experiment.

Spec grammar (comma-separated clauses)::

    at:<glob>:<n>     the n-th hit of a matching site crashes
    rate:<glob>:<p>   each hit of a matching site crashes with
                      probability p, drawn from a seeded stream

``popper doctor`` is the other half: after an injected (or real) crash
it scans ``.pvcs/`` for the debris — orphan temps, torn JSONL tails,
half-published index records, stale locks — and repairs it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.common.errors import EngineError
from repro.common.rng import derive_rng

__all__ = [
    "EXIT_CRASH",
    "SimulatedCrash",
    "CrashSpec",
    "CrashPlan",
    "install_crash_plan",
    "active_crash_plan",
    "crashpoint",
]

#: Exit status of a process killed by a (soft) injected crash: the CLI
#: maps an uncaught :class:`SimulatedCrash` onto this code so subprocess
#: harnesses can tell "crashed as planned" from ordinary failures.
EXIT_CRASH = 70

_MODES = ("at", "rate")


class SimulatedCrash(BaseException):
    """The process "died" at a crash point.

    Deliberately *not* an :class:`Exception`: the storage layers catch
    ``Exception`` to degrade gracefully (a cache miss, a skipped record)
    and a simulated crash must not be absorbed by those paths — a real
    ``kill -9`` would not be.  Cleanup handlers that would un-tear the
    injected state (e.g. ``atomic_write`` unlinking its temp file) are
    expected to re-raise this without tidying.
    """

    def __init__(self, point: str, hit: int) -> None:
        self.point = point
        self.hit = hit
        super().__init__(f"simulated crash at {point} (hit {hit})")

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, which takes (point, hit) — so a
        # crash raised inside a worker process could not be rebuilt by
        # the parent without this.
        return (SimulatedCrash, (self.point, self.hit))


@dataclass(frozen=True)
class CrashSpec:
    """One parsed clause of a crash plan."""

    mode: str
    target: str
    arg: float

    def matches(self, point: str) -> bool:
        return fnmatchcase(point, self.target)


def _parse_clause(clause: str) -> CrashSpec:
    parts = clause.split(":")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise EngineError(
            f"bad crash clause {clause!r}; expected mode:point-glob:arg"
        )
    mode, target, raw = parts
    if mode not in _MODES:
        raise EngineError(
            f"unknown crash mode {mode!r}; known: {', '.join(_MODES)}"
        )
    try:
        arg = float(raw)
    except ValueError:
        raise EngineError(
            f"crash clause {clause!r}: bad numeric arg {raw!r}"
        ) from None
    if not math.isfinite(arg):
        raise EngineError(f"crash clause {clause!r}: arg must be finite")
    if mode == "at" and (arg < 1 or arg != int(arg)):
        raise EngineError(f"crash clause {clause!r}: 'at' needs an int >= 1")
    if mode == "rate" and not 0 <= arg <= 1:
        raise EngineError(f"crash clause {clause!r}: rate must be in [0, 1]")
    return CrashSpec(mode=mode, target=target, arg=arg)


class CrashPlan:
    """A seeded set of crash specs, consulted at every crash point.

    ``hard=True`` dies with ``os._exit(EXIT_CRASH)`` — no unwinding, no
    ``finally`` blocks, the closest in-process model of ``kill -9``.
    The default soft mode raises :class:`SimulatedCrash` so in-process
    tests can observe the debris without losing the interpreter.
    """

    def __init__(
        self,
        specs: list[CrashSpec] | tuple[CrashSpec, ...],
        seed: int = 42,
        hard: bool = False,
    ) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.hard = bool(hard)
        self._lock = threading.Lock()
        self._counts: dict[tuple[int, str], int] = {}

    @classmethod
    def parse(cls, text: str, seed: int = 42, hard: bool = False) -> "CrashPlan":
        """Parse a spec string (see module docstring for the grammar)."""
        clauses = [c.strip() for c in str(text).split(",") if c.strip()]
        if not clauses:
            raise EngineError(f"empty crash spec: {text!r}")
        return cls([_parse_clause(c) for c in clauses], seed=seed, hard=hard)

    def describe(self) -> str:
        return ",".join(f"{s.mode}:{s.target}:{s.arg:g}" for s in self.specs)

    def __getstate__(self) -> dict:
        # The lock cannot cross a process boundary; counters ship as a
        # snapshot (each worker counts its own hits from there on).
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _bump(self, index: int, point: str) -> int:
        with self._lock:
            key = (index, point)
            self._counts[key] = self._counts.get(key, 0) + 1
            return self._counts[key]

    def check(self, point: str) -> None:
        """Crash if any clause says this hit of *point* is the one."""
        for index, spec in enumerate(self.specs):
            if not spec.matches(point):
                continue
            count = self._bump(index, point)
            doomed = False
            if spec.mode == "at":
                doomed = count == int(spec.arg)
            elif spec.mode == "rate":
                rng = derive_rng(self.seed, "crash", spec.target, point, count)
                doomed = float(rng.random()) < spec.arg
            if doomed:
                if self.hard:  # pragma: no cover - kills the test process
                    os._exit(EXIT_CRASH)
                raise SimulatedCrash(point, count)


#: The installed plan; module-global so the write sites need no plumbing.
_ACTIVE: CrashPlan | None = None


def install_crash_plan(plan: CrashPlan | None) -> CrashPlan | None:
    """Install (or, with ``None``, clear) the process-wide crash plan.

    Returns the previously installed plan so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


def active_crash_plan() -> CrashPlan | None:
    return _ACTIVE


def crashpoint(point: str) -> None:
    """Declare a crash hazard; a no-op unless a plan is installed."""
    plan = _ACTIVE
    if plan is not None:
        plan.check(point)
