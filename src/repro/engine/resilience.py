"""Retry and deadline policies: how the engine survives transients.

The "Challenges of Practical Reproducibility" report (Keahey et al.,
2025) identifies infrastructure transients — a flaky host, a container
start race, a hung stage — as the dominant practical obstacle to
re-executing published experiments.  This module gives the engine the
two classic countermeasures:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter.  Jitter is derived from
  :func:`repro.common.rng.derive_rng` seeded by (seed, task id,
  attempt), so a re-executed run sleeps the exact same intervals and the
  whole evaluation stays bit-reproducible even through its failure
  handling.  Only errors in the :class:`~repro.common.errors.TransientError`
  branch are retried by default; permanent errors fail fast.
* :func:`call_with_timeout` — per-task deadline enforcement.  The
  payload runs on a watchdog daemon thread; blowing the deadline raises
  :class:`~repro.common.errors.TaskTimeoutError` (itself transient, so a
  hung attempt can be retried).

Both are consumed by :mod:`repro.engine.scheduler`; callers set them
per-task (:class:`~repro.engine.graph.Task` fields) or per-run
(:class:`~repro.engine.scheduler.RunOptions`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import EngineError, TaskTimeoutError, TransientError
from repro.common.rng import derive_rng

__all__ = ["RetryPolicy", "NO_RETRY", "call_with_timeout"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means at
    most two retries.  Attempt *n* (that failed retryably) sleeps
    ``backoff_s * 2**(n-1)``, stretched by up to ``jitter`` fraction and
    then capped at ``max_backoff_s``, so no sleep exceeds it whatever
    the attempt number (the serve queue requeues a job on every lease
    expiry).  The jitter is drawn from a generator seeded by (seed, task
    id, attempt), so reruns are bit-identical.  Only errors in the
    :class:`~repro.common.errors.TransientError` branch are retried.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.1
    seed: int = 42

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise EngineError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise EngineError("backoff parameters must be non-negative")
        if self.jitter < 0:
            raise EngineError(f"jitter must be non-negative, got {self.jitter}")

    def retryable(self, error: BaseException) -> bool:
        """Whether *error* is worth another attempt under this policy."""
        return isinstance(error, TransientError)

    def delay_s(self, task_id: str, attempt: int) -> float:
        """Seconds to sleep after failed *attempt* (1-based) of *task_id*.

        Deterministic: the same (seed, task, attempt) always yields the
        same delay, which is what keeps retried runs bit-identical.
        """
        try:
            delay = self.backoff_s * 2.0 ** (attempt - 1)
        except OverflowError:
            # 2.0 ** ~1025 overflows a float; the cap would win anyway.
            delay = float("inf")
        if delay <= 0:
            return 0.0
        if self.jitter > 0:
            rng = derive_rng(self.seed, "retry", task_id, attempt)
            delay *= 1.0 + self.jitter * float(rng.random())
        return min(delay, self.max_backoff_s)


#: The fail-stop policy: one attempt, no backoff (the engine's default).
NO_RETRY = RetryPolicy(max_attempts=1)


def call_with_timeout(
    fn: Callable[[], Any], timeout_s: float | None, label: str = "task"
) -> Any:
    """Run ``fn()`` with a deadline; raise :class:`TaskTimeoutError` past it.

    With ``timeout_s=None`` the call runs inline.  Otherwise the call
    runs on a daemon watchdog thread and the caller waits up to
    ``timeout_s``; a blown deadline abandons the thread (Python cannot
    kill it) and raises.  Exceptions from ``fn`` — including
    ``BaseException`` — propagate unchanged when the call finishes in
    time.
    """
    if timeout_s is None:
        return fn()
    if timeout_s <= 0:
        raise EngineError(f"timeout must be positive, got {timeout_s}")
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    thread = threading.Thread(target=target, name=f"deadline/{label}", daemon=True)
    started = time.perf_counter()
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise TaskTimeoutError(
            f"{label} exceeded its {timeout_s}s deadline "
            f"(ran {time.perf_counter() - started:.3f}s)"
        )
    if "error" in box:
        raise box["error"]
    return box.get("value")
