"""Signal-safe shutdown: turn SIGINT/SIGTERM into a cooperative drain.

A killed sweep must not lose the work it already finished: every
finished task has filed its outputs in the artifact store, so a re-run
of an interrupted evaluation serves them instead of restarting.  The
dangerous window is *between* the
signal and the exit: a handler that raises ``KeyboardInterrupt`` at an
arbitrary bytecode boundary can land mid-``os.replace`` or mid-append
and leave exactly the torn state the crash-consistency layer exists to
prevent.

So shutdown here is cooperative:

* a :class:`CancelToken` is a thread-safe "stop now" flag;
* :class:`GracefulShutdown` installs SIGINT/SIGTERM handlers (main
  thread only — ``signal.signal`` is illegal elsewhere) that *set the
  token* instead of raising;
* the schedulers check the token between tasks: in-flight tasks drain
  and file their outputs normally, no new work starts, and the run
  raises :class:`RunCancelled` once quiescent;
* the CLI maps the cancellation to the conventional ``128 + signum``
  exit code (130 for SIGINT, 143 for SIGTERM), so wrappers and CI can
  tell "interrupted, a re-run finishes it" from "failed".

A worker process of the pool restores SIGTERM's default action, so the
owner's drain can still ``terminate()`` a straggler that was forked
while these handlers were installed.

A second signal while draining restores the default handler, so a
stuck payload can still be killed the blunt way.
"""

from __future__ import annotations

import signal
import threading
from typing import Any

__all__ = [
    "EXIT_SIGINT",
    "EXIT_SIGTERM",
    "CancelToken",
    "GracefulShutdown",
    "RunCancelled",
]

#: Conventional exit codes: 128 + signal number.
EXIT_SIGINT = 128 + signal.SIGINT  # 130
EXIT_SIGTERM = 128 + signal.SIGTERM  # 143


class RunCancelled(BaseException):
    """The run was cancelled by a signal (or an explicit token).

    Deliberately a ``BaseException``: payload code that catches broad
    ``Exception`` (retry loops, degradation paths) must not absorb a
    shutdown request.
    """

    def __init__(self, signum: int | None = None) -> None:
        name = (
            signal.Signals(signum).name
            if signum is not None
            else "cancel token"
        )
        super().__init__(f"run cancelled by {name}")
        self.signum = signum

    def __reduce__(self):
        # Default exception pickling replays the formatted message into
        # ``__init__(signum)``; spell out the real constructor argument
        # so a cancellation can cross a process boundary intact.
        return (RunCancelled, (self.signum,))

    @property
    def exit_code(self) -> int:
        """The conventional shell exit code for this cancellation."""
        return 128 + self.signum if self.signum else EXIT_SIGINT


class CancelToken:
    """A thread-safe cancellation flag, optionally carrying a signal."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._signum: int | None = None

    def cancel(self, signum: int | None = None) -> None:
        """Request cancellation (idempotent; first signal wins)."""
        if self._signum is None:
            self._signum = signum
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def signum(self) -> int | None:
        return self._signum

    def raise_if_cancelled(self) -> None:
        """Raise :class:`RunCancelled` when the token is set."""
        if self._event.is_set():
            raise RunCancelled(self._signum)


class GracefulShutdown:
    """Context manager: route SIGINT/SIGTERM into a :class:`CancelToken`.

    ::

        token = CancelToken()
        with GracefulShutdown(token) as guard:
            result = scheduler.run(graph, options=RunOptions(cancel=token))
        ...
        # RunCancelled propagates here; exit with guard.exit_code

    Off the main thread (where ``signal.signal`` raises ``ValueError``)
    the manager degrades to a no-op pass-through: the token still works
    when cancelled programmatically, only the signal routing is absent.
    That keeps ``popper`` mains embedded on a non-main thread working
    unchanged.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, token: CancelToken | None = None) -> None:
        self.token = token if token is not None else CancelToken()
        self.installed = False
        self._previous: dict[int, Any] = {}

    def _handler(self, signum: int, frame: Any) -> None:
        first = not self.token.cancelled
        self.token.cancel(signum)
        if first:
            return
        # Second signal: the user means it — fall back to the default
        # disposition so a wedged payload can still be killed.
        self._restore()
        signal.raise_signal(signum)

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        self._previous.clear()
        self.installed = False

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            try:
                for signum in self.SIGNALS:
                    self._previous[signum] = signal.signal(
                        signum, self._handler
                    )
                self.installed = True
            except ValueError:  # pragma: no cover - exotic embeddings
                self._restore()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    @property
    def exit_code(self) -> int:
        """128 + the received signal (130/143); 0 when never signalled."""
        signum = self.token.signum
        return 128 + signum if signum else 0
