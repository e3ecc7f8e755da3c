"""The supervised worker pool behind the process backend and ``popper serve``.

:class:`~repro.engine.procsched.ProcessScheduler` and
:class:`~repro.serve.daemon.PopperServer` both run jobs on a fixed set of
worker *processes* that must outlive any one job's hard death.  Both run
on this pool.  Only what a worker does with a job differs, and that is
the pool's *runner*: each worker calls ``runner(index)`` once and feeds
every job it receives to the callable it gets back, which turns one job
into one picklable record.  Whatever a job leaves behind rides its
record; a worker keeps nothing to hand over when it exits.

The crash-containment protocol lives here, once:

* **one pipe per worker, parent-side assignment** — each worker owns a
  duplex pipe and shares nothing else with its siblings.  The parent
  sends a job only to an idle worker and records which job it sent, so
  the job a dead worker held is known in the parent without asking the
  worker.  Jobs dispatched while every worker is busy wait in the
  parent, oldest first.
* **exact reaping** — a worker is dead when ``is_alive()`` says so.
  Its pipe is then read to the end: a record it sent before dying is
  delivered by the next :meth:`WorkerPool.poll`, and only a job with
  no record is reported lost.  A worker that held no job names none.
* **respawn** — a reaped worker is replaced at a fresh index, so a
  crashing job costs one job, never the pool.
* **bounded drain** — a sentinel down each live worker's own pipe, a
  join bounded by one deadline, then ``terminate`` for stragglers.
* **nesting** — workers are not daemonic, so a job may start a pool of
  its own (a CI matrix job running ``popper run -j 2`` or the serve
  self-check).  ``multiprocessing`` joins such children when their
  owner exits, so a pool its owner never drained is drained then.

Workers fork where the platform can (cheapest, and a forked worker
inherits the parent's installed crash plan), else spawn.  Jobs and
records cross as pickles this program wrote.  ``multiprocessing`` is
imported in :meth:`WorkerPool.start` and :meth:`WorkerPool.poll`, so
importing this module starts nothing.  Importing :mod:`repro.engine`
does not import it at all: only ``popper run -j N`` and ``popper ci -j
N`` (through :mod:`~repro.engine.procsched`) and ``popper serve`` load
the pool.
"""

from __future__ import annotations

import pickle
import signal
import time
from collections import deque
from typing import Any, Callable, NamedTuple

from repro.common.errors import EngineError

__all__ = ["LostJob", "WorkerPool"]

#: ``runner(index)`` -> the worker's ``job -> record`` callable.
Runner = Callable[[int], Callable[[Any], Any]]


class LostJob(NamedTuple):
    """A job whose worker died without reporting it."""

    key: str
    worker: int
    exitcode: int | None


def _worker_main(runner: Runner, index: int, conn, inherited: tuple = ()) -> None:
    """Worker loop: answer each job on *conn* with its record, until ``None``.

    *inherited* are the owner's ends of the pipes, this worker's among
    them, that a forked worker holds copies of.  Once they are closed,
    the owner's death (even by ``os._exit`` or ``kill -9``) reads as
    end-of-file on *conn*, and the worker exits quietly.

    SIGTERM gets its default action back: a worker forked inside the
    owner's :class:`~repro.engine.shutdown.GracefulShutdown` would
    otherwise inherit a handler that only sets a token, and shrug off
    the ``terminate()`` of :meth:`WorkerPool.drain`.  SIGINT keeps the
    inherited disposition, so Ctrl-C still drains through the owner.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in inherited:
        end.close()
    run = runner(index)
    try:
        while (job := conn.recv()) is not None:
            conn.send(run(job))
    except (EOFError, BrokenPipeError):
        pass  # the owner is gone


class WorkerPool:
    """A fixed-size pool of supervised job-running processes."""

    def __init__(self, size: int, runner: Runner) -> None:
        if size < 1:
            raise EngineError(f"worker pool size must be >= 1, got {size}")
        self.size = int(size)
        self.runner = runner
        self._reset()

    def _reset(self) -> None:
        self._ctx = None
        self._at_exit = None  # drains the pool if its owner exits first
        self.workers: list = []
        self._conns: list = []  # parent ends; closed once reaped
        self._sent: dict[int, str] = {}  # worker -> key sent, not reported
        self._queued: deque[tuple[str, bytes]] = deque()
        self._buffered: list = []  # records reap() read from dead workers

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing as mp
        from multiprocessing.util import Finalize

        if self._ctx is not None:
            raise EngineError("worker pool already started")
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # no fork on this platform
            self._ctx = mp.get_context("spawn")
        for _ in range(self.size):
            self._spawn()
        # Runs at exit before multiprocessing joins the (non-daemonic)
        # workers, which would otherwise wait for jobs forever.
        self._at_exit = Finalize(
            None, self.drain, kwargs={"timeout_s": 1.0}, exitpriority=10
        )

    def _spawn(self) -> None:
        index = len(self.workers)
        conn, child = self._ctx.Pipe()
        # A spawned worker inherits no descriptor it is not passed.
        inherited = (
            tuple(c for c in self._conns if not c.closed) + (conn,)
            if self._ctx.get_start_method() == "fork"
            else ()
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.runner, index, child, inherited),
            daemon=False,
            name=f"popper-worker-{index}",
        )
        proc.start()
        child.close()  # the worker's death now reads as end-of-file on conn
        self.workers.append(proc)
        self._conns.append(conn)

    def alive_count(self) -> int:
        return sum(1 for p in self.workers if p.is_alive())

    def current_jobs(self) -> dict[int, str]:
        """The job each live worker was sent and has not yet reported.

        The serve smoke check and chaos tests use this to aim a
        ``kill -9`` at a worker that holds a job.
        """
        return {
            index: key
            for index, key in self._sent.items()
            if self.workers[index].is_alive()
        }

    # -- dispatch / results ------------------------------------------------------
    def dispatch(self, job: Any, key: str) -> None:
        """Queue *job* under *key*; an idle worker gets it at once.

        The job is pickled here, so one that cannot cross the process
        boundary raises before anything is queued.
        """
        if self._ctx is None:
            raise EngineError("worker pool not started")
        self._queued.append((key, pickle.dumps(job)))
        self._hand_out()

    def _hand_out(self) -> None:
        """Send queued jobs, oldest first, to live idle workers."""
        for index, conn in enumerate(self._conns):
            if not self._queued:
                return
            if index in self._sent or not self.workers[index].is_alive():
                continue
            key, blob = self._queued[0]
            try:
                conn.send_bytes(blob)
            except OSError:
                continue  # died meanwhile: the next worker gets the job
            self._queued.popleft()
            self._sent[index] = key

    def poll(self, timeout_s: float = 0.05) -> list:
        """Collect finished-job records (waits up to *timeout_s* for one).

        Every unreaped worker's pipe is watched, idle ones included, so
        a worker's death also ends the wait.  A worker whose record was
        read gets the next queued job before this returns.
        """
        from multiprocessing.connection import wait

        records, self._buffered = self._buffered, []
        live = {
            conn: index
            for index, conn in enumerate(self._conns)
            if not conn.closed
        }
        for conn in wait(list(live), 0.0 if records else max(timeout_s, 0.0)):
            try:
                records.append(conn.recv())
            except (EOFError, OSError):
                continue  # a dead worker: reap() settles it
            self._sent.pop(live[conn], None)
        self._hand_out()
        return records

    def reap(self, respawn: bool = True) -> list[LostJob]:
        """Name the jobs dead workers lost; respawn replacements.

        A dead worker's pipe is read to its end first, so a record it
        sent before dying is delivered by the next :meth:`poll`, not
        written off.  A worker killed between jobs names no job.
        """
        lost: list[LostJob] = []
        for index, proc in enumerate(self.workers):
            conn = self._conns[index]
            if conn.closed or proc.is_alive():
                continue
            try:
                while conn.poll():
                    self._buffered.append(conn.recv())
                    self._sent.pop(index, None)
            except (EOFError, OSError):  # the end, or a record cut short
                pass
            conn.close()
            key = self._sent.pop(index, None)
            if key is not None:
                lost.append(LostJob(key, index, proc.exitcode))
            if respawn:
                self._spawn()
        self._hand_out()
        return lost

    # -- shutdown ----------------------------------------------------------------
    def drain(self, timeout_s: float = 10.0) -> None:
        """Stop the pool: a sentinel down each live worker's pipe, then join.

        Workers still busy at the deadline are terminated; jobs still
        queued are dropped.  Safe to call twice.
        """
        if self._ctx is None:
            return
        self._at_exit.cancel()
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass  # dead, or reaped and closed
        deadline = time.monotonic() + timeout_s
        for proc in self.workers:
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for conn in self._conns:
            conn.close()
        self._reset()
