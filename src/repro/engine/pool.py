"""The supervised worker pool behind the process backend and ``popper serve``.

:class:`~repro.engine.procsched.ProcessScheduler` and
:class:`~repro.serve.daemon.PopperServer` both run jobs on a fixed set of
worker *processes* that must outlive any one job's hard death.  Both run
on this pool.  Only what a worker does with a job differs, and that is
the pool's *runner*: each worker calls ``runner(index)`` once and feeds
every job it pulls to the callable it gets back, which turns one job
into one picklable record.  If that callable has a ``close()``, it runs
when the worker exits.

The crash-containment protocol lives here, once:

* **marker-file attribution** — before a job runs, the worker writes
  the job's key *synchronously* to its private marker file.  A queue
  message would not survive a hard crash (``os._exit`` or ``kill -9``
  kills ``mp.Queue``'s feeder thread before it flushes), but the marker
  does: it is how :meth:`WorkerPool.reap` names the job a dead worker
  lost.  A worker that dies between jobs leaves an empty marker.
* **grace-poll reaping** — a worker observed dead gets one more poll
  before attribution, so a record already in the pipe when the process
  died is drained rather than written off and run twice.
* **respawn** — a reaped worker is replaced at a fresh index, so a
  crashing job costs one job, never the pool.
* **bounded drain** — a sentinel to every live worker, a join bounded
  by one deadline, then ``terminate`` for stragglers; the marker
  directory is removed.

Workers fork where the platform can (cheapest, and a forked worker
inherits the parent's installed crash plan), else spawn.  Jobs and
records cross as pickles this program wrote.  ``multiprocessing`` is
imported in :meth:`WorkerPool.start`, so importing :mod:`repro.engine`
stays cheap for the many ``popper`` invocations that start no worker.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import shutil
import tempfile
import time
from pathlib import Path
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


def _worker_main(
    runner: Runner, index: int, jobs_q, results_q, marker_path: str
) -> None:
    """Worker loop: pull ``(key, job)`` blobs until the ``None`` sentinel."""
    run = runner(index)
    marker = Path(marker_path)
    try:
        while True:
            blob = jobs_q.get()
            if blob is None:
                break
            key, job = pickle.loads(blob)
            marker.write_text(key, encoding="utf-8")
            results_q.put(pickle.dumps(run(job)))
            marker.write_text("", encoding="utf-8")
    finally:
        close = getattr(run, "close", None)
        if close is not None:
            close()


class WorkerPool:
    """A fixed-size pool of supervised job-running processes."""

    def __init__(self, size: int, runner: Runner) -> None:
        if size < 1:
            raise EngineError(f"worker pool size must be >= 1, got {size}")
        self.size = int(size)
        self.runner = runner
        self.workers: list = []
        self._dead_seen: set[int] = set()
        self._reaped: set[int] = set()
        self._ctx = None
        self._jobs_q = None
        self._results_q = None
        self._scratch: Path | None = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing as mp

        if self._ctx is not None:
            raise EngineError("worker pool already started")
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # no fork on this platform
            self._ctx = mp.get_context("spawn")
        self._jobs_q = self._ctx.Queue()
        self._results_q = self._ctx.Queue()
        self._scratch = Path(tempfile.mkdtemp(prefix="popper-pool-"))
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> None:
        index = len(self.workers)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.runner,
                index,
                self._jobs_q,
                self._results_q,
                str(self._marker(index)),
            ),
            daemon=True,
            name=f"popper-worker-{index}",
        )
        proc.start()
        self.workers.append(proc)

    def _marker(self, index: int) -> Path:
        return self._scratch / f"running-{index}"

    def _running(self, index: int) -> str:
        """The key in worker *index*'s marker; ``""`` between jobs."""
        try:
            return self._marker(index).read_text(encoding="utf-8").strip()
        except OSError:
            return ""

    def alive_count(self) -> int:
        return sum(1 for p in self.workers if p.is_alive())

    def current_jobs(self) -> dict[int, str]:
        """Marker-file view of what each live worker is running now.

        The serve smoke check and chaos tests use this to aim a
        ``kill -9`` at a worker that has *definitely* started a job
        (the marker write precedes the run, synchronously).
        """
        running: dict[int, str] = {}
        for index, proc in enumerate(self.workers):
            key = self._running(index) if proc.is_alive() else ""
            if key:
                running[index] = key
        return running

    # -- dispatch / results ------------------------------------------------------
    def dispatch(self, job: Any, key: str) -> None:
        """Queue *job*; *key* names it in its worker's marker file.

        The job is pickled here, so one that cannot cross the process
        boundary raises before anything is queued.
        """
        if self._jobs_q is None:
            raise EngineError("worker pool not started")
        self._jobs_q.put(pickle.dumps((key, job)))

    def poll(self, timeout_s: float = 0.05) -> list:
        """Drain finished-job records (waits up to *timeout_s* for one)."""
        if self._results_q is None:
            return []
        records: list = []
        deadline = time.monotonic() + max(timeout_s, 0.0)
        while True:
            wait = deadline - time.monotonic()
            try:
                if wait > 0:
                    blob = self._results_q.get(timeout=wait)
                else:
                    blob = self._results_q.get_nowait()
            except queue_mod.Empty:
                break
            records.append(pickle.loads(blob))
            deadline = time.monotonic()  # drain the rest without waiting
        return records

    def reap(self, respawn: bool = True) -> list[LostJob]:
        """Name the jobs dead workers lost; respawn replacements.

        Each dead worker gets one grace poll before attribution, so a
        record already queued is not written off.  A worker killed
        between jobs names no job.
        """
        lost: list[LostJob] = []
        for index, proc in enumerate(self.workers):
            if proc.is_alive() or index in self._reaped:
                continue
            if index not in self._dead_seen:
                self._dead_seen.add(index)  # grace: attribute next call
                continue
            self._reaped.add(index)
            key = self._running(index)
            if key:
                lost.append(LostJob(key, index, proc.exitcode))
            if respawn:
                self._spawn()
        return lost

    # -- shutdown ----------------------------------------------------------------
    def drain(self, timeout_s: float = 10.0) -> None:
        """Stop the pool: sentinel every live worker, join, sweep scratch.

        Workers still busy at the deadline are terminated.  Safe to
        call twice.
        """
        if self._ctx is None:
            return
        # Count first: any idle worker may take any sentinel and exit,
        # so checking each worker while sending would under-send.
        for _ in range(self.alive_count()):
            self._jobs_q.put(None)
        deadline = time.monotonic() + timeout_s
        for proc in self.workers:
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        # mp.Queue feeder threads must unblock before interpreter exit.
        for q in (self._jobs_q, self._results_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        shutil.rmtree(self._scratch, ignore_errors=True)
        self._ctx = None
        self._jobs_q = None
        self._results_q = None
        self._scratch = None
        self.workers = []
        self._dead_seen.clear()
        self._reaped.clear()
