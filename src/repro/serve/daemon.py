"""The ``popper serve`` daemon: queue + worker pool + HTTP API, wired.

:class:`PopperServer` is the service core.  One instance owns

* a :class:`~repro.serve.queue.JobQueue` rooted at ``.pvcs/queue/``
  (crash recovery happens in its constructor — a restarted daemon
  re-admits every job the dead one held leases on),
* a :class:`~repro.engine.pool.WorkerPool` of supervised processes —
  the pool the process backend runs on — whose workers run
  :class:`~repro.serve.workers.ServeJob` payloads,
* a :func:`~repro.serve.api.make_server` HTTP front end.

The scheduler is a single **tick** — poll finished work, reap dead
workers, expire leases, dispatch ready jobs — driven either by the
daemon's own loop thread (:meth:`start` / :meth:`run_until`, the CLI
path) or manually by tests and the smoke check, which call
:meth:`tick` directly for deterministic chaos injection.

Cache interop is the recovery keystone: the daemon files and looks up
the *same* whole-experiment cache entry the CLI sweep does — the key,
output set and record meta of :mod:`repro.core.sweep` — so

* a submission whose result is already pooled — by an earlier job *or*
  by a plain ``popper run`` — is served from cache at admission,
  bypassing the queue bound entirely (saturation degrades to
  cache-only service, not an outage);
* a job re-leased after a crash between result-publish steps
  (``queue.publish``) short-circuits at dispatch, making the re-run
  idempotent and byte-identical;
* results produced under ``popper serve`` are visible to later
  ``popper run`` invocations, and vice versa.

Graceful drain: :meth:`drain` stops admission (503), lets leased jobs
finish within a bounded window, checkpoints the queue journal, stops
the pool and the HTTP server.  The CLI maps SIGINT/SIGTERM onto it via
:class:`~repro.engine.shutdown.GracefulShutdown` and exits 130/143.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.common.errors import BadJobError, DrainingError, ServeError
from repro.core.sweep import sweep_key, sweep_meta, sweep_outputs
from repro.engine.resilience import RetryPolicy
from repro.serve.api import make_server
from repro.serve.queue import QUEUE_DIR, JobQueue, QueuedJob
from repro.serve.workers import ServeJob, WorkerPool, serve_runner

__all__ = ["PopperServer"]


class PopperServer:
    """The job-queue service core behind ``popper serve``."""

    def __init__(
        self,
        repo,
        workers: int = 2,
        max_queue: int = 16,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = 15.0,
        retry: RetryPolicy | None = None,
        clock=time.time,
        durable: bool = True,
    ) -> None:
        if workers < 1:
            raise ServeError(f"--workers must be >= 1, got {workers}")
        self.repo = repo
        self.clock = clock
        self.queue = JobQueue(
            Path(repo.vcs.meta) / QUEUE_DIR,
            max_depth=max_queue,
            lease_s=lease_s,
            retry=retry,
            clock=clock,
            durable=durable,
        )
        self.pool = WorkerPool(size=workers, runner=serve_runner)
        self.host = host
        self.port = port
        self.httpd = None
        self.draining = False
        self.started = None
        self._inflight: set[str] = set()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- cache interop -----------------------------------------------------------
    def _try_cache(self, experiment: str) -> dict | None:
        """Materialize a pooled result for *experiment*; ``None`` on miss.

        Returns the record's meta as stored, by this daemon or by
        ``popper run``.
        """
        store = self.repo.artifact_store
        if store is None:
            return None
        try:
            record = store.lookup(sweep_key(self.repo, experiment))
            if record is None:
                return None
            store.materialize(record, self.repo.root)
            return dict(record.meta)
        except Exception:
            return None  # a sick cache is a miss, never an outage

    def _file_into_cache(self, experiment: str, meta: dict) -> None:
        """Pool a worker's validated outputs under the sweep key.

        Parent-side, like the process scheduler: the worker already
        wrote the files; the daemon records them so the *next* request
        (or a re-leased copy of this one) is a cache hit.
        """
        store = self.repo.artifact_store
        record_meta = sweep_meta(
            int(meta.get("rows", 0)), bool(meta.get("validated"))
        )
        if store is None or record_meta is None:
            return
        try:
            store.store(
                sweep_key(self.repo, experiment),
                f"serve/{experiment}",
                sweep_outputs(self.repo, experiment, meta.get("figures") or {}),
                self.repo.root,
                meta=record_meta,
            )
        except Exception:
            pass  # cache filing is best-effort; the result file is truth

    # -- admission ---------------------------------------------------------------
    def submit(self, experiment: str, tenant: str = "default") -> QueuedJob:
        """Admit one run request (HTTP ``POST /v1/jobs`` lands here).

        Order matters: drain check, existence check, then the cache
        short-circuit *before* the depth bound — a saturated daemon
        still serves warm results (degraded, not down).
        """
        if self.draining:
            raise DrainingError("daemon is draining; not accepting jobs")
        if experiment not in self.repo.experiments():
            raise BadJobError(f"unknown experiment: {experiment}")
        cached_meta = self._try_cache(experiment)
        if cached_meta is not None:
            return self.queue.submit(
                experiment, tenant=tenant, cached_meta=cached_meta
            )
        return self.queue.submit(experiment, tenant=tenant)

    # -- the scheduler tick ------------------------------------------------------
    def tick(self, poll_s: float = 0.05) -> int:
        """One supervision round; returns the number of jobs settled.

        Settle finished work first (freeing lease + pool slots), then
        attribute dead workers' jobs, then expire stale leases, then
        dispatch — so a single tick makes maximal progress and the loop
        degenerates to cheap polls when idle.
        """
        settled = 0
        for record in self.pool.poll(timeout_s=poll_s):
            settled += self._settle(record)
        for lost in self.pool.reap(respawn=not self.draining):
            job = self.queue.jobs.get(lost.key)
            if job is not None and job.state == "leased":
                self.queue.fail(lost.key, "worker died mid-job")
            self._inflight.discard(lost.key)
            settled += 1
        for job in self.queue.expire_leases():
            self._inflight.discard(job.id)
        self._heartbeat_inflight()
        if not self.draining:
            self._dispatch_ready()
        return settled

    def _settle(self, record: dict) -> int:
        job_id = str(record.get("job", ""))
        self._inflight.discard(job_id)
        job = self.queue.jobs.get(job_id)
        if job is None or job.state == "done":
            return 0  # duplicate delivery after a re-lease; already settled
        if record.get("ok"):
            meta = dict(record.get("meta") or {})
            # File into the pool *before* journalling done: a crash at
            # queue.publish then re-runs this job as a cache hit.
            self._file_into_cache(job.experiment, meta)
            self.queue.complete(
                job_id,
                meta={
                    "rows": int(meta.get("rows", 0)),
                    "validated": bool(meta.get("validated", False)),
                },
                seconds=float(record.get("seconds", 0.0)),
            )
        else:
            self.queue.fail(job_id, str(record.get("error", "worker error")))
        return 1

    def _heartbeat_inflight(self) -> None:
        # Renew leases past their half-life so a slow (but alive) run is
        # never expired out from under its worker.
        now = self.clock()
        for job_id in list(self._inflight):
            job = self.queue.jobs.get(job_id)
            if (
                job is not None
                and job.state == "leased"
                and job.deadline is not None
                and job.deadline - now < self.queue.lease_s / 2
            ):
                self.queue.heartbeat(job_id)

    def _dispatch_ready(self) -> None:
        while len(self._inflight) < self.pool.size:
            job = self.queue.claim()
            if job is None:
                return
            # Dispatch-time cache short-circuit: a job re-leased after a
            # queue.publish crash finds the outputs its first run pooled.
            cached_meta = self._try_cache(job.experiment)
            if cached_meta is not None:
                self.queue.complete(job.id, meta=cached_meta, cached=True)
                continue
            self._inflight.add(job.id)
            self.pool.dispatch(
                ServeJob(
                    job_id=job.id,
                    repo_root=str(self.repo.root),
                    experiment=job.experiment,
                ),
                job.id,
            )

    # -- introspection (the API's read surface) ----------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "draining": self.draining,
            "workers": self.pool.size,
            "workers_alive": self.pool.alive_count(),
            "uptime_s": (
                self.clock() - self.started if self.started is not None else 0.0
            ),
        }

    def ready(self) -> tuple[bool, dict]:
        depth = self.queue.depth()
        ready = not self.draining and depth < self.queue.max_depth
        return ready, {
            "ready": ready,
            "draining": self.draining,
            "depth": depth,
            "max_depth": self.queue.max_depth,
        }

    def stats(self) -> dict:
        stats = self.queue.stats()
        stats["workers"] = {
            "size": self.pool.size,
            "alive": self.pool.alive_count(),
            "inflight": len(self._inflight),
        }
        return stats

    def cache_stats(self) -> dict:
        store = self.repo.artifact_store
        return store.stats() if store is not None else {}

    # -- lifecycle ---------------------------------------------------------------
    def start(self, api: bool = True, loop: bool = True) -> None:
        """Spawn the pool and, optionally, the API + scheduler threads.

        Tests and the smoke check pass ``loop=False`` and drive
        :meth:`tick` themselves — deterministic supervision rounds with
        no background thread racing the chaos injection.
        """
        self.started = self.clock()
        self.pool.start()
        if api:
            self.httpd = make_server(self, self.host, self.port)
            self.port = self.httpd.server_address[1]
            thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="popper-serve-http",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if loop:
            thread = threading.Thread(
                target=self._loop, name="popper-serve-tick", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.tick()
            except Exception:
                # The loop must survive anything a tick throws (a sick
                # store, a poisoned record): the next round retries.
                # BaseException — a SimulatedCrash — still kills it,
                # exactly like a real crash would.
                time.sleep(0.05)

    def run_until(self, cancel, poll_s: float = 0.2) -> None:
        """Block until *cancel* fires (the CLI foreground path)."""
        while not cancel.cancelled:
            time.sleep(poll_s)

    def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown: stop admission, finish leased work, stop.

        Safe to call twice (the CLI's ``finally`` does).
        """
        self.draining = True
        self._stop.set()
        for thread in self._threads:
            if thread.name == "popper-serve-tick":
                thread.join(timeout_s)
        deadline = time.monotonic() + timeout_s
        while (self._inflight or self.queue.leased()) and (
            time.monotonic() < deadline
        ):
            self.tick(poll_s=0.1)
        if self.httpd is not None:
            self.httpd.shutdown()
            self.httpd.server_close()
            self.httpd = None
        self.pool.drain()
        self.queue.checkpoint()
        self.queue.close()
        self._threads = []

    def __enter__(self) -> "PopperServer":
        return self

    def __exit__(self, *exc) -> None:
        self.drain()
