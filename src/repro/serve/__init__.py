"""``popper serve``: a crash-tolerant job-queue service core.

The service layer turns the batch toolchain into a long-lived daemon
without weakening any of its durability contracts:

* :mod:`repro.serve.queue` — the persistent lease-based job queue
  (journal-as-truth, crash-safe publish orderings, backoff + dead
  letter, tenant fairness, bounded admission);
* :mod:`repro.serve.workers` — the serve job and its runner on the
  supervised worker pool of :mod:`repro.engine.pool`, shared with the
  process backend (one pipe per worker, parent-side crash attribution,
  respawn);
* :mod:`repro.serve.daemon` — :class:`PopperServer`, the tick-driven
  scheduler wiring queue, pool, artifact cache and API together;
* :mod:`repro.serve.api` — the local HTTP/JSON surface with a clean
  4xx contract for everything the fuzz grammar throws at it;
* :mod:`repro.serve.smoke` — the ``popper selftest`` serve check:
  submit, cache-serve, ``kill -9`` a worker mid-job, recover, drain.

Design notes and the recovery walk-throughs live in ``docs/serve.md``.
"""

from repro.serve.api import MAX_BODY_BYTES, TENANT_RE, make_server
from repro.serve.daemon import PopperServer
from repro.serve.queue import QUEUE_DIR, REQUEUE_POLICY, JobQueue, QueuedJob
from repro.serve.smoke import serve_smoke
from repro.serve.workers import ServeJob, WorkerPool

__all__ = [
    "MAX_BODY_BYTES",
    "TENANT_RE",
    "make_server",
    "PopperServer",
    "QUEUE_DIR",
    "REQUEUE_POLICY",
    "JobQueue",
    "QueuedJob",
    "serve_smoke",
    "ServeJob",
    "WorkerPool",
]
