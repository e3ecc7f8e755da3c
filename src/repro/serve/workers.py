"""What a ``popper serve`` worker does with a job.

The daemon's workers are the supervised
:class:`~repro.engine.pool.WorkerPool` the process backend also runs
on (re-exported here), so the ``kill -9`` attribution protocol — one
pipe per worker, the job each was sent known in the parent, exact
reaping, respawn — exists once.  This module supplies the serve side
of that pool:

* :class:`ServeJob`, the payload, is plain picklable data mirroring
  :class:`~repro.core.sweep.SweepExperimentJob`: the worker reopens the
  repository from its path and runs the ordinary
  :class:`~repro.core.pipeline.ExperimentPipeline` with the shared
  artifact store (all inter-process safety comes from ``RepoLock`` and
  the store's own locking, proven by the process backend);
* :func:`serve_runner` is the pool runner: it runs one job and reports
  ``{job, ok, meta | error, seconds}``.  Records are plain dicts of
  JSON scalars, so a worker's pipe can never be poisoned by an
  unpicklable value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.pool import WorkerPool

__all__ = ["ServeJob", "WorkerPool", "serve_runner"]


@dataclass
class ServeJob:
    """One queued run request, as the picklable worker payload."""

    job_id: str
    repo_root: str
    experiment: str

    def __call__(self) -> dict:
        # Imported here so a forked worker never re-imports at module
        # scope and the payload stays cheap to pickle.
        from repro.core.pipeline import ExperimentPipeline
        from repro.core.repo import PopperRepository

        repo = PopperRepository.open(self.repo_root)
        pipeline = ExperimentPipeline(
            repo,
            self.experiment,
            artifact_store=repo.artifact_store,
            run_meta={"backend": "serve", "job": self.job_id},
        )
        result = pipeline.run(strict=False, resume=False)
        return {
            "rows": len(result.results),
            "validated": bool(result.validated),
            "figures": {
                name: str(path) for name, path in result.figures.items()
            },
        }


def _run(job: ServeJob) -> dict:
    """Run one job into its result record."""
    started = time.perf_counter()
    try:
        record = {"job": job.job_id, "ok": True, "meta": job()}
    except Exception as exc:
        # BaseException (SimulatedCrash, RunCancelled) deliberately
        # propagates: a crashing worker is the supervisor's problem.
        record = {
            "job": job.job_id,
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    record["seconds"] = time.perf_counter() - started
    return record


def serve_runner(index: int) -> Callable[[ServeJob], dict]:
    """The pool runner of ``popper serve``: every worker runs jobs alike."""
    return _run
