"""Chaos-verified recovery: killed workers, crashed publishes.

The claims the serve subsystem makes — no accepted job lost, re-runs
idempotent through the cache — are only worth anything if they hold
under the injected failures this file throws at a real daemon:

* ``kill -9`` on the worker process mid-job: the supervisor must
  attribute the loss, respawn, and the job must still complete;
* ``kill -9`` on an idle worker: its replacement must take the next
  job, which completes on its first lease;
* a simulated crash between the durable result write and the
  ``job_done`` journal record (``queue.publish``): a restarted daemon
  must re-admit the job and finish it as a cache hit, byte-identical
  to what a plain ``popper run`` produces;
* a simulated crash between the durable lease marker and the
  ``job_leased`` record (``queue.claim``): the journal stays the truth
  (job still queued) and the orphan marker is inert debris.
"""

import os
import signal
import time

import pytest

from repro.common import minyaml
from repro.common.crash import CrashPlan, SimulatedCrash, install_crash_plan
from repro.core.cli import main
from repro.core.repo import PopperRepository
from repro.serve import QUEUE_DIR, JobQueue, PopperServer


@pytest.fixture(autouse=True)
def no_leftover_crash_plan():
    yield
    install_crash_plan(None)


def make_repo(base, experiments=("exp",)):
    repo = PopperRepository.init(base)
    for name in experiments:
        repo.add_experiment("torpor", name)
        vars_path = repo.experiment_dir(name) / "vars.yml"
        doc = minyaml.load_file(vars_path)
        doc["runs"] = 2  # keep worker-side pipeline runs cheap
        minyaml.dump_file(doc, vars_path)
    return repo


def tick_until(daemon, pred, what, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        daemon.tick(poll_s=0.05)
        value = pred()
        if value:
            return value
    raise AssertionError(f"timed out waiting for {what}")


def wait_running(daemon, job_id, timeout_s=60.0):
    """Tick until *job_id* is leased, then watch the marker without
    ticking (a tick could settle a fast job inside one poll window and
    the marker would never be observed); return the busy worker's pid."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if daemon.queue.get(job_id).state == "leased":
            break
        daemon.tick(poll_s=0.05)
    while time.monotonic() < deadline:
        for index, running in daemon.pool.current_jobs().items():
            if running == job_id:
                return daemon.pool.workers[index].pid
        time.sleep(0.001)
    raise AssertionError(f"timed out waiting for a worker to start {job_id}")


def settle(daemon, job_id, timeout_s=60.0):
    return tick_until(
        daemon,
        lambda: (
            daemon.queue.get(job_id)
            if daemon.queue.get(job_id).state in ("done", "dead")
            else None
        ),
        f"job {job_id} to settle",
        timeout_s,
    )


class TestWorkerKill:
    def test_sigkill_mid_job_recovers(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        daemon = PopperServer(repo, workers=1, max_queue=8, lease_s=30.0)
        try:
            daemon.start(api=False, loop=False)
            job = daemon.submit("exp")
            os.kill(wait_running(daemon, job.id), signal.SIGKILL)
            done = settle(daemon, job.id)
            assert done.state == "done", done.error
            assert done.meta.get("validated")
            assert done.attempts >= 2  # the first lease died with the worker
            assert daemon.pool.alive_count() == 1  # supervisor respawned
        finally:
            daemon.drain()

    def test_sigkill_idle_worker_does_not_wedge_the_daemon(self, tmp_path):
        repo = make_repo(tmp_path / "repo")
        daemon = PopperServer(repo, workers=1, max_queue=8, lease_s=30.0)
        try:
            daemon.start(api=False, loop=False)
            time.sleep(0.5)  # let the worker reach its idle wait
            idle = daemon.pool.workers[0]
            os.kill(idle.pid, signal.SIGKILL)
            idle.join(30.0)
            assert not idle.is_alive()
            job = daemon.submit("exp")
            done = settle(daemon, job.id, timeout_s=20.0)
            assert done.state == "done", done.error
            assert done.meta.get("validated")
            assert done.attempts == 1  # no job was lost with the idle worker
            assert daemon.pool.alive_count() == 1
        finally:
            daemon.drain()


class TestPublishCrash:
    def test_restart_finishes_via_cache_byte_identical(self, tmp_path):
        # Ground truth: the same experiment through plain `popper run`.
        direct = tmp_path / "direct"
        make_repo(direct)
        assert main(["-C", str(direct), "run", "--all"]) == 0
        want_results = (direct / "experiments/exp/results.csv").read_bytes()
        want_report = (
            direct / "experiments/exp/validation_report.txt"
        ).read_bytes()

        repo = make_repo(tmp_path / "served")
        daemon = PopperServer(repo, workers=1, max_queue=8, lease_s=30.0)
        daemon.start(api=False, loop=False)
        install_crash_plan(CrashPlan.parse("at:queue.publish:1"))
        job = daemon.submit("exp")
        with pytest.raises(SimulatedCrash):
            settle(daemon, job.id)
        install_crash_plan(None)
        # The "dead" daemon: result file durable, cache filed, but the
        # journal's last word on the job is the lease.
        assert daemon.queue._result_path(job.id).is_file()
        assert daemon.queue.get(job.id).state == "leased"
        daemon.pool.drain()
        daemon.queue.checkpoint()
        daemon.queue.close()

        # Restart: recovery re-admits the job; dispatch finds the
        # outputs the first run pooled and completes without a worker.
        revived = PopperServer(repo, workers=1, max_queue=8, lease_s=30.0)
        try:
            recovered = revived.queue.get(job.id)
            assert recovered.state == "queued"
            revived.start(api=False, loop=False)
            done = settle(revived, job.id)
            assert done.state == "done", done.error
            assert done.cached  # served from the pool, not re-executed
            results = repo.experiment_dir("exp") / "results.csv"
            report = repo.experiment_dir("exp") / "validation_report.txt"
            assert results.read_bytes() == want_results
            assert report.read_bytes() == want_report
        finally:
            revived.drain()


class TestClaimCrash:
    def test_journal_stays_the_truth(self, tmp_path):
        queue = JobQueue(tmp_path / QUEUE_DIR, durable=False)
        job = queue.submit("exp")
        install_crash_plan(CrashPlan.parse("at:queue.claim:1"))
        with pytest.raises(SimulatedCrash):
            queue.claim()
        install_crash_plan(None)
        # The lease marker landed; the journal record did not.
        assert queue._lease_path(job.id).is_file()
        queue.checkpoint()
        queue.close()

        replayed = JobQueue(tmp_path / QUEUE_DIR, durable=False)
        recovered = replayed.get(job.id)
        assert recovered.state == "queued"  # the journal never saw a lease
        assert recovered.attempts == 0
        leased = replayed.claim()  # the orphan marker does not block it
        assert leased is not None and leased.id == job.id
        replayed.close()
