"""WorkerPool: the supervised process pool under the process backend and serve.

Runners are module-level so they survive a spawn start method too.
Each test bounds its waits and drains its pool.
"""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.errors import EngineError
from repro.engine.pool import LostJob, WorkerPool
from repro.engine.shutdown import CancelToken, GracefulShutdown

SRC = Path(__file__).resolve().parents[2] / "src"


def _echo(job):
    return {"job": job}


def echo_runner(index):
    return _echo


def _exit_13(job):
    os._exit(13)


def dying_runner(index):
    return _exit_13


def _echo_or_exit_13(job):
    if job == "die":
        os._exit(13)
    return {"job": job}


def echo_or_dying_runner(index):
    return _echo_or_exit_13


def _sleep(job):
    time.sleep(job)
    return {"slept": job}


def sleeping_runner(index):
    return _sleep


def _run_in_a_pool_of_its_own(job):
    pool = WorkerPool(size=1, runner=echo_runner)
    pool.start()
    try:
        pool.dispatch(job, "inner")
        return {"inner": poll_one(pool)}
    finally:
        pool.drain(timeout_s=5.0)


def nesting_runner(index):
    return _run_in_a_pool_of_its_own


def wait_for(pred, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = pred()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def poll_one(pool):
    return wait_for(lambda: pool.poll(timeout_s=0.05), "a record")


def poll_n(pool, n, what, timeout_s=30.0):
    records = []
    deadline = time.monotonic() + timeout_s
    while len(records) < n and time.monotonic() < deadline:
        records += pool.poll(timeout_s=0.05)
    assert len(records) == n, f"timed out waiting for {what}"
    return records


@pytest.fixture
def pools():
    started = []

    def make(size, runner):
        pool = WorkerPool(size=size, runner=runner)
        pool.start()
        started.append(pool)
        return pool

    yield make
    for pool in started:
        pool.drain(timeout_s=5.0)


def test_hard_crash_is_reported_once(pools):
    pool = pools(1, dying_runner)
    worker = pool.workers[0]
    pool.dispatch("payload", "job-1")
    worker.join(30.0)
    assert not worker.is_alive()

    assert pool.reap() == [LostJob("job-1", 0, 13)]
    assert pool.reap() == []  # reported once
    assert pool.alive_count() == pool.size == 1


def test_death_between_jobs_names_no_job(pools):
    pool = pools(1, echo_runner)
    pool.dispatch("ping", "job-1")
    assert poll_one(pool) == [{"job": "ping"}]
    # A reported job is no longer the worker's.
    wait_for(lambda: pool.current_jobs() == {}, "an idle worker")
    worker = pool.workers[0]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(30.0)
    assert not worker.is_alive()

    assert pool.reap() == []
    assert pool.reap() == []
    assert pool.alive_count() == 1
    pool.drain(timeout_s=0.5)


def test_idle_worker_killed_does_not_wedge_the_pool():
    # The kill lands in the worker's blocking read for its next job; no
    # lock or queue is shared, so its siblings and replacement go on.
    pool = WorkerPool(size=2, runner=echo_runner)
    pool.start()
    try:
        time.sleep(0.5)  # let worker 0 reach its idle wait
        victim = pool.workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(30.0)
        assert not victim.is_alive()
        wait_for(
            lambda: pool.reap() == [] and pool.alive_count() == 2,
            "the pool to respawn to two workers",
        )
        for i in range(6):
            pool.dispatch(i, f"job-{i}")
        records = poll_n(pool, 6, "six records", timeout_s=10.0)
        assert sorted(r["job"] for r in records) == list(range(6))
        live = [w for w in pool.workers if w.is_alive()]
    finally:
        pool.drain(timeout_s=5.0)
    assert [w.exitcode for w in live] == [0, 0]


def test_record_sent_before_death_is_delivered_not_lost(pools):
    pool = pools(1, echo_runner)
    pool.dispatch("ping", "job-1")
    assert pool._conns[0].poll(30.0)  # the record is in the pipe
    worker = pool.workers[0]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(30.0)
    assert not worker.is_alive()

    assert pool.reap() == []
    assert pool.poll(timeout_s=0.0) == [{"job": "ping"}]
    assert pool.alive_count() == 1


def test_spawn_start_method_runs_attributes_and_drains(monkeypatch):
    real_get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    pool = WorkerPool(size=2, runner=echo_or_dying_runner)
    pool.start()
    try:
        assert pool._ctx.get_start_method() == "spawn"
        for i in range(4):
            pool.dispatch(i, f"job-{i}")
        records = poll_n(pool, 4, "four records", timeout_s=60.0)
        assert sorted(r["job"] for r in records) == [0, 1, 2, 3]

        pool.dispatch("die", "job-die")
        lost = wait_for(lambda: pool.reap(respawn=False), "the lost job", 60.0)
        assert [(job.key, job.exitcode) for job in lost] == [("job-die", 13)]
        survivor = pool.workers[1 - lost[0].worker]
    finally:
        pool.drain(timeout_s=10.0)
    assert survivor.exitcode == 0


def test_dispatch_before_start_raises():
    pool = WorkerPool(size=1, runner=echo_runner)
    with pytest.raises(EngineError, match="not started"):
        pool.dispatch("job", "job-1")


def test_size_must_be_positive():
    with pytest.raises(EngineError):
        WorkerPool(size=0, runner=echo_runner)


def test_drain_ends_every_idle_worker_by_its_sentinel():
    # Any idle worker may take any sentinel and exit at once, so a
    # sentinel per worker must be sent whatever exits meanwhile.
    for _ in range(10):
        pool = WorkerPool(size=4, runner=echo_runner)
        pool.start()
        workers = list(pool.workers)
        pool.drain(timeout_s=5.0)
        assert [w.exitcode for w in workers] == [0, 0, 0, 0]


def test_drain_with_a_busy_worker_is_bounded(pools):
    pool = pools(1, sleeping_runner)
    worker = pool.workers[0]
    pool.dispatch(60.0, "slow")
    wait_for(lambda: pool.current_jobs() == {0: "slow"}, "the job to start")

    started = time.monotonic()
    pool.drain(timeout_s=0.5)
    # The deadline, then terminate() and a short join of the straggler.
    assert time.monotonic() - started < 0.5 + 1.5
    assert not worker.is_alive()


def test_drain_terminates_a_worker_forked_under_a_shutdown_guard():
    # `popper run -j N` starts its pool inside GracefulShutdown.  A
    # worker that kept the inherited SIGTERM handler would only set a
    # token on terminate() and keep sleeping.
    with GracefulShutdown(CancelToken()):
        pool = WorkerPool(size=1, runner=sleeping_runner)
        pool.start()
        worker = pool.workers[0]
        try:
            pool.dispatch(30.0, "slow")
            wait_for(lambda: pool.current_jobs() == {0: "slow"}, "the job to start")
            started = time.monotonic()
            pool.drain(timeout_s=0.2)
            elapsed = time.monotonic() - started
            alive = worker.is_alive()
        finally:
            if worker.is_alive():
                os.kill(worker.pid, signal.SIGKILL)
                worker.join(5.0)
            pool.drain(timeout_s=0.5)
    assert not alive
    assert elapsed < 0.2 + 0.8


def test_a_job_may_start_a_pool_of_its_own(pools):
    pool = pools(1, nesting_runner)
    pool.dispatch("ping", "outer")
    assert poll_one(pool) == [{"inner": [{"job": "ping"}]}]


UNDRAINED = """
from repro.engine.pool import WorkerPool

def runner(index):
    return lambda job: job

pool = WorkerPool(size=2, runner=runner)
pool.start()
pool.dispatch("ping", "job-1")
while not pool.poll(timeout_s=0.1):
    pass
print("answered")
"""


def test_an_owner_that_never_drains_still_exits():
    # Workers are not daemonic, and multiprocessing joins such children
    # at exit: without a drain there, they would wait for jobs forever.
    proc = subprocess.run(
        [sys.executable, "-c", UNDRAINED],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "answered\n"), proc.stderr


ORPHANED = """
import os, sys
from repro.engine.pool import WorkerPool

def runner(index):
    return lambda job: job

pool = WorkerPool(size=2, runner=runner)
pool.start()
with open(sys.argv[1], "w") as out:
    out.write(" ".join(str(worker.pid) for worker in pool.workers))
print("started", flush=True)
os._exit(0)  # no exit handler runs, as under kill -9
"""


def _running(pid):
    """Whether *pid* is a live process; a zombie nobody reaped is not."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_when_their_owner_dies_hard(tmp_path):
    # A forked worker holds no copy of its owner's pipe ends, so the
    # owner's death reads as end-of-file in the worker.  A worker that
    # kept one would wait forever with the captured stdout open, and
    # run() would hit its timeout.
    pids_file = tmp_path / "pids"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", ORPHANED, str(pids_file)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (0, "started\n"), proc.stderr
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert len(pids) == 2
        wait_for(
            lambda: not any(_running(pid) for pid in pids),
            "the orphaned workers to exit",
            timeout_s=5.0,
        )
    finally:
        if pids_file.exists():
            for pid in pids_file.read_text().split():
                if _running(int(pid)):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(int(pid), signal.SIGKILL)
