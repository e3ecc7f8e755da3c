"""``popper run`` and ``popper serve`` file one whole-experiment cache entry.

A result ``popper run`` filed serves a daemon submission at admission,
and the job reports the record exactly as a hit on a record the daemon
filed itself does: one key, one output set, one record meta.
"""

import time

from repro.common import minyaml
from repro.core.cli import main
from repro.core.repo import PopperRepository
from repro.serve import PopperServer


def make_repo(base):
    repo = PopperRepository.init(base)
    repo.add_experiment("torpor", "exp")
    vars_path = repo.experiment_dir("exp") / "vars.yml"
    doc = minyaml.load_file(vars_path)
    doc["runs"] = 2  # keep the worker-side pipeline run cheap
    minyaml.dump_file(doc, vars_path)
    return repo


def settle(daemon, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        daemon.tick(poll_s=0.05)
        job = daemon.queue.get(job_id)
        if job.state in ("done", "dead"):
            return job
    raise AssertionError(f"timed out waiting for job {job_id}")


def test_run_filed_hit_reports_the_daemon_filed_meta(tmp_path):
    primed = make_repo(tmp_path / "primed")
    assert main(["-C", str(primed.root), "run", "--all"]) == 0
    with PopperServer(primed, workers=1, max_queue=8) as daemon:
        daemon.start(api=False, loop=False)
        from_run = daemon.submit("exp")
    assert from_run.state == "done", from_run.error
    assert from_run.cached

    served = make_repo(tmp_path / "served")
    with PopperServer(served, workers=1, max_queue=8) as daemon:
        daemon.start(api=False, loop=False)
        cold = settle(daemon, daemon.submit("exp").id)
        assert cold.state == "done" and not cold.cached, cold.error
        from_daemon = daemon.submit("exp")
    assert from_daemon.state == "done" and from_daemon.cached

    assert from_run.meta == from_daemon.meta
    assert from_run.meta["rows"] > 0
