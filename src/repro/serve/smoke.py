"""The ``--serve-smoke`` self-check: prove the service core recovers.

CI jobs run ``popper run --all --serve-smoke`` to exercise the daemon
end-to-end in a scratch repository, in seconds:

1. bring up a one-worker :class:`~repro.serve.PopperServer` with its
   HTTP API live; ``/healthz`` must answer;
2. adversarial requests — garbage JSON, a bogus tenant, an unknown
   experiment, an unknown job — must each get a clean 4xx, never a 500;
3. ``kill -9`` the idle worker: the supervisor must respawn it, and a
   cold submission must still run to ``done`` validated; resubmitting
   the same experiment must be served from the artifact cache (HTTP
   200, no worker involved);
4. ``kill -9`` the worker while it holds a second experiment's job:
   the supervisor knows which job it sent that worker, so it must
   attribute the loss, requeue under the backoff budget, respawn, and
   the job must still complete (attempts >= 2) with validations
   passing;
5. a graceful drain must leave no leased jobs behind and a queue
   journal that replays to the same terminal states, and ``popper
   doctor`` must find nothing it cannot repair.

The daemon is driven by explicit :meth:`~repro.serve.PopperServer.tick`
calls (``loop=False``), so each recovery step is deterministic rather
than raced against a background thread.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.common import minyaml
from repro.common.errors import ServeError
from repro.core.repo import PopperRepository
from repro.serve.daemon import PopperServer
from repro.serve.queue import QUEUE_DIR, JobQueue

__all__ = ["serve_smoke"]


def _http(method: str, url: str, body: bytes | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        payload = exc.read()
        try:
            doc = json.loads(payload or b"{}")
        except json.JSONDecodeError:
            raise ServeError(
                f"serve smoke: {method} {url} -> {exc.code} with a "
                f"non-JSON body ({payload[:80]!r})"
            ) from exc
        return exc.code, doc


def _tick_until(daemon: PopperServer, pred, what: str, timeout_s: float = 30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        daemon.tick(poll_s=0.05)
        value = pred()
        if value:
            return value
    raise ServeError(f"serve smoke: timed out waiting for {what}")


def _wait_running(daemon: PopperServer, job_id: str) -> int:
    """Tick until a worker holds *job_id*; return that worker's pid.

    A tick settles records before it dispatches, so once the job is
    named it stays named until the next tick.
    """

    def holder() -> int | None:
        for index, running in daemon.pool.current_jobs().items():
            if running == job_id:
                return daemon.pool.workers[index].pid
        return None

    return _tick_until(daemon, holder, f"a worker to start {job_id}")


def serve_smoke(root: str | Path | None = None) -> str:
    """Run the scratch-daemon recovery check; return a one-line summary.

    Raises :class:`ServeError` when the API misbehaves on adversarial
    input, a submission fails to complete, the cache short-circuit
    misses, the killed worker's job is lost, or drain/doctor leave
    debris behind.
    """
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
        base = Path(root) if root is not None else Path(scratch)
        repo = PopperRepository.init(base / "repo")
        # beta gets *different* vars than alpha on purpose: identical
        # inputs would let beta's stages hit alpha's cached artifacts
        # and finish in milliseconds — too fast to aim a kill at.
        for name, runs in (("alpha", 2), ("beta", 3)):
            repo.add_experiment("torpor", name)
            vars_path = repo.experiment_dir(name) / "vars.yml"
            doc = minyaml.load_file(vars_path)
            doc["runs"] = runs  # keep each worker-side pipeline run cheap
            minyaml.dump_file(doc, vars_path)

        daemon = PopperServer(repo, workers=1, max_queue=8, lease_s=30.0)
        try:
            daemon.start(api=True, loop=False)
            api = f"http://127.0.0.1:{daemon.port}"

            status, _ = _http("GET", f"{api}/healthz")
            if status != 200:
                raise ServeError(f"serve smoke: /healthz answered {status}")

            # Adversarial inputs: clean 4xx, never a traceback or 500.
            adversarial = [
                ("garbage JSON", b"{not json", 400),
                ("non-object body", b'["alpha"]', 400),
                ("bogus tenant", b'{"experiment":"alpha","tenant":"../x"}', 400),
                ("unknown experiment", b'{"experiment":"nope"}', 422),
            ]
            for label, body, want in adversarial:
                status, doc = _http("POST", f"{api}/v1/jobs", body)
                if status != want or "error" not in doc:
                    raise ServeError(
                        f"serve smoke: {label} answered {status} "
                        f"(wanted {want} with an error body)"
                    )
            status, _ = _http("GET", f"{api}/v1/jobs/job-999999")
            if status != 404:
                raise ServeError(
                    f"serve smoke: unknown job answered {status}, wanted 404"
                )

            # Chaos, idle: SIGKILL the worker before it has any job;
            # its replacement must run the cold job below.
            idle = daemon.pool.workers[0]
            os.kill(idle.pid, signal.SIGKILL)
            idle.join(10.0)

            # Cold run: accepted, executed by the worker, validated.
            status, doc = _http(
                "POST", f"{api}/v1/jobs", b'{"experiment":"alpha"}'
            )
            if status != 202:
                raise ServeError(
                    f"serve smoke: cold submit answered {status}, wanted 202"
                )
            cold_id = doc["id"]
            cold = _tick_until(
                daemon,
                lambda: (
                    daemon.queue.get(cold_id)
                    if daemon.queue.get(cold_id).state in ("done", "dead")
                    else None
                ),
                f"cold job {cold_id}",
            )
            if cold.state != "done" or not cold.meta.get("validated"):
                raise ServeError(
                    f"serve smoke: cold job ended {cold.state} "
                    f"(meta: {cold.meta}, error: {cold.error!r})"
                )

            # Warm run: same experiment, served from the artifact pool
            # at admission — HTTP 200, no queue slot, no worker.
            status, doc = _http(
                "POST", f"{api}/v1/jobs", b'{"experiment":"alpha"}'
            )
            if status != 200 or not doc.get("cached"):
                raise ServeError(
                    "serve smoke: warm resubmit was not cache-served "
                    f"(status {status}, cached={doc.get('cached')})"
                )

            # Chaos, busy: SIGKILL the worker mid-job; the job must survive.
            victim = daemon.submit("beta")
            pid = _wait_running(daemon, victim.id)
            os.kill(pid, signal.SIGKILL)
            recovered = _tick_until(
                daemon,
                lambda: (
                    daemon.queue.get(victim.id)
                    if daemon.queue.get(victim.id).state in ("done", "dead")
                    else None
                ),
                f"job {victim.id} to recover from the killed worker",
            )
            if recovered.state != "done" or not recovered.meta.get("validated"):
                raise ServeError(
                    f"serve smoke: killed worker's job ended "
                    f"{recovered.state} (error: {recovered.error!r})"
                )
            if recovered.attempts < 2:
                raise ServeError(
                    "serve smoke: job completed without a second lease — "
                    "the kill missed the run window"
                )

            stats = daemon.stats()
        finally:
            daemon.drain()

        if daemon.queue.leased():
            raise ServeError("serve smoke: drain left leased jobs behind")

        # The journal must replay to the same terminal states...
        with JobQueue(Path(repo.vcs.meta) / QUEUE_DIR) as replayed:
            states = {j.id: j.state for j in replayed.jobs.values()}
        undone = {j: s for j, s in states.items() if s != "done"}
        if undone:
            raise ServeError(
                f"serve smoke: journal replay shows unfinished jobs: {undone}"
            )
        # ...and the doctor must find nothing it cannot repair.
        from repro.store.doctor import diagnose, repair

        report = repair(diagnose(repo.root, tmp_age_s=0.0))
        if report.unrepaired:
            raise ServeError(
                "serve smoke: doctor left "
                f"{len(report.unrepaired)} finding(s) unrepaired"
            )

    return (
        f"serve smoke ok: {len(states)} job(s) all done "
        f"({stats['cache_served']} cache-served), adversarial input "
        "cleanly rejected, idle worker kill -9 survived, busy worker "
        f"kill -9 recovered (attempts={recovered.attempts}), drain + "
        "doctor clean"
    )
