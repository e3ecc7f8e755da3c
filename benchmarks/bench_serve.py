"""Service-core benchmark: what ``popper serve`` costs per request.

Drives a real daemon — HTTP API thread, background scheduler tick,
worker processes — against a scratch repository and records the
service-level numbers to ``BENCH_serve.json`` at the repository root:

* ``cold_seconds`` — one uncached experiment run through the full
  submit -> queue -> worker -> artifact-pool path, on a fresh daemon
  (so it includes its worker's first-job imports);
* ``warm_latency_ms`` — p50/p99 submit-to-done round trip for
  cache-served submissions (the request never touches a worker);
* ``warm_qps`` — sustained cache-served submissions per second over a
  timed window;
* ``saturation`` — a burst of cold submissions against a small queue
  bound: how many were accepted (202), how many shed (429), whether a
  cache-served request still succeeded mid-saturation (the
  degrade-to-cache-only contract), and — the invariant the queue
  exists for — that *every accepted job completed*; none lost.

One round says little on a shared host, so ten rounds each start a
fresh daemon on a fresh repository; each timing records its per-round
values with their median and quartiles (``conftest.summary``), and
``saturation`` its per-round counts.  The record also carries the
commit, ``cpu_count`` and the Python version.  Run standalone
(``python benchmarks/bench_serve.py``) or via pytest (``pytest
benchmarks/bench_serve.py``); the pytest entry checks the record's
shape and the queue's invariants, not a speed.
"""

import json
import os
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from conftest import commit, summary

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_serve.json"

ROUNDS = 10
WARM_REQUESTS = 40
QPS_WINDOW_S = 1.0
BURST_EXPERIMENTS = 4
BURST_PER_EXPERIMENT = 3


def _post_job(api: str, experiment: str) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{api}/v1/jobs",
        data=json.dumps({"experiment": experiment}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(int(len(ordered) * q), len(ordered) - 1)
    return ordered[index]


def _make_repo(base: Path):
    from repro.common import minyaml
    from repro.core.repo import PopperRepository

    repo = PopperRepository.init(base / "repo")
    names = ["bench"] + [f"burst-{i}" for i in range(BURST_EXPERIMENTS)]
    for name in names:
        repo.add_experiment("torpor", name)
        vars_path = repo.experiment_dir(name) / "vars.yml"
        doc = minyaml.load_file(vars_path)
        doc["runs"] = 2  # keep each cold pipeline run cheap
        minyaml.dump_file(doc, vars_path)
    return repo


def run_round(base: Path) -> dict:
    """One fresh daemon on a fresh repository, through every phase."""
    from repro.serve import PopperServer

    repo = _make_repo(base)
    daemon = PopperServer(repo, workers=2, max_queue=BURST_EXPERIMENTS)
    sample: dict = {}
    try:
        daemon.start(api=True, loop=True)
        api = f"http://127.0.0.1:{daemon.port}"

        # Cold path: submit -> queue -> worker -> pool, end to end.
        started = time.perf_counter()
        status, doc = _post_job(api, "bench")
        assert status == 202, f"cold submit answered {status}"
        job_id = doc["id"]
        while daemon.queue.get(job_id).state not in ("done", "dead"):
            time.sleep(0.02)
        sample["cold_seconds"] = time.perf_counter() - started
        assert daemon.queue.get(job_id).state == "done"

        # Warm path: every request is served from the artifact pool at
        # admission; the round trip *is* the submit-to-done latency.
        latencies = []
        for _ in range(WARM_REQUESTS):
            started = time.perf_counter()
            status, doc = _post_job(api, "bench")
            latencies.append((time.perf_counter() - started) * 1e3)
            assert status == 200 and doc["cached"], "warm request missed cache"
        sample["p50"] = _percentile(latencies, 0.50)
        sample["p99"] = _percentile(latencies, 0.99)

        deadline = time.perf_counter() + QPS_WINDOW_S
        served = 0
        while time.perf_counter() < deadline:
            status, _ = _post_job(api, "bench")
            assert status == 200
            served += 1
        sample["warm_qps"] = served / QPS_WINDOW_S

        # Saturation: burst more cold jobs than the queue bound admits.
        accepted: list[str] = []
        shed = 0
        for round_no in range(BURST_PER_EXPERIMENT):
            for i in range(BURST_EXPERIMENTS):
                status, doc = _post_job(api, f"burst-{i}")
                if status == 202:
                    accepted.append(doc["id"])
                elif status == 429:
                    shed += 1
                else:
                    raise AssertionError(
                        f"burst submit answered {status}: {doc}"
                    )
        # Degradation contract: cache-servable work still succeeds
        # while the queue is at its bound.
        status, doc = _post_job(api, "bench")
        sample["cache_served_mid_saturation"] = status == 200 and bool(
            doc.get("cached")
        )

        # The durability invariant: every accepted job completes.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            states = {j: daemon.queue.get(j).state for j in accepted}
            if all(s in ("done", "dead") for s in states.values()):
                sample["lost"] = sum(1 for s in states.values() if s != "done")
                break
            time.sleep(0.05)
        else:
            raise AssertionError("accepted burst jobs never settled")
        sample["accepted"] = len(accepted)
        sample["shed"] = shed
    finally:
        daemon.drain()
    return sample


def run_bench(base: Path) -> dict:
    rounds = [run_round(Path(base) / f"round-{n}") for n in range(ROUNDS)]

    def column(key: str) -> list:
        return [sample[key] for sample in rounds]

    report = {
        "benchmark": "serve-service-core",
        "rounds": ROUNDS,
        "cold_seconds": summary(column("cold_seconds"), digits=3),
        "warm_latency_ms": {
            "requests": WARM_REQUESTS,
            "p50": summary(column("p50"), digits=2),
            "p99": summary(column("p99"), digits=2),
        },
        "warm_qps": summary(column("warm_qps"), digits=1),
        "saturation": {
            "queue_bound": BURST_EXPERIMENTS,
            "submitted": BURST_EXPERIMENTS * BURST_PER_EXPERIMENT,
            "accepted": column("accepted"),
            "shed_429": column("shed"),
            "cache_served_mid_saturation": all(
                column("cache_served_mid_saturation")
            ),
            "accepted_jobs_lost": sum(column("lost")),
        },
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "commit": commit(),
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_bench_serve(tmp_path):
    report = run_bench(tmp_path)
    warm = report["warm_latency_ms"]
    for timing in (report["cold_seconds"], warm["p50"], warm["p99"], report["warm_qps"]):
        assert len(timing["samples"]) == ROUNDS
        assert timing["q1"] <= timing["median"] <= timing["q3"]
    assert report["cpu_count"] >= 1 and report["python"] and report["commit"]
    saturated = report["saturation"]
    assert len(saturated["accepted"]) == len(saturated["shed_429"]) == ROUNDS
    assert all(n >= 1 for n in saturated["accepted"])
    assert all(n >= 1 for n in saturated["shed_429"]), "the bound never shed load"
    assert saturated["cache_served_mid_saturation"]
    assert saturated["accepted_jobs_lost"] == 0, "an accepted job was lost"
    assert BENCH_FILE.is_file()


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = run_bench(Path(tmp))
    print(json.dumps(out, indent=2))
