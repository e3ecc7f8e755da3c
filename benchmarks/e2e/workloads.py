"""The three workloads of the end-to-end benchmark.

Each workload first sets itself up: ``prime.py`` builds a Popper
repository and primes it, and the result is snapshotted.  That is
``setup_s``; it is repeated ``setups`` times and the median reported.
Then one generator (this process, one thread, at most one HTTP
connection at a time, never importing ``repro``) drives ``popper`` the
way a user does: one fresh ``python -m repro.core.cli`` process per
operation.  sweep-warm and ci-build are a closed loop with one client
and restore the primed snapshot before each op, outside the timed
region, so op N sees the same repository as op 1.  serve-mixed is an
open loop against one daemon.

Every workload checks its outputs; each failed check counts one failed
op.  With ``launcher.trace``, every other closed-loop op and the serve
daemon run under ``traced.py``; ``Outcome.ops`` then holds the traced
ops that ``report.budget`` splits into layers, and only untraced ops
feed the samples.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: The four paper templates with the shrunken vars of
#: ``benchmarks/bench_cache.py``, copied so that editing that file cannot
#: change this benchmark.  Each experiment also gets ``seed``.
TEMPLATES = {
    "gassyfs": {
        "node_counts": [1, 2, 4],
        "sites": ["cloudlab-wisc"],
        "workloads": ["git-compile"],
        "workload_scale": 0.1,
    },
    "torpor": {"runs": 2},
    "mpi-comm-variability": {"iterations": 10, "runs": 5},
    "jupyter-bww": {},
}

#: Warm sweeps that prime sweep-warm, so ops attach profiles at a
#: history depth of several runs.  Set-up is repeated per run, so this
#: is kept small enough for a run to fit its time budget.
WARM_PRIMES = 3
#: No single popper process may take longer than this.
OP_TIMEOUT_S = 120.0
#: serve-mixed traffic: warm submissions and cold ones, per second.  A
#: warm submission fsyncs its result and journal record (~20 ms on a
#: 2-core VM), so at 20/s the one-connection generator ran up to 100 ms
#: late.  Cold jobs come in whole blocks of one per template, as many
#: as this rate allows (at least one), so every window holds the same mix.
WARM_RATE = 10.0
COLD_RATE = 0.4
POLL_S = 0.02
MAX_QUEUE = 8
#: A cold job not done this long after the window counts as failed.
TAIL_S = 30.0


@dataclass
class Outcome:
    """What one workload run measured."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: {
            key: [] for key in ("setup_s", "op_ms", "cpu_ms", "rss_mb", "disk_kb")
        }
    )
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: op id -> (start ns, end ns, kind) of every timed op.
    ops: dict[str, tuple[int, int, str]] = field(default_factory=dict)
    diagnostics: dict[str, float] = field(default_factory=dict)
    profile_kb: float = 0.0
    #: Spans of a traced run (``report.load_spans``).
    spans: list[dict] = field(default_factory=list)

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failures.extend(problems)


@dataclass
class Proc:
    code: int
    wall_ms: float
    cpu_ms: float
    rss_mb: float
    output: str
    start_ns: int
    end_ns: int


class Launcher:
    """Launches the processes of one workload run and reaps them."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.spans = work / "spans"
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.spans.mkdir(exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            TMPDIR=str(tmp),
            PYTHONUNBUFFERED="1",
            POPPER_BENCH_SPANS=str(self.spans),
        )
        for name in ("POPPER_SEED", "POPPER_BENCH_OP"):
            self.env.pop(name, None)
        self.live: list[subprocess.Popen] = []

    def spawn(self, argv: list[str], log: Path, op: str | None = None) -> subprocess.Popen:
        env = self.env if op is None else dict(self.env, POPPER_BENCH_OP=op)
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=self.work,
                start_new_session=True,
            )
        self.live.append(proc)
        return proc

    def popper_argv(self, repo: Path, args: list[str], traced: bool) -> list[str]:
        entry = [str(HERE / "traced.py")] if traced else ["-m", "repro.core.cli"]
        return [*entry, "-C", str(repo), *args]

    def reap(self, proc: subprocess.Popen, timeout_s: float = OP_TIMEOUT_S):
        """Wait for *proc* (killing its session after *timeout_s*)."""

        def expire(signum, frame):
            _kill_session(proc)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        _kill_session(proc)  # anything the process left behind
        return proc.returncode, usage

    def run(self, repo: Path, args: list[str], op: str | None = None) -> Proc:
        """One timed popper process: spawn to exit.  Traced, as *op*,
        when *op* is given."""
        log = self.work / "op.log"
        argv = self.popper_argv(repo, args, traced=op is not None)
        start = time.perf_counter_ns()
        proc = self.spawn(argv, log, op=op)
        code, usage = self.reap(proc)
        end = time.perf_counter_ns()
        return Proc(
            code=code,
            wall_ms=(end - start) / 1e6,
            cpu_ms=(usage.ru_utime + usage.ru_stime) * 1000.0,
            rss_mb=usage.ru_maxrss / 1024.0,
            output=log.read_text(encoding="utf-8", errors="replace"),
            start_ns=start,
            end_ns=end,
        )

    def prime(self, repo: Path, exps: dict, steps: list[list[str]], commit: bool = False) -> None:
        """Build *repo* from *exps* and run *steps* in one ``prime.py``."""
        spec = {"root": str(repo), "experiments": exps, "steps": steps, "commit": commit}
        log = self.work / "prime.log"
        code, _usage = self.reap(self.spawn([str(HERE / "prime.py"), json.dumps(spec)], log))
        if code != 0:
            raise RuntimeError(f"set-up of {repo} failed ({code}):\n{log.read_text()}")

    def close(self) -> None:
        for proc in list(self.live):
            _kill_session(proc)
            with contextlib.suppress(ChildProcessError, subprocess.TimeoutExpired):
                proc.wait(10)
        self.live.clear()


def _kill_session(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(proc.pid, signal.SIGKILL)


def experiments(seeds, tag: str = "s") -> dict[str, tuple[str, dict]]:
    """The four templates at each seed: ``name -> (template, vars)``."""
    return {
        f"{template}-{tag}{seed}": (template, {**overrides, "seed": seed})
        for seed in seeds
        for template, overrides in TEMPLATES.items()
    }


def restore(snapshot: Path, repo: Path) -> None:
    shutil.rmtree(repo, ignore_errors=True)
    shutil.copytree(snapshot, repo, symlinks=True)
    # Write the copy back now, so the op's first fsync does not.
    os.sync()


def tree_kb(path: Path) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            with contextlib.suppress(FileNotFoundError):
                total += os.lstat(os.path.join(base, name)).st_size
    return total / 1024.0


def profile_kb(repo: Path) -> float:
    """Size of the largest per-commit profile under ``.pvcs/profiles``."""
    sizes = [p.stat().st_size for p in (repo / ".pvcs" / "profiles").glob("*.json")]
    return max(sizes, default=0) / 1024.0


def results(repo: Path, names) -> dict[str, bytes]:
    out = {}
    for name in names:
        path = repo / "experiments" / name / "results.csv"
        out[name] = path.read_bytes() if path.is_file() else b""
    return out


def _differing(actual: dict[str, bytes], reference: dict[str, bytes]) -> list[str]:
    return sorted(n for n, data in actual.items() if not data or data != reference.get(n))


# -- sweeps and CI: closed loop, one client ------------------------------------------


def _check_run(proc: Proc, repo: Path, names, reference: dict) -> list[str]:
    """Exit 0, one ``(cached)`` line per experiment, and every results.csv
    byte-identical to *reference*."""
    problems = []
    if proc.code != 0:
        problems.append(f"popper run exited {proc.code}:\n{proc.output[-2000:]}")
    hits = proc.output.count("(cached)")
    if hits != len(names):
        problems.append(f"{hits} '(cached)' lines, expected {len(names)}")
    differing = _differing(results(repo, names), reference)
    if differing:
        problems.append(f"results.csv differs from the primed cold sweep: {', '.join(differing)}")
    return problems


def _check_ci(proc: Proc) -> list[str]:
    if proc.code == 0 and "build: passing" in proc.output:
        return []
    return [f"popper ci build not passing (exit {proc.code}):\n{proc.output[-2000:]}"]


def _closed_loop(launcher: Launcher, out: Outcome, snapshot: Path, repo: Path, args,
                 seconds: float, check) -> None:
    """Restore, run, check; repeat while another op is expected to end
    within *seconds* (judged by the median op so far, restore included).

    A tracing launcher alternates traced and untraced ops, so the untraced
    samples give the tracing overhead from the same minutes of the host;
    it runs at least one of each.
    """
    base_kb = tree_kb(snapshot / ".pvcs")
    started = time.perf_counter()
    least = 2 if launcher.trace else 1
    index = 0
    cycles: list[float] = []
    while index < least or time.perf_counter() + statistics.median(cycles) <= started + seconds:
        cycle_start = time.perf_counter()
        restore(snapshot, repo)
        op = str(index) if launcher.trace and index % 2 == 0 else None
        proc = launcher.run(repo, args, op=op)
        out.check(check(proc))
        if op is not None:
            out.ops[op] = (proc.start_ns, proc.end_ns, "process")
        else:
            out.samples["op_ms"].append(proc.wall_ms)
            out.samples["cpu_ms"].append(proc.cpu_ms)
            out.samples["rss_mb"].append(proc.rss_mb)
            out.samples["disk_kb"].append(tree_kb(repo / ".pvcs") - base_kb)
        cycles.append(time.perf_counter() - cycle_start)
        index += 1
    out.profile_kb = profile_kb(repo)


def _set_up(launcher: Launcher, out: Outcome, setups: int, exps: dict, steps,
            commit: bool = False) -> tuple[Path, Path]:
    """Build and prime *setups* times, timing each; snapshot the last.
    Returns the repository path and its snapshot."""
    repo, snapshot = launcher.work / "repo", launcher.work / "snapshot"
    for _ in range(setups):
        shutil.rmtree(repo, ignore_errors=True)
        started = time.perf_counter()
        launcher.prime(repo, exps, steps, commit)
        out.samples["setup_s"].append(time.perf_counter() - started)
    shutil.rmtree(snapshot, ignore_errors=True)
    shutil.copytree(repo, snapshot, symlinks=True)
    return repo, snapshot


def sweep_warm(launcher: Launcher, seed: int, seconds: float, setups: int,
               variants: int) -> Outcome:
    """sweep-warm: ``popper run --all`` over 4 x *variants* experiments,
    every one served from the primed, repacked cache."""
    out = Outcome()
    exps = experiments(range(seed, seed + variants))
    steps = [["run", "--all"]] * (1 + WARM_PRIMES) + [["cache", "repack"]]
    repo, snapshot = _set_up(launcher, out, setups, exps, steps)
    # prime.py has checked that every warm prime reproduced the cold one.
    reference = results(snapshot, exps)
    _closed_loop(
        launcher, out, snapshot, repo, ["run", "--all"], seconds,
        lambda proc: _check_run(proc, repo, exps, reference),
    )
    return out


def ci_build(launcher: Launcher, seed: int, seconds: float, setups: int) -> Outcome:
    """ci-build: ``popper ci`` on the default matrix over 4 swept experiments."""
    out = Outcome()
    exps = experiments([seed])
    # Committed results: the --validate-only matrix job re-validates them.
    repo, snapshot = _set_up(launcher, out, setups, exps, [["run", "--all"]], commit=True)
    _closed_loop(launcher, out, snapshot, repo, ["ci"], seconds, _check_ci)
    return out


# -- serve: open loop against one daemon ---------------------------------------------


def _http(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        try:
            doc = json.loads(data or b"{}")
        except json.JSONDecodeError:
            doc = {}
        return response.status, doc
    except OSError as exc:
        return 0, {"error": str(exc)}
    finally:
        conn.close()


def _start_daemon(launcher: Launcher, repo: Path, workers: int):
    """Start ``popper serve`` and wait until ``/readyz`` answers 200."""
    log = launcher.work / "daemon.log"
    args = ["serve", "--workers", str(workers), "--max-queue", str(MAX_QUEUE), "--port", "0"]
    proc = launcher.spawn(launcher.popper_argv(repo, args, traced=launcher.trace), log)
    deadline = time.monotonic() + 60.0
    port = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            launcher.live.remove(proc)
            raise RuntimeError(f"popper serve exited {proc.returncode}:\n{log.read_text()}")
        if port is None:
            found = re.search(r"http://127\.0\.0\.1:(\d+)", log.read_text())
            port = int(found.group(1)) if found else None
        if port is not None and _http(port, "GET", "/readyz")[0] == 200:
            return proc, port
        time.sleep(0.005)
    raise RuntimeError(f"popper serve not ready after 60 s:\n{log.read_text()}")


def _stop_daemon(launcher: Launcher, proc: subprocess.Popen):
    os.kill(proc.pid, signal.SIGTERM)
    return launcher.reap(proc, timeout_s=60.0)


def _tree_cpu_ms(pid: int) -> float:
    """User+sys CPU of *pid* and its children, from ``/proc``."""
    pids = {pid}
    with contextlib.suppress(OSError):
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                pids.update(int(child) for child in handle.read().split())
    ticks = 0
    for each in pids:
        with contextlib.suppress(OSError):
            with open(f"/proc/{each}/stat", encoding="ascii") as handle:
                stat = handle.read()
            fields = stat[stat.rindex(")") + 2 :].split()
            ticks += int(fields[11]) + int(fields[12])
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def serve_schedule(warm: list[str], cold: list[str], seconds: float) -> list[tuple[float, str, str]]:
    """Open-loop plan ``(due s, experiment, kind)``: warm submissions at
    ``WARM_RATE`` round-robin over *warm*, and one cold submission to
    each never-run experiment of *cold*, evenly spaced over the window."""
    plan = [(i / WARM_RATE, warm[i % len(warm)], "warm") for i in range(int(seconds * WARM_RATE))]
    plan += [((j + 0.5) * seconds / len(cold), name, "cold") for j, name in enumerate(cold)]
    return sorted(plan)


def _poll(port: int, pending: dict, out: Outcome, timed: bool) -> None:
    """One ``GET /v1/jobs/<id>`` per pending job; settles finished ones.

    *pending* maps job id -> (due ns, experiment).  A settled job's
    latency is from its due time to the poll that saw it done.
    """
    for job in list(pending):
        status, doc = _http(port, "GET", f"/v1/jobs/{job}")
        state = doc.get("state")
        if status == 200 and state not in ("done", "dead"):
            continue
        end = time.perf_counter_ns()
        due_ns, name = pending.pop(job)
        if status != 200 or state == "dead" or not doc.get("meta", {}).get("validated"):
            out.failures.append(f"cold job {job} ({name}): HTTP {status}, {state}, {doc.get('error')}")
        elif timed:
            out.samples.setdefault("cold_ms", []).append((end - due_ns) / 1e6)
            out.ops[job] = (due_ns, end, "cold")


def _drain_jobs(port: int, pending: dict, out: Outcome, timed: bool, limit_s: float) -> None:
    deadline = time.perf_counter() + limit_s
    while pending and time.perf_counter() < deadline:
        time.sleep(POLL_S)
        _poll(port, pending, out, timed)
    out.failures += [f"cold job {job} not done {limit_s:.0f} s after the window" for job in pending]
    pending.clear()


def _sleep_until(ns: int) -> None:
    wait = (ns - time.perf_counter_ns()) / 1e9
    if wait > 0:
        time.sleep(wait)


def serve_mixed(launcher: Launcher, seed: int, seconds: float, setups: int) -> Outcome:
    """serve-mixed: warm and cold submissions to one ``popper serve``."""
    out = Outcome()
    workers = min(2, os.cpu_count() or 1)
    warm = experiments([seed])
    # The pool of never-run experiments, in blocks of one per template.
    # The first `workers` blocks warm the workers up; the window takes
    # the rest, each block in a seeded order.
    rng = random.Random(seed)
    window_blocks = max(1, int(seconds * COLD_RATE) // len(TEMPLATES))
    pool = experiments(range(seed + 1, seed + 1 + workers + window_blocks), tag="c")
    names = list(pool)
    blocks = [names[i : i + len(TEMPLATES)] for i in range(0, len(names), len(TEMPLATES))]
    rounds = list(zip(*blocks[:workers]))
    cold = []
    for block in blocks[workers:]:
        rng.shuffle(block)
        cold += block
    repo, reference = launcher.work / "repo", launcher.work / "reference"
    daemon = None
    for index in range(setups):
        if daemon is not None:
            _stop_daemon(launcher, daemon)
        shutil.rmtree(repo, ignore_errors=True)
        started = time.perf_counter()
        launcher.prime(repo, {**warm, **pool}, [["run", *warm]])
        took = time.perf_counter() - started
        if index == setups - 1:
            # What a direct `popper run` starts from, for the serve<->run check.
            shutil.rmtree(reference, ignore_errors=True)
            shutil.copytree(repo, reference, symlinks=True)
        started = time.perf_counter()
        daemon, port = _start_daemon(launcher, repo, workers)
        out.samples["setup_s"].append(took + time.perf_counter() - started)

    plan = serve_schedule(list(warm), cold, seconds)
    try:
        # Throwaway cold jobs, one template at a time and one job per
        # worker at once, so that every worker has paid the first-job
        # imports of every template before the window opens.
        pending: dict[str, tuple[int, str]] = {}
        for batch in rounds:
            for name in batch:
                status, doc = _http(port, "POST", "/v1/jobs", {"experiment": name})
                out.check([] if status == 202 else [f"warm-up submit {name} -> {status} {doc}"])
                if status == 202:
                    pending[doc["id"]] = (time.perf_counter_ns(), name)
            _drain_jobs(port, pending, out, False, 120.0)
        # And one second of warm traffic, so the window opens on a daemon
        # that has served every warm experiment before.
        for i in range(int(WARM_RATE)):
            name = list(warm)[i % len(warm)]
            due = time.perf_counter() + 1.0 / WARM_RATE
            status, doc = _http(port, "POST", "/v1/jobs", {"experiment": name})
            out.check([] if status == 200 else [f"warm-up submit {name} -> {status} {doc}"])
            time.sleep(max(0.0, due - time.perf_counter()))
        # Write back what set-up left dirty, so that it does not share the
        # window's fsyncs.
        os.sync()

        base_kb = tree_kb(repo / ".pvcs")
        cpu_before = _tree_cpu_ms(daemon.pid)
        lateness = []
        t0 = time.perf_counter_ns()
        next_poll = t0
        for due_s, name, kind in plan:
            due_ns = t0 + int(due_s * 1e9)
            while pending and next_poll < due_ns:
                _sleep_until(next_poll)
                _poll(port, pending, out, True)
                next_poll += int(POLL_S * 1e9)
            _sleep_until(due_ns)
            sent = time.perf_counter_ns()
            lateness.append((sent - due_ns) / 1e6)
            status, doc = _http(port, "POST", "/v1/jobs", {"experiment": name})
            end = time.perf_counter_ns()
            out.attempted += 1
            if kind == "warm" and status == 200 and doc.get("cached"):
                out.ops[doc["id"]] = (due_ns, end, "warm")
                if not launcher.trace:
                    out.samples["op_ms"].append((end - due_ns) / 1e6)
            elif kind == "cold" and status == 202:
                pending[doc["id"]] = (due_ns, name)
                next_poll = end + int(POLL_S * 1e9)
            else:
                out.failures.append(f"{kind} submit {name} -> {status} {doc}")
        _drain_jobs(port, pending, out, True, TAIL_S)

        out.samples["cpu_ms"].append((_tree_cpu_ms(daemon.pid) - cpu_before) / len(plan))
        out.samples["disk_kb"].append((tree_kb(repo / ".pvcs") - base_kb) / len(plan))
        out.profile_kb = profile_kb(repo)
        warm_ms = sorted(out.samples["op_ms"]) or [0.0]
        out.diagnostics["warm_p95_ms"] = warm_ms[int(0.95 * (len(warm_ms) - 1))]
        out.diagnostics["cold_p50_ms"] = statistics.median(out.samples.get("cold_ms") or [0.0])
        lateness.sort()
        out.diagnostics["lateness_p95_ms"] = lateness[int(0.95 * (len(lateness) - 1))]
    finally:
        code, usage = _stop_daemon(launcher, daemon)
    out.samples["rss_mb"].append(usage.ru_maxrss / 1024.0)
    if code != 128 + signal.SIGTERM:
        out.failures.append(f"popper serve drained with exit {code}")

    # The serve<->run contract: every served results.csv is byte-identical
    # to a direct `popper run` of the same experiment.
    direct = launcher.run(reference, ["run", *pool])
    if direct.code != 0:
        out.failures.append(f"reference popper run exited {direct.code}:\n{direct.output[-2000:]}")
    checked = [*warm, *pool]
    differing = _differing(results(repo, checked), results(reference, checked))
    out.failures += [f"served results.csv differs from popper run: {n}" for n in differing]
    return out
