"""ProcessScheduler: multi-core graph execution behind the Task contract.

Payloads here are module-level classes — the process backend ships each
task to a worker process with ``pickle``, and the tests cover exactly
that contract: an unpicklable payload failing its task,
dependency values crossing the boundary, cache/checkpoint composition
(a fully cached graph starts no worker), retries and fault plans inside
workers, deterministic journal-shard merging, dead-worker containment,
and cooperative cancellation.
"""

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.common.crash import SimulatedCrash
from repro.common.errors import (
    EngineError,
    UnpicklablePayloadError,
    WorkerCrashError,
)
from repro.engine import (
    CancelToken,
    FaultPlan,
    MemoizedPayload,
    ProcessScheduler,
    RetryPolicy,
    RunCancelled,
    RunOptions,
    RunStateStore,
    TaskGraph,
    TaskState,
    resolve_backend,
)
from repro.engine.pool import WorkerPool
from repro.engine.scheduler import SerialScheduler
from repro.monitor.journal import RunJournal, read_journal
from repro.monitor.tracing import Tracer
from repro.store import ArtifactStore


class Square:
    def __init__(self, n):
        self.n = n

    def __call__(self, ctx):
        return self.n * self.n


class SumDeps:
    def __call__(self, ctx):
        return sum(ctx.results.values())


class Fail:
    def __call__(self, ctx):
        raise ValueError("injected failure")


class HardCrash:
    """Dies without reporting — the kill -9 of a worker."""

    def __call__(self, ctx):
        os._exit(13)


class Abort:
    def __call__(self, ctx):
        raise SimulatedCrash("worker-side", 1)


class UnpicklableValue:
    """Runs fine but returns something that cannot cross the boundary."""

    def __call__(self, ctx):
        return threading.Lock()


class Sleep:
    def __init__(self, seconds, value=None):
        self.seconds = seconds
        self.value = value

    def __call__(self, ctx):
        time.sleep(self.seconds)
        return self.value


class WriteText:
    """Writes *text* to *path* and returns it."""

    def __init__(self, path, text):
        self.path = path
        self.text = text

    def __call__(self, ctx):
        Path(self.path).write_text(self.text, encoding="utf-8")
        return self.text


class WritePid:
    """Reports its worker's pid through a file, then returns."""

    def __init__(self, path):
        self.path = path

    def __call__(self, ctx):
        tmp = Path(f"{self.path}.tmp")
        tmp.write_text(str(os.getpid()), encoding="utf-8")
        tmp.replace(self.path)
        return "fast"


def diamond():
    graph = TaskGraph()
    graph.add("a", Square(2))
    graph.add("b", Square(3), dependencies=("a",))
    graph.add("c", Square(4), dependencies=("a",))
    graph.add("total", SumDeps(), dependencies=("b", "c"))
    return graph


def test_runs_graph_and_passes_dependency_values():
    recap = ProcessScheduler(max_workers=2).run(diamond())
    assert {t: o.state for t, o in recap.outcomes.items()} == {
        "a": TaskState.OK,
        "b": TaskState.OK,
        "c": TaskState.OK,
        "total": TaskState.OK,
    }
    assert recap.value("total") == 9 + 16


def test_failure_propagates_and_independent_branches_survive():
    graph = TaskGraph()
    graph.add("bad", Fail())
    graph.add("child", Square(1), dependencies=("bad",))
    graph.add("indep", Square(5))
    recap = ProcessScheduler(max_workers=2).run(graph)
    assert recap.outcome("bad").state is TaskState.FAILED
    assert isinstance(recap.outcome("bad").error, ValueError)
    assert str(recap.outcome("bad").error) == "injected failure"
    assert recap.outcome("child").state is TaskState.SKIPPED
    assert recap.outcome("child").blamed_on == "bad"
    assert recap.value("indep") == 25


def test_optional_task_degrades_instead_of_failing():
    graph = TaskGraph()
    graph.add("flaky", Fail(), optional=True)
    graph.add("after", Square(2), dependencies=("flaky",))
    recap = ProcessScheduler(max_workers=2).run(graph)
    assert recap.outcome("flaky").state is TaskState.DEGRADED
    assert recap.value("after") == 4


# -- pickle safety ---------------------------------------------------------------


def test_unpicklable_payload_fails_its_task(tmp_path, recwarn):
    graph = TaskGraph()
    graph.add("closure", lambda ctx: 41 + 1)
    graph.add("dependent", Square(3), dependencies=("closure",))
    graph.add("indep", Square(5))
    journal = RunJournal(tmp_path / "journal.jsonl")
    recap = ProcessScheduler(max_workers=2).run(
        graph, tracer=Tracer(journal=journal)
    )
    journal.close()
    assert recap.outcome("closure").state is TaskState.FAILED
    assert isinstance(recap.outcome("closure").error, UnpicklablePayloadError)
    assert "closure" in str(recap.outcome("closure").error)
    assert recap.outcome("dependent").state is TaskState.SKIPPED
    assert recap.outcome("dependent").blamed_on == "closure"
    assert recap.value("indep") == 25
    # Nothing demotes the graph or runs the task in this process.
    assert not recwarn.list
    events = read_journal(tmp_path / "journal.jsonl")
    assert not [e for e in events if e["event"] == "scheduler_fallback"]
    assert not any(
        e["event"] == "span_start" and e["name"] == "task/closure"
        for e in events
    )


def test_unpicklable_return_value_fails_the_task():
    graph = TaskGraph()
    graph.add("lock", UnpicklableValue())
    graph.add("dep", Square(3), dependencies=("lock",))
    recap = ProcessScheduler(max_workers=1).run(graph)
    assert recap.outcome("lock").state is TaskState.FAILED
    assert isinstance(recap.outcome("lock").error, UnpicklablePayloadError)
    assert recap.outcome("dep").state is TaskState.SKIPPED


# -- resilience inside workers ---------------------------------------------------


def test_retries_and_fault_plans_execute_in_the_worker(tmp_path):
    graph = TaskGraph()
    graph.add("flaky", Square(6))
    journal = RunJournal(tmp_path / "journal.jsonl")
    tracer = Tracer(journal=journal)
    options = RunOptions(
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        faults=FaultPlan.parse("flaky:flaky:2"),
    )
    recap = ProcessScheduler(max_workers=1).run(
        graph, tracer=tracer, options=options
    )
    journal.close()
    outcome = recap.outcome("flaky")
    assert outcome.state is TaskState.OK
    assert outcome.attempts == 3
    assert recap.value("flaky") == 36
    events = read_journal(tmp_path / "journal.jsonl")
    attempts = [e["attempt"] for e in events if e["event"] == "attempt"]
    assert attempts == [1, 2, 3]
    span_ends = {e["name"] for e in events if e["event"] == "span_end"}
    assert {"task/flaky", "task/flaky/attempt-3"} <= span_ends


def test_worker_crash_fails_only_its_task():
    graph = TaskGraph()
    graph.add("boom", HardCrash())
    for i in range(3):
        graph.add(f"ok-{i}", Square(i))
    recap = ProcessScheduler(max_workers=2).run(graph)
    assert recap.outcome("boom").state is TaskState.FAILED
    assert isinstance(recap.outcome("boom").error, WorkerCrashError)
    assert "exit code 13" in str(recap.outcome("boom").error)
    for i in range(3):
        assert recap.outcome(f"ok-{i}").state is TaskState.OK


def test_idle_worker_killed_does_not_hang_the_run(tmp_path):
    pid_file = tmp_path / "fast.pid"
    graph = TaskGraph()
    graph.add("slow", Sleep(2.0, 5))
    graph.add("fast", WritePid(str(pid_file)))
    graph.add("after", Square(5), dependencies=("slow",))

    def kill_fast_worker():
        deadline = time.monotonic() + 20.0
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # fast has reported: its worker is idle
        os.kill(int(pid_file.read_text(encoding="utf-8")), signal.SIGKILL)

    recaps = []
    threading.Thread(target=kill_fast_worker, daemon=True).start()
    run = threading.Thread(
        target=lambda: recaps.append(ProcessScheduler(max_workers=2).run(graph)),
        daemon=True,
    )
    run.start()
    run.join(20.0)
    assert recaps, "the run hung after an idle worker was killed"
    recap = recaps[0]
    assert {t: o.state for t, o in recap.outcomes.items()} == {
        "slow": TaskState.OK,
        "fast": TaskState.OK,
        "after": TaskState.OK,
    }
    assert recap.outcome("after").value == 25


def test_abort_propagates_and_drains():
    graph = TaskGraph()
    graph.add("abort", Abort())
    graph.add("slow", Sleep(0.2, "done"))
    sched = ProcessScheduler(max_workers=2)
    with pytest.raises(SimulatedCrash):
        sched.run(graph)


def test_cancel_token_drains_without_new_dispatch():
    graph = TaskGraph()
    graph.add("first", Sleep(0.5, "a"))
    graph.add("second", Sleep(0.0, "b"), dependencies=("first",))
    token = CancelToken()
    threading.Timer(0.1, token.cancel).start()
    with pytest.raises(RunCancelled):
        ProcessScheduler(max_workers=2).run(
            graph, options=RunOptions(cancel=token)
        )


def test_checkpoint_restores_on_second_run(tmp_path):
    graph = TaskGraph()
    graph.add(
        "work",
        Square(7),
        fingerprint="fp-work",
        checkpoint=lambda value: {"value": value},
        restore=lambda detail: detail["value"],
    )
    state = tmp_path / "state.jsonl"
    with RunStateStore(state) as store:
        first = ProcessScheduler(max_workers=1).run(
            graph, options=RunOptions(run_state=store)
        )
    assert first.value("work") == 49
    with RunStateStore(state, resume=True) as store:
        second = ProcessScheduler(max_workers=1).run(
            graph, options=RunOptions(run_state=store)
        )
    assert second.outcome("work").restored
    assert second.value("work") == 49


def test_fully_cached_graph_starts_no_worker(tmp_path, monkeypatch):
    starts = []
    real_start = WorkerPool.start

    def counting_start(pool):
        starts.append(pool.size)
        real_start(pool)

    monkeypatch.setattr(WorkerPool, "start", counting_start)
    graph = TaskGraph()
    for i in range(3):
        out = tmp_path / f"out-{i}.txt"
        graph.add(
            f"t{i}",
            MemoizedPayload(
                fn=WriteText(str(out), f"value {i}"),
                key=f"{i:064d}",
                root=tmp_path,
                outputs=lambda value, out=out: {"out": out},
                meta=lambda value: {"value": value},
                restore=lambda meta: meta["value"],
            ),
        )
    options = RunOptions(artifact_store=ArtifactStore(tmp_path / "cache"))
    cold = ProcessScheduler(max_workers=2).run(graph, options=options)
    assert {o.state for o in cold.outcomes.values()} == {TaskState.OK}
    assert starts == [2]
    warm = ProcessScheduler(max_workers=2).run(graph, options=options)
    assert {o.state for o in warm.outcomes.values()} == {TaskState.CACHED}
    assert warm.value("t1") == "value 1"
    assert starts == [2]


# -- journal shard merging -------------------------------------------------------


def test_merged_journal_is_one_tree_in_graph_order(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    tracer = Tracer(journal=journal)
    with tracer.span("root"):
        ProcessScheduler(max_workers=2).run(diamond(), tracer=tracer)
    journal.close()
    events = read_journal(tmp_path / "journal.jsonl")
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(1, len(events) + 1))
    # Task spans appear in graph insertion order regardless of which
    # worker ran them, each re-parented under the calling span.
    root_id = events[0]["span_id"]
    task_starts = [
        e for e in events if e["event"] == "span_start" and e["seq"] > 1
    ]
    assert [e["name"] for e in task_starts] == [
        "task/a", "task/b", "task/c", "task/total",
    ]
    assert all(e["parent_id"] == root_id for e in task_starts)
    assert all("worker" in e for e in task_starts)
    # Remapped span ids are unique across shards.
    ids = [e["span_id"] for e in task_starts]
    assert len(set(ids)) == len(ids)
    # The in-memory tracer sees the same single tree.
    assert tracer.span_tree() == [
        "root (ok)",
        "  task/a (ok)",
        "  task/b (ok)",
        "  task/c (ok)",
        "  task/total (ok)",
    ]


# -- backend resolution ----------------------------------------------------------


def test_resolve_backend_serial_for_one_job():
    scheduler, workers, warning = resolve_backend(1)
    assert isinstance(scheduler, SerialScheduler)
    assert (workers, warning) == (1, None)


def test_resolve_backend_process_clamps_to_cpu_count():
    cpus = os.cpu_count() or 1
    scheduler, workers, warning = resolve_backend(cpus + 5)
    assert isinstance(scheduler, ProcessScheduler)
    assert workers == cpus
    assert warning is not None and "clamping" in warning


def test_resolve_backend_rejects_zero_jobs():
    with pytest.raises(EngineError):
        resolve_backend(0)
