"""Tests for cross-run memoization: MemoizedPayload + the schedulers."""

import pytest

from repro.common.errors import EngineError
from repro.engine import (
    MemoizedPayload,
    RunOptions,
    SerialScheduler,
    TaskGraph,
    TaskState,
    ThreadedScheduler,
    task_fingerprint,
)
from repro.monitor.journal import RunJournal, read_journal
from repro.monitor.tracing import Tracer
from repro.store import ArtifactStore

BACKENDS = [SerialScheduler(), ThreadedScheduler(max_workers=4)]
BACKEND_IDS = ["serial", "threaded"]

KEY = "d" * 64


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture
def workdir(tmp_path):
    root = tmp_path / "work"
    root.mkdir()
    return root


def counting_payload(root, runs, key=KEY, meta=None, content="payload\n"):
    """A memoized task that writes ``out.txt`` and counts executions."""

    def fn(ctx):
        runs.append(1)
        (root / "out.txt").write_text(content)
        return content

    return MemoizedPayload(
        fn=fn,
        key=key,
        root=root,
        outputs=lambda value: {"out": root / "out.txt"},
        meta=meta if meta is not None else (lambda value: {"value": value}),
        restore=lambda m: m["value"],
    )


def graph_with(payload):
    graph = TaskGraph()
    graph.add("work", payload)
    graph.add(
        "consumer", lambda ctx: ctx.result("work").upper(), dependencies=("work",)
    )
    return graph


class TestFingerprint:
    def test_stable_and_parameter_sensitive(self):
        a = task_fingerprint("run", {"x": 1})
        assert a == task_fingerprint("run", {"x": 1})
        assert a != task_fingerprint("run", {"x": 2})
        assert a != task_fingerprint("other", {"x": 1})

    def test_key_order_does_not_matter(self):
        assert task_fingerprint("t", {"a": 1, "b": 2}) == task_fingerprint(
            "t", {"b": 2, "a": 1}
        )

    def test_empty_id_rejected(self):
        with pytest.raises(EngineError):
            task_fingerprint("")


class TestMemoizedPayload:
    def test_empty_key_rejected(self, workdir):
        with pytest.raises(EngineError):
            MemoizedPayload(
                fn=lambda ctx: None, key="", root=workdir, outputs=lambda v: {}
            )

    def test_default_restore_returns_meta(self, workdir):
        payload = MemoizedPayload(
            fn=lambda ctx: None, key=KEY, root=workdir, outputs=lambda v: {}
        )
        assert payload.cache_restore({"a": 1}) == {"a": 1}


@pytest.mark.parametrize("scheduler", BACKENDS, ids=BACKEND_IDS)
class TestSchedulerMemoization:
    def test_miss_then_hit(self, scheduler, store, workdir):
        runs = []
        options = RunOptions(artifact_store=store)

        first = scheduler.run(graph_with(counting_payload(workdir, runs)), options=options)
        assert first.ok and runs == [1]
        assert first.outcome("work").state is TaskState.OK

        (workdir / "out.txt").unlink()  # the hit must rematerialize it
        second = scheduler.run(graph_with(counting_payload(workdir, runs)), options=options)
        assert second.ok and runs == [1]  # not executed again
        assert second.outcome("work").state is TaskState.CACHED
        assert second.cached == ["work"]
        assert "cached" in second.outcome("work").describe()
        assert (workdir / "out.txt").read_text() == "payload\n"
        # The restored value flows to dependents like a real result.
        assert second.value("consumer") == "PAYLOAD\n"

    def test_key_change_misses(self, scheduler, store, workdir):
        runs = []
        options = RunOptions(artifact_store=store)
        scheduler.run(graph_with(counting_payload(workdir, runs)), options=options)
        other = counting_payload(workdir, runs, key="e" * 64)
        recap = scheduler.run(graph_with(other), options=options)
        assert recap.outcome("work").state is TaskState.OK
        assert runs == [1, 1]

    def test_plain_callable_skips_the_store(self, scheduler, store, workdir):
        """Only a MemoizedPayload is looked up or filed; a plain callable
        runs every time and leaves the store untouched."""
        runs, looked_up = [], []
        options = RunOptions(artifact_store=store)
        plain = counting_payload(workdir, runs).fn
        store.lookup = looked_up.append
        for _ in range(2):
            recap = scheduler.run(graph_with(plain), options=options)
            assert recap.outcome("work").state is TaskState.OK
        assert runs == [1, 1]
        assert looked_up == []
        assert list(store.index.entries()) == []

    def test_no_store_always_executes(self, scheduler, workdir):
        runs = []
        scheduler.run(graph_with(counting_payload(workdir, runs)))
        scheduler.run(graph_with(counting_payload(workdir, runs)))
        assert runs == [1, 1]

    def test_meta_none_vetoes_caching(self, scheduler, store, workdir):
        runs = []
        options = RunOptions(artifact_store=store)
        payload = counting_payload(workdir, runs, meta=lambda value: None)
        scheduler.run(graph_with(payload), options=options)
        payload = counting_payload(workdir, runs, meta=lambda value: None)
        scheduler.run(graph_with(payload), options=options)
        assert runs == [1, 1]
        assert store.lookup(KEY) is None

    def test_broken_restore_degrades_to_miss(self, scheduler, store, workdir):
        runs = []
        options = RunOptions(artifact_store=store)
        scheduler.run(graph_with(counting_payload(workdir, runs)), options=options)

        def boom(meta):
            raise RuntimeError("restore failed")

        payload = counting_payload(workdir, runs)
        payload.restore = boom
        recap = scheduler.run(graph_with(payload), options=options)
        assert recap.ok
        assert recap.outcome("work").state is TaskState.OK
        assert runs == [1, 1]

    def test_cache_events_journaled(self, scheduler, store, workdir, tmp_path):
        runs = []
        options = RunOptions(artifact_store=store)
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        tracer = Tracer(journal=journal)
        scheduler.run(
            graph_with(counting_payload(workdir, runs)),
            tracer=tracer,
            options=options,
        )
        scheduler.run(
            graph_with(counting_payload(workdir, runs)),
            tracer=tracer,
            options=options,
        )
        journal.close()
        events = [e for e in read_journal(path) if e["event"] == "cache"]
        assert [e["hit"] for e in events] == [False, True]
        miss, hit = events
        assert miss["bytes_stored"] == len("payload\n")
        assert hit["bytes_saved"] == len("payload\n")
        assert miss["key"] == hit["key"] == KEY
