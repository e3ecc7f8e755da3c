"""GroupCommitWriter: write-through visibility, window triggers, batch
mode, and the crash-injection degradation that keeps torn-tail
semantics deterministic."""

import json

import pytest

from repro.common.crash import CrashPlan, SimulatedCrash, install_crash_plan
from repro.common.groupcommit import GroupCommitWriter, read_jsonl


@pytest.fixture
def path(tmp_path):
    return tmp_path / "events.jsonl"


class TestWriteThrough:
    def test_lines_visible_before_flush(self, path):
        with GroupCommitWriter(path, durable=True) as writer:
            writer.append('{"n": 1}')
            # The write already reached the kernel: a killed process
            # loses nothing, only the fsync barrier is deferred.
            assert path.read_text() == '{"n": 1}\n'

    def test_appends_reject_embedded_newlines(self, path):
        with GroupCommitWriter(path) as writer:
            with pytest.raises(ValueError):
                writer.append("two\nlines")

    def test_fresh_truncates_and_append_grows(self, path):
        path.write_text("stale\n")
        with GroupCommitWriter(path, fresh=True) as writer:
            writer.append("a")
        assert path.read_text() == "a\n"
        with GroupCommitWriter(path) as writer:
            writer.append("b")
        assert path.read_text() == "a\nb\n"

    def test_reopen_seals_a_torn_tail_off(self, path):
        path.write_text('{"n": 1}\n{"n": 2, "to')  # a crash's fragment
        with GroupCommitWriter(path) as writer:
            writer.append('{"n": 3}')
        assert path.read_text() == '{"n": 1}\n{"n": 2, "to\n\n{"n": 3}\n'
        with pytest.warns(UserWarning, match="torn trailing line 2"):
            assert read_jsonl(path) == ([{"n": 1}, {"n": 3}], 1)

    def test_closed_writer_rejects_appends(self, path):
        writer = GroupCommitWriter(path)
        writer.close()
        assert writer.closed
        with pytest.raises(ValueError):
            writer.append("late")


class TestWindows:
    def test_syncs_amortized_across_event_window(self, path):
        with GroupCommitWriter(path, durable=True, max_events=10) as writer:
            for i in range(25):
                writer.append(json.dumps({"n": i}))
        # 25 appends, window of 10: two full windows plus the close's
        # flush of the remainder — not 25 barriers.
        assert writer.appends == 25
        assert writer.syncs == 3
        assert writer.commits == 3
        assert len(path.read_text().splitlines()) == 25

    def test_time_trigger_commits_an_aged_window(self, path):
        now = [0.0]
        writer = GroupCommitWriter(
            path, durable=True, max_delay_s=0.5, clock=lambda: now[0]
        )
        writer.append("a")
        assert writer.syncs == 0
        now[0] = 1.0  # the window is past its deadline at the next append
        writer.append("b")
        assert writer.syncs == 1
        writer.close()

    def test_non_durable_never_syncs(self, path):
        with GroupCommitWriter(path, durable=False, max_events=2) as writer:
            for i in range(10):
                writer.append(str(i))
        assert writer.syncs == 0
        assert len(path.read_text().splitlines()) == 10

    def test_explicit_flush_commits_the_open_window(self, path):
        writer = GroupCommitWriter(path, durable=True)
        writer.append("span event")
        assert writer.pending() == 1
        writer.flush()
        assert writer.pending() == 0
        assert writer.syncs == 1
        writer.flush()  # idempotent: nothing pending, no extra barrier
        assert writer.syncs == 1
        writer.close()


class TestBatched:
    def test_batch_buffers_then_lands_on_exit(self, path):
        with GroupCommitWriter(path, durable=True) as writer:
            with writer.batched():
                writer.append("a")
                writer.append("b")
                assert writer.in_batch
                assert path.read_text() == ""  # buffered, not written
            assert path.read_text() == "a\nb\n"
        assert writer.syncs == 1

    def test_batch_window_bound_still_commits(self, path):
        with GroupCommitWriter(path, durable=True, max_events=3) as writer:
            with writer.batched():
                for i in range(7):
                    writer.append(str(i))
        assert writer.syncs == 3  # two full windows + the closing partial
        assert len(path.read_text().splitlines()) == 7

    def test_batches_nest(self, path):
        with GroupCommitWriter(path, durable=True) as writer:
            with writer.batched():
                writer.append("outer")
                with writer.batched():
                    writer.append("inner")
                assert path.read_text() == ""  # only the outermost commits
            assert len(path.read_text().splitlines()) == 2
        assert writer.syncs == 1


class TestCrashInjection:
    def test_window_crashpoint_loses_the_event_whole(self, path):
        install_crash_plan(CrashPlan.parse("at:journal.append.window:1"))
        try:
            writer = GroupCommitWriter(path, durable=True)
            with pytest.raises(SimulatedCrash):
                writer.append('{"doomed": true}')
        finally:
            install_crash_plan(None)
        # The window crash fires before any byte lands: no tear, the
        # event is simply absent — nothing for the doctor to repair.
        assert path.read_text() == ""
        writer.close()

    def test_torn_crashpoint_keeps_legacy_half_line(self, path):
        line = '{"event": "span_end", "span": "stage"}'
        install_crash_plan(CrashPlan.parse("at:journal.append.torn:2"))
        try:
            writer = GroupCommitWriter(path, durable=True)
            writer.append('{"event": "run_start"}')
            with pytest.raises(SimulatedCrash):
                writer.append(line)
        finally:
            install_crash_plan(None)
        raw = path.read_text()
        # Exactly the first record plus half of the doomed line — the
        # same bytes the pre-group-commit journal_append left, so every
        # existing torn-tail test and doctor repair stays valid.
        assert raw == '{"event": "run_start"}\n' + line[: len(line) // 2]
        writer.close()
        assert path.read_text() == raw  # close() must not un-tear the file

    def test_crash_plan_degrades_batches_to_per_line_windows(self, path):
        install_crash_plan(CrashPlan.parse("at:no.such.point:1"))
        try:
            with GroupCommitWriter(path, durable=True) as writer:
                with writer.batched():
                    writer.append("a")
                    # Determinism beats batching while a plan is live:
                    # the line must be on disk at the same moment it
                    # would have been without group commit.
                    assert path.read_text() == "a\n"
        finally:
            install_crash_plan(None)

    def test_custom_label_scopes_the_crashpoints(self, path):
        install_crash_plan(CrashPlan.parse("at:fuzz.coverage.window:1"))
        try:
            journal = GroupCommitWriter(path, crash_label="journal.append")
            journal.append("safe")  # other label: plan does not match
            journal.close()
            coverage = GroupCommitWriter(
                path.with_name("cov.jsonl"), crash_label="fuzz.coverage"
            )
            with pytest.raises(SimulatedCrash):
                coverage.append("doomed")
            coverage.close()
        finally:
            install_crash_plan(None)
