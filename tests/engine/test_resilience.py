"""Retry policies, deterministic backoff and per-task deadlines."""

import time

import pytest

from repro.common.errors import (
    EngineError,
    TaskTimeoutError,
    TransientError,
    TransientInjectedFault,
    UnreachableHostError,
)
from repro.common.rng import derive_rng
from repro.engine import NO_RETRY, RetryPolicy, call_with_timeout
from repro.engine import SerialScheduler, TaskGraph, ThreadedScheduler, TaskState

BACKENDS = [SerialScheduler(), ThreadedScheduler(max_workers=4)]
BACKEND_IDS = ["serial", "threaded"]


def capped_then_jittered(policy, task_id, attempt):
    """A delay as it was reckoned before ``max_backoff_s`` capped it
    after the jitter: capped first, then stretched by the jitter."""
    base = min(policy.backoff_s * 2.0 ** (attempt - 1), policy.max_backoff_s)
    rng = derive_rng(policy.seed, "retry", task_id, attempt)
    return base * (1.0 + policy.jitter * float(rng.random()))


class TestRetryPolicy:
    def test_defaults_retry_only_transients(self):
        policy = RetryPolicy()
        assert policy.retryable(UnreachableHostError("down"))
        assert policy.retryable(TransientInjectedFault("chaos"))
        assert policy.retryable(TaskTimeoutError("slow"))
        assert not policy.retryable(ValueError("bug"))
        assert not policy.retryable(EngineError("permanent"))

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_s=0.1, max_backoff_s=0.3, jitter=0.0)
        delays = [policy.delay_s("t", n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jittered_delay_is_deterministic(self):
        policy = RetryPolicy(jitter=0.5, seed=7)
        first = policy.delay_s("task-x", 2)
        assert first == policy.delay_s("task-x", 2)
        # A different task or attempt draws a different jitter stream.
        assert first != policy.delay_s("task-y", 2)
        base = RetryPolicy(jitter=0.0).delay_s("task-x", 2)
        assert base <= first <= base * 1.5

    def test_bad_parameters_rejected(self):
        with pytest.raises(EngineError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(EngineError, match="jitter"):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(EngineError, match="non-negative"):
            RetryPolicy(backoff_s=-1)


class TestCallWithTimeout:
    def test_none_runs_inline(self):
        assert call_with_timeout(lambda: 42, None) == 42

    def test_deadline_raises_transient_timeout(self):
        with pytest.raises(TaskTimeoutError, match="deadline"):
            call_with_timeout(lambda: time.sleep(5), 0.05, label="slow")
        # The timeout is retryable by default.
        assert issubclass(TaskTimeoutError, TransientError)

    def test_payload_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            call_with_timeout(lambda: 1 / 0, 1.0)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(EngineError, match="positive"):
            call_with_timeout(lambda: 1, 0)


@pytest.mark.parametrize("scheduler", BACKENDS, ids=BACKEND_IDS)
class TestSchedulerRetries:
    def test_transient_failures_retry_until_success(self, scheduler):
        attempts = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise UnreachableHostError("blip")
            return "done"

        graph = TaskGraph()
        graph.add(
            "flaky",
            flaky,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0),
        )
        recap = scheduler.run(graph)
        assert recap.ok
        assert recap.value("flaky") == "done"
        assert recap.outcome("flaky").attempts == 3

    def test_permanent_errors_fail_fast(self, scheduler):
        attempts = []

        def broken(ctx):
            attempts.append(1)
            raise ValueError("logic bug")

        graph = TaskGraph()
        graph.add(
            "broken",
            broken,
            retry=RetryPolicy(max_attempts=5, backoff_s=0.0, jitter=0.0),
        )
        recap = scheduler.run(graph)
        assert recap.failed == ["broken"]
        assert len(attempts) == 1

    def test_exhausted_retries_fail_with_last_error(self, scheduler):
        def always_down(ctx):
            raise UnreachableHostError("still down")

        graph = TaskGraph()
        graph.add(
            "down",
            always_down,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0, jitter=0.0),
        )
        recap = scheduler.run(graph)
        outcome = recap.outcome("down")
        assert outcome.state is TaskState.FAILED
        assert outcome.attempts == 2
        assert isinstance(outcome.error, UnreachableHostError)

    def test_per_task_timeout_fails_the_task(self, scheduler):
        graph = TaskGraph()
        graph.add("hang", lambda ctx: time.sleep(5), timeout_s=0.05)
        graph.add("fine", lambda ctx: "ok")
        recap = scheduler.run(graph)
        assert recap.failed == ["hang"]
        assert isinstance(recap.outcome("hang").error, TaskTimeoutError)
        assert recap.value("fine") == "ok"

    def test_optional_task_degrades_and_dependents_run(self, scheduler):
        graph = TaskGraph()
        graph.add("nice-to-have", lambda ctx: 1 / 0, optional=True)
        graph.add(
            "after",
            lambda ctx: "ran",
            dependencies=("nice-to-have",),
        )
        recap = scheduler.run(graph)
        assert recap.ok  # degraded, not broken
        assert recap.degraded == ["nice-to-have"]
        assert recap.value("after") == "ran"
        assert "degraded" in recap.recap()

    def test_degraded_dependency_value_raises_engine_error(self, scheduler):
        graph = TaskGraph()
        graph.add("opt", lambda ctx: 1 / 0, optional=True)
        graph.add(
            "reader",
            lambda ctx: ctx.result("opt"),
            dependencies=("opt",),
        )
        recap = scheduler.run(graph)
        assert recap.failed == ["reader"]
        error = recap.outcome("reader").error
        assert isinstance(error, EngineError)
        assert "degraded" in str(error)

    def test_undeclared_dependency_raises_engine_error(self, scheduler):
        graph = TaskGraph()
        graph.add("a", lambda ctx: 1)
        graph.add("b", lambda ctx: ctx.result("a"))  # no edge declared
        recap = scheduler.run(graph)
        error = recap.outcome("b").error
        assert isinstance(error, EngineError)
        assert "did not declare" in str(error)


class TestAbortAccounting:
    def test_keyboard_interrupt_recorded_and_reraised_serial(self):
        def interrupt(ctx):
            raise KeyboardInterrupt

        graph = TaskGraph()
        graph.add("victim", interrupt)
        graph.add("never", lambda ctx: "x", dependencies=("victim",))
        scheduler = SerialScheduler()
        result_holder = {}

        # The outcome is recorded into the GraphResult even though run()
        # re-raises; capture it through a wrapped _execute.
        original = scheduler._execute

        def capturing(graph, result, tracer, parent, options):
            result_holder["result"] = result
            return original(graph, result, tracer, parent, options)

        scheduler._execute = capturing
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(graph)
        outcome = result_holder["result"].outcome("victim")
        assert outcome.state is TaskState.ABORTED
        assert isinstance(outcome.error, KeyboardInterrupt)

    def test_threaded_abort_propagates(self):
        graph = TaskGraph()
        graph.add("victim", lambda ctx: (_ for _ in ()).throw(KeyboardInterrupt))
        with pytest.raises(KeyboardInterrupt):
            ThreadedScheduler(max_workers=2).run(graph)


class TestMaxDelayCap:
    """``max_backoff_s``: the post-jitter ceiling the serve queue leans on."""

    def test_caps_the_jittered_delay(self):
        policy = RetryPolicy(backoff_s=1.0, max_backoff_s=4.0, jitter=0.5)
        # Jitter stretches a delay below the cap, never past it.
        assert 2.0 <= policy.delay_s("t", 2) <= 3.0
        assert policy.delay_s("t", 3) == 4.0
        assert policy.delay_s("t", 5) == 4.0

    def test_huge_attempt_numbers_do_not_overflow(self):
        policy = RetryPolicy(backoff_s=0.05, max_backoff_s=1.0)
        # 2.0 ** 2000 overflows a float; the cap must still win.
        for attempt in (1025, 2000, 10**6):
            assert policy.delay_s("t", attempt) <= 1.0

    def test_sweep_retry_sleeps_are_unchanged_up_to_six_attempts(self):
        # As `popper run --retries 6` builds it.
        policy = RetryPolicy(max_attempts=7, seed=7)
        for task in ("exp-a", "exp-b"):
            for attempt in range(1, 7):
                assert policy.delay_s(task, attempt) == capped_then_jittered(
                    policy, task, attempt
                )
            # From the 7th attempt on, jitter no longer stretches past the cap.
            assert capped_then_jittered(policy, task, 7) > policy.max_backoff_s
            assert policy.delay_s(task, 7) == policy.max_backoff_s

    def test_requeue_sleeps_are_unchanged(self):
        from repro.serve.queue import REQUEUE_POLICY

        for attempt in range(1, 50):
            before = min(
                capped_then_jittered(REQUEUE_POLICY, "job-000000", attempt),
                REQUEUE_POLICY.max_backoff_s,
            )
            assert REQUEUE_POLICY.delay_s("job-000000", attempt) == before

    def test_requeue_policy_is_bounded(self):
        from repro.serve.queue import REQUEUE_POLICY

        assert all(
            REQUEUE_POLICY.delay_s("job-000000", n) <= REQUEUE_POLICY.max_backoff_s
            for n in range(1, 50)
        )
