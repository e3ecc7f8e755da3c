"""Hierarchical tracing spans over experiment runs.

The paper's convention asks that every run leave behind enough runtime
provenance that "many of the graphs included in the article can come
directly from running analysis scripts on top of this data".  A
:class:`Tracer` produces that provenance as a tree of :class:`Span`
objects: the pipeline opens a root span (``pipeline/run/<experiment>``),
each stage opens a child, and instrumented substrates (runners,
playbooks, the CI server) nest further spans underneath whichever span
is currently active on their thread.

Three sinks can observe a tracer:

* its own in-memory span list (``tracer.finished()`` / ``span_tree()``),
* a :class:`~repro.monitor.metrics.MetricStore` — every closed span is
  recorded as a ``popper.span_seconds`` sample, so ``stats`` and
  ``figures`` consume timings as ordinary series,
* a :class:`~repro.monitor.journal.RunJournal` — ``span_start`` /
  ``span_end`` events land in the run's append-only JSONL journal.

Library code that cannot be handed a tracer explicitly (experiment
modules, playbook execution, runner dispatch) uses the *ambient* tracer:
:func:`activate` installs one for the duration of a ``with`` block and
:func:`current_tracer` returns it (or a no-op :class:`NullTracer`), so
instrumentation is free when nothing is listening.

Everything here is concurrency-aware, because the execution engine
(:mod:`repro.engine`) runs independent tasks on worker threads:

* span stacks are thread-local — a span opened on a worker thread
  becomes a root span for that thread rather than corrupting another
  thread's stack;
* the ambient-tracer stack is thread-local too, so two experiments
  running concurrently each journal into their own run (the engine
  re-activates the caller's tracer on its worker threads);
* :meth:`Tracer.span` accepts an explicit ``parent`` span, which is how
  the engine stitches worker-thread task spans into the calling thread's
  span tree — a parallel run still renders as one tree.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.common.errors import MonitorError

__all__ = [
    "SPAN_METRIC",
    "Span",
    "Tracer",
    "NullTracer",
    "activate",
    "current_tracer",
]

#: Metric name under which every closed span's wall time is recorded.
SPAN_METRIC = "popper.span_seconds"


@dataclass
class Span:
    """One timed, named region of a run.

    ``attributes`` are free-form key/value annotations (machine, node
    count, exit code, ...); instrumented code may add to them while the
    span is open.  ``status`` is ``"ok"`` unless the block raised, in
    which case it is ``"error"`` and ``error`` holds the exception text.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    status: str = "ok"
    error: str = ""
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class Tracer:
    """Produces nested spans and fans them out to metrics and a journal."""

    def __init__(
        self,
        metrics=None,
        journal=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.metrics = metrics
        self.journal = journal
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._spans: list[Span] = []

    # -- span lifecycle ----------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self, name: str, parent: Span | None = None, **attributes: Any
    ) -> Iterator[Span]:
        """Open a child of the current span for the duration of the block.

        *parent* overrides the implicit (thread-local) parent; the
        execution engine uses it to nest worker-thread task spans under
        the span that was active where the graph was submitted.
        """
        if not name:
            raise MonitorError("span name required")
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            start=self._clock(),
            attributes=dict(attributes),
        )
        with self._lock:
            self._spans.append(span)
        stack.append(span)
        if self.journal is not None:
            self.journal.event(
                "span_start",
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                attributes=span.attributes,
            )
        try:
            yield span
        except BaseException as exc:
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = self._clock()
            stack.pop()
            self._finish(span)

    def reserve_span_ids(self, count: int) -> int:
        """Claim *count* consecutive span ids; returns the first one.

        The process scheduler uses this when it replays a task's worker
        events: the worker numbered its spans from 1 in its own
        process, and the replay remaps them into this tracer's id space
        so the combined journal has globally unique, collision-free
        span ids.
        """
        if count < 0:
            raise MonitorError(f"cannot reserve {count} span ids")
        with self._lock:
            first = self._next_id
            self._next_id += count
        return first

    @contextmanager
    def adopt(self, span: Span) -> Iterator[Span]:
        """Make an already-open *span* this thread's innermost span.

        The span itself is not closed or re-journaled — only the
        thread-local stack is touched.  The engine's deadline watchdog
        uses this: the payload runs on a fresh thread whose span stack
        is empty, and adopting the attempt span there re-anchors any
        spans the payload opens under the correct parent.
        """
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()

    def _finish(self, span: Span) -> None:
        if self.journal is not None:
            self.journal.event(
                "span_end",
                span_id=span.span_id,
                name=span.name,
                duration_s=span.duration,
                status=span.status,
                error=span.error,
                attributes=span.attributes,
            )
        if self.metrics is not None:
            self.metrics.record(
                SPAN_METRIC,
                span.duration,
                labels={"span": span.name, "status": span.status},
            )

    # -- queries -----------------------------------------------------------------
    def finished(self) -> list[Span]:
        """All closed spans, in start order."""
        with self._lock:
            return [s for s in self._spans if s.finished]

    def roots(self) -> list[Span]:
        return [s for s in self.finished() if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.finished() if s.parent_id == span.span_id]

    def span_tree(self) -> list[str]:
        """Indented ``name (status)`` lines, depth-first — handy in tests."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            lines.append("  " * depth + f"{span.name} ({span.status})")
            for child in self.children(span):
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return lines


class NullTracer(Tracer):
    """A tracer that observes nothing — the ambient default.

    Spans are created (so ``with ... as span`` bodies can still annotate
    them) but never retained, exported or journaled.
    """

    def __init__(self) -> None:
        super().__init__()

    @contextmanager
    def span(
        self, name: str, parent: Span | None = None, **attributes: Any
    ) -> Iterator[Span]:
        yield Span(
            name=name, span_id=0, parent_id=None, start=0.0, end=0.0,
            attributes=dict(attributes),
        )

    def finished(self) -> list[Span]:
        return []


_NULL = NullTracer()
_ambient = threading.local()


def _ambient_stack() -> list[Tracer]:
    stack = getattr(_ambient, "stack", None)
    if stack is None:
        stack = _ambient.stack = []
    return stack


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer* as this thread's ambient tracer for the block.

    The ambient stack is per-thread: activating a tracer on one thread
    never leaks it into another (two concurrent pipeline runs must not
    journal into each other's run).  Code that fans work out to worker
    threads and wants instrumentation there must re-activate the tracer
    on each worker — the execution engine's schedulers do exactly that.
    """
    stack = _ambient_stack()
    stack.append(tracer)
    try:
        yield tracer
    finally:
        stack.pop()


def current_tracer() -> Tracer:
    """This thread's innermost :func:`activate`-d tracer, or a no-op."""
    stack = getattr(_ambient, "stack", None)
    return stack[-1] if stack else _NULL
