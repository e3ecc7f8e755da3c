"""The layer table and the outside-in tracer of the end-to-end benchmark.

``traced.py`` calls :func:`install` before anything from ``repro`` is
imported.  From then on every module execution is timed as an
``import.<package>`` span, and when a module named in :data:`LAYERS`
finishes executing, the listed functions in it are replaced by wrappers
that record one span per call.  Nothing under ``src/`` knows about this.

A span is one JSON object: ``id``, ``parent`` (0 for a root), ``pid``,
``tid``, ``layer``, ``name``, ``start``/``end`` (``perf_counter_ns``,
which is ``CLOCK_MONOTONIC`` and so comparable across processes), ``op``
when the span names its operation, and any extras.  Spans stay in memory
and are appended to ``<POPPER_BENCH_SPANS>/spans-<pid>.jsonl`` when the
outermost wrapped call of the process's owning thread returns: forked
serve and process-backend workers never run ``atexit``, so the flush
cannot wait for exit.
"""

from __future__ import annotations

import functools
import importlib._bootstrap_external as bootstrap_external
import itertools
import json
import os
import threading
import time

__all__ = ["IMPORT_PACKAGES", "LAYERS", "Tracer", "install"]

#: Top-level packages whose module execution gets its own import layer;
#: every other module lands in ``import.other``.
IMPORT_PACKAGES = ("scipy", "numpy", "repro")


def _result_job(args, result):
    return getattr(result, "id", None)


def _arg_job(args, result):
    return args[1] if len(args) > 1 else None


def _payload_job(args, result):
    return getattr(args[1], "job_id", None) if len(args) > 1 else None


def _self_job(args, result):
    return getattr(args[0], "job_id", None)


def _settled_job(args, result):
    record = args[1] if len(args) > 1 else None
    return record.get("job") if isinstance(record, dict) else None


def _lookup_hit(args, result):
    return {"hit": result is not None}


def _claim_wait(args, result):
    if result is None:
        return {}
    return {"wait_ms": (time.time() - result.submitted) * 1000.0}


#: layer -> [(module, attribute path, op_of, extra)].  ``op_of(args,
#: result)`` names the serve job a call belongs to; ``extra(args, result)``
#: adds fields to the span.  Functions are patched where callers look
#: them up: ``run_experiment_runner`` and ``check_all`` as bound in
#: ``repro.core.pipeline``, the smoke checks where ``cli.py`` imports them.
LAYERS: dict[str, list[tuple]] = {
    "cli": [("repro.core.cli", "main", None, None)],
    "check": [
        ("repro.check.profiles", "ProfileHistory.attach", None, None),
        ("repro.check.profiles", "ProfileHistory.baseline_for", None, None),
        ("repro.check.suite", "DetectorSuite.compare_samples", None, None),
    ],
    "pipeline": [
        ("repro.core.pipeline", "ExperimentPipeline.run", None, None),
        ("repro.core.pipeline", "ExperimentPipeline.run_validation", None, None),
        ("repro.core.pipeline", "ExperimentPipeline.run_setup", None, None),
    ],
    "payload": [
        ("repro.core.pipeline", "run_experiment_runner", None, None),
        ("repro.notebook", "execute", None, None),
        ("repro.core.pipeline", "check_all", None, None),
    ],
    "engine": [
        ("repro.engine.scheduler", "SerialScheduler.run", None, None),
        ("repro.engine.scheduler", "ThreadedScheduler.run", None, None),
        ("repro.engine.runstate", "RunStateStore.record", None, None),
    ],
    "store": [
        ("repro.store.artifacts", "ArtifactStore.lookup", None, _lookup_hit),
        ("repro.store.artifacts", "ArtifactStore.store", None, None),
        ("repro.store.artifacts", "ArtifactStore.materialize", None, None),
        ("repro.store.cas", "ContentStore.put_bytes", None, None),
        ("repro.store.cas", "ContentStore.put_file", None, None),
        ("repro.store.cas", "ContentStore.get_bytes", None, None),
        ("repro.store.pack", "PackReader.get_bytes", None, None),
    ],
    "monitor": [
        ("repro.monitor.journal", "RunJournal.event", None, None),
        ("repro.common.groupcommit", "GroupCommitWriter.append", None, None),
        ("repro.common.groupcommit", "GroupCommitWriter.flush", None, None),
    ],
    "vcs": [
        ("repro.vcs.repository", "Repository.commit", None, None),
        ("repro.vcs.repository", "Repository.log", None, None),
        ("repro.vcs.store", "ObjectStore.checkout_tree", None, None),
    ],
    "ci": [
        ("repro.ci.runner", "CIServer.trigger", None, None),
        ("repro.core.ci_integration", "PopperExecutor.__call__", None, None),
        ("repro.check.smoke", "perf_smoke", None, None),
        ("repro.store.smoke", "store_smoke", None, None),
        ("repro.fuzz", "fuzz_smoke", None, None),
        ("repro.serve", "serve_smoke", None, None),
    ],
    "serve": [
        ("repro.serve.daemon", "PopperServer.submit", _result_job, None),
        ("repro.serve.daemon", "PopperServer.tick", None, None),
        # Filing a finished job's outputs runs inside the tick; wrapping
        # the settle step is what attributes that work to its job.
        ("repro.serve.daemon", "PopperServer._settle", _settled_job, None),
        ("repro.serve.queue", "JobQueue.submit", _result_job, None),
        ("repro.serve.queue", "JobQueue.claim", _result_job, _claim_wait),
        ("repro.serve.queue", "JobQueue.complete", _arg_job, None),
        ("repro.serve.queue", "JobQueue.heartbeat", _arg_job, None),
        ("repro.serve.workers", "WorkerPool.dispatch", _payload_job, None),
        ("repro.serve.workers", "ServeJob.__call__", _self_job, None),
    ],
}


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, out_dir: str, op: str | None) -> None:
        self.out_dir = out_dir
        self.op = op
        self._ids = itertools.count(1)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child starts with no open spans and no buffered ones;
        # the thread that forked it owns its flushes.
        self._lock = threading.Lock()
        self._spans: list[dict] = []
        self._local = threading.local()
        self._owner = threading.get_ident()

    def call(self, layer, name, fn, args, kwargs, op_of=None, extra=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "layer": layer,
                "name": name,
                "start": start,
                "end": end,
            }
            # A process run for one op (POPPER_BENCH_OP) charges it all
            # of its spans; only a daemon names ops per call.
            op = self.op
            if op is None and op_of is not None:
                op = op_of(args, result)
            if op is not None:
                span["op"] = str(op)
            if extra is not None:
                span.update(extra(args, result))
            with self._lock:
                self._spans.append(span)
            if not stack and threading.get_ident() == self._owner:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self._spans = self._spans, []
        if not spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in spans)


def _wrap(tracer: Tracer, layer: str, name: str, fn, op_of, extra):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, op_of, extra)

    return traced


def install() -> Tracer:
    """Start tracing this process into ``$POPPER_BENCH_SPANS``.

    Must run before the first ``repro`` import: layer functions are
    patched as their modules finish executing.
    """
    tracer = Tracer(os.environ["POPPER_BENCH_SPANS"], os.environ.get("POPPER_BENCH_OP"))
    targets: dict[str, list[tuple]] = {}
    for layer, entries in LAYERS.items():
        for module, path, op_of, extra in entries:
            targets.setdefault(module, []).append((layer, path, op_of, extra))

    def patch(module) -> None:
        for layer, path, op_of, extra in targets.get(module.__name__, ()):
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, layer, path, fn, op_of, extra))

    def timed(original):
        def exec_module(loader, module):
            top = module.__name__.partition(".")[0]
            layer = f"import.{top if top in IMPORT_PACKAGES else 'other'}"
            tracer.call(layer, module.__name__, original, (loader, module), {})
            patch(module)

        return exec_module

    # Source, bytecode-only and extension modules all execute through
    # one of these two methods.
    for loader in (bootstrap_external._LoaderBasics, bootstrap_external.ExtensionFileLoader):
        loader.exec_module = timed(loader.exec_module)
    return tracer
