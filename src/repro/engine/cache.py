"""Cross-run memoization: the engine side of the artifact store.

A :class:`MemoizedPayload` tells the scheduler how to skip itself:
what its cache key is, which files it produces, where they live, and
how to rebuild its Python value from the recorded metadata once those
files are back on disk.  Before executing such a task the scheduler
consults the run's :class:`~repro.store.ArtifactStore`; a fingerprint
hit materializes the outputs from the content pool (a copy) and
completes the task as :attr:`~repro.engine.graph.TaskState.CACHED`,
journaling a ``cache`` event with the bytes it did not have to
recompute.  A miss executes the payload normally and then files the
produced outputs, so the *next* run hits.

The store is the only thing that skips finished work.  A re-run
after a crash or a drain (and any warm run, on any branch or checkout)
executes only what the index cannot serve: as long as the fingerprint
(:func:`task_fingerprint`, task identity + parameter hash) matches, the
stored artifact stands in for the re-execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.common.errors import EngineError
from repro.common.hashing import sha256_text

__all__ = ["MemoizedPayload", "task_fingerprint"]


def task_fingerprint(task_id: str, params: Any = None) -> str:
    """A stable identity for "this task with these parameters".

    Hashes the task id plus a canonical JSON rendering of *params*
    (sorted keys; non-JSON values fall back to ``str``).  Two runs
    agree on a fingerprint exactly when they would execute the same
    payload with the same inputs — the condition under which a stored
    artifact may stand in for a re-execution.
    """
    if not task_id:
        raise EngineError("task_fingerprint: task id required")
    payload = json.dumps(
        {"task": task_id, "params": params}, sort_keys=True, default=str
    )
    return sha256_text(payload)[:16]


@dataclass
class MemoizedPayload:
    """A plain payload plus what the scheduler needs to memoize it.

    ``outputs`` maps the task's value to the files it produced (these
    are what get content-addressed); ``restore`` rebuilds the value from
    the recorded metadata on a hit (defaulting to the metadata itself);
    ``meta`` extracts the metadata to persist (defaulting to ``{}``;
    return ``None`` to veto caching for this particular value).

    The scheduler calls, in order:

    * on the *hit* path: :meth:`cache_key` → index lookup →
      materialization of the recorded outputs under :meth:`cache_root`
      → :meth:`cache_restore` to rebuild the task's value;
    * on the *miss* path: the payload executes normally, then
      :meth:`cache_meta` (``None`` vetoes caching — e.g. a run whose
      validations failed) and :meth:`cache_outputs` name what to file.
    """

    fn: Callable[[Any], Any]
    key: str
    root: Path
    outputs: Callable[[Any], Mapping[str, Path]]
    meta: Callable[[Any], dict | None] = field(default=lambda value: {})
    restore: Callable[[dict], Any] | None = None

    def __post_init__(self) -> None:
        if not self.key:
            raise EngineError("MemoizedPayload needs a non-empty cache key")
        self.root = Path(self.root)

    def __call__(self, ctx: Any) -> Any:
        return self.fn(ctx)

    def cache_key(self) -> str:
        return self.key

    def cache_root(self) -> Path:
        return self.root

    def cache_outputs(self, value: Any) -> Mapping[str, Path]:
        return dict(self.outputs(value))

    def cache_meta(self, value: Any) -> dict | None:
        return self.meta(value)

    def cache_restore(self, meta: dict) -> Any:
        if self.restore is None:
            return dict(meta)
        return self.restore(meta)
