"""The fuzzer's novelty signal: a persistent behaviour-coverage map.

Coverage here is *behavioural*, not line-based: every executed variant
is reduced to a set of coverage keys describing what the toolchain did —
journal event kinds seen, task states reached, normalized stage/span
shapes, crashpoints hit, Aver verdicts, doctor finding kinds, detector
degradation verdicts, CI matrix widths, and the outcome class itself.
A variant that lights up a key no earlier variant produced is *novel*
and earns a place in the corpus even when the oracle calls it boring.

The map persists as ``.pvcs/fuzz/coverage.jsonl``, appended through
one persistent :class:`~repro.common.groupcommit.GroupCommitWriter` and
read by :func:`~repro.common.groupcommit.read_jsonl`, like every other
JSONL ledger in the store: the campaign's harvest loop appends
thousands of records, and group commit amortizes the durability
barrier across bounded windows (committed on :meth:`CoverageMap.flush`
/ :meth:`CoverageMap.close`, which the campaign calls at exit).  A torn
line a crash left is skipped (``popper doctor`` truncates it); any
other bad line raises :class:`~repro.common.errors.FuzzError`.
Records carry no timestamps — two campaigns with the same seed write
identical maps, which the determinism acceptance test diffs byte for
byte.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import FuzzError
from repro.common.groupcommit import GroupCommitWriter, read_jsonl

__all__ = ["CoverageMap", "coverage_keys_from_events"]


def coverage_keys_from_events(events: list[dict], experiment: str) -> set[str]:
    """Distill journal events into coverage keys.

    Experiment-specific names are normalized (the experiment name maps to
    ``<exp>``) so two variants of different seeds that drive the same
    machinery count as the same behaviour.
    """
    keys: set[str] = set()
    for event in events:
        kind = event.get("event")
        if not kind:
            continue
        keys.add(f"event:{kind}")
        task = event.get("task") or event.get("stage")
        if isinstance(task, str):
            shape = task.replace(experiment, "<exp>")
            state = event.get("state") or event.get("status")
            if state:
                keys.add(f"task:{shape}:{state}")
        if kind == "cache" and "hit" in event:
            keys.add(f"cache:{'hit' if event['hit'] else 'miss'}")
        if kind == "degradation":
            change = event.get("change") or event.get("verdict")
            if change:
                keys.add(f"degradation:{change}")
    return keys


class CoverageMap:
    """Set-of-keys coverage with durable JSONL persistence."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._keys: set[str] = set()
        self._writer: GroupCommitWriter | None = None
        self._load()

    def _load(self) -> None:
        try:
            records, _torn = read_jsonl(self.path)
        except ValueError as exc:
            raise FuzzError(f"bad coverage line at {exc}") from exc
        for record in records:
            keys = record.get("keys") if isinstance(record, dict) else None
            if isinstance(keys, list):
                self._keys.update(str(k) for k in keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def keys(self) -> set[str]:
        return set(self._keys)

    def novel(self, keys: set[str]) -> set[str]:
        """The subset of *keys* this map has never seen."""
        return set(keys) - self._keys

    def observe(self, variant: str, keys: set[str]) -> set[str]:
        """Record a variant's keys; returns (and persists) the novel ones.

        Only novel keys are appended, so the file grows with discovered
        behaviour, not with iterations.
        """
        fresh = self.novel(keys)
        if not fresh:
            return fresh
        self._keys.update(fresh)
        if self._writer is None or self._writer.closed:
            # One writer for the campaign's whole harvest loop — the
            # old open+fsync per record priced every novel variant at a
            # full durability barrier.
            self._writer = GroupCommitWriter(
                self.path, durable=True, crash_label="fuzz.coverage"
            )
        record = {"variant": variant, "keys": sorted(fresh)}
        self._writer.append(json.dumps(record, sort_keys=True))
        return fresh

    def flush(self) -> None:
        """Commit the open group-commit window to disk."""
        if self._writer is not None and not self._writer.closed:
            self._writer.flush()

    def close(self) -> None:
        """Commit and release the persistent writer (campaign exit)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
