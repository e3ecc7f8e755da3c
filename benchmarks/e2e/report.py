"""Per-layer budgets from the spans ``layers.py`` records.

A layer's self time is each span's duration minus the union of its
same-thread children, summed per operation.  The spans of one operation
are those whose own ``op`` or nearest ancestor's ``op`` names it; spans
with no operation (a daemon's idle ticks) stay out of every budget.

For each operation the budget is exact by construction::

    sum(layer self times) + unattributed - overlap == op wall

When the op is one ``popper`` process, the pseudo-layer ``python`` takes
the time before its first span (interpreter start-up) and after its
last (the span flush and interpreter exit).  ``unattributed`` is the
rest of the op's wall time that no span covers: gaps between spans,
and for serve ops HTTP, queueing and polling.  ``overlap`` is time
counted twice because spans of the op ran at once on several threads or
processes (the process backend in CI, a serve worker next to the
daemon); with one thread it is zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from layers import IMPORT_PACKAGES, LAYERS

__all__ = [
    "ALL_LAYERS",
    "budget",
    "format_budget",
    "layer_metrics",
    "load_spans",
    "self_times",
    "union_ns",
]

ALL_LAYERS = ["python", *LAYERS, *(f"import.{p}" for p in (*IMPORT_PACKAGES, "other"))]


def load_spans(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def union_ns(intervals) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[tuple, int]:
    """``(pid, id) -> self ns``: duration minus same-thread children."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append(span)
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        inner = [
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(key, ())
            if c["tid"] == span["tid"] and c["end"] > start and c["start"] < end
        ]
        result[key] = end - start - union_ns(inner)
    return result


def _ops_of(spans: list[dict]) -> dict[tuple, str | None]:
    by_key = {(s["pid"], s["id"]): s for s in spans}
    resolved: dict[tuple, str | None] = {}

    def op_of(key):
        if key not in resolved:
            span = by_key.get(key)
            if span is None:
                resolved[key] = None
            elif "op" in span:
                resolved[key] = span["op"]
            else:
                resolved[key] = op_of((span["pid"], span["parent"])) if span["parent"] else None
        return resolved[key]

    for key in by_key:
        op_of(key)
    return resolved


def budget(spans: list[dict], ops: dict[str, tuple[int, int, str]]) -> dict[str, dict]:
    """Per-op budgets for *ops* (``op id -> (start ns, end ns, kind)``).

    Each value holds ``wall``, ``layers`` (``layer -> [calls, self ns]``),
    ``unattributed``, ``overlap`` and the op's raw ``spans``.  Ops of
    kind ``process`` are one ``popper`` process each.
    """
    selfs = self_times(spans)
    op_of = _ops_of(spans)
    result = {
        op: {"wall": end - start, "layers": defaultdict(lambda: [0, 0]), "spans": []}
        for op, (start, end, _kind) in ops.items()
    }
    for span in spans:
        key = (span["pid"], span["id"])
        entry = result.get(op_of[key])
        if entry is None:
            continue
        cell = entry["layers"][span["layer"]]
        cell[0] += 1
        cell[1] += selfs[key]
        entry["spans"].append(span)
    for op, entry in result.items():
        start, end, kind = ops[op]
        intervals = [(s["start"], s["end"]) for s in entry["spans"]]
        covered = union_ns(intervals)
        total_self = sum(cell[1] for cell in entry["layers"].values())
        if kind == "process" and intervals:
            outside = min(intervals)[0] - start + end - max(e for _s, e in intervals)
            entry["layers"]["python"] = [1, outside]
            covered += outside
            total_self += outside
        entry["unattributed"] = entry["wall"] - covered
        entry["overlap"] = total_self - covered
    return result


def _totals(budgets: dict[str, dict]) -> dict[str, list[int]]:
    """``layer -> [calls, self ns]`` summed over *budgets*."""
    totals = {layer: [0, 0] for layer in ALL_LAYERS}
    for entry in budgets.values():
        for layer, (calls, ns) in entry["layers"].items():
            totals[layer][0] += calls
            totals[layer][1] += ns
    return totals


def layer_metrics(budgets: dict[str, dict]) -> dict[str, float]:
    """Workload-level per-layer numbers over a set of op budgets.

    ``<layer>.calls`` is calls per op; ``<layer>.self_pct`` is the
    layer's share of the summed op wall time, so the shares, plus
    ``unattributed_pct`` minus ``overlap_pct``, add up to 100.
    """
    n = max(len(budgets), 1)
    wall = sum(b["wall"] for b in budgets.values()) or 1
    metrics = {}
    for layer, (calls, ns) in _totals(budgets).items():
        metrics[f"{layer}.calls"] = calls / n
        metrics[f"{layer}.self_pct"] = 100.0 * ns / wall
    metrics["unattributed_pct"] = 100.0 * sum(b["unattributed"] for b in budgets.values()) / wall
    metrics["overlap_pct"] = 100.0 * sum(b["overlap"] for b in budgets.values()) / wall
    lookups = [
        s for b in budgets.values() for s in b["spans"] if s["name"] == "ArtifactStore.lookup"
    ]
    metrics["store.hit_ratio"] = (
        sum(1 for s in lookups if s.get("hit")) / len(lookups) if lookups else 0.0
    )
    return metrics


def format_budget(title: str, budgets: dict[str, dict]) -> str:
    """The budget table: per-op calls, self ms and share of the op wall."""
    n = max(len(budgets), 1)
    wall = sum(b["wall"] for b in budgets.values()) or 1
    rows = sorted(
        ((layer, calls / n, ns) for layer, (calls, ns) in _totals(budgets).items() if calls),
        key=lambda row: -row[2],
    )
    rows.append(("unattributed", None, sum(b["unattributed"] for b in budgets.values())))
    rows.append(("- overlap", None, sum(b["overlap"] for b in budgets.values())))
    lines = [
        f"-- budget: {title} ({len(budgets)} ops, {wall / 1e6 / n:.1f} ms/op wall)",
        f"   {'layer':<16} {'calls/op':>10} {'self ms/op':>11} {'share':>7}",
    ]
    for layer, calls, ns in rows:
        shown = f"{calls:10.1f}" if calls is not None else f"{'':10}"
        lines.append(f"   {layer:<16} {shown} {ns / 1e6 / n:11.2f} {100.0 * ns / wall:6.1f}%")
    return "\n".join(lines)
