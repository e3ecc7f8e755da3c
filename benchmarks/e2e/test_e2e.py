"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs every workload once at a tiny size (one seed per template, one op,
3 s of serve traffic), traces two of them, plants a failure, and checks
the self-time rollup on synthetic spans.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "VARIANTS", 1)
    monkeypatch.setattr(run, "SETUPS", 1)


def _measure(capsys, name, trace=False):
    seconds = 3.0 if name == "serve-mixed" else 0.1
    correct = run.measure(name, 7, seconds, trace, SPEC)
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == name:
            printed[parts[1]] = parts[3]
    return correct, printed, json.loads(lines[-1])


def _assert_all_printed(printed, result, metrics):
    for metric in metrics:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_prints_every_end_to_end_metric(tiny, capsys, name):
    correct, printed, result = _measure(capsys, name)
    assert correct and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert printed["failed_frac"] == "ratio"
    _assert_all_printed(printed, result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("name", ["sweep-warm", "serve-mixed"])
def test_traced_run_prints_every_layer_metric(tiny, capsys, name):
    correct, printed, result = _measure(capsys, name, trace=True)
    assert correct, result
    _assert_all_printed(printed, result, SPEC["per_layer"])
    values = {m: v["value"] for m, v in result["metrics"].items()}
    shares = sum(values[f"{layer}.self_pct"] for layer in report.ALL_LAYERS)
    assert shares + values["unattributed_pct"] - values["overlap_pct"] == pytest.approx(100.0)
    layer = "serve" if name == "serve-mixed" else "cli"
    assert values[f"{layer}.calls"] >= 1


def test_unknown_experiment_submitted_to_serve_counts_as_failed(tiny, capsys, monkeypatch):
    schedule = workloads.serve_schedule

    def planted(warm, cold, seconds):
        return sorted(schedule(warm, cold, seconds) + [(0.55, "no-such-experiment", "warm")])

    monkeypatch.setattr(workloads, "serve_schedule", planted)
    correct, printed, result = _measure(capsys, "serve-mixed")
    assert not correct and not result["correct"]
    assert result["failed"] == 1


def _span(span_id, parent, tid, start, end, layer, op=None):
    span = {"id": span_id, "parent": parent, "pid": 1, "tid": tid,
            "layer": layer, "name": layer, "start": start, "end": end}
    if op is not None:
        span["op"] = op
    return span


def test_self_time_rollup_on_nested_and_two_thread_spans():
    spans = [
        _span(1, 0, 10, 0, 100, "cli", op="a"),
        _span(2, 1, 10, 10, 40, "pipeline"),
        _span(3, 2, 10, 15, 25, "payload"),
        _span(4, 2, 10, 20, 30, "store"),  # overlaps its sibling
        _span(5, 1, 10, 60, 70, "store"),
        _span(6, 0, 11, 50, 90, "monitor", op="a"),  # another thread
        _span(7, 6, 11, 55, 65, "store"),
        _span(8, 0, 12, 0, 500, "serve"),  # no op: background
    ]
    selfs = report.self_times(spans)
    assert selfs[(1, 1)] == 100 - 30 - 10
    assert selfs[(1, 2)] == 30 - 15  # union of [15, 25] and [20, 30]
    assert selfs[(1, 6)] == 40 - 10  # its own thread's child only
    budgets = report.budget(spans, {"a": (0, 120, "warm")})
    entry = budgets["a"]
    assert entry["layers"]["store"] == [3, 10 + 10 + 10]
    assert "serve" not in entry["layers"]
    assert entry["unattributed"] == 20
    # Thread 11's 40 ns run beside thread 10, and spans 3 and 4 share 5 ns.
    assert entry["overlap"] == 45
    total = sum(ns for _calls, ns in entry["layers"].values())
    assert total + entry["unattributed"] - entry["overlap"] == 120
    metrics = report.layer_metrics(budgets)
    assert metrics["store.calls"] == 3
    assert metrics["cli.self_pct"] == pytest.approx(100 * 60 / 120)
    # A process op charges the time before its first span and after its
    # last to the interpreter.
    entry = report.budget(spans, {"a": (-10, 130, "process")})["a"]
    assert entry["layers"]["python"] == [1, 10 + 30]
    assert entry["unattributed"] == 0
