"""The end-to-end benchmark: three workloads that run ``popper`` as users do.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                 [--seconds S] [--trace 0|1]
    python benchmarks/e2e/run.py --compare A B

A run prints one ``workload metric value unit`` line per metric and, as
the last line of each workload, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json``, or with ``--trace 1`` its ``per_layer`` metrics and
the layer budget.  It also writes ``benchmarks/e2e/out/<workload>.json``
(``<workload>.trace.json`` when traced) with the raw samples.  The exit
status is 0 only when every output check passed.

``--compare A B`` compares two sets of such records (each a record file
or a directory of them) metric by metric, against the bounds in
``BENCHMARK.json`` and with ``repro.check``'s ``average-amount``
detector.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
WORKLOADS = ("sweep-warm", "ci-build", "serve-mixed")
#: Sweep size: each of the four templates at this many seeds.
VARIANTS = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Which raw samples each end-to-end metric summarizes, and how.
SUMMARY = {
    "setup_s": ("setup_s", statistics.median),
    "cpu_ms_per_op": ("cpu_ms", statistics.median),
    "peak_rss_mb": ("rss_mb", max),
    "disk_kb_per_op": ("disk_kb", statistics.median),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int):
    """One workload, untraced or traced; returns its ``Outcome``."""
    import workloads

    work = OUT / "work" / (name + (".trace" if trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    launcher = workloads.Launcher(work, trace)
    try:
        if name == "sweep-warm":
            outcome = workloads.sweep_warm(launcher, seed, seconds, setups, VARIANTS)
        elif name == "ci-build":
            outcome = workloads.ci_build(launcher, seed, seconds, setups)
        else:
            outcome = workloads.serve_mixed(launcher, seed, seconds, setups)
        if trace:
            import report

            outcome.spans = report.load_spans(launcher.spans)
        return outcome
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(outcome) -> dict[str, float]:
    return {
        metric: summary(outcome.samples[key]) for metric, (key, summary) in SUMMARY.items()
    }


def _probe_ms(code: str) -> float:
    """Median wall time of a fresh ``python -c <code>``, in ms."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls = []
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        walls.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(walls)


def per_layer(traced, plain_ms: list[float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced outcome, and its budget tables.

    *plain_ms* are untraced op walls of the same workload, the base of
    ``tracing_overhead_pct``.
    """
    import report

    budgets = report.budget(traced.spans, traced.ops)
    metrics = report.layer_metrics(budgets)
    by_kind: dict[str, dict] = {}
    for op, (_start, _end, kind) in traced.ops.items():
        by_kind.setdefault(kind, {})[op] = budgets[op]
    tables = [report.format_budget(kind, group) for kind, group in sorted(by_kind.items())]
    start = _probe_ms("pass")
    metrics["python.start_ms"] = start
    metrics["cli.import_ms"] = _probe_ms("import repro.core.cli") - start
    metrics["check.import_ms"] = _probe_ms("import repro.check") - start
    metrics["check.profile_kb"] = traced.profile_kb
    cold = by_kind.get("cold", {}).values()
    waits = sum(
        s.get("wait_ms", 0.0) for b in cold for s in b["spans"] if s["name"] == "JobQueue.claim"
    )
    cold_wall_ms = sum(b["wall"] for b in cold) / 1e6
    metrics["queue.wait_pct"] = 100.0 * waits / cold_wall_ms if cold_wall_ms else 0.0
    warm = by_kind.get("warm", {}).values()
    warm_wall = sum(b["wall"] for b in warm)
    outside = warm_wall - sum(
        s["end"] - s["start"] for b in warm for s in b["spans"] if s["name"] == "PopperServer.submit"
    )
    metrics["serve.unattributed_pct"] = 100.0 * outside / warm_wall if warm_wall else 0.0
    traced_kind = "warm" if "warm" in by_kind else "process"
    traced_ms = [b["wall"] / 1e6 for b in by_kind.get(traced_kind, {}).values()]
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
    metrics["tracing_overhead_pct"] = 100.0 * overhead
    return metrics, tables


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def envelope(name: str, seed: int, seconds: float, trace: bool, outcome, failed: int,
             metrics: dict) -> dict:
    """The record written to ``out/<workload>[.trace].json``."""
    status = _git("status", "--porcelain")
    return {
        "workload": name,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": outcome.attempted,
        "failed": failed,
        "failures": outcome.failures,
        "samples": outcome.samples,
        "quartiles": {key: quartiles(v) for key, v in outcome.samples.items() if v},
        "metrics": metrics,
        "diagnostics": outcome.diagnostics,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> bool:
    """Run, print and record one workload; returns whether it was correct."""
    units = {m["name"]: m["unit"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    outcome = run_workload(name, seed, seconds, trace, setups=1 if trace else SETUPS)
    if trace:
        plain_ms = outcome.samples["op_ms"]
        if not plain_ms:
            # A serve daemon is traced or not: take the untraced walls
            # from a second run.
            plain = run_workload(name, seed, seconds, False, setups=1)
            plain_ms = plain.samples["op_ms"]
            outcome.attempted += plain.attempted
            outcome.failures += plain.failures
        metrics, tables = per_layer(outcome, plain_ms)
        for table in tables:
            print(f"{name} " + table.replace("\n", f"\n{name} "))
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(outcome)
        wanted = [m["name"] for m in spec["end_to_end"]]
        walls = outcome.samples["op_ms"]
        outcome.diagnostics = {
            "ops": len(walls), "op_p50_ms": statistics.median(walls), **outcome.diagnostics
        }
    failed = min(len(outcome.failures), outcome.attempted)
    for problem in outcome.failures:
        print(f"{name} FAILED: {problem}", file=sys.stderr)
    for metric in wanted:
        print(f"{name} {metric} {metrics[metric]:.6g} {units[metric]}")
    print(f"{name} failed_frac {failed / max(outcome.attempted, 1):.6g} ratio")
    for key, value in outcome.diagnostics.items():
        print(f"{name} {key} {value:.6g} (diagnostic)")
    record = envelope(name, seed, seconds, trace, outcome, failed, metrics)
    OUT.mkdir(exist_ok=True)
    suffix = ".trace.json" if trace else ".json"
    (OUT / f"{name}{suffix}").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return correct


# -- the comparator ------------------------------------------------------------------


def _records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return [r for r in records if not r.get("trace")]


def compare(a: Path, b: Path, spec: dict) -> None:
    """Per metric x workload: the median and spread of the per-run values
    on each side, the verdict against the bound, and ``average-amount``
    on the pooled raw samples."""
    from repro.check import default_suite

    sides = []
    for path in (a, b):
        side: dict[str, dict] = {}
        for record in _records(path):
            entry = side.setdefault(record["workload"], {"runs": {}, "samples": {}})
            for metric, value in record["metrics"].items():
                entry["runs"].setdefault(metric, []).append(value)
            for key, values in record["samples"].items():
                entry["samples"].setdefault(key, []).extend(values)
        sides.append(side)
    print(f"{'workload':<12} {'metric':<15} {'median A':>10} {'IQR A':>7} {'median B':>10}"
          f" {'IQR B':>7} {'change':>8}  {'verdict':<13} average-amount")
    for workload in sorted(set(sides[0]) & set(sides[1])):
        base_side, cand_side = sides[0][workload], sides[1][workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base, cand = base_side["runs"].get(name), cand_side["runs"].get(name)
            if not base or not cand:
                continue
            qa, qb = quartiles(base), quartiles(cand)
            spread_a, spread_b = ((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
            lower = metric["better"] == "lower"
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if lower else -change
            all_better = (max(cand) < min(base)) if lower else (min(cand) > max(base))
            if max(spread_a, spread_b) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            elif worse < -bound or all_better:
                verdict = "improved"
            else:
                verdict = "within bound"
            key = SUMMARY[name][0]
            suite = default_suite(threshold=bound, higher_is_worse=lower)
            detector = next(
                v for v in suite.compare_samples(base_side["samples"][key], cand_side["samples"][key], name)
                if v.detector == "average-amount"
            )
            print(f"{workload:<12} {name:<15} {qa[1]:10.4g} {spread_a:7.1%}"
                  f" {qb[1]:10.4g} {spread_b:7.1%} {change:+8.1%}  {verdict:<13}"
                  f" {detector.change.value}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no popper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    correct = True
    for name in args.workload:
        correct &= measure(name, args.seed, seconds, bool(args.trace), spec)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
