"""Durability overhead: what crash consistency costs per write.

Measures the write primitives the crash-consistency layer hardened and
records them to ``BENCH_durability.json`` at the repository root:

* ``atomic_write`` — durable (fsync temp + parent directory) vs
  non-durable (flush only, the ``durable=False`` hot path checkouts
  use), microseconds per write;
* ``per_line_append`` — appends through a
  :class:`~repro.common.groupcommit.GroupCommitWriter` that pays the
  whole price per line: ``fast`` writes and flushes each line
  (``durable=False``), ``durable`` also fsyncs it (a one-line window,
  ``max_events=1``);
* ``group_commit`` — the same durable append stream with the default
  window, whose amortized fsync is the whole point of the storage
  hot-path work: durable appends must land under 10x the buffered cost;
* ``repo_lock`` — one uncontended RepoLock acquire/release round trip,
  the per-critical-section cost every store publish now pays;
* ``object_store_10k`` — ingest 10 000 small objects into a
  ContentStore, read them all back, repack them into one packfile and
  read them all again: the loose-vs-packed cost model at the scale
  ``popper fuzz`` and result sweeps actually write.

Payload sizes mirror the real call sites: refs and index records are
tiny, journal lines are a few hundred bytes.  Run standalone
(``python benchmarks/bench_durability.py``) or via pytest
(``pytest benchmarks/bench_durability.py``).
"""

import json
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_durability.json"

WRITES = 300
PAYLOAD = b'{"task": "run", "outputs": ["results.csv"], "seconds": 1.25}\n' * 4
LINE = json.dumps({"seq": 1, "event": "task_finished", "task": "exp-one"})


def bench_atomic_write(base: Path, durable: bool) -> float:
    from repro.common.fsutil import atomic_write

    target = base / ("durable" if durable else "fast") / "record.json"
    target.parent.mkdir(parents=True)
    started = time.perf_counter()
    for _ in range(WRITES):
        atomic_write(target, PAYLOAD, durable=durable)
    return (time.perf_counter() - started) / WRITES


def bench_per_line_append(base: Path, durable: bool) -> float:
    from repro.common.groupcommit import GroupCommitWriter

    path = base / f"per-line-{'durable' if durable else 'fast'}.jsonl"
    with GroupCommitWriter(path, durable=durable, max_events=1) as writer:
        started = time.perf_counter()
        for _ in range(WRITES):
            writer.append(LINE)
        elapsed = time.perf_counter() - started
    return elapsed / WRITES


def bench_group_commit(base: Path, batched: bool) -> float:
    from repro.common.groupcommit import GroupCommitWriter

    path = base / f"group-{'batched' if batched else 'stream'}.jsonl"
    writer = GroupCommitWriter(path, durable=True)
    started = time.perf_counter()
    if batched:
        with writer.batched():
            for _ in range(WRITES):
                writer.append(LINE)
    else:
        for _ in range(WRITES):
            writer.append(LINE)
    writer.flush()
    elapsed = time.perf_counter() - started
    writer.close()
    return elapsed / WRITES


OBJECTS_10K = 10_000


def bench_object_store(base: Path) -> dict:
    """10k-object ingest/read/repack/read suite (microseconds each)."""
    import hashlib

    from repro.store.cas import ContentStore

    store = ContentStore(base / "pool-10k" / "objects", durable=False)
    affix = hashlib.sha256(b"bench-affix").digest() * 8  # 256B shared
    payloads = [
        affix + f"row,{i},{i * 0.25:.2f}\n".encode("ascii") + affix
        for i in range(OBJECTS_10K)
    ]

    started = time.perf_counter()
    oids = [store.put_bytes(p).oid for p in payloads]
    ingest = time.perf_counter() - started

    started = time.perf_counter()
    for oid in oids:
        store.get_bytes(oid)
    read_loose = time.perf_counter() - started

    started = time.perf_counter()
    report = store.repack()
    repack = time.perf_counter() - started

    started = time.perf_counter()
    for oid in oids:
        store.get_bytes(oid)
    read_packed = time.perf_counter() - started

    return {
        "objects": OBJECTS_10K,
        "ingest_micros_per_object": round(ingest / OBJECTS_10K * 1e6, 1),
        "read_loose_micros_per_object": round(
            read_loose / OBJECTS_10K * 1e6, 1
        ),
        "repack_seconds": round(repack, 2),
        "read_packed_micros_per_object": round(
            read_packed / OBJECTS_10K * 1e6, 1
        ),
        "delta_objects": report.deltas,
        "bytes_loose": report.bytes_before,
        "bytes_packed": report.bytes_after,
    }


def bench_lock(base: Path) -> float:
    from repro.common.locking import RepoLock

    lock = RepoLock(base / "bench.lock", label="bench")
    started = time.perf_counter()
    for _ in range(WRITES):
        with lock:
            pass
    return (time.perf_counter() - started) / WRITES


def run_bench(base: Path) -> dict:
    def mode(seconds_per_write, baseline=None):
        entry = {"micros_per_write": round(seconds_per_write * 1e6, 1)}
        if baseline:
            entry["cost_vs_fast"] = round(seconds_per_write / baseline, 1)
        return entry

    aw_fast = bench_atomic_write(base, durable=False)
    aw_durable = bench_atomic_write(base, durable=True)
    line_fast = bench_per_line_append(base, durable=False)
    line_durable = bench_per_line_append(base, durable=True)
    gc_stream = bench_group_commit(base, batched=False)
    gc_batched = bench_group_commit(base, batched=True)
    lock_s = bench_lock(base)
    store_10k = bench_object_store(base)

    report = {
        "benchmark": "crash-consistency-durability",
        "writes_per_mode": WRITES,
        "modes": {
            "atomic_write": {
                "fast": mode(aw_fast),
                "durable": mode(aw_durable, baseline=aw_fast),
            },
            "per_line_append": {
                "fast": mode(line_fast),
                "durable": mode(line_durable, baseline=line_fast),
            },
            "group_commit": {
                # Durable, except that a power cut can lose the one
                # unsynced window; priced against the same buffered
                # baseline as per_line_append.
                "durable_stream": mode(gc_stream, baseline=line_fast),
                "durable_batched": mode(gc_batched, baseline=line_fast),
            },
            "repo_lock_round_trip": mode(lock_s),
            "object_store_10k": store_10k,
        },
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_bench_durability(tmp_path):
    report = run_bench(tmp_path)
    modes = report["modes"]
    assert modes["atomic_write"]["durable"]["micros_per_write"] > 0
    assert modes["per_line_append"]["fast"]["micros_per_write"] > 0
    assert modes["repo_lock_round_trip"]["micros_per_write"] > 0
    # The acceptance bar for the group-commit work: durable appends at
    # under 10x the buffered cost (per-line fsync paid >100x).
    assert modes["group_commit"]["durable_stream"]["cost_vs_fast"] < 10
    store = modes["object_store_10k"]
    assert store["objects"] == OBJECTS_10K
    assert store["bytes_packed"] < store["bytes_loose"]
    assert BENCH_FILE.is_file()


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = run_bench(Path(tmp))
    print(json.dumps(out, indent=2))
