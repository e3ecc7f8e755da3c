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
tiny, journal lines are a few hundred bytes.  One write is cheap next
to the host's other I/O, so a single run says little: ten rounds time
300 writes of every per-write mode, the order rotating each round, and
each mode records its per-round values with their median and quartiles
(each ``cost_vs_fast`` is the durable/fast ratio within a round).  The
object store model takes about 12 s a round and runs 3 rounds.  The
record also carries the commit, ``cpu_count`` and the Python version.
Run standalone (``python benchmarks/bench_durability.py``) or via
pytest (``pytest benchmarks/bench_durability.py``).
"""

import json
import os
import sys
import time
from functools import partial
from pathlib import Path

from conftest import commit, summary

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_durability.json"

ROUNDS = 10
STORE_ROUNDS = 3
WRITES = 300
PAYLOAD = b'{"task": "run", "outputs": ["results.csv"], "seconds": 1.25}\n' * 4
LINE = json.dumps({"seq": 1, "event": "task_finished", "task": "exp-one"})


def bench_atomic_write(base: Path, durable: bool) -> float:
    from repro.common.fsutil import atomic_write

    target = base / ("durable" if durable else "fast") / "record.json"
    target.parent.mkdir(parents=True)
    # Distinct bytes per write: a non-durable write of the bytes the
    # target already holds is skipped, and this times the write.
    payloads = [PAYLOAD + b"%06d\n" % i for i in range(WRITES)]
    started = time.perf_counter()
    for payload in payloads:
        atomic_write(target, payload, durable=durable, crash_label="bench.record")
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
    """10k-object ingest/read/repack/read suite (seconds each, and counts)."""
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
        "ingest": ingest,
        "read_loose": read_loose,
        "repack": repack,
        "read_packed": read_packed,
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


#: Every per-write mode, as (group, name) in the record: seconds per write
#: in a fresh directory.
MODES = {
    ("atomic_write", "fast"): partial(bench_atomic_write, durable=False),
    ("atomic_write", "durable"): partial(bench_atomic_write, durable=True),
    ("per_line_append", "fast"): partial(bench_per_line_append, durable=False),
    ("per_line_append", "durable"): partial(bench_per_line_append, durable=True),
    ("group_commit", "durable_stream"): partial(bench_group_commit, batched=False),
    ("group_commit", "durable_batched"): partial(bench_group_commit, batched=True),
    ("repo_lock_round_trip", None): bench_lock,
}

#: The fast mode each durable mode is priced against.  Group commit is
#: durable, except that a power cut can lose the one unsynced window;
#: it is priced against the same buffered baseline as per_line_append.
BASELINES = {
    ("atomic_write", "durable"): ("atomic_write", "fast"),
    ("per_line_append", "durable"): ("per_line_append", "fast"),
    ("group_commit", "durable_stream"): ("per_line_append", "fast"),
    ("group_commit", "durable_batched"): ("per_line_append", "fast"),
}


def run_bench(base: Path) -> dict:
    order = list(MODES)
    seconds = {mode: [] for mode in MODES}
    for round_no in range(ROUNDS):
        shift = round_no % len(order)
        for mode in order[shift:] + order[:shift]:
            directory = base / f"round-{round_no}" / "-".join(filter(None, mode))
            directory.mkdir(parents=True)
            seconds[mode].append(MODES[mode](directory))
    stores = [bench_object_store(base / f"store-{n}") for n in range(STORE_ROUNDS)]

    modes: dict = {}
    for (group, name), samples in seconds.items():
        entry = {"micros_per_write": summary([s * 1e6 for s in samples], digits=1)}
        if (group, name) in BASELINES:
            fast = seconds[BASELINES[group, name]]
            entry["cost_vs_fast"] = summary(
                [durable / buffered for durable, buffered in zip(samples, fast)],
                digits=2,
            )
        if name is None:
            modes[group] = entry
        else:
            modes.setdefault(group, {})[name] = entry

    counts = {key: stores[0][key] for key in ("delta_objects", "bytes_loose", "bytes_packed")}
    assert all(store[key] == value for store in stores for key, value in counts.items())
    per_object = {
        f"{phase}_micros_per_object": summary(
            [store[phase] / OBJECTS_10K * 1e6 for store in stores], digits=1
        )
        for phase in ("ingest", "read_loose", "read_packed")
    }
    modes["object_store_10k"] = {
        "objects": OBJECTS_10K,
        "rounds": STORE_ROUNDS,
        **per_object,
        "repack_seconds": summary([store["repack"] for store in stores], digits=2),
        **counts,
    }

    report = {
        "benchmark": "crash-consistency-durability",
        "writes_per_mode": WRITES,
        "rounds": ROUNDS,
        "modes": modes,
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "commit": commit(),
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_bench_durability(tmp_path):
    report = run_bench(tmp_path)
    modes = report["modes"]
    assert len(modes["atomic_write"]["fast"]["micros_per_write"]["samples"]) == ROUNDS
    assert modes["atomic_write"]["durable"]["micros_per_write"]["median"] > 0
    assert modes["per_line_append"]["fast"]["micros_per_write"]["median"] > 0
    assert modes["repo_lock_round_trip"]["micros_per_write"]["median"] > 0
    # The acceptance bar for the group-commit work: durable appends at
    # under 10x the buffered cost (per-line fsync paid >100x).
    assert modes["group_commit"]["durable_stream"]["cost_vs_fast"]["median"] < 10
    store = modes["object_store_10k"]
    assert store["objects"] == OBJECTS_10K
    assert store["bytes_packed"] < store["bytes_loose"]
    assert BENCH_FILE.is_file()


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = run_bench(Path(tmp))
    print(json.dumps(out, indent=2))
