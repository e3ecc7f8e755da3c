"""The store self-check: prove the storage hot path works.

``popper selftest`` runs it to exercise the packed content-addressed
store end-to-end in a scratch pool, in seconds:

1. ingest a spread of small objects — exact duplicates (dedup), near
   duplicates (delta fodder) and unique blobs;
2. repack the loose tail into one packfile and demand byte-identical
   reads for every object afterwards, with a clean fsck;
3. crash the repack at the ``pack.publish`` hazard (pack renamed in,
   index never written), run the doctor, and demand the rebuilt pool
   still serves every object byte for byte.

Like the other self-checks it turns "the subsystem imports" into "the
subsystem survives the failure it was designed for".
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.common.crash import CrashPlan, SimulatedCrash, install_crash_plan
from repro.common.errors import StoreError
from repro.store.cas import ContentStore
from repro.store.doctor import diagnose, repair

__all__ = ["store_smoke"]


def _scratch_objects(count: int = 40) -> list[bytes]:
    """Deterministic payload spread: uniques, duplicates, near-twins.

    The near-twins share a long low-compressibility prefix and suffix
    around a small varying middle — the shape experiment outputs take
    (fixed headers and footers, a few changed cells) and exactly what
    the pack layer's affix-delta encoder is for.
    """
    import hashlib

    affix = hashlib.sha256(b"store-smoke").digest() * 24  # ~768 bytes
    payloads: list[bytes] = []
    for i in range(count):
        middle = (
            f"stage,iteration,latency_ms\n"
            f"smoke,{i},{10.0 + 0.25 * i:.2f}\n"
        ).encode("ascii")
        payloads.append(affix + middle + affix)  # near-twins: delta fodder
        if i % 4 == 0:
            payloads.append(payloads[0])         # exact duplicates: dedup
    return payloads


def _check_round_trip(store: ContentStore, expected: dict[str, bytes]) -> None:
    for oid, payload in sorted(expected.items()):
        got = store.get_bytes(oid)
        if got != payload:
            raise StoreError(
                f"store smoke: object {oid[:12]} read back differently "
                f"({len(got)} vs {len(payload)} bytes)"
            )


def store_smoke(root: str | Path | None = None) -> str:
    """Run the scratch-pool pack check; return a one-line summary.

    Raises :class:`StoreError` when any object fails to round-trip,
    when the repack leaves the pool unclean, or when the injected
    publish crash cannot be repaired by the doctor.
    """
    with tempfile.TemporaryDirectory(prefix="store-smoke-") as scratch:
        base = Path(root) if root is not None else Path(scratch)
        # The doctor scans .pvcs trees, so the scratch pool lives in one.
        pool_root = base / ".pvcs" / "cache"
        store = ContentStore(pool_root / "objects", durable=False)
        expected: dict[str, bytes] = {}
        for payload in _scratch_objects():
            expected[store.put_bytes(payload).oid] = payload
        _check_round_trip(store, expected)

        report = store.repack()
        if report.noop:
            raise StoreError("store smoke: repack had nothing to fold")
        if not report.deltas:
            raise StoreError(
                "store smoke: no object delta-encoded despite the "
                "affix-similar payload spread"
            )
        _check_round_trip(store, expected)
        stats = store.stats()
        if stats["loose_objects"] or stats["packed_objects"] != len(expected):
            raise StoreError(
                "store smoke: repack left "
                f"{stats['loose_objects']} loose / "
                f"{stats['packed_objects']} packed of {len(expected)}"
            )
        healthy, corrupt = store.verify_all()
        if corrupt or healthy != len(expected):
            raise StoreError(
                f"store smoke: fsck after repack found {len(corrupt)} "
                f"corrupt object(s)"
            )

        # Crash the next repack at pack.publish: new pack renamed in,
        # index never written, old copies never swept.
        extra = b"crash-window payload\n" * 8
        expected[store.put_bytes(extra).oid] = extra
        previous = install_crash_plan(CrashPlan.parse("at:pack.publish:1"))
        try:
            store.repack()
        except SimulatedCrash:
            pass
        else:
            raise StoreError("store smoke: injected publish crash never fired")
        finally:
            install_crash_plan(previous)
        doctor = repair(diagnose(base, tmp_age_s=0.0))
        if doctor.unrepaired:
            raise StoreError(
                "store smoke: doctor left "
                f"{len(doctor.unrepaired)} finding(s) unrepaired"
            )
        healed = ContentStore(pool_root / "objects", durable=False)
        _check_round_trip(healed, expected)
        healthy, corrupt = healed.verify_all()
        if corrupt:
            raise StoreError(
                f"store smoke: {len(corrupt)} corrupt object(s) after repair"
            )
    return (
        f"store smoke: {len(expected)} objects packed "
        f"({report.deltas} delta-encoded, "
        f"{report.bytes_before} -> {report.bytes_after} bytes), "
        "publish crash repaired, reads byte-identical"
    )
