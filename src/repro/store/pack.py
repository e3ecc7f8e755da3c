"""Packfiles: many small CAS objects folded into one indexed file.

The loose pool prices every object at one inode plus (when durable) one
fsync — ``BENCH_durability.json`` puts that at ~0.7 ms per small object,
which is the wrong cost model once ``popper serve`` and ``popper fuzz``
start writing millions of results.  A *pack* is the git answer: an
immutable, checksummed container holding whole object payloads
(optionally zlib-compressed, optionally delta-encoded against a similar
blob in the same pack) next to a JSON index mapping each oid to its
offset.  One pack = one publish = one fsync, however many objects it
folds.

Layout (all integers big-endian)::

    pack-<id>.pack           pack-<id>.idx
    ------------------       --------------------------------------
    b"PPCK"                  {"version": 1,
    u32 version (=1)          "pack": "pack-<id>.pack",
    u32 object count          "checksum": "<sha256 of pack body>",
    per object:               "objects": {oid: [offset, length,
      32B raw oid                           flags, base|null, size]}}
      u8  flags
      [32B base oid]
      u64 payload length
      payload bytes
    32B sha256 trailer

``<id>`` is derived from the sorted object ids, so packing the same set
twice produces the same file — repack is idempotent.  Flags: bit 0 =
payload is zlib-compressed, bit 1 = payload is an *affix delta*
(``u64 prefix, u64 suffix, middle bytes``) against ``base``: the object
is ``base[:prefix] + middle + base[len(base)-suffix:]``.  Affix deltas
are chosen greedily among size-neighbours — experiment outputs are
typically near-identical CSV/JSON blobs differing in a few cells, where
shared prefix+suffix captures most of the redundancy at ~zero encode
cost.

Crash safety mirrors the rest of the store: the pack body lands through
:func:`~repro.common.fsutil.atomic_write` (crash points
``pack.write.tmp`` / ``pack.write.rename``), and only then does the
index, the same way (``pack.index.tmp`` / ``pack.index.rename``).  A
crash leaves either an orphan dot-temp (doctor sweeps it), a pack
without an index (doctor rebuilds the index from the self-describing
pack), or a complete pair.  Reads verify each materialized object
against its oid; a failed check quarantines the *whole pack* — coarse,
but a pack is one file and one re-run heals the pool.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.common.errors import CorruptObjectError, StoreError
from repro.common.fsutil import atomic_write, ensure_dir
from repro.common.hashing import sha256_bytes

__all__ = [
    "PackError",
    "PACK_DIR",
    "PackedObject",
    "PackReader",
    "write_pack",
    "rebuild_index",
]

#: Directory (inside a pool's ``objects/``) holding packs.  Loose-shard
#: iteration skips it: shard directories are exactly two hex chars.
PACK_DIR = "pack"

_MAGIC = b"PPCK"
_VERSION = 1
_FLAG_ZLIB = 1
_FLAG_DELTA = 2

#: Delta policy knobs: how many size-neighbours to try as a base, the
#: longest base chain a new delta may extend, and the minimum saving
#: (bytes of shared affix) that justifies a delta at all.
_DELTA_WINDOW = 8
_DELTA_MAX_DEPTH = 8
_DELTA_MIN_AFFIX = 32


class PackError(StoreError):
    """A malformed, truncated or mis-indexed packfile."""


@dataclass(frozen=True)
class PackedObject:
    """One index entry: where an object lives inside its pack."""

    oid: str
    offset: int
    length: int
    flags: int
    base: str | None
    size: int

    def to_json(self) -> list:
        return [self.offset, self.length, self.flags, self.base, self.size]


def _affix_split(base: bytes, data: bytes) -> tuple[int, int, bytes]:
    """Longest shared prefix/suffix of *data* against *base*.

    The suffix is sought only in what the prefix leaves of the shorter
    input, so the two never overlap.  Each length is searched over slice
    comparisons, which run in C: "the first (last) n bytes agree" holds
    for every n up to the answer and for none beyond it.
    """
    limit = min(len(base), len(data))
    prefix = _longest(lambda n: base[:n] == data[:n], limit)
    suffix = _longest(
        lambda n: base[len(base) - n :] == data[len(data) - n :], limit - prefix
    )
    return prefix, suffix, data[prefix : len(data) - suffix]


def _longest(agree, limit: int) -> int:
    """The largest ``n <= limit`` with ``agree(n)``, for a predicate
    that holds from 0 up to its answer and fails beyond it.

    Probes 1, 2, 4, ... until one fails, then bisects the last step, so
    a short answer costs a few short comparisons."""
    low, high, probe = 0, limit, 1
    while probe <= limit:
        if not agree(probe):
            high = probe - 1
            break
        low, probe = probe, probe * 2
    while low < high:
        mid = (low + high + 1) // 2
        if agree(mid):
            low = mid
        else:
            high = mid - 1
    return low


def _encode_payload(
    data: bytes, candidates: list[tuple[str, bytes, int]]
) -> tuple[int, str | None, bytes]:
    """Best (flags, base, payload) encoding for *data*.

    *candidates* are ``(oid, raw bytes, chain depth)`` of potential
    delta bases.  The cheapest of {raw, zlib, delta+zlib} wins; ties
    break toward the simpler encoding so unpacking stays cheap.
    """
    plain = zlib.compress(data, 6)
    flags, base, payload = 0, None, data
    if len(plain) < len(payload):
        flags, payload = _FLAG_ZLIB, plain
    best_saving = _DELTA_MIN_AFFIX - 1
    for oid, raw, depth in candidates:
        if depth >= _DELTA_MAX_DEPTH or not raw:
            continue
        prefix, suffix, middle = _affix_split(raw, data)
        if prefix + suffix <= best_saving:
            continue
        encoded = zlib.compress(
            struct.pack(">QQ", prefix, suffix) + middle, 6
        )
        if len(encoded) < len(payload):
            best_saving = prefix + suffix
            flags, base, payload = _FLAG_ZLIB | _FLAG_DELTA, oid, encoded
    return flags, base, payload


def pack_name(oids: list[str]) -> str:
    """Deterministic pack basename for a set of object ids."""
    digest = hashlib.sha256("\n".join(sorted(oids)).encode("ascii"))
    return f"pack-{digest.hexdigest()[:16]}"


def write_pack(
    objects: Mapping[str, bytes],
    pack_dir: str | Path,
    durable: bool = True,
) -> tuple[Path, Path]:
    """Write one pack (+ index) holding *objects*; returns their paths.

    Idempotent: the pack name derives from the object ids, so packing
    the same set again just returns the existing pair.  Entries land in
    sorted-oid order; delta bases are picked among size-neighbours, so
    the output is deterministic for a given object set.
    """
    if not objects:
        raise PackError("refusing to write an empty pack")
    pack_dir = ensure_dir(pack_dir)
    name = pack_name(list(objects))
    pack_path = pack_dir / f"{name}.pack"
    idx_path = pack_dir / f"{name}.idx"
    if pack_path.is_file() and idx_path.is_file():
        return pack_path, idx_path

    # Delta selection walks size-neighbours (similar experiment outputs
    # have similar lengths); the file itself is laid out by oid.
    by_size = sorted(objects.items(), key=lambda kv: (len(kv[1]), kv[0]))
    chosen: dict[str, tuple[int, str | None, bytes]] = {}
    depth: dict[str, int] = {}
    window: list[tuple[str, bytes, int]] = []
    for oid, data in by_size:
        flags, base, payload = _encode_payload(data, window[-_DELTA_WINDOW:])
        chosen[oid] = (flags, base, payload)
        depth[oid] = depth.get(base, 0) + 1 if base else 0
        window.append((oid, data, depth[oid]))

    body = bytearray()
    body += _MAGIC
    body += struct.pack(">II", _VERSION, len(objects))
    entries: dict[str, PackedObject] = {}
    for oid in sorted(objects):
        flags, base, payload = chosen[oid]
        body += bytes.fromhex(oid)
        body += struct.pack(">B", flags)
        if base is not None:
            body += bytes.fromhex(base)
        body += struct.pack(">Q", len(payload))
        offset = len(body)
        body += payload
        entries[oid] = PackedObject(
            oid=oid,
            offset=offset,
            length=len(payload),
            flags=flags,
            base=base,
            size=len(objects[oid]),
        )
    checksum = hashlib.sha256(bytes(body)).hexdigest()
    body += bytes.fromhex(checksum)

    atomic_write(pack_path, bytes(body), durable=durable, crash_label="pack.write")
    index_doc = {
        "version": _VERSION,
        "pack": pack_path.name,
        "checksum": checksum,
        "objects": {oid: entry.to_json() for oid, entry in entries.items()},
    }
    atomic_write(
        idx_path,
        json.dumps(index_doc, sort_keys=True).encode("utf-8"),
        durable=durable,
        crash_label="pack.index",
    )
    return pack_path, idx_path


def _scan_pack(pack_path: Path) -> tuple[str, dict[str, PackedObject]]:
    """Parse a pack body sequentially; returns ``(checksum, entries)``.

    Verifies the trailer checksum — a truncated or bit-rotted pack
    raises :class:`PackError` before any entry is trusted.
    """
    raw = Path(pack_path).read_bytes()
    if len(raw) < len(_MAGIC) + 8 + 32 or raw[: len(_MAGIC)] != _MAGIC:
        raise PackError(f"{pack_path}: not a packfile")
    body, trailer = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != trailer:
        raise PackError(f"{pack_path}: checksum mismatch (truncated?)")
    version, count = struct.unpack_from(">II", body, len(_MAGIC))
    if version != _VERSION:
        raise PackError(f"{pack_path}: unknown pack version {version}")
    entries: dict[str, PackedObject] = {}
    pos = len(_MAGIC) + 8
    for _ in range(count):
        try:
            oid = body[pos : pos + 32].hex()
            pos += 32
            (flags,) = struct.unpack_from(">B", body, pos)
            pos += 1
            base = None
            if flags & _FLAG_DELTA:
                base = body[pos : pos + 32].hex()
                pos += 32
            (length,) = struct.unpack_from(">Q", body, pos)
            pos += 8
            offset = pos
            pos += length
            if pos > len(body):
                raise PackError(f"{pack_path}: entry overruns the body")
        except struct.error as exc:
            raise PackError(f"{pack_path}: malformed entry: {exc}") from exc
        entries[oid] = PackedObject(
            oid=oid, offset=offset, length=length, flags=flags, base=base, size=-1
        )
    if pos != len(body):
        raise PackError(f"{pack_path}: trailing garbage after last entry")
    return hashlib.sha256(body).hexdigest(), entries


def rebuild_index(pack_path: str | Path, durable: bool = True) -> Path:
    """Regenerate a pack's ``.idx`` from the pack itself.

    The doctor's repair for a crash between pack publish and index
    write.  Logical sizes require materializing each object, so the
    whole pack is resolved (and thereby integrity-checked) in memory.
    """
    pack_path = Path(pack_path)
    checksum, entries = _scan_pack(pack_path)
    raw = pack_path.read_bytes()
    resolved: dict[str, bytes] = {}

    def resolve(oid: str, seen: frozenset[str] = frozenset()) -> bytes:
        if oid in resolved:
            return resolved[oid]
        if oid in seen or oid not in entries:
            raise PackError(f"{pack_path}: unresolvable delta base {oid[:12]}")
        entry = entries[oid]
        payload = raw[entry.offset : entry.offset + entry.length]
        if entry.flags & _FLAG_ZLIB:
            payload = zlib.decompress(payload)
        if entry.flags & _FLAG_DELTA:
            base = resolve(entry.base, seen | {oid})
            prefix, suffix = struct.unpack_from(">QQ", payload, 0)
            middle = payload[16:]
            payload = base[:prefix] + middle + base[len(base) - suffix :]
        if sha256_bytes(payload) != oid:
            raise PackError(f"{pack_path}: object {oid[:12]} fails its hash")
        resolved[oid] = payload
        return payload

    for oid in entries:
        resolve(oid)
    index_doc = {
        "version": _VERSION,
        "pack": pack_path.name,
        "checksum": checksum,
        "objects": {
            oid: PackedObject(
                oid=oid,
                offset=entry.offset,
                length=entry.length,
                flags=entry.flags,
                base=entry.base,
                size=len(resolved[oid]),
            ).to_json()
            for oid, entry in entries.items()
        },
    }
    idx_path = pack_path.with_suffix(".idx")
    atomic_write(
        idx_path,
        json.dumps(index_doc, sort_keys=True).encode("utf-8"),
        durable=durable,
        crash_label="pack.index",
    )
    return idx_path


class PackReader:
    """Random access into one published pack via its JSON index."""

    def __init__(self, idx_path: str | Path) -> None:
        self.idx_path = Path(idx_path)
        try:
            doc = json.loads(self.idx_path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict) or "objects" not in doc:
                raise ValueError("not a pack index")
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise PackError(f"unreadable pack index {self.idx_path}: {exc}") from exc
        self.pack_path = self.idx_path.parent / str(
            doc.get("pack", self.idx_path.with_suffix(".pack").name)
        )
        self.checksum = str(doc.get("checksum", ""))
        self.entries: dict[str, PackedObject] = {}
        for oid, row in doc["objects"].items():
            try:
                offset, length, flags, base, size = row
            except (TypeError, ValueError) as exc:
                raise PackError(
                    f"{self.idx_path}: bad entry for {oid[:12]}"
                ) from exc
            self.entries[str(oid)] = PackedObject(
                oid=str(oid),
                offset=int(offset),
                length=int(length),
                flags=int(flags),
                base=str(base) if base else None,
                size=int(size),
            )

    def __contains__(self, oid: str) -> bool:
        return oid in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> Iterator[str]:
        yield from sorted(self.entries)

    def size_of(self, oid: str) -> int:
        return self.entries[oid].size

    @property
    def packed_bytes(self) -> int:
        try:
            return self.pack_path.stat().st_size
        except OSError:
            return 0

    def delta_count(self) -> int:
        return sum(
            1 for e in self.entries.values() if e.flags & _FLAG_DELTA
        )

    def get_bytes(self, oid: str, verify: bool = True) -> bytes:
        """Materialize one object (resolving its delta chain)."""
        data = self._resolve(oid, frozenset())
        if verify and sha256_bytes(data) != oid:
            raise CorruptObjectError(oid, str(self.pack_path))
        return data

    def _resolve(self, oid: str, seen: frozenset[str]) -> bytes:
        entry = self.entries.get(oid)
        if entry is None or oid in seen:
            raise PackError(
                f"{self.pack_path.name}: unresolvable object {oid[:12]}"
            )
        try:
            with self.pack_path.open("rb") as handle:
                handle.seek(entry.offset)
                payload = handle.read(entry.length)
        except OSError as exc:
            raise PackError(f"cannot read {self.pack_path}: {exc}") from exc
        if len(payload) != entry.length:
            raise PackError(f"{self.pack_path.name}: short read at {oid[:12]}")
        if entry.flags & _FLAG_ZLIB:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise PackError(
                    f"{self.pack_path.name}: bad zlib stream at {oid[:12]}"
                ) from exc
        if entry.flags & _FLAG_DELTA:
            base = self._resolve(entry.base, seen | {oid})
            if len(payload) < 16:
                raise PackError(
                    f"{self.pack_path.name}: short delta at {oid[:12]}"
                )
            prefix, suffix = struct.unpack_from(">QQ", payload, 0)
            if prefix + suffix > len(base):
                raise PackError(
                    f"{self.pack_path.name}: delta affixes overrun the base"
                )
            payload = base[:prefix] + payload[16:] + base[len(base) - suffix :]
        return payload

    def verify(self) -> list[str]:
        """Re-hash every object; returns the ids that fail.

        Also fails everything when the pack body itself no longer
        matches the recorded checksum (truncation, bit rot).
        """
        try:
            checksum, _ = _scan_pack(self.pack_path)
        except PackError:
            return sorted(self.entries)
        if self.checksum and checksum != self.checksum:
            return sorted(self.entries)
        bad: list[str] = []
        for oid in self.entries:
            try:
                self.get_bytes(oid)
            except (PackError, CorruptObjectError):
                bad.append(oid)
        return sorted(bad)
