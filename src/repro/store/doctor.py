"""``popper doctor``: scan a repository for crash debris and repair it.

Every durable write in the toolchain goes through one of six write
primitives, and a crash — a kill signal, a power cut, an injected
:class:`~repro.common.crash.CrashPlan` — can only leave the debris its
primitive leaves.  Doctor therefore classifies each entry by the
primitive that made it, not by the feature that owns it:

============  ======================  ==============================  ==============================
primitive     debris                  produced by                     repair
============  ======================  ==============================  ==============================
ledger        torn JSONL line         crash mid-append to a journal   drop each line readers skip as
                                      or other ledger (a reopened     debris (the interrupted record
                                      writer seals it off, appends    is lost; its work re-runs)
                                      after it)
temp file     orphan temp file        crash inside ``atomic_write``,  unlink (content is elsewhere
              (any dot-file in        between its temp and rename     or will be re-produced)
              ``.pvcs/``; elsewhere,
              ``is_atomic_temp``)
lock          stale lock metadata     holder died while holding a     truncate the lock file
                                      RepoLock
pack          unindexed pack          crash between pack rename and   rebuild the index from the
                                      index write                     self-describing pack (unlink
                                      (``pack.write.rename``)         if its checksum fails — the
                                                                      loose copies still exist)
              dangling pack index     pack swept, index unlink        unlink (nothing references a
                                      crashed                         pack that is gone)
              truncated pack          pack body fails its trailer     quarantine pack + index (the
                                      checksum                        referenced records then show
                                                                      up dangling and re-run)
record        partial index record    crash mid-publish of an         unlink (equivalent to a miss)
                                      artifact record
              dangling index record   record published, objects       unlink (lookup treats it as a
                                      swept/lost                      miss anyway; doctor tidies)
              partial corpus entry    crash between a fuzz corpus     remove the tree (meta.json is
                                      entry's files and its           published last; nothing
                                      ``meta.json``                   admitted is lost)
scratch tree  stale fuzz sandbox      fuzz campaign killed            remove the tree (sandboxes
                                      mid-variant                     are disposable scratch repos)
—             quarantined object      read-time integrity check       report only (a re-run heals
                                      failed                          the pool; see cache verify)
============  ======================  ==============================  ==============================

Everything else on disk is either atomic (refs, config) or disposable
(workspace checkouts), so this table is the complete recovery story:
``popper doctor`` after *any* crash returns the repository to a state
where a plain re-run completes correctly.

``diagnose()`` walks the tree once, in sorted order, and classifies
each file or directory at most once.  It never enters a child of
``.pvcs/fuzz/work/`` or ``.pvcs/ci-workspaces/``: each is a whole
disposable repository that a live campaign or build may be using.
``repair()`` applies each finding's action.  Both are deliberately
independent of the higher-level stores — doctor must work precisely
when the repository is too damaged for them to open.  (The one
exception is :mod:`repro.store.pack`, whose parser depends only on
``repro.common`` and is exactly what pack repair needs.)
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.fsutil import atomic_write, is_atomic_temp
from repro.common.groupcommit import decode_jsonl
from repro.common.locking import LockInfo
from repro.store.pack import PACK_DIR, PackError, _scan_pack, rebuild_index

__all__ = ["Finding", "DoctorReport", "diagnose", "repair"]

_META_DIR = ".pvcs"

#: Directories whose *contents* are content-addressed payloads: a
#: ``*.jsonl`` stored in one is an artifact, never a ledger to repair.
_OPAQUE_DIRS = {"objects", "quarantine"}


@dataclass
class Finding:
    """One piece of crash debris (or unrepairable damage)."""

    kind: str
    path: Path
    detail: str = ""
    #: What repair() will do / did.  Empty means report-only.
    action: str = ""
    repaired: bool = False

    def describe(self) -> str:
        state = "repaired" if self.repaired else (
            "repairable" if self.action else "report-only"
        )
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{state}] {self.kind}: {self.path}{detail}"


@dataclass
class DoctorReport:
    """Everything one doctor pass found (and possibly fixed)."""

    root: Path
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def repairable(self) -> list[Finding]:
        return [f for f in self.findings if f.action]

    @property
    def unrepaired(self) -> list[Finding]:
        return [f for f in self.findings if f.action and not f.repaired]

    def describe(self) -> str:
        if self.clean:
            return f"-- doctor: {self.root} is clean\n"
        lines = [f"-- doctor: {len(self.findings)} finding(s) in {self.root}"]
        for finding in self.findings:
            lines.append("   " + finding.describe())
        return "\n".join(lines) + "\n"


def _ledger_repaired(raw: bytes) -> bytes | None:
    """*raw* without its debris lines, or ``None`` when it has none.

    Debris is what :func:`~repro.common.groupcommit.decode_jsonl` says
    it is, so doctor finds exactly the lines every reader skips.  A
    whole last record that lost only its newline is completed, not
    dropped.  Damage that is not debris raises in readers, which name
    the ledger; doctor leaves it alone.
    """
    lines = raw.split(b"\n")
    try:
        _, debris = decode_jsonl(lines)
    except ValueError:
        return None
    if not debris:
        return raw + b"\n" if lines[-1].strip() else None
    dropped = set(debris)
    kept = b"\n".join(line for i, line in enumerate(lines) if i not in dropped)
    return kept + b"\n" if kept and not kept.endswith(b"\n") else kept


def _age(path: Path, now: float) -> float | None:
    try:
        return now - path.stat().st_mtime
    except OSError:
        return None


# -- one rule per write primitive ------------------------------------------------
def _ledger(path: Path) -> Finding | None:
    """A journal, profile ledger or other JSONL ledger holding crash debris."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    repaired = _ledger_repaired(raw)
    if repaired is None:
        return None
    return Finding(
        kind="torn-jsonl",
        path=path,
        detail=f"crash debris: {len(raw)} -> {len(repaired)} bytes",
        action="rewrite without debris",
    )


def _temp(path: Path, now: float, tmp_age_s: float) -> Finding | None:
    """An orphan temp a crash left between its creation and publish."""
    age = _age(path, now)
    if age is None or age < tmp_age_s:
        # Could belong to a live writer; the age gate keeps doctor safe
        # to run next to an in-flight popper run.
        return None
    return Finding(
        kind="orphan-temp", path=path, detail=f"aged {age:.0f}s", action="unlink"
    )


def _lock(path: Path) -> Finding | None:
    """A lock file whose recorded holder is dead: stale metadata.

    The kernel already released the flock — the metadata is cosmetic
    but misleading ("held by pid N" for a pid that no longer exists).
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    if not text.strip():
        return None  # released cleanly; empty file is the normal state
    info = LockInfo.from_json(text)
    if info is None:
        detail = "unreadable holder metadata"
    elif not info.alive():
        detail = f"holder {info.describe()} is dead"
    else:
        return None
    return Finding(kind="stale-lock", path=path, detail=detail, action="truncate")


def _pack(path: Path, siblings: list[str]) -> Finding | None:
    """Packfile debris: the three states a crashed repack can leave.

    A pack without an index is a publish that never finished — the pack
    is self-describing, so the index rebuilds from it (the temp-file
    stage is an orphan temp).  An index without a pack is the tail of
    an interrupted sweep (packs are unlinked pack-first).  A pack whose
    body fails its trailer checksum is truncated bit rot; quarantining
    it surfaces the loss through the dangling-record rule.
    """
    if path.suffix == ".idx":
        if path.with_suffix(".pack").name in siblings:
            return None
        return Finding(
            kind="dangling-pack-index",
            path=path,
            detail="its pack is gone",
            action="unlink",
        )
    try:
        _scan_pack(path)
    except PackError as exc:
        return Finding(
            kind="truncated-pack",
            path=path,
            detail=str(exc),
            action="quarantine pack",
        )
    if path.with_suffix(".idx").name in siblings:
        return None
    return Finding(
        kind="unindexed-pack",
        path=path,
        detail="published without its index",
        action="rebuild index",
    )


def _packed_oids(objects_dir: Path) -> set[str]:
    """Object ids reachable through the pool's pack indexes.

    Reads the ``.idx`` JSON directly (no ContentStore) so the dangling-
    record rule stays honest after a repack moved objects out of the
    loose shards.  Unreadable indexes contribute nothing — their packs
    are handled by the pack rule.
    """
    oids: set[str] = set()
    pack_dir = objects_dir / PACK_DIR
    if not pack_dir.is_dir():
        return oids
    for idx in sorted(pack_dir.glob("*.idx")):
        if not idx.with_suffix(".pack").is_file():
            continue
        try:
            doc = json.loads(idx.read_text(encoding="utf-8"))
            oids.update(str(oid) for oid in doc.get("objects", {}))
        except (OSError, ValueError, json.JSONDecodeError):
            continue
    return oids


def _record(path: Path, packed: set[str]) -> Finding | None:
    """An artifact-index record that is partial or references lost
    objects."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or "key" not in doc:
            raise ValueError("not a record")
    except (OSError, ValueError, json.JSONDecodeError):
        return Finding(
            kind="partial-index-record",
            path=path,
            detail="unparseable record",
            action="unlink",
        )
    objects_dir = path.parent.parent / "objects"
    missing = [
        oid
        for oid in (
            str(out.get("oid", ""))
            for out in doc.get("outputs", [])
            if isinstance(out, dict)
        )
        if len(oid) == 64
        and oid not in packed
        and not (objects_dir / oid[:2] / oid[2:]).is_file()
    ]
    if not missing:
        return None
    return Finding(
        kind="dangling-index-record",
        path=path,
        detail=f"references {len(missing)} missing object(s)",
        action="unlink",
    )


def _subdirs(
    here: Path,
    rel: tuple[str, ...],
    dirnames: list[str],
    now: float,
    tmp_age_s: float,
) -> list[Finding]:
    """Scratch trees and corpus entries among *here*'s subdirectories.

    Prunes *dirnames* in place: the walk never enters a scratch tree (a
    sandbox or CI checkout is a whole repository a live campaign or
    build may be using) nor a tree ``repair`` will remove.
    """
    findings = []
    if rel[-2:] == (_META_DIR, "ci-workspaces"):
        dirnames.clear()
    elif rel[-3:] == (_META_DIR, "fuzz", "work"):
        # Sandboxes are per-variant scratch repositories the runner
        # removes after each execution; any that survive the age gate
        # are stale.
        for name in dirnames:
            age = _age(here / name, now)
            if age is not None and age >= tmp_age_s:
                findings.append(
                    Finding(
                        kind="stale-fuzz-sandbox",
                        path=here / name,
                        detail=f"aged {age:.0f}s",
                        action="remove tree",
                    )
                )
        dirnames.clear()
    elif rel[-3:] in ((_META_DIR, "fuzz", "corpus"), (_META_DIR, "fuzz", "repro")):
        # Variant directories publish meta.json last; one without it is
        # a partial admission with no index record.
        for name in list(dirnames):
            if not (here / name / "meta.json").is_file():
                findings.append(
                    Finding(
                        kind="partial-corpus-entry",
                        path=here / name,
                        detail="missing meta.json",
                        action="remove tree",
                    )
                )
                dirnames.remove(name)
    return findings


def diagnose(root: str | Path, tmp_age_s: float = 60.0) -> DoctorReport:
    """Walk a repository once for crash debris; never modifies anything.

    *tmp_age_s* gates orphan temps and stale fuzz sandboxes: younger
    ones may belong to a concurrent writer and are left alone.
    """
    root = Path(root)
    report = DoctorReport(root=root)
    if not root.is_dir():
        return report
    now = time.time()
    for dirpath, dirnames, filenames in os.walk(root):
        here = Path(dirpath)
        rel = here.relative_to(root).parts
        dirnames.sort()
        in_meta = _META_DIR in rel
        if in_meta:
            report.findings.extend(_subdirs(here, rel, dirnames, now, tmp_age_s))
        opaque = not _OPAQUE_DIRS.isdisjoint(rel)
        is_pack_dir = in_meta and rel[-2:] == ("objects", PACK_DIR)
        is_index_dir = rel[-3:] == (_META_DIR, "cache", "index")
        packed = _packed_oids(here.parent / "objects") if is_index_dir else set()
        for name in sorted(filenames):
            path = here / name
            if in_meta and rel[-1] == "quarantine":
                finding = Finding(
                    kind="quarantined-object",
                    path=path,
                    detail="failed its integrity check; a re-run heals",
                )
            elif in_meta and name.endswith(".lock"):
                finding = _lock(path)
            elif is_atomic_temp(name) or (in_meta and name.startswith(".")):
                finding = _temp(path, now, tmp_age_s)
            elif is_pack_dir and name.endswith((".pack", ".idx")):
                finding = _pack(path, filenames)
            elif is_index_dir and name.endswith(".json"):
                finding = _record(path, packed)
            elif name.endswith(".jsonl") and not opaque:
                finding = _ledger(path)
            else:
                continue
            if finding is not None:
                report.findings.append(finding)
    return report


# -- repair: one function per action ---------------------------------------------
def _truncate(path: Path) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(0)


def _unlink(path: Path) -> None:
    path.unlink(missing_ok=True)


def _rewrite_without_debris(path: Path) -> None:
    repaired = _ledger_repaired(path.read_bytes())
    if repaired is not None:
        # A doctor killed mid-repair must leave the ledger it was fixing
        # whole: for the serve queue, that journal is all its state.
        atomic_write(path, repaired, crash_label="doctor.rewrite")


def _remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _rebuild_index(path: Path) -> None:
    try:
        rebuild_index(path)
    except PackError:
        # Self-check failed after all: the pack is not trustworthy and
        # the loose copies it would have folded still exist (the sweep
        # never ran).
        path.unlink(missing_ok=True)


def _quarantine_pack(path: Path) -> None:
    objects_dir = path.parent.parent
    quarantine = objects_dir.parent / "quarantine"
    if (objects_dir / "quarantine").is_dir():
        quarantine = objects_dir / "quarantine"
    quarantine.mkdir(parents=True, exist_ok=True)
    os.replace(path, quarantine / path.name)
    idx = path.with_suffix(".idx")
    if idx.is_file():
        os.replace(idx, quarantine / idx.name)


_REPAIRS = {
    "truncate": _truncate,
    "unlink": _unlink,
    "rewrite without debris": _rewrite_without_debris,
    "remove tree": _remove_tree,
    "rebuild index": _rebuild_index,
    "quarantine pack": _quarantine_pack,
}


def repair(report: DoctorReport) -> DoctorReport:
    """Apply each finding's repair action (idempotent; report-only
    findings are left untouched)."""
    for finding in report.findings:
        if not finding.action or finding.repaired:
            continue
        try:
            _REPAIRS[finding.action](finding.path)
            finding.repaired = True
        except OSError:
            finding.repaired = False
    return report
