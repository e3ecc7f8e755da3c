"""``popper doctor``: scan ``.pvcs/`` for crash debris and repair it.

Every write path in the toolchain is designed so that a crash — a kill
signal, a power cut, an injected :class:`~repro.common.crash.CrashPlan`
— leaves one of a small, known set of artifacts:

========================  ========================================  ==============================
debris                    produced by                               repair
========================  ========================================  ==============================
stale lock metadata       holder died while holding a RepoLock      truncate the lock file
orphan temp file          crash between mkstemp and os.replace      unlink (content is elsewhere
                                                                    or will be re-produced)
torn JSONL line           crash mid-append to a journal/run-state   drop each line readers skip as
                          (a resumed writer seals it off and        debris (the interrupted task
                          appends after it)                         has no record and re-runs)
partial index record      crash mid-publish of an artifact record   unlink (equivalent to a miss)
dangling index record     record published, objects swept/lost      unlink (lookup treats it as a
                                                                    miss anyway; doctor tidies)
quarantined object        read-time integrity check failed          report only (a re-run heals
                                                                    the pool; see cache verify)
stale fuzz sandbox        fuzz campaign killed mid-variant          remove the tree (sandboxes
                          (``.pvcs/fuzz/work/``)                    are disposable scratch repos)
partial corpus entry      crash between a fuzz corpus entry's       remove the tree (meta.json is
                          files and its ``meta.json``               published last; nothing
                                                                    admitted is lost)
unindexed pack            crash between pack publish and index      rebuild the index from the
                          write (``pack.publish``)                  self-describing pack (unlink
                                                                    if its checksum fails — the
                                                                    loose copies still exist)
dangling pack index       pack swept, index unlink crashed          unlink (nothing references a
                                                                    pack that is gone)
truncated pack            pack body fails its trailer checksum      quarantine pack + index (the
                                                                    referenced records then show
                                                                    up dangling and re-run)
stale queue lease         serve daemon (or its host) died while     unlink (the queue journal is
                          holding a job lease                       the truth; recovery re-leases
                          (``.pvcs/queue/leases/``)                 from the journal alone)
partial queue result      crash mid-write of a job result file      unlink (the completed journal
                          (``.pvcs/queue/results/``)                record keeps the job done; an
                                                                    incomplete one re-runs it)
========================  ========================================  ==============================

Everything else on disk is either atomic (refs, config) or disposable
(workspace checkouts), so this table is the complete recovery story:
``popper doctor`` after *any* crash returns the repository to a state
where ``popper run --resume`` completes correctly.

``diagnose()`` only reports; ``repair()`` applies the table.  Both are
deliberately independent of the higher-level stores — doctor must work
precisely when the repository is too damaged for them to open.  (The
one exception is :mod:`repro.store.pack`, whose parser depends only on
``repro.common`` and is exactly what pack repair needs.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.groupcommit import decode_jsonl
from repro.common.locking import LockInfo
from repro.store.pack import PACK_DIR, PackError, _scan_pack, rebuild_index

__all__ = ["Finding", "DoctorReport", "diagnose", "repair"]

#: Temp-file prefixes the store layers create (mkstemp adds a random
#: suffix).  ``atomic_write`` temps are ``.{name}.XXXXXXXX`` — covered
#: by the "dotfile inside .pvcs" rule below.
_TEMP_PREFIXES = (".ingest-", ".mat-", ".pack-tmp-")

#: Directories whose *contents* are content-addressed payloads and must
#: never be parsed, repaired or deleted by name-pattern heuristics.
_OPAQUE_DIRS = {"objects", "quarantine"}

_META_DIR = ".pvcs"


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


def _in_opaque_dir(path: Path, root: Path) -> bool:
    return bool(_OPAQUE_DIRS & set(path.relative_to(root).parts[:-1]))


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


def _iter_meta_files(root: Path):
    """Every regular file under the repository's ``.pvcs`` trees."""
    for meta in sorted(root.rglob(_META_DIR)):
        if not meta.is_dir():
            continue
        for dirpath, dirnames, filenames in os.walk(meta):
            dirnames.sort()
            for name in sorted(filenames):
                yield Path(dirpath) / name


def _scan_locks(root: Path, findings: list[Finding]) -> None:
    """Lock files whose recorded holder is dead: stale metadata.

    With flock the kernel already released the lock — the metadata is
    cosmetic but misleading ("held by pid N" for a pid that no longer
    exists); in the O_EXCL fallback the file itself wedges writers, so
    clearing it is load-bearing.
    """
    candidates = [
        p for p in root.rglob("*.lock") if p.is_file() and _META_DIR in p.parts
    ]
    for path in sorted(candidates):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        if not text.strip():
            continue  # released cleanly; empty file is the normal state
        info = LockInfo.from_json(text)
        if info is None:
            findings.append(
                Finding(
                    kind="stale-lock",
                    path=path,
                    detail="unreadable holder metadata",
                    action="truncate",
                )
            )
        elif not info.alive():
            findings.append(
                Finding(
                    kind="stale-lock",
                    path=path,
                    detail=f"holder {info.describe()} is dead",
                    action="truncate",
                )
            )


def _scan_temps(root: Path, findings: list[Finding], tmp_age_s: float) -> None:
    """Orphan temp files a crash left between mkstemp and publish."""
    now = time.time()
    for path in _iter_meta_files(root):
        name = path.name
        is_temp = name.startswith(_TEMP_PREFIXES) or (
            name.startswith(".") and not name.endswith(".lock")
        )
        if not is_temp:
            continue
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue
        if age < tmp_age_s:
            # Could belong to a live writer; the age gate keeps doctor
            # safe to run next to an in-flight popper run.
            continue
        findings.append(
            Finding(
                kind="orphan-temp",
                path=path,
                detail=f"aged {age:.0f}s",
                action="unlink",
            )
        )


def _scan_jsonl(root: Path, findings: list[Finding]) -> None:
    """Journals / run-state files holding crash debris."""
    for path in sorted(root.rglob("*.jsonl")):
        if not path.is_file() or _in_opaque_dir(path, root):
            continue
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        if not raw:
            continue
        repaired = _ledger_repaired(raw)
        if repaired is not None:
            findings.append(
                Finding(
                    kind="torn-jsonl",
                    path=path,
                    detail=f"crash debris: {len(raw)} -> {len(repaired)} bytes",
                    action="rewrite without debris",
                )
            )


def _packed_oids(objects_dir: Path) -> set[str]:
    """Object ids reachable through the pool's pack indexes.

    Reads the ``.idx`` JSON directly (no ContentStore) so the dangling-
    record scan stays honest after a repack moved objects out of the
    loose shards.  Unreadable indexes contribute nothing — their packs
    are handled by the pack scan.
    """
    oids: set[str] = set()
    pack_dir = objects_dir / PACK_DIR
    if not pack_dir.is_dir():
        return oids
    for idx in sorted(pack_dir.glob("*.idx")):
        if not (pack_dir / idx.name).with_suffix(".pack").is_file():
            continue
        try:
            doc = json.loads(idx.read_text(encoding="utf-8"))
            oids.update(str(oid) for oid in doc.get("objects", {}))
        except (OSError, ValueError, json.JSONDecodeError):
            continue
    return oids


def _scan_index(root: Path, findings: list[Finding]) -> None:
    """Artifact-index records that are partial or reference lost objects."""
    for index_dir in sorted(root.rglob(f"{_META_DIR}/cache/index")):
        if not index_dir.is_dir():
            continue
        objects_dir = index_dir.parent / "objects"
        packed = _packed_oids(objects_dir)
        for path in sorted(index_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(doc, dict) or "key" not in doc:
                    raise ValueError("not a record")
            except (OSError, ValueError, json.JSONDecodeError):
                findings.append(
                    Finding(
                        kind="partial-index-record",
                        path=path,
                        detail="unparseable record",
                        action="unlink",
                    )
                )
                continue
            missing = [
                str(out.get("oid", ""))
                for out in doc.get("outputs", [])
                if isinstance(out, dict)
                and len(str(out.get("oid", ""))) == 64
                and str(out["oid"]) not in packed
                and not (
                    objects_dir
                    / str(out["oid"])[:2]
                    / str(out["oid"])[2:]
                ).is_file()
            ]
            if missing:
                findings.append(
                    Finding(
                        kind="dangling-index-record",
                        path=path,
                        detail=f"references {len(missing)} missing object(s)",
                        action="unlink",
                    )
                )


def _scan_fuzz(root: Path, findings: list[Finding], tmp_age_s: float) -> None:
    """Debris a killed fuzz campaign leaves under ``.pvcs/fuzz/``.

    Sandboxes in ``work/`` are per-variant scratch repositories the
    runner removes after each execution — any that survive are stale
    (age-gated like temps, so doctor is safe next to a live campaign).
    Corpus/reproducer variant directories publish ``meta.json`` last; a
    directory without one is a partial admission with no index record.
    """
    now = time.time()
    for fuzz_dir in sorted(root.rglob(f"{_META_DIR}/fuzz")):
        if not fuzz_dir.is_dir():
            continue
        work = fuzz_dir / "work"
        if work.is_dir():
            for sandbox in sorted(work.iterdir()):
                if not sandbox.is_dir():
                    continue
                try:
                    age = now - sandbox.stat().st_mtime
                except OSError:
                    continue
                if age < tmp_age_s:
                    continue
                findings.append(
                    Finding(
                        kind="stale-fuzz-sandbox",
                        path=sandbox,
                        detail=f"aged {age:.0f}s",
                        action="remove tree",
                    )
                )
        for corpus_name in ("corpus", "repro"):
            corpus_dir = fuzz_dir / corpus_name
            if not corpus_dir.is_dir():
                continue
            for variant in sorted(corpus_dir.iterdir()):
                if variant.is_dir() and not (variant / "meta.json").is_file():
                    findings.append(
                        Finding(
                            kind="partial-corpus-entry",
                            path=variant,
                            detail="missing meta.json",
                            action="remove tree",
                        )
                    )


def _scan_packs(root: Path, findings: list[Finding]) -> None:
    """Packfile debris: the three states a crashed repack can leave.

    A pack without an index is a publish that never finished — the pack
    is self-describing, so the index rebuilds from it (the temp-file
    stage is covered by the orphan-temp scan).  An index without a pack
    is the tail of an interrupted sweep (packs are unlinked pack-first).
    A pack whose body fails its trailer checksum is truncated bit rot;
    quarantining it surfaces the loss through the dangling-record scan.
    """
    for pack_dir in sorted(root.rglob(PACK_DIR)):
        if (
            not pack_dir.is_dir()
            or _META_DIR not in pack_dir.parts
            or pack_dir.parent.name != "objects"
        ):
            continue
        for pack in sorted(pack_dir.glob("*.pack")):
            idx = pack.with_suffix(".idx")
            try:
                _scan_pack(pack)
            except PackError as exc:
                findings.append(
                    Finding(
                        kind="truncated-pack",
                        path=pack,
                        detail=str(exc),
                        action="quarantine pack",
                    )
                )
                continue
            if not idx.is_file():
                findings.append(
                    Finding(
                        kind="unindexed-pack",
                        path=pack,
                        detail="published without its index",
                        action="rebuild index",
                    )
                )
        for idx in sorted(pack_dir.glob("*.idx")):
            if not idx.with_suffix(".pack").is_file():
                findings.append(
                    Finding(
                        kind="dangling-pack-index",
                        path=idx,
                        detail="its pack is gone",
                        action="unlink",
                    )
                )


def _scan_queue(root: Path, findings: list[Finding]) -> None:
    """Debris a crashed ``popper serve`` daemon leaves under
    ``.pvcs/queue/``.

    The queue journal is the single source of truth, so every side file
    is reconstructible and safe to drop: a lease marker whose recorded
    holder pid is dead (or whose JSON never finished landing) belongs
    to a daemon that is gone — recovery re-leases from the journal and
    never reads the marker.  A result file that does not parse is the
    half of a ``queue.publish`` crash that lost the race: either the
    ``job_done`` record landed (the job is done regardless) or it did
    not (the lease expires and the job re-runs).  Live-pid leases are
    left strictly alone, so doctor is safe to run next to a serving
    daemon.
    """
    for queue_dir in sorted(root.rglob(f"{_META_DIR}/queue")):
        if not queue_dir.is_dir():
            continue
        leases = queue_dir / "leases"
        if leases.is_dir():
            for path in sorted(leases.glob("*.json")):
                try:
                    doc = json.loads(path.read_text(encoding="utf-8"))
                    pid = int(doc.get("pid", 0))
                except (OSError, ValueError, json.JSONDecodeError, TypeError):
                    findings.append(
                        Finding(
                            kind="stale-queue-lease",
                            path=path,
                            detail="unreadable lease marker",
                            action="unlink",
                        )
                    )
                    continue
                if pid > 0:
                    try:
                        os.kill(pid, 0)
                        continue  # the holder is alive; not our business
                    except ProcessLookupError:
                        pass
                    except PermissionError:
                        continue  # alive under another uid
                findings.append(
                    Finding(
                        kind="stale-queue-lease",
                        path=path,
                        detail=f"holder pid {pid} is dead",
                        action="unlink",
                    )
                )
        results = queue_dir / "results"
        if results.is_dir():
            for path in sorted(results.glob("*.json")):
                try:
                    doc = json.loads(path.read_text(encoding="utf-8"))
                    if not isinstance(doc, dict) or "job" not in doc:
                        raise ValueError("not a result record")
                except (OSError, ValueError, json.JSONDecodeError):
                    findings.append(
                        Finding(
                            kind="partial-queue-result",
                            path=path,
                            detail="unparseable result record",
                            action="unlink",
                        )
                    )


def _scan_quarantine(root: Path, findings: list[Finding]) -> None:
    for quarantine in sorted(root.rglob("quarantine")):
        if not quarantine.is_dir() or _META_DIR not in quarantine.parts:
            continue
        for path in sorted(quarantine.iterdir()):
            if path.is_file():
                findings.append(
                    Finding(
                        kind="quarantined-object",
                        path=path,
                        detail="failed its integrity check; a re-run heals",
                    )
                )


def diagnose(root: str | Path, tmp_age_s: float = 60.0) -> DoctorReport:
    """Scan a repository for crash debris; never modifies anything.

    *tmp_age_s* gates the orphan-temp scan: temps younger than this may
    belong to a concurrent writer and are left alone.
    """
    root = Path(root)
    report = DoctorReport(root=root)
    if not root.is_dir():
        return report
    _scan_locks(root, report.findings)
    _scan_temps(root, report.findings, tmp_age_s)
    _scan_jsonl(root, report.findings)
    _scan_packs(root, report.findings)
    _scan_index(root, report.findings)
    _scan_fuzz(root, report.findings, tmp_age_s)
    _scan_queue(root, report.findings)
    _scan_quarantine(root, report.findings)
    return report


def repair(report: DoctorReport) -> DoctorReport:
    """Apply each finding's repair action (idempotent; report-only
    findings are left untouched)."""
    for finding in report.findings:
        if not finding.action or finding.repaired:
            continue
        try:
            if finding.kind == "stale-lock":
                with open(finding.path, "r+b") as handle:
                    handle.truncate(0)
            elif finding.kind in (
                "orphan-temp",
                "partial-index-record",
                "dangling-index-record",
                "stale-queue-lease",
                "partial-queue-result",
            ):
                finding.path.unlink(missing_ok=True)
            elif finding.kind == "torn-jsonl":
                raw = finding.path.read_bytes()
                repaired_bytes = _ledger_repaired(raw)
                if repaired_bytes is not None:
                    finding.path.write_bytes(repaired_bytes)
            elif finding.kind in ("stale-fuzz-sandbox", "partial-corpus-entry"):
                shutil.rmtree(finding.path, ignore_errors=True)
            elif finding.kind == "unindexed-pack":
                try:
                    rebuild_index(finding.path)
                except PackError:
                    # Self-check failed after all: the pack is not
                    # trustworthy and the loose copies it would have
                    # folded still exist (the sweep never ran).
                    finding.path.unlink(missing_ok=True)
            elif finding.kind == "dangling-pack-index":
                finding.path.unlink(missing_ok=True)
            elif finding.kind == "truncated-pack":
                objects_dir = finding.path.parent.parent
                quarantine = objects_dir.parent / "quarantine"
                if (objects_dir / "quarantine").is_dir():
                    quarantine = objects_dir / "quarantine"
                quarantine.mkdir(parents=True, exist_ok=True)
                os.replace(finding.path, quarantine / finding.path.name)
                idx = finding.path.with_suffix(".idx")
                if idx.is_file():
                    os.replace(idx, quarantine / idx.name)
            finding.repaired = True
        except OSError:
            finding.repaired = False
    return report
