"""Repository bundles: single-file artifact-evaluation exports.

The paper notes that "a Popper repository could even be used instead of
an 'Artifact Evaluation' appendix".  ``popper bundle`` freezes the
repository at a commit into one integrity-hashed JSON artifact (tree +
manifest + metadata); ``unbundle`` recreates a working Popper repository
from it — what a conference AE committee would download and run.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from repro.common.errors import PopperError
from repro.common.fsutil import atomic_write
from repro.common.hashing import sha256_text
from repro.core.repo import PopperRepository
from repro.vcs.repository import Repository

__all__ = ["create_bundle", "load_bundle", "unbundle"]

_FORMAT = "popper-bundle-v1"


def create_bundle(
    repo: PopperRepository, path: str | Path, ref: str = "HEAD"
) -> dict:
    """Write a bundle of *repo* at *ref*; returns the manifest."""
    commit_oid = repo.vcs.resolve(ref)
    commit = repo.vcs.store.get_commit(commit_oid)
    files: dict[str, str] = {}
    total = 0
    for rel, blob_oid in repo.vcs.store.walk_tree(commit.tree):
        data = repo.vcs.store.get_blob(blob_oid).data
        files[rel] = base64.b64encode(data).decode("ascii")
        total += len(data)
    manifest = {
        "experiments": dict(repo.config.experiments),
        "paper_template": repo.config.paper_template,
        "files": len(files),
        "bytes": total,
        "commit": commit_oid,
        "history": [entry.subject for entry in repo.vcs.log(ref)],
    }
    body = json.dumps(
        {"format": _FORMAT, "manifest": manifest, "tree": files},
        sort_keys=True,
    )
    document = json.dumps(
        {
            "format": _FORMAT,
            "digest": sha256_text(body),
            "body": json.loads(body),
        },
        indent=1,
        sort_keys=True,
    )
    atomic_write(path, document.encode("utf-8"), crash_label="bundle.write")
    return manifest


def load_bundle(path: str | Path) -> dict:
    """Parse and integrity-check a bundle; returns its body."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PopperError(f"cannot read bundle: {exc}") from exc
    if doc.get("format") != _FORMAT:
        raise PopperError(f"not a popper bundle: {path}")
    body = doc.get("body") or {}
    expected = doc.get("digest", "")
    actual = sha256_text(json.dumps(body, sort_keys=True))
    if actual != expected:
        raise PopperError("bundle digest mismatch (corrupted or tampered)")
    return body


def unbundle(path: str | Path, target: str | Path) -> PopperRepository:
    """Recreate a working Popper repository from a bundle."""
    body = load_bundle(path)
    target = Path(target)
    if target.exists() and any(target.iterdir()):
        raise PopperError(f"unbundle target not empty: {target}")
    target.mkdir(parents=True, exist_ok=True)
    for rel, encoded in body["tree"].items():
        atomic_write(
            target / rel,
            base64.b64decode(encoded),
            durable=False,
            crash_label="bundle.extract",
        )
    repo = Repository.init(target)
    repo.add_all()
    repo.commit(
        f"unbundled popper artifact (source commit "
        f"{body['manifest']['commit'][:12]})"
    )
    return PopperRepository.open(target)
