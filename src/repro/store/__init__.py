"""One content-addressed artifact store for every substrate.

``repro.store`` is the storage layer under the VCS object store, the
data-package registry, CI workspaces and the engine's cross-run
memoization cache:

* :class:`~repro.store.cas.ContentStore` — the sharded, verifying,
  deduplicating object pool (``objects/ab/cd...`` + ``quarantine/``);
* :class:`~repro.store.index.ArtifactIndex` — task fingerprint →
  output object ids + metadata;
* :class:`~repro.store.artifacts.ArtifactStore` — the two combined,
  with ``store``/``lookup``/``materialize`` memoization primitives and
  ``verify``/``gc``/``stats`` administration;
* :mod:`~repro.store.pack` — packfiles: many small cold objects folded
  into one indexed, checksummed, optionally delta-compressed file
  (``objects/pack/``; see ``popper cache repack``);
* :mod:`~repro.store.doctor` — the crash-recovery walk behind
  ``popper doctor``: one rule per write primitive (ledger, temp file,
  lock, pack, record, scratch tree).  Not re-exported here, so only
  the commands that repair pay for importing it.

See ``docs/caching.md`` for the on-disk layout, the gc policy and the
pack format, and ``docs/robustness.md`` for the crash-consistency
story.
"""

from repro.store.artifacts import (
    ArtifactStore,
    GcReport,
    StoreOutcome,
    VerifyReport,
)
from repro.store.cas import ContentStore, IngestResult, RepackReport
from repro.store.index import ArtifactIndex, ArtifactOutput, ArtifactRecord
from repro.store.pack import PackError, PackReader, rebuild_index, write_pack

__all__ = [
    "ArtifactIndex",
    "ArtifactOutput",
    "ArtifactRecord",
    "ArtifactStore",
    "ContentStore",
    "GcReport",
    "IngestResult",
    "PackError",
    "PackReader",
    "RepackReport",
    "StoreOutcome",
    "VerifyReport",
    "rebuild_index",
    "write_pack",
]
