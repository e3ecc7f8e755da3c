"""A from-scratch content-addressed version-control substrate.

The Popper convention stores *everything* — manuscript, experiment code,
orchestration, parametrization, validation criteria and results — in one
versioned repository.  This package provides that substrate: a git-like
DVCS with blobs/trees/commits/tags, branches, an index, diffs and clones,
deterministic enough that entire experiment histories reproduce
bit-for-bit.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repository": ("Repository", "LogEntry", "Status"),
        "store": ("ObjectStore",),
        "objects": ("Blob", "Tree", "TreeEntry", "Commit", "Tag"),
        "diff": ("Change", "ChangeKind", "tree_changes", "unified_diff"),
    },
)
