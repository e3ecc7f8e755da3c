"""Deterministic random-stream derivation.

Every stochastic component of the simulation (machine-to-machine variation,
network jitter, OS noise, workload think time) draws from a
:class:`numpy.random.Generator` derived from a root seed plus a label path,
so that (a) the whole evaluation is reproducible bit-for-bit from one seed
and (b) adding a new consumer never perturbs the streams of existing ones —
the property that makes regression baselines stable across code changes.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["derive_seed", "derive_rng", "SeedSequenceFactory"]


def derive_seed(root: int, *labels: str | int) -> int:
    """A 63-bit seed deterministically derived from *root* and a label path."""
    digest = hashlib.sha256()
    digest.update(str(int(root)).encode("ascii"))
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def derive_rng(root: int, *labels: str | int) -> np.random.Generator:
    """A numpy Generator seeded from :func:`derive_seed`."""
    import numpy as np

    return np.random.default_rng(derive_seed(root, *labels))


class SeedSequenceFactory:
    """Hands out independent generators under a fixed root seed.

    A factory is handed to a simulation; components request
    ``factory.rng("component", instance_id)`` and receive streams that are
    stable regardless of creation order.
    """

    def __init__(self, root: int) -> None:
        self.root = int(root)

    def seed(self, *labels: str | int) -> int:
        """Derived integer seed for a label path."""
        return derive_seed(self.root, *labels)

    def rng(self, *labels: str | int) -> np.random.Generator:
        """Derived generator for a label path."""
        return derive_rng(self.root, *labels)

    def child(self, *labels: str | int) -> "SeedSequenceFactory":
        """A factory namespaced under this one."""
        return SeedSequenceFactory(self.seed(*labels))
