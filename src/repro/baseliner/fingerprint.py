"""Baseline profiles and cross-platform fingerprint comparison.

A :class:`BaselineProfile` is a machine's vector of stressor rates — its
performance "fingerprint".  :func:`compare` turns two fingerprints into a
:class:`SpeedupProfile` (per-stressor speedup of the target machine over
the base machine), the object the Torpor use case histograms, and what
the convention checks *before* re-running a performance experiment on a
new platform ("if the baseline performance cannot be reproduced, there is
no point in executing the experiment").
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.common.errors import PlatformError
from repro.common.hashing import sha256_text
from repro.common.rng import SeedSequenceFactory
from repro.common.tables import MetricsTable
from repro.baseliner.stressors import STRESSORS, Stressor, run_stressor
from repro.platform.sites import Node

__all__ = [
    "BaselineProfile",
    "SpeedupProfile",
    "run_battery",
    "compare",
]


@dataclass(frozen=True)
class BaselineProfile:
    """Median stressor rates for one machine."""

    machine: str
    rates: tuple[tuple[str, float], ...]  # (stressor, bogo-ops/s)

    def rates_dict(self) -> dict[str, float]:
        return dict(self.rates)

    def rate(self, stressor: str) -> float:
        try:
            return self.rates_dict()[stressor]
        except KeyError:
            raise PlatformError(
                f"profile of {self.machine!r} has no stressor {stressor!r}"
            ) from None

    # -- serialization -----------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"machine": self.machine, "rates": dict(self.rates)},
            indent=2,
            sort_keys=True,
        )

    def digest(self) -> str:
        """Content hash of the profile (its artifact-store object id).

        Two machines with identical stressor vectors produce the same
        digest, so stored ``baseline.json`` artifacts dedupe across
        experiments and the digest can key cache metadata.
        """
        return sha256_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "BaselineProfile":
        doc = json.loads(text)
        return cls(
            machine=doc["machine"],
            rates=tuple(sorted(doc["rates"].items())),
        )


@dataclass(frozen=True)
class SpeedupProfile:
    """Per-stressor speedups of a target machine over a base machine."""

    base: str
    target: str
    speedups: tuple[tuple[str, float], ...]

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.speedups], dtype=np.float64)

    def histogram(self, bin_width: float = 0.1) -> list[tuple[float, float, int]]:
        """Counts of stressors per speedup bucket ``(lo, hi]``.

        This is exactly the paper's Torpor "variability profile" figure.
        """
        if bin_width <= 0:
            raise PlatformError("bin width must be positive")
        values = self.values()
        lo = np.floor(values.min() / bin_width) * bin_width
        hi = np.ceil(values.max() / bin_width) * bin_width
        edges = np.arange(lo, hi + bin_width / 2, bin_width)
        if len(edges) < 2:
            edges = np.array([lo, lo + bin_width])
        counts, _ = np.histogram(values, bins=edges)
        return [
            (round(float(edges[i]), 10), round(float(edges[i + 1]), 10), int(c))
            for i, c in enumerate(counts)
        ]

    def mode_bucket(self, bin_width: float = 0.1) -> tuple[float, float, int]:
        """The bucket holding the most stressors."""
        return max(self.histogram(bin_width), key=lambda b: b[2])

    def range_for_class(self, klass: str) -> tuple[float, float]:
        """Min/max speedup across stressors of one class."""
        values = [
            v
            for name, v in self.speedups
            if STRESSORS[name].klass == klass
        ]
        if not values:
            raise PlatformError(f"no stressors of class {klass!r}")
        return (min(values), max(values))

    def to_table(self) -> MetricsTable:
        """Rows of (stressor, class, speedup) — the figure's raw data."""
        table = MetricsTable(["stressor", "class", "base", "target", "speedup"])
        for name, speedup in self.speedups:
            table.append(
                {
                    "stressor": name,
                    "class": STRESSORS[name].klass,
                    "base": self.base,
                    "target": self.target,
                    "speedup": speedup,
                }
            )
        return table


def run_battery(
    node: Node,
    seeds: SeedSequenceFactory,
    runs: int = 3,
    stressors: dict[str, Stressor] | None = None,
) -> BaselineProfile:
    """Run the stressor battery on *node*; rates are medians of *runs*."""
    if runs < 1:
        raise PlatformError("need at least one run")
    battery = stressors if stressors is not None else STRESSORS
    rates: list[tuple[str, float]] = []
    for name in sorted(battery):
        stressor = battery[name]
        rng = seeds.rng("baseliner", node.hostname, name)
        samples = [run_stressor(stressor, node, rng) for _ in range(runs)]
        rates.append((name, float(np.median(samples))))
    return BaselineProfile(machine=node.hostname, rates=tuple(rates))


def compare(base: BaselineProfile, target: BaselineProfile) -> SpeedupProfile:
    """Speedup of *target* relative to *base*, stressor by stressor."""
    base_rates = base.rates_dict()
    target_rates = target.rates_dict()
    common = sorted(set(base_rates) & set(target_rates))
    if not common:
        raise PlatformError("profiles share no stressors")
    speedups = tuple(
        (name, target_rates[name] / base_rates[name]) for name in common
    )
    return SpeedupProfile(
        base=base.machine, target=target.machine, speedups=speedups
    )
