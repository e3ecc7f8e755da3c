"""Baseline-fingerprint gating for experiment pipelines.

From the paper: "when validating assertions that depend on the
underlying hardware ... an important step is to corroborate that the
baseline performance of the experiment for a new environment can be
reproduced.  If the baseline performance cannot be reproduced, there is
no point in executing the experiment."

An experiment opts in through its ``vars.yml``::

    baseline:
      machine: cloudlab-c220g1   # catalog machine the results assume
      max_deviation: 0.15        # tolerated per-stressor rate deviation

On the first run the pipeline fingerprints the platform with the
baseliner battery and stores ``baseline.json``; later runs re-fingerprint
and abort when any stressor's rate drifts past the tolerance — the
"sanitizing" step that catches quietly-changed hardware before it
corrupts a performance result.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.baseliner.fingerprint import BaselineProfile, compare, run_battery
from repro.common.errors import PopperError
from repro.common.fsutil import atomic_write
from repro.common.rng import SeedSequenceFactory
from repro.platform.noise import QUIET
from repro.platform.sites import Site

__all__ = ["BASELINE_FILE", "check_baseline"]

BASELINE_FILE = "baseline.json"


def _fingerprint(machine: str, seed: int) -> BaselineProfile:
    site = Site(
        f"baseline-{machine}", machine, capacity=1, noise=QUIET,
        seeds=SeedSequenceFactory(seed),
    )
    return run_battery(site.node(0), SeedSequenceFactory(seed), runs=1)


def check_baseline(
    directory: Path, spec: dict, seed: int = 42, journal=None
) -> tuple[bool, str]:
    """Enforce the gate for one experiment.

    Returns ``(fresh, message)`` where ``fresh`` is True when this call
    *created* the stored profile.  Raises :class:`PopperError` when the
    environment's fingerprint deviates beyond tolerance.

    When a :class:`~repro.monitor.journal.RunJournal` is passed, the
    gate's outcome is recorded as a ``baseline`` event — machine,
    tolerance, observed worst deviation and verdict — so a journal shows
    *why* a run was allowed to proceed (or was refused).
    """
    if not isinstance(spec, dict) or "machine" not in spec:
        raise PopperError("baseline spec needs a 'machine' key")
    machine = str(spec["machine"])
    max_deviation = float(spec.get("max_deviation", 0.15))
    if not 0.0 < max_deviation < 1.0:
        raise PopperError(f"baseline max_deviation out of (0, 1): {max_deviation}")

    def journal_event(**fields) -> None:
        if journal is not None:
            journal.event(
                "baseline", machine=machine, max_deviation=max_deviation, **fields
            )

    current = _fingerprint(machine, seed)
    stored_path = directory / BASELINE_FILE
    if not stored_path.is_file():
        atomic_write(
            stored_path, current.to_json().encode("utf-8"), durable=False,
            crash_label="baseline.store",
        )
        message = f"stored new baseline fingerprint for {machine}"
        journal_event(fresh=True, verdict="stored", message=message)
        return True, message

    stored = BaselineProfile.from_json(stored_path.read_text(encoding="utf-8"))
    speedups = compare(stored, current)
    deviations = np.abs(speedups.values() - 1.0)
    worst = float(deviations.max())
    if worst > max_deviation:
        offenders = [
            f"{name} ({value:.2f}x)"
            for name, value in speedups.speedups
            if abs(value - 1.0) > max_deviation
        ]
        message = (
            "baseline performance cannot be reproduced on this environment "
            f"(max deviation {worst:.1%} > {max_deviation:.1%}; "
            f"offending stressors: {', '.join(offenders[:5])}); "
            "refusing to run the experiment"
        )
        journal_event(
            fresh=False,
            verdict="refused",
            worst_deviation=worst,
            offenders=offenders,
            message=message,
        )
        raise PopperError(message)
    message = (
        f"baseline fingerprint matches stored profile "
        f"(max deviation {worst:.1%} <= {max_deviation:.1%})"
    )
    journal_event(
        fresh=False, verdict="matched", worst_deviation=worst, message=message
    )
    return False, message
