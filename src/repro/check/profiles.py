"""Commit-attached performance profiles under ``.pvcs/profiles/``.

Perun's core move — and the HotOS panel's ask for continuous,
machine-checkable reproduction claims — is that performance data should
be *versioned alongside the code that produced it*.  A
:class:`Profile` is the per-commit unit: named sample series (stage
timings harvested from the run journal / :class:`MetricStore`, result
columns) plus free-form metadata.  A :class:`ProfileHistory` is the
degradation-checker's view of the repository: one append-only profile
ledger per commit, appended through a durable
:class:`~repro.common.groupcommit.GroupCommitWriter` and read by
:func:`~repro.common.groupcommit.read_jsonl`.

Baselines are resolved from the actual commit graph, so "compare
against the last five commits" means five *commits*, not five undated
gate invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.common.errors import CheckError
from repro.common.groupcommit import GroupCommitWriter, read_jsonl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.metrics import MetricStore

__all__ = [
    "PROFILE_FORMAT_VERSION",
    "Profile",
    "ProfileHistory",
    "harvest_profile",
]

PROFILE_FORMAT_VERSION = 1

#: The stem of the attach-order index older versions kept beside the
#: ledgers; it names no commit.
_OLD_INDEX = "index"


@dataclass(frozen=True)
class Profile:
    """One commit's performance series.

    ``series`` maps a series key (``"<experiment>/stage/<stage>"`` for
    harvested stage timings, ``"<experiment>/results/<column>"`` for
    result columns) to its sample values; ``meta`` carries provenance
    (run id, backend, workers) that the detectors ignore but reports
    print.
    """

    commit: str
    series: dict[str, list[float]] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.commit:
            raise CheckError("a profile needs a commit id")
        for key, values in self.series.items():
            if not key:
                raise CheckError("profile series keys must be non-empty")
            if not all(isinstance(v, (int, float)) for v in values):
                raise CheckError(f"profile series {key!r} has non-numeric samples")

    def merged(self, other: "Profile") -> "Profile":
        """This profile plus *other*'s samples (same commit re-profiled).

        Series shared by both concatenate (more samples, better
        statistics); metadata from *other* wins on key conflicts.
        """
        if other.commit != self.commit:
            raise CheckError(
                f"cannot merge profiles of different commits "
                f"({self.commit[:12]} vs {other.commit[:12]})"
            )
        series = {k: list(v) for k, v in self.series.items()}
        for key, values in other.series.items():
            series.setdefault(key, []).extend(values)
        return Profile(
            commit=self.commit,
            series=series,
            meta={**self.meta, **other.meta},
        )

    def to_json(self) -> dict:
        return {
            "version": PROFILE_FORMAT_VERSION,
            "commit": self.commit,
            "series": {k: list(map(float, v)) for k, v in sorted(self.series.items())},
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "Profile":
        """Rebuild a profile from :meth:`to_json` output.

        Decoded JSON of the wrong shape — not an object, no commit id, a
        ``series`` that is not a mapping of sample lists, a non-numeric
        sample — raises :class:`CheckError`, as undecodable JSON does.
        """
        if not isinstance(payload, Mapping):
            raise CheckError(
                f"unreadable profile: a JSON {type(payload).__name__}, not an object"
            )
        version = payload.get("version")
        if version != PROFILE_FORMAT_VERSION:
            raise CheckError(f"unsupported profile format version: {version!r}")
        commit = payload.get("commit")
        if not isinstance(commit, str) or not commit:
            raise CheckError(f"unreadable profile: bad commit id {commit!r}")
        try:
            series = {
                str(k): [float(x) for x in v]
                for k, v in payload.get("series", {}).items()
            }
            meta = dict(payload.get("meta", {}))
        except (AttributeError, TypeError, ValueError) as exc:
            raise CheckError(f"unreadable profile for {commit[:12]}: {exc}") from exc
        return cls(commit=commit, series=series, meta=meta)


def _same_samples(a: Sequence[float], b: Sequence[float]) -> bool:
    """Equal sample lists, where NaN (a missing result cell) equals NaN."""
    return a == b or (
        len(a) == len(b)
        and all(x == y or (x != x and y != y) for x, y in zip(a, b))
    )


def _holds(
    held: Mapping[str, Sequence[float]], series: Mapping[str, Sequence[float]]
) -> bool:
    """True when *held* has every series of *series*, each with the same
    samples in the same order."""
    for key, values in series.items():
        other = held.get(key)
        if not isinstance(other, list) or not _same_samples(other, values):
            return False
    return True


def harvest_profile(
    commit: str,
    store: "MetricStore | None" = None,
    events: Sequence[Mapping[str, Any]] | None = None,
    meta: Mapping[str, object] | None = None,
) -> Profile:
    """Build a profile for *commit* from a run's telemetry.

    Two harvest sources, either optional:

    * the :class:`MetricStore` — every ``popper.stage_seconds`` series
      becomes ``<experiment>/stage/<stage>``, and any other metric keeps
      its name (labels folded in as ``metric{k=v,...}``);
    * the run-journal *events* — ``run_start`` contributes backend /
      worker metadata, ``aver_verdict`` events are ignored (they are
      conclusions, not samples).
    """
    series: dict[str, list[float]] = {}
    profile_meta: dict[str, object] = dict(meta or {})
    if store is not None:
        for (metric, labels), values in store.series().items():
            labeled = dict(labels)
            if metric == "popper.stage_seconds" and "stage" in labeled:
                experiment = labeled.get("experiment", "experiment")
                key = f"{experiment}/stage/{labeled['stage']}"
            elif labeled:
                inner = ",".join(f"{k}={v}" for k, v in sorted(labeled.items()))
                key = f"{metric}{{{inner}}}"
            else:
                key = metric
            series.setdefault(key, []).extend(float(v) for v in values)
    for event in events or ():
        if event.get("event") == "run_start":
            for name in ("run_id", "backend", "workers"):
                if name in event:
                    profile_meta.setdefault(name, event[name])
    return Profile(commit=commit, series=series, meta=profile_meta)


class ProfileHistory:
    """Per-commit profiles under ``<root>/profiles/``.

    *root* is the repository's metadata directory (``.pvcs``).  Each
    commit's profile is a ledger, ``profiles/<commit>.jsonl``: one
    compact JSON line per attached run, so attaching costs one durable
    append however many runs the commit already holds.  A
    ``profiles/<commit>.json`` left by earlier versions (the whole
    merged profile as one document) is still read, before the ledger,
    but never written.  The files are the whole record: :meth:`commits`
    lists them, and an ``index.jsonl`` older versions kept beside them
    is not read.  A crash can tear only the last line of a ledger;
    readers skip it and ``popper doctor`` truncates it.  Any other
    undecodable line raises :class:`CheckError`.

    Each stored sample list counts once.  A cache replay checks
    :meth:`holds` and attaches nothing when the commit has its samples
    already, and :meth:`get` skips a line that an earlier one holds
    (copies appended before replays checked, or by two replays racing).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.dir = self.root / "profiles"

    # -- write -------------------------------------------------------------------
    def attach(self, profile: Profile) -> Path:
        """Append *profile* to its commit's ledger; return the ledger path.

        Reads nothing: :meth:`get` folds the ledger lines back into one
        profile, so a cold re-run at a commit adds its samples.  A
        replay asks :meth:`holds` first.
        """
        path = self._ledger_for(profile.commit)
        line = json.dumps(profile.to_json(), sort_keys=True, separators=(",", ":"))
        with GroupCommitWriter(
            path, durable=True, crash_label="profiles.attach"
        ) as writer:
            writer.append(line)
        return path

    # -- read --------------------------------------------------------------------
    def holds(self, profile: Profile) -> bool:
        """True when one line of *profile*'s commit ledger has every
        series of *profile*, each with the same samples in the same order.

        The check a cache replay makes before it attaches.  It decodes
        only the lines that contain every series' JSON text as
        :meth:`attach` writes it; a line that does not decode (a crash's
        torn tail) holds nothing.
        """
        series = profile.to_json()["series"]
        needles = [
            json.dumps({key: values}, separators=(",", ":"))[1:-1].encode("ascii")
            for key, values in series.items()
        ]
        try:
            text = self._ledger_for(profile.commit).read_bytes()
        except FileNotFoundError:
            return False
        for line in text.split(b"\n"):
            if not all(needle in line for needle in needles):
                continue
            try:
                held = json.loads(line).get("series")
            except (ValueError, AttributeError):
                continue
            if isinstance(held, dict) and _holds(held, series):
                return True
        return False

    def get(self, commit: str) -> Profile | None:
        """The profile attached to *commit*, or None.

        Folds the legacy ``<commit>.json``, if any, and then every ledger
        line, in attach order, into one profile: shared series
        concatenate and later metadata wins, as :meth:`Profile.merged`
        would, in one pass.  A line that an earlier line (or the legacy
        document) holds, by the rule of :meth:`holds`, is skipped whole:
        its samples are already counted.
        """
        legacy = self._path_for(commit)
        ledger = self._ledger_for(commit)
        payloads = []
        if legacy.exists():
            try:
                payloads.append(json.loads(legacy.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckError(f"unreadable profile for {commit[:12]}: {exc}") from exc
        payloads.extend(self._read(ledger))
        if not payloads:
            return None
        series: dict[str, list[float]] = {}
        meta: dict[str, object] = {}
        counted: list[dict[str, list[float]]] = []
        for payload in payloads:
            run = Profile.from_json(payload)
            if any(_holds(earlier, run.series) for earlier in counted):
                continue
            counted.append(run.series)
            for key, values in run.series.items():
                series.setdefault(key, []).extend(values)
            meta.update(run.meta)
        return Profile(commit=commit, series=series, meta=meta)

    def require(self, commit: str) -> Profile:
        profile = self.get(commit)
        if profile is None:
            raise CheckError(
                f"no profile attached to commit {commit[:12]} "
                "(run the experiment at that commit first)"
            )
        return profile

    def commits(self) -> list[str]:
        """Commits with attached profiles, least recently attached first.

        Listed from the profiles on disk, ordered by their last
        modification, the name breaking ties.
        """
        if not self.dir.is_dir():
            return []
        attached: dict[str, int] = {}
        for path in self.dir.iterdir():
            if path.suffix in (".json", ".jsonl") and path.stem != _OLD_INDEX:
                mtime = path.stat().st_mtime_ns
                attached[path.stem] = max(mtime, attached.get(path.stem, mtime))
        return sorted(attached, key=lambda commit: (attached[commit], commit))

    def baseline_for(
        self,
        commits: Sequence[str],
        window: int = 5,
    ) -> Profile | None:
        """Pool the newest *window* profiled commits of *commits* into one
        baseline profile.

        *commits* is an oldest-first candidate list (e.g. the
        first-parent ancestors of the commit under test, which itself
        must not be included).  Series samples concatenate across the
        pooled commits — the detector suite then judges the candidate
        against the pooled distribution.  Returns None when no candidate
        has a profile.
        """
        if window < 1:
            raise CheckError("baseline window must be >= 1")
        pooled: Profile | None = None
        taken = 0
        for commit in reversed(list(commits)):
            profile = self.get(commit)
            if profile is None:
                continue
            renamed = Profile(
                commit="baseline", series=profile.series, meta=profile.meta
            )
            pooled = renamed if pooled is None else pooled.merged(renamed)
            taken += 1
            if taken >= window:
                break
        return pooled

    @staticmethod
    def _read(path: Path) -> list:
        try:
            return read_jsonl(path)[0]
        except ValueError as exc:
            raise CheckError(f"unreadable profile ledger {exc}") from exc

    def _path_for(self, commit: str) -> Path:
        """The legacy one-document profile of *commit* (read, never written)."""
        if (
            not commit
            or "/" in commit
            or commit.startswith(".")
            or commit == _OLD_INDEX
        ):
            raise CheckError(f"invalid commit id for profile path: {commit!r}")
        return self.dir / f"{commit}.json"

    def _ledger_for(self, commit: str) -> Path:
        return self._path_for(commit).with_suffix(".jsonl")
