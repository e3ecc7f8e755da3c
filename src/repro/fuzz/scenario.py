"""The fuzzer's unit of work: one complete experiment input bundle.

A :class:`Scenario` is everything that parameterizes one execution of
the toolchain — the experiment's file set (``vars.yml``, ``setup.yml``,
``validations.aver``, post-processing script, notebook), the repository's
``.travis.yml`` (probed statically through the CI config parser), the
injection specs (:class:`~repro.engine.faults.FaultPlan` /
:class:`~repro.common.crash.CrashPlan` grammars) and the inventory
shape.  Mutators rewrite scenarios; the executor materializes one into a
sandbox Popper repository and runs it through the real pipeline.

Scenarios are value objects: :meth:`fingerprint` hashes the complete
content, so two runs of the fuzzer with the same seed produce the same
variant ids — the determinism the corpus and coverage map inherit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common import minyaml
from repro.common.errors import FuzzError
from repro.common.fsutil import atomic_write
from repro.common.hashing import sha256_text

__all__ = ["Scenario", "SCENARIO_FILES"]

#: Experiment files a scenario carries (when present in the seed).
SCENARIO_FILES = (
    "vars.yml",
    "setup.yml",
    "validations.aver",
    "process-result.py",
    "visualize.nb.json",
)


@dataclass(frozen=True)
class Scenario:
    """One immutable experiment input bundle.

    ``files`` maps experiment-relative paths to their content;
    ``travis`` is the repository-level CI matrix the static probe
    parses; ``fault_spec`` / ``crash_spec`` are injection grammars (or
    ``None``); ``host_count`` shapes the setup playbook's inventory.
    """

    name: str
    files: dict[str, str] = field(default_factory=dict)
    travis: str | None = None
    fault_spec: str | None = None
    crash_spec: str | None = None
    host_count: int = 1

    # -- construction --------------------------------------------------------
    @classmethod
    def from_experiment(cls, repo, name: str) -> "Scenario":
        """Capture an existing experiment (plus the repo's CI matrix)."""
        if name not in repo.config.experiments:
            raise FuzzError(f"no such experiment to seed from: {name!r}")
        directory = repo.experiment_dir(name)
        files: dict[str, str] = {}
        for rel in SCENARIO_FILES:
            path = directory / rel
            if path.is_file():
                files[rel] = path.read_text(encoding="utf-8")
        travis_path = repo.root / ".travis.yml"
        travis = (
            travis_path.read_text(encoding="utf-8")
            if travis_path.is_file()
            else None
        )
        return cls(name=name, files=files, travis=travis)

    # -- content accessors ---------------------------------------------------
    def vars(self) -> dict:
        """Parse this scenario's ``vars.yml`` (may raise ``YamlError``)."""
        doc = minyaml.loads(self.files.get("vars.yml", ""))
        return doc if isinstance(doc, dict) else {}

    def with_vars(self, variables: dict) -> "Scenario":
        """A copy with ``vars.yml`` replaced by the serialized mapping."""
        files = dict(self.files)
        files["vars.yml"] = minyaml.dumps(variables)
        return replace(self, files=files)

    def with_file(self, rel: str, content: str | None) -> "Scenario":
        """A copy with one file replaced (``None`` removes it)."""
        files = dict(self.files)
        if content is None:
            files.pop(rel, None)
        else:
            files[rel] = content
        return replace(self, files=files)

    # -- identity ------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "name": self.name,
            "files": dict(sorted(self.files.items())),
            "travis": self.travis,
            "fault_spec": self.fault_spec,
            "crash_spec": self.crash_spec,
            "host_count": self.host_count,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Scenario":
        try:
            return cls(
                name=str(payload["name"]),
                files={str(k): str(v) for k, v in payload["files"].items()},
                travis=payload.get("travis"),
                fault_spec=payload.get("fault_spec"),
                crash_spec=payload.get("crash_spec"),
                host_count=int(payload.get("host_count", 1)),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FuzzError(f"bad scenario record: {exc}") from exc

    def fingerprint(self) -> str:
        """Content hash identifying this variant (stable across runs)."""
        return sha256_text(json.dumps(self.to_json(), sort_keys=True))

    # -- materialization -----------------------------------------------------
    def write_files(
        self, directory: str | Path, durable: bool, *, crash_label: str
    ) -> Path:
        """Write the experiment file set under *directory* (the last two
        arguments go to :func:`~repro.common.fsutil.atomic_write`)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for rel, content in sorted(self.files.items()):
            atomic_write(
                directory / rel, content.encode("utf-8"), durable,
                crash_label=crash_label,
            )
        return directory
