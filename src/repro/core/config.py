"""``.popper.yml`` — the Popper repository's configuration file.

``popper init`` drops this file at the repository root; every other CLI
command reads it to locate experiments and the paper.  It records the
convention version, the registered experiments (and which template each
came from) and the manuscript template in use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.common import minyaml
from repro.common.errors import PopperError
from repro.common.fsutil import atomic_write

__all__ = ["PopperConfig", "CONFIG_NAME"]

CONFIG_NAME = ".popper.yml"
CONVENTION_VERSION = 1


@dataclass
class PopperConfig:
    """Parsed contents of ``.popper.yml``."""

    version: int = CONVENTION_VERSION
    experiments: dict[str, str] = field(default_factory=dict)  # name -> template
    paper_template: str | None = None
    metadata: dict = field(default_factory=dict)

    # -- serialization -------------------------------------------------------------
    def to_yaml(self) -> str:
        doc: dict = {"version": self.version}
        doc["experiments"] = dict(self.experiments)
        if self.paper_template is not None:
            doc["paper"] = {"template": self.paper_template}
        if self.metadata:
            doc["metadata"] = dict(self.metadata)
        return minyaml.dumps(doc)

    @classmethod
    def from_yaml(cls, text: str) -> "PopperConfig":
        doc = minyaml.loads(text)
        if doc is None:
            return cls()
        if not isinstance(doc, dict):
            raise PopperError(".popper.yml must be a mapping")
        version = doc.get("version", CONVENTION_VERSION)
        if not isinstance(version, int) or version < 1:
            raise PopperError(f"bad convention version: {version!r}")
        if version > CONVENTION_VERSION:
            raise PopperError(
                f"repository uses convention v{version}, this tool supports "
                f"v{CONVENTION_VERSION}"
            )
        experiments = doc.get("experiments") or {}
        if not isinstance(experiments, dict):
            raise PopperError("experiments must map name -> template")
        paper = doc.get("paper") or {}
        return cls(
            version=version,
            experiments={str(k): str(v) for k, v in experiments.items()},
            paper_template=paper.get("template"),
            metadata=doc.get("metadata") or {},
        )

    # -- file I/O ----------------------------------------------------------------------
    def save(self, repo_root: str | Path) -> Path:
        path = Path(repo_root) / CONFIG_NAME
        atomic_write(path, self.to_yaml().encode("utf-8"), crash_label="config.save")
        return path

    @classmethod
    def load(cls, repo_root: str | Path) -> "PopperConfig":
        path = Path(repo_root) / CONFIG_NAME
        if not path.is_file():
            raise PopperError(
                f"not a Popper repository (no {CONFIG_NAME} in {repo_root})"
            )
        return cls.from_yaml(path.read_text(encoding="utf-8"))
