"""CI configuration: the ``.travis.yml`` dialect the paper's repositories
carry at their root.

Supported keys: ``language``, ``env`` (global list and/or matrix list),
``install``, ``before_script``, ``script``, ``after_script``,
``after_failure``, and ``matrix.include`` / ``matrix.exclude``.  ``script``
is mandatory — it is what validates that the paper "is always in a state
that can be built".
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from typing import Any

from repro.common import minyaml
from repro.common.errors import CIError

__all__ = ["CIConfig", "parse_env_line"]


def parse_env_line(line: str) -> dict[str, str]:
    """Parse ``'A=1 B="two words"'`` into an env mapping.

    The line is split as a shell would split assignments, so a quoted
    value may hold spaces; an unbalanced quote raises :class:`CIError`.
    """
    try:
        chunks = shlex.split(str(line))
    except ValueError as exc:
        raise CIError(f"bad env line {line!r}: {exc}") from None
    env: dict[str, str] = {}
    for chunk in chunks:
        key, sep, value = chunk.partition("=")
        if not sep or not key:
            raise CIError(f"bad env entry: {chunk!r}")
        env[key] = value
    return env


def _as_list(value: Any, key: str) -> list[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return [str(v) for v in value]
    raise CIError(f"{key} must be a string or list, got {type(value).__name__}")


@dataclass(frozen=True)
class CIConfig:
    """Parsed CI specification."""

    language: str = "generic"
    global_env: dict[str, str] = field(default_factory=dict)
    matrix_env: list[dict[str, str]] = field(default_factory=list)
    install: list[str] = field(default_factory=list)
    before_script: list[str] = field(default_factory=list)
    script: list[str] = field(default_factory=list)
    after_script: list[str] = field(default_factory=list)
    after_failure: list[str] = field(default_factory=list)
    include: list[dict[str, str]] = field(default_factory=list)
    exclude: list[dict[str, str]] = field(default_factory=list)

    @classmethod
    def from_yaml(cls, text: str) -> "CIConfig":
        doc = minyaml.loads(text)
        if doc is None:
            raise CIError("empty CI configuration")
        if not isinstance(doc, dict):
            raise CIError("CI configuration must be a mapping")
        unknown = set(doc) - {
            "language", "env", "install", "before_script", "script",
            "after_script", "after_failure", "matrix",
        }
        if unknown:
            raise CIError(f"unknown CI configuration keys: {sorted(unknown)}")

        global_env: dict[str, str] = {}
        matrix_env: list[dict[str, str]] = []
        env_doc = doc.get("env")
        if isinstance(env_doc, dict):
            for line in _as_list(env_doc.get("global"), "env.global"):
                global_env.update(parse_env_line(line))
            for line in _as_list(env_doc.get("matrix"), "env.matrix"):
                matrix_env.append(parse_env_line(line))
        elif env_doc is not None:
            for line in _as_list(env_doc, "env"):
                matrix_env.append(parse_env_line(line))

        matrix_doc = doc.get("matrix") or {}
        if not isinstance(matrix_doc, dict):
            raise CIError("matrix must be a mapping")
        include = [
            parse_env_line(e["env"]) if isinstance(e, dict) else parse_env_line(e)
            for e in matrix_doc.get("include") or []
        ]
        exclude = [
            parse_env_line(e["env"]) if isinstance(e, dict) else parse_env_line(e)
            for e in matrix_doc.get("exclude") or []
        ]

        script = _as_list(doc.get("script"), "script")
        if not script:
            raise CIError("CI configuration must define 'script'")

        return cls(
            language=str(doc.get("language", "generic")),
            global_env=global_env,
            matrix_env=matrix_env,
            install=_as_list(doc.get("install"), "install"),
            before_script=_as_list(doc.get("before_script"), "before_script"),
            script=script,
            after_script=_as_list(doc.get("after_script"), "after_script"),
            after_failure=_as_list(doc.get("after_failure"), "after_failure"),
            include=include,
            exclude=exclude,
        )

    def expand_matrix(self) -> list[dict[str, str]]:
        """The job list: one env mapping per job.

        Matrix rows each produce a job (global env overlaid); ``include``
        adds jobs, ``exclude`` removes matching ones.  With no matrix at
        all there is a single job with the global env.
        """
        jobs: list[dict[str, str]] = []
        rows = self.matrix_env if self.matrix_env else [{}]
        for row in rows:
            env = dict(self.global_env)
            env.update(row)
            jobs.append(env)
        for extra in self.include:
            env = dict(self.global_env)
            env.update(extra)
            jobs.append(env)
        if self.exclude:
            def excluded(env: dict[str, str]) -> bool:
                return any(
                    all(env.get(k) == v for k, v in rule.items())
                    for rule in self.exclude
                )

            jobs = [env for env in jobs if not excluded(env)]
        if not jobs:
            raise CIError("matrix expansion produced no jobs")
        return jobs
