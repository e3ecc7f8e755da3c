"""Task modules: the verbs a playbook can apply to a host.

Each module takes a connection plus rendered arguments and returns a
:class:`TaskResult` with Ansible's ``changed``/``failed``/``skipped``
semantics.  Modules are registered in :data:`MODULES`; experiments can
register domain-specific ones (GassyFS mounts, benchmark drivers) the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import OrchestrationError

__all__ = ["TaskResult", "MODULES", "register_module", "run_module"]


@dataclass
class TaskResult:
    """Outcome of one module invocation on one host."""

    changed: bool = False
    failed: bool = False
    skipped: bool = False
    msg: str = ""
    data: dict[str, Any] = field(default_factory=dict)
    #: The failure was the host being unreachable (a transient), not the
    #: module itself — eligible for retry / graceful host degradation.
    unreachable: bool = False

    @property
    def ok(self) -> bool:
        return not self.failed


ModuleFn = Callable[[Any, dict[str, Any]], TaskResult]

MODULES: dict[str, ModuleFn] = {}


def register_module(name: str, fn: ModuleFn | None = None):
    """Register a module (usable as a decorator)."""

    def inner(func: ModuleFn) -> ModuleFn:
        if name in MODULES:
            raise OrchestrationError(f"module already registered: {name!r}")
        MODULES[name] = func
        return func

    if fn is not None:
        return inner(fn)
    return inner


def run_module(name: str, connection: Any, args: dict[str, Any]) -> TaskResult:
    """Dispatch one module invocation."""
    fn = MODULES.get(name)
    if fn is None:
        raise OrchestrationError(f"unknown module: {name!r}")
    return fn(connection, args)


def _require(args: dict[str, Any], *keys: str) -> None:
    missing = [k for k in keys if k not in args]
    if missing:
        raise OrchestrationError(f"missing module arguments: {missing}")


@register_module("command")
def _mod_command(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Run a command; fails on nonzero exit unless ``ignore_errors``."""
    _require(args, "cmd")
    cmd = args["cmd"]
    if isinstance(cmd, bool):
        # YAML parses bare `cmd: false` as a boolean; restore the binary name.
        cmd = "true" if cmd else "false"
    result = connection.run(str(cmd))
    failed = result.exit_code != 0
    return TaskResult(
        changed=True,
        failed=failed,
        msg=result.stderr.strip() if failed else "",
        data={
            "rc": result.exit_code,
            "stdout": result.stdout,
            "stderr": result.stderr,
        },
    )


# `shell` is an alias: our container runtime always gives shell semantics.
register_module("shell", _mod_command)


@register_module("copy")
def _mod_copy(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Write ``content`` (or a local ``src`` file) to ``dest`` on the host."""
    _require(args, "dest")
    if "content" in args:
        data = str(args["content"]).encode("utf-8")
    elif "src" in args:
        from pathlib import Path

        source = Path(args["src"])
        if not source.is_file():
            return TaskResult(failed=True, msg=f"copy: src not found: {source}")
        data = source.read_bytes()
    else:
        raise OrchestrationError("copy needs 'content' or 'src'")
    if connection.file_exists(args["dest"]) and connection.fetch_file(args["dest"]) == data:
        return TaskResult(changed=False)
    connection.put_file(args["dest"], data)
    return TaskResult(changed=True)


@register_module("fetch")
def _mod_fetch(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Read a remote file; the content is returned in ``data['content']``."""
    _require(args, "src")
    try:
        data = connection.fetch_file(args["src"])
    except OrchestrationError as exc:
        return TaskResult(failed=True, msg=str(exc))
    text = data.decode("utf-8", errors="replace")
    if "dest" in args:
        from repro.common.fsutil import atomic_write

        atomic_write(args["dest"], data, durable=False, crash_label="playbook.fetch")
    return TaskResult(changed=False, data={"content": text})


@register_module("package")
def _mod_package(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Ensure packages are installed (idempotent)."""
    _require(args, "name")
    names = args["name"] if isinstance(args["name"], list) else [args["name"]]
    missing = [
        n for n in names if not connection.file_exists(f"/var/lib/pkg/{n}")
    ]
    if not missing:
        return TaskResult(changed=False)
    result = connection.run("pkg install " + " ".join(missing))
    if result.exit_code != 0:
        return TaskResult(failed=True, msg=result.stderr.strip())
    return TaskResult(changed=True, data={"installed": missing})


@register_module("file")
def _mod_file(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Ensure a path exists (``state: touch``) or is absent."""
    _require(args, "path", "state")
    state = args["state"]
    exists = connection.file_exists(args["path"])
    if state == "touch":
        if exists:
            return TaskResult(changed=False)
        connection.put_file(args["path"], b"")
        return TaskResult(changed=True)
    if state == "absent":
        if not exists:
            return TaskResult(changed=False)
        result = connection.run(f"rm {args['path']}")
        return TaskResult(changed=True, failed=result.exit_code != 0)
    raise OrchestrationError(f"file: unknown state {state!r}")


@register_module("assert")
def _mod_assert(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Fail unless every item of ``that`` evaluated truthy (pre-rendered)."""
    _require(args, "that")
    conditions = args["that"] if isinstance(args["that"], list) else [args["that"]]
    for condition in conditions:
        if not condition:
            return TaskResult(
                failed=True, msg=args.get("msg", "assertion failed")
            )
    return TaskResult(changed=False)


@register_module("set_fact")
def _mod_set_fact(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Export every argument as a new host fact."""
    return TaskResult(changed=False, data=dict(args))


@register_module("debug")
def _mod_debug(connection: Any, args: dict[str, Any]) -> TaskResult:
    """Record a message in the task result."""
    return TaskResult(changed=False, msg=str(args.get("msg", "")))
