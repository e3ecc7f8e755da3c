"""The container runtime: copy-on-write filesystems, an in-process binary
registry, a tiny POSIX-ish shell, and a simulated package manager.

Real Docker runs Linux processes in namespaces; this runtime runs Python
callables ("binaries") against a container's in-memory filesystem.  The
behavioural contract the Popper convention needs is preserved:

* a container starts from an image's flattened filesystem and never
  mutates the image (copy-on-write; :meth:`Container.diff` extracts the
  delta as a new layer — which is also how ``RUN`` build steps commit);
* a command only runs if its binary exists in the container (installed
  by a package, baked into a layer, or a shell builtin) — giving the
  realistic "works on my machine" failure modes CI integrity checks catch;
* bind mounts expose host directories, which is how experiments export
  ``results.csv`` back to the Popper repository.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.common.errors import ContainerError
from repro.common.fsutil import atomic_write
from repro.container.image import TOMBSTONE, Image, Layer

__all__ = [
    "ExecResult",
    "BinaryRegistry",
    "Container",
    "PACKAGE_DB",
    "default_binaries",
]


@dataclass(frozen=True)
class ExecResult:
    """Outcome of one command execution."""

    exit_code: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


#: name -> {"provides": [binaries], "requires": [package deps]}
PACKAGE_DB: dict[str, dict] = {
    "coreutils": {"provides": ["ls", "cp", "mv", "rm", "cat", "touch", "mkdir"], "requires": []},
    "gcc": {"provides": ["gcc", "cc"], "requires": ["binutils"]},
    "binutils": {"provides": ["ld", "as"], "requires": []},
    "make": {"provides": ["make"], "requires": []},
    "git": {"provides": ["git"], "requires": []},
    "python3": {"provides": ["python3", "pip3"], "requires": []},
    "gnuplot": {"provides": ["gnuplot"], "requires": []},
    "openmpi": {"provides": ["mpirun", "mpicc"], "requires": ["gcc"]},
    "mpip": {"provides": ["mpip-report"], "requires": ["openmpi"]},
    "fuse": {"provides": ["fusermount"], "requires": []},
    "gasnet": {"provides": ["gasnet-run"], "requires": ["gcc"]},
    "gassyfs": {"provides": ["gassyfs-mount"], "requires": ["gasnet", "fuse"]},
    "stress-ng": {"provides": ["stress-ng"], "requires": []},
    "fio": {"provides": ["fio"], "requires": []},
    "jupyter": {"provides": ["jupyter"], "requires": ["python3"]},
    "dpm": {"provides": ["dpm"], "requires": ["python3"]},
    "lulesh": {"provides": ["lulesh"], "requires": ["openmpi"]},
}


BinaryFn = Callable[["Container", list[str]], ExecResult]


class BinaryRegistry:
    """Name → Python callable table for container "binaries"."""

    def __init__(self) -> None:
        self._binaries: dict[str, BinaryFn] = {}

    def register(self, name: str, fn: BinaryFn) -> None:
        if name in self._binaries:
            raise ContainerError(f"binary already registered: {name!r}")
        self._binaries[name] = fn

    def get(self, name: str) -> BinaryFn | None:
        return self._binaries.get(name)

    def names(self) -> list[str]:
        return sorted(self._binaries)

    def copy(self) -> "BinaryRegistry":
        clone = BinaryRegistry()
        clone._binaries = dict(self._binaries)
        return clone


# ---------------------------------------------------------------------------
# Builtin binaries
# ---------------------------------------------------------------------------

def _bin_echo(container: "Container", argv: list[str]) -> ExecResult:
    return ExecResult(0, stdout=" ".join(argv[1:]) + "\n")


def _bin_true(container: "Container", argv: list[str]) -> ExecResult:
    return ExecResult(0)


def _bin_false(container: "Container", argv: list[str]) -> ExecResult:
    return ExecResult(1)


def _bin_cat(container: "Container", argv: list[str]) -> ExecResult:
    if len(argv) < 2:
        return ExecResult(2, stderr="cat: missing operand\n")
    chunks = []
    for path in argv[1:]:
        data = container.read_file(container.resolve_path(path), missing_ok=True)
        if data is None:
            return ExecResult(1, stderr=f"cat: {path}: No such file\n")
        chunks.append(data.decode("utf-8", errors="replace"))
    return ExecResult(0, stdout="".join(chunks))


def _bin_touch(container: "Container", argv: list[str]) -> ExecResult:
    for path in argv[1:]:
        full = container.resolve_path(path)
        if container.read_file(full, missing_ok=True) is None:
            container.write_file(full, b"")
    return ExecResult(0)


def _bin_cp(container: "Container", argv: list[str]) -> ExecResult:
    if len(argv) != 3:
        return ExecResult(2, stderr="cp: usage: cp SRC DST\n")
    data = container.read_file(container.resolve_path(argv[1]), missing_ok=True)
    if data is None:
        return ExecResult(1, stderr=f"cp: {argv[1]}: No such file\n")
    container.write_file(container.resolve_path(argv[2]), data)
    return ExecResult(0)


def _bin_rm(container: "Container", argv: list[str]) -> ExecResult:
    paths = [a for a in argv[1:] if not a.startswith("-")]
    recursive = "-r" in argv or "-rf" in argv
    force = "-f" in argv or "-rf" in argv
    for path in paths:
        full = container.resolve_path(path)
        if recursive:
            victims = [p for p in container.list_files() if p == full or p.startswith(full + "/")]
            if not victims and not force:
                return ExecResult(1, stderr=f"rm: {path}: No such file\n")
            for victim in victims:
                container.delete_file(victim)
        else:
            if container.read_file(full, missing_ok=True) is None:
                if force:
                    continue
                return ExecResult(1, stderr=f"rm: {path}: No such file\n")
            container.delete_file(full)
    return ExecResult(0)


def _bin_ls(container: "Container", argv: list[str]) -> ExecResult:
    target = container.resolve_path(argv[1]) if len(argv) > 1 else container.workdir
    prefix = target.rstrip("/") + "/"
    names = set()
    for path in container.list_files():
        if path == target:
            names.add(path.rsplit("/", 1)[-1])
        elif path.startswith(prefix):
            names.add(path[len(prefix):].split("/", 1)[0])
    return ExecResult(0, stdout="\n".join(sorted(names)) + ("\n" if names else ""))


def _bin_mkdir(container: "Container", argv: list[str]) -> ExecResult:
    # Directories are implicit in a flat-path fs; accept and succeed.
    return ExecResult(0)


def _bin_test(container: "Container", argv: list[str]) -> ExecResult:
    if len(argv) == 3 and argv[1] in ("-f", "-e"):
        exists = (
            container.read_file(container.resolve_path(argv[2]), missing_ok=True)
            is not None
        )
        return ExecResult(0 if exists else 1)
    if len(argv) == 3 and argv[1] == "-d":
        prefix = container.resolve_path(argv[2]).rstrip("/") + "/"
        return ExecResult(
            0 if any(p.startswith(prefix) for p in container.list_files()) else 1
        )
    return ExecResult(2, stderr="test: unsupported expression\n")


def _bin_pkg(container: "Container", argv: list[str]) -> ExecResult:
    """The simulated package manager: ``pkg install <name>...``."""
    if len(argv) < 3 or argv[1] != "install":
        return ExecResult(2, stderr="pkg: usage: pkg install NAME...\n")
    out = []
    to_install = list(argv[2:])
    seen: set[str] = set()
    while to_install:
        name = to_install.pop(0)
        if name in seen:
            continue
        seen.add(name)
        meta = PACKAGE_DB.get(name)
        if meta is None:
            return ExecResult(1, stderr=f"pkg: unknown package {name!r}\n")
        to_install.extend(meta["requires"])
        container.write_file(f"/var/lib/pkg/{name}", b"installed\n")
        for binary in meta["provides"]:
            container.write_file(f"/usr/bin/{binary}", b"#!binary\n")
        out.append(f"installed {name}")
    return ExecResult(0, stdout="\n".join(out) + "\n")


def default_binaries() -> BinaryRegistry:
    """Registry with the standard builtin toolset."""
    registry = BinaryRegistry()
    for name, fn in [
        ("echo", _bin_echo),
        ("true", _bin_true),
        ("false", _bin_false),
        ("cat", _bin_cat),
        ("touch", _bin_touch),
        ("cp", _bin_cp),
        ("rm", _bin_rm),
        ("ls", _bin_ls),
        ("mkdir", _bin_mkdir),
        ("test", _bin_test),
        ("pkg", _bin_pkg),
    ]:
        registry.register(name, fn)
    return registry


#: Binaries always available without any package (shell builtins).
_ALWAYS_AVAILABLE = {"echo", "true", "false", "test", "pkg", "sh", "mkdir",
                     "cat", "touch", "cp", "rm", "ls"}


class Container:
    """A runnable instance of an image.

    Parameters
    ----------
    image:
        The image to instantiate.
    binaries:
        Binary registry (defaults to :func:`default_binaries`).
    name:
        Container name for logs.
    mounts:
        Mapping of container path prefix → host directory.  Reads fall
        through to the host; writes propagate back (bind-mount semantics).
    """

    #: Startup cost model, seconds (used by the packaging-overhead bench).
    START_OVERHEAD_S = 0.35

    def __init__(
        self,
        image: Image,
        binaries: BinaryRegistry | None = None,
        name: str = "c0",
        mounts: dict[str, str | Path] | None = None,
    ) -> None:
        self.image = image
        self.name = name
        self.binaries = binaries or default_binaries()
        self._fs: dict[str, bytes] = dict(image.flatten())
        self._deleted: set[str] = set()
        self.env: dict[str, str] = image.config.env_dict()
        self.workdir: str = image.config.workdir
        self.mounts = {
            k.rstrip("/"): Path(v) for k, v in (mounts or {}).items()
        }
        self.log: list[str] = []

    # -- filesystem ---------------------------------------------------------------
    def resolve_path(self, path: str) -> str:
        """Resolve *path* against the working directory."""
        if not path.startswith("/"):
            base = self.workdir.rstrip("/")
            path = f"{base}/{path}"
        # normalize
        parts: list[str] = []
        for part in path.split("/"):
            if part in ("", "."):
                continue
            if part == "..":
                if parts:
                    parts.pop()
                continue
            parts.append(part)
        return "/" + "/".join(parts)

    def _mount_for(self, path: str) -> tuple[str, Path] | None:
        for prefix, host in sorted(self.mounts.items(), key=lambda kv: -len(kv[0])):
            if path == prefix or path.startswith(prefix + "/"):
                return prefix, host
        return None

    def read_file(self, path: str, missing_ok: bool = False) -> bytes | None:
        """Read a file from the container (mounts shadow the overlay)."""
        path = self.resolve_path(path)
        mount = self._mount_for(path)
        if mount is not None:
            prefix, host = mount
            target = host / path[len(prefix):].lstrip("/")
            if target.is_file():
                return target.read_bytes()
            if missing_ok:
                return None
            raise ContainerError(f"no such file in mount: {path}")
        if path in self._fs:
            return self._fs[path]
        if missing_ok:
            return None
        raise ContainerError(f"no such file: {path}")

    def write_file(self, path: str, data: bytes) -> None:
        """Write a file into the container overlay (or through a mount)."""
        path = self.resolve_path(path)
        mount = self._mount_for(path)
        if mount is not None:
            prefix, host = mount
            target = host / path[len(prefix):].lstrip("/")
            atomic_write(target, data, durable=False, crash_label="container.mount")
            return
        self._fs[path] = data
        self._deleted.discard(path)

    def delete_file(self, path: str) -> None:
        path = self.resolve_path(path)
        mount = self._mount_for(path)
        if mount is not None:
            prefix, host = mount
            target = host / path[len(prefix):].lstrip("/")
            if target.is_file():
                target.unlink()
            return
        if path in self._fs:
            del self._fs[path]
        self._deleted.add(path)

    def list_files(self) -> list[str]:
        """All file paths currently visible in the overlay (mounts excluded)."""
        return sorted(self._fs)

    # -- execution ------------------------------------------------------------------
    def run(self, command: str | list[str]) -> ExecResult:
        """Execute a command (string → shell semantics; list → direct exec)."""
        if isinstance(command, str):
            result = self._run_shell(command)
        else:
            result = self._exec(list(command))
        status = "ok" if result.ok else f"exit={result.exit_code}"
        summary = command if isinstance(command, str) else " ".join(command)
        self.log.append(f"[{self.name}] $ {summary} -> {status}")
        return result

    def _run_shell(self, script: str) -> ExecResult:
        """Interpret `a && b`, `a ; b`, `cmd > file` and $VAR expansion."""
        stdout_parts: list[str] = []
        stderr_parts: list[str] = []
        for sequence_chunk in script.split(";"):
            for chunk in sequence_chunk.split("&&"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                redirect: str | None = None
                append = False
                if ">>" in chunk:
                    chunk, _, redirect = chunk.partition(">>")
                    append = True
                elif ">" in chunk:
                    chunk, _, redirect = chunk.partition(">")
                try:
                    argv = shlex.split(chunk)
                except ValueError as exc:
                    return ExecResult(2, stderr=f"sh: parse error: {exc}\n")
                argv = [self._expand(token) for token in argv]
                if not argv:
                    continue
                if argv[0] == "cd":
                    if len(argv) != 2:
                        return ExecResult(2, stderr="cd: usage: cd DIR\n")
                    self.workdir = self.resolve_path(argv[1])
                    continue
                if argv[0] == "export" and len(argv) == 2 and "=" in argv[1]:
                    key, _, value = argv[1].partition("=")
                    self.env[key] = value
                    continue
                result = self._exec(argv)
                if redirect is not None:
                    target = self.resolve_path(redirect.strip())
                    payload = result.stdout.encode("utf-8")
                    if append:
                        existing = self.read_file(target, missing_ok=True) or b""
                        payload = existing + payload
                    self.write_file(target, payload)
                else:
                    stdout_parts.append(result.stdout)
                stderr_parts.append(result.stderr)
                if not result.ok:
                    return ExecResult(
                        result.exit_code,
                        stdout="".join(stdout_parts),
                        stderr="".join(stderr_parts),
                    )
        return ExecResult(0, stdout="".join(stdout_parts), stderr="".join(stderr_parts))

    def _expand(self, token: str) -> str:
        out = token
        for key, value in self.env.items():
            out = out.replace(f"${{{key}}}", value).replace(f"${key}", value)
        return out

    def _exec(self, argv: list[str]) -> ExecResult:
        if not argv:
            return ExecResult(2, stderr="sh: empty command\n")
        name = argv[0].rsplit("/", 1)[-1]
        fn = self.binaries.get(name)
        if fn is None:
            return ExecResult(127, stderr=f"sh: {name}: command not found\n")
        if name not in _ALWAYS_AVAILABLE and f"/usr/bin/{name}" not in self._fs:
            return ExecResult(
                127,
                stderr=(
                    f"sh: {name}: command not found "
                    f"(is its package installed?)\n"
                ),
            )
        try:
            return fn(self, argv)
        except ContainerError as exc:
            return ExecResult(1, stderr=f"{name}: {exc}\n")

    # -- commit ---------------------------------------------------------------------
    def diff(self, created_by: str = "") -> Layer:
        """The overlay delta relative to the image, as a layer."""
        base = self.image.flatten()
        changes: dict[str, bytes] = {}
        for path, data in self._fs.items():
            if base.get(path) != data:
                changes[path] = data
        for path in self._deleted:
            if path in base:
                changes[path] = TOMBSTONE
        return Layer.from_dict(changes, created_by=created_by)

    def commit(self, created_by: str = "") -> Image:
        """Freeze the current overlay into a new image."""
        return self.image.with_layer(self.diff(created_by=created_by))
