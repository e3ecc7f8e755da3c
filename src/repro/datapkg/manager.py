"""The data-package manager (``dpm``): publish, install, verify.

A registry is a directory tree ``<root>/<name>/<version>/`` holding the
package descriptors, backed by a content-addressed pool under
``<root>/.store/``: a resource's sha256 *is* its object id, so
publishing the same file into ten versions stores its bytes once
(dedup), and every publish re-hashes the payload on ingest — a file
that changes between hashing and filing is refused at publish time, not
discovered at install time.  ``install`` materializes resources from
the pool into an experiment's ``datasets/`` folder and verifies every
hash — a corrupted or tampered dataset is refused, never silently
analyzed.  Registries created before the pool existed (version
directories holding flat resource copies) remain installable.
"""

from __future__ import annotations

from pathlib import Path

from repro.common.errors import DataPackageError, IntegrityError
from repro.common.fsutil import atomic_write
from repro.common.hashing import sha256_file
from repro.datapkg.descriptor import Descriptor, Resource, parse_spec, version_key
from repro.store import ContentStore

__all__ = ["PackageRegistry", "install", "verify_tree"]

DESCRIPTOR_NAME = "datapackage.json"

#: Registry-internal content pool directory (not a package name).
STORE_DIR = ".store"


class PackageRegistry:
    """A directory-backed dataset registry."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store = ContentStore(
            self.root / STORE_DIR / "objects",
            quarantine_dir=self.root / STORE_DIR / "quarantine",
        )

    # -- publish ---------------------------------------------------------------
    def publish(
        self,
        source_dir: str | Path,
        name: str,
        version: str,
        title: str = "",
        sources: tuple[str, ...] = (),
        license: str = "",
    ) -> Descriptor:
        """Package every file under *source_dir* as ``name@version``."""
        source = Path(source_dir)
        if not source.is_dir():
            raise DataPackageError(f"source is not a directory: {source}")
        files = sorted(p for p in source.rglob("*") if p.is_file())
        if not files:
            raise DataPackageError(f"nothing to publish in {source}")
        resources = tuple(
            Resource.from_file(path, path.relative_to(source).as_posix())
            for path in files
        )
        descriptor = Descriptor(
            name=name,
            version=version,
            resources=resources,
            title=title,
            sources=sources,
            license=license,
        )
        target = self.root / name / version
        if target.exists():
            raise DataPackageError(f"{descriptor.spec} already published")
        target.mkdir(parents=True)
        for resource in resources:
            # Ingest into the content pool: identical payloads (across
            # resources, versions or packages) are stored once.  The
            # pool re-hashes on ingest, so a payload that changed since
            # the descriptor hashed it is caught *now*.
            ingest = self.store.put_file(source / resource.path)
            if ingest.oid != resource.sha256:
                raise IntegrityError(
                    f"{descriptor.spec}: {resource.path} changed while "
                    f"publishing (descriptor {resource.sha256[:12]}, "
                    f"ingested {ingest.oid[:12]})"
                )
        _write_descriptor(target, descriptor)
        return descriptor

    # -- query -------------------------------------------------------------------
    def packages(self) -> list[str]:
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith(".")
        )

    def versions(self, name: str) -> list[str]:
        base = self.root / name
        if not base.is_dir():
            raise DataPackageError(f"unknown package: {name!r}")
        return sorted(
            (p.name for p in base.iterdir() if p.is_dir()), key=version_key
        )

    def resolve(self, spec: str) -> Descriptor:
        """Resolve ``name`` (latest) or ``name@version`` to its descriptor."""
        name, version = parse_spec(spec)
        if version is None:
            versions = self.versions(name)
            if not versions:
                raise DataPackageError(f"package {name!r} has no versions")
            version = versions[-1]
        path = self.root / name / version / DESCRIPTOR_NAME
        if not path.is_file():
            raise DataPackageError(f"not in registry: {name}@{version}")
        return Descriptor.from_json(path.read_text(encoding="utf-8"))

    # -- install --------------------------------------------------------------------
    def install(self, spec: str, target_dir: str | Path) -> Descriptor:
        """Materialize a package into *target_dir*; verify every resource.

        Resources come out of the content pool (integrity-checked on
        read); packages published before the pool existed fall back to
        copying the flat files from the version directory.
        """
        descriptor = self.resolve(spec)
        source = self.root / descriptor.name / descriptor.version
        target = Path(target_dir) / descriptor.name
        if target.exists():
            raise DataPackageError(f"install target exists: {target}")
        target.mkdir(parents=True)
        for resource in descriptor.resources:
            dest = target / resource.path
            if self.store.contains(resource.sha256):
                self.store.materialize(resource.sha256, dest)
            else:
                legacy = source / resource.path
                if not legacy.is_file():
                    raise IntegrityError(
                        f"{descriptor.spec}: resource {resource.path} is in "
                        "neither the content pool nor the version directory"
                    )
                atomic_write(
                    dest, legacy.read_bytes(), durable=False,
                    crash_label="datapkg.install",
                )
        _write_descriptor(target, descriptor)
        verify_tree(target)
        return descriptor


def _write_descriptor(directory: Path, descriptor: Descriptor) -> None:
    atomic_write(
        directory / DESCRIPTOR_NAME,
        descriptor.to_json().encode("utf-8"),
        crash_label="datapkg.descriptor",
    )


def verify_tree(package_dir: str | Path) -> Descriptor:
    """Check every resource of an installed package against its descriptor."""
    package_dir = Path(package_dir)
    descriptor_path = package_dir / DESCRIPTOR_NAME
    if not descriptor_path.is_file():
        raise DataPackageError(f"no {DESCRIPTOR_NAME} in {package_dir}")
    descriptor = Descriptor.from_json(descriptor_path.read_text(encoding="utf-8"))
    for resource in descriptor.resources:
        path = package_dir / resource.path
        if not path.is_file():
            raise IntegrityError(f"{descriptor.spec}: missing {resource.path}")
        actual = sha256_file(path)
        if actual != resource.sha256:
            raise IntegrityError(
                f"{descriptor.spec}: {resource.path} hash mismatch "
                f"(expected {resource.sha256[:12]}, got {actual[:12]})"
            )
    return descriptor


def install(registry: PackageRegistry, spec: str, target_dir: str | Path) -> Descriptor:
    """Module-level convenience mirroring ``dpm install``."""
    return registry.install(spec, target_dir)
