"""Layered container images.

An :class:`Image` is an ordered chain of :class:`Layer` objects, each an
immutable set of file writes and deletions (tombstones), plus an
:class:`ImageConfig` (env, workdir, entrypoint).  Flattening the chain
yields the root filesystem a container starts from.  Image identity is
the digest of the layer-digest chain plus the config digest — pin an
image by digest and you have pinned the bits, which is exactly the
property the Popper convention relies on ("treat every component as an
immutable piece of information").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ContainerError
from repro.common.hashing import combine_digests, sha256_bytes, sha256_text

__all__ = ["Layer", "ImageConfig", "Image", "TOMBSTONE"]

#: Sentinel marking a path as deleted by a layer.  File content equal to
#: this exact byte string cannot be stored (it would read as a deletion);
#: the NUL framing makes an accidental collision with real payloads
#: implausible.
TOMBSTONE = b"\x00<deleted>\x00"


def _check_path(path: str) -> str:
    if not path.startswith("/") or "//" in path or path != path.strip():
        raise ContainerError(f"image paths must be absolute and clean: {path!r}")
    if any(part in (".", "..") for part in path.split("/")):
        raise ContainerError(f"image paths may not contain . or ..: {path!r}")
    return path


@dataclass(frozen=True)
class Layer:
    """One immutable filesystem delta."""

    files: tuple[tuple[str, bytes], ...]
    created_by: str = ""

    @classmethod
    def from_dict(cls, files: dict[str, bytes], created_by: str = "") -> "Layer":
        items = tuple(sorted((( _check_path(k)), v) for k, v in files.items()))
        return cls(files=items, created_by=created_by)

    @property
    def digest(self) -> str:
        parts = [f"{path}:{sha256_bytes(data)}" for path, data in self.files]
        return combine_digests([sha256_text(self.created_by), *parts])

    def __len__(self) -> int:
        return len(self.files)


@dataclass(frozen=True)
class ImageConfig:
    """Runtime configuration baked into an image."""

    env: tuple[tuple[str, str], ...] = ()
    workdir: str = "/"
    entrypoint: tuple[str, ...] = ()
    cmd: tuple[str, ...] = ()
    labels: tuple[tuple[str, str], ...] = ()
    exposed_ports: tuple[int, ...] = ()

    @property
    def digest(self) -> str:
        return sha256_text(repr(self))

    def env_dict(self) -> dict[str, str]:
        return dict(self.env)

    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def with_env(self, key: str, value: str) -> "ImageConfig":
        env = dict(self.env)
        env[key] = value
        return replace(self, env=tuple(sorted(env.items())))

    def with_label(self, key: str, value: str) -> "ImageConfig":
        labels = dict(self.labels)
        labels[key] = value
        return replace(self, labels=tuple(sorted(labels.items())))


@dataclass(frozen=True)
class Image:
    """An immutable image: a layer chain plus config."""

    layers: tuple[Layer, ...]
    config: ImageConfig = field(default_factory=ImageConfig)
    parent_digest: str | None = None

    @property
    def digest(self) -> str:
        return combine_digests(
            [layer.digest for layer in self.layers] + [self.config.digest]
        )

    def flatten(self) -> dict[str, bytes]:
        """Materialize the union filesystem (later layers win; tombstones
        delete)."""
        fs: dict[str, bytes] = {}
        for layer in self.layers:
            for path, data in layer.files:
                if data == TOMBSTONE:
                    fs.pop(path, None)
                else:
                    fs[path] = data
        return fs

    def with_layer(self, layer: Layer, config: ImageConfig | None = None) -> "Image":
        """A new image extending this one by one layer."""
        return Image(
            layers=self.layers + (layer,),
            config=config if config is not None else self.config,
            parent_digest=self.digest,
        )

    def size_bytes(self) -> int:
        """Total bytes across all layers (the transfer cost of the image)."""
        return sum(
            len(data)
            for layer in self.layers
            for _, data in layer.files
            if data != TOMBSTONE
        )


def scratch() -> Image:
    """The empty base image (``FROM scratch``)."""
    return Image(layers=())
