"""Image save/load: single-file archives for registry-less sharing.

``docker save``/``docker load`` equivalents — an image (layer chain +
config) serializes to one JSON document whose digest is verified on
load, so images can ride inside a data package or a paper repository
and still be integrity-pinned.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from repro.common.errors import ContainerError
from repro.common.fsutil import atomic_write
from repro.container.image import Image, ImageConfig, Layer

__all__ = ["save_image", "load_image", "image_history"]

_FORMAT = "repro-image-v1"


def save_image(image: Image, path: str | Path | None = None) -> str:
    """Serialize *image* to JSON (and optionally write it to *path*)."""
    doc = {
        "format": _FORMAT,
        "digest": image.digest,
        "config": {
            "env": list(map(list, image.config.env)),
            "workdir": image.config.workdir,
            "entrypoint": list(image.config.entrypoint),
            "cmd": list(image.config.cmd),
            "labels": list(map(list, image.config.labels)),
            "exposed_ports": list(image.config.exposed_ports),
        },
        "layers": [
            {
                "created_by": layer.created_by,
                "files": [
                    [p, base64.b64encode(data).decode("ascii")]
                    for p, data in layer.files
                ],
            }
            for layer in image.layers
        ],
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path is not None:
        atomic_write(path, text.encode("utf-8"), crash_label="container.image")
    return text


def load_image(source: str | Path) -> Image:
    """Inverse of :func:`save_image`; verifies the recorded digest."""
    if isinstance(source, Path) or (
        isinstance(source, str) and "\n" not in source and Path(source).is_file()
    ):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContainerError(f"bad image archive: {exc}") from exc
    if doc.get("format") != _FORMAT:
        raise ContainerError(f"unsupported image archive format: {doc.get('format')!r}")
    try:
        config = ImageConfig(
            env=tuple((k, v) for k, v in doc["config"]["env"]),
            workdir=doc["config"]["workdir"],
            entrypoint=tuple(doc["config"]["entrypoint"]),
            cmd=tuple(doc["config"]["cmd"]),
            labels=tuple((k, v) for k, v in doc["config"]["labels"]),
            exposed_ports=tuple(doc["config"]["exposed_ports"]),
        )
        layers = tuple(
            Layer(
                files=tuple(
                    (p, base64.b64decode(data)) for p, data in raw["files"]
                ),
                created_by=raw["created_by"],
            )
            for raw in doc["layers"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerError(f"malformed image archive: {exc}") from exc
    image = Image(layers=layers, config=config)
    if image.digest != doc.get("digest"):
        raise ContainerError(
            "image archive digest mismatch (corrupted or tampered archive)"
        )
    return image


def image_history(image: Image) -> list[str]:
    """Provenance listing: one line per layer, oldest first (like
    ``docker history``)."""
    lines = []
    for i, layer in enumerate(image.layers):
        size = sum(len(d) for _, d in layer.files)
        created_by = layer.created_by or "<base>"
        lines.append(f"{i}: {layer.digest[:12]} {size:>8}B  {created_by}")
    return lines
