"""Host connections: how orchestration modules reach a managed machine.

A connection is anything with ``run``/``put_file``/``fetch_file``/``facts``.
The shipping implementation is :class:`ContainerConnection` — each managed
"machine" is a container (the OS-level-virtualization worldview of the
paper) optionally bound to a simulated :class:`~repro.platform.sites.Node`
so that facts include hardware characteristics for baseline fingerprinting.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import OrchestrationError, UnreachableHostError
from repro.container.image import Image, scratch
from repro.container.runtime import BinaryRegistry, Container, ExecResult

__all__ = ["ContainerConnection", "UnreachableConnection"]


class ContainerConnection:
    """A managed host backed by a container (plus optional platform node)."""

    def __init__(
        self,
        image: Image | None = None,
        binaries: BinaryRegistry | None = None,
        node: Any = None,
        name: str = "host",
    ) -> None:
        self.container = Container(
            image if image is not None else scratch(),
            binaries=binaries,
            name=name,
        )
        self.node = node
        self.name = name

    # -- command execution --------------------------------------------------------
    def run(self, command: str) -> ExecResult:
        return self.container.run(command)

    # -- file transfer ---------------------------------------------------------------
    def put_file(self, path: str, data: bytes) -> None:
        self.container.write_file(path, data)

    def fetch_file(self, path: str) -> bytes:
        data = self.container.read_file(path, missing_ok=True)
        if data is None:
            raise OrchestrationError(f"{self.name}: no such file: {path}")
        return data

    def file_exists(self, path: str) -> bool:
        return self.container.read_file(path, missing_ok=True) is not None

    # -- facts -------------------------------------------------------------------------
    def facts(self) -> dict[str, Any]:
        """Environment facts, the 'sanitize before you run' input."""
        facts: dict[str, Any] = {
            "hostname": self.name,
            "installed_packages": sorted(
                p.rsplit("/", 1)[-1]
                for p in self.container.list_files()
                if p.startswith("/var/lib/pkg/")
            ),
        }
        if self.node is not None:
            spec = self.node.spec
            facts.update(
                {
                    "machine": spec.name,
                    "site": self.node.site,
                    "cores": spec.cores,
                    "freq_ghz": spec.freq_ghz,
                    "mem_bw_gbs": spec.mem_bw_gbs,
                    "net_bw_gbit": spec.net_bw_gbit,
                    "storage_bw_mbs": spec.storage_bw_mbs,
                    "virtualized": spec.virt_overhead > 0,
                    "speed_factor": self.node.speed_factor,
                }
            )
        return facts


class UnreachableConnection:
    """A host that cannot be contacted (models provisioning failures).

    Raises :class:`~repro.common.errors.UnreachableHostError` — the
    transient branch — so retry policies and host degradation treat the
    failure as infrastructure, not experiment logic.
    """

    def __init__(self, name: str = "down") -> None:
        self.name = name

    def run(self, command: str) -> ExecResult:
        raise UnreachableHostError(f"{self.name}: host unreachable")

    def put_file(self, path: str, data: bytes) -> None:
        raise UnreachableHostError(f"{self.name}: host unreachable")

    def fetch_file(self, path: str) -> bytes:
        raise UnreachableHostError(f"{self.name}: host unreachable")

    def file_exists(self, path: str) -> bool:
        raise UnreachableHostError(f"{self.name}: host unreachable")

    def facts(self) -> dict[str, Any]:
        raise UnreachableHostError(f"{self.name}: host unreachable")
