"""Inventories: named hosts, groups and host variables.

An inventory maps the experiment's logical roles ("head", "osds",
"clients") onto concrete connections.  It loads from the YAML shape the
Popper templates ship (``machines.yml``) and supports the host patterns
playbooks target (``all``, group names, comma unions, ``!`` exclusions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common import minyaml
from repro.common.errors import OrchestrationError

__all__ = ["Host", "Inventory"]


@dataclass
class Host:
    """One managed machine: a name, its variables and its connection."""

    name: str
    variables: dict[str, Any] = field(default_factory=dict)
    connection: Any = None  # duck-typed: .run/.put_file/.fetch_file/.facts


class Inventory:
    """Hosts organized into groups."""

    def __init__(self) -> None:
        self._hosts: dict[str, Host] = {}
        self._groups: dict[str, list[str]] = {"all": []}
        self.group_vars: dict[str, dict[str, Any]] = {}

    # -- construction -------------------------------------------------------------
    def add_host(
        self,
        name: str,
        groups: list[str] | None = None,
        variables: dict[str, Any] | None = None,
        connection: Any = None,
    ) -> Host:
        """Register a host under the given groups (always also ``all``)."""
        if name in self._hosts:
            raise OrchestrationError(f"duplicate host: {name!r}")
        host = Host(name=name, variables=dict(variables or {}), connection=connection)
        self._hosts[name] = host
        self._groups["all"].append(name)
        for group in groups or []:
            if group == "all":
                continue
            self._groups.setdefault(group, []).append(name)
        return host

    def set_group_vars(self, group: str, variables: dict[str, Any]) -> None:
        """Variables shared by every host of *group* (host vars win)."""
        self.group_vars.setdefault(group, {}).update(variables)

    @classmethod
    def from_yaml(cls, text: str) -> "Inventory":
        """Load the template inventory shape::

            hosts:
              - name: node0
                groups: [head]
                vars: {role: master}
            group_vars:
              head: {port: 8080}
        """
        doc = minyaml.loads(text) or {}
        if not isinstance(doc, dict):
            raise OrchestrationError("inventory document must be a mapping")
        inventory = cls()
        for entry in doc.get("hosts") or []:
            if isinstance(entry, str):
                inventory.add_host(entry)
                continue
            if not isinstance(entry, dict) or "name" not in entry:
                raise OrchestrationError(f"bad host entry: {entry!r}")
            inventory.add_host(
                entry["name"],
                groups=entry.get("groups") or [],
                variables=entry.get("vars") or {},
            )
        for group, variables in (doc.get("group_vars") or {}).items():
            inventory.set_group_vars(group, variables or {})
        return inventory

    # -- lookup ----------------------------------------------------------------------
    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise OrchestrationError(f"unknown host: {name!r}") from None

    def hosts(self) -> list[Host]:
        return [self._hosts[n] for n in self._groups["all"]]

    def groups(self) -> list[str]:
        return sorted(self._groups)

    def effective_vars(self, host: Host) -> dict[str, Any]:
        """Group vars (in group order) overlaid by host vars."""
        merged: dict[str, Any] = {}
        for group, members in sorted(self._groups.items()):
            if host.name in members and group in self.group_vars:
                merged.update(self.group_vars[group])
        merged.update(host.variables)
        merged.setdefault("inventory_hostname", host.name)
        return merged

    def match(self, pattern: str) -> list[Host]:
        """Resolve a host pattern to hosts.

        Supports ``all``, host names, group names, comma unions and
        ``!name`` exclusions (``webs,!web3``).
        """
        selected: dict[str, Host] = {}
        excluded: set[str] = set()
        for raw in pattern.split(","):
            term = raw.strip()
            if not term:
                continue
            negate = term.startswith("!")
            if negate:
                term = term[1:]
            if term in self._groups:
                names = list(self._groups[term])
            elif term in self._hosts:
                names = [term]
            else:
                raise OrchestrationError(
                    f"pattern term {term!r} matches no host or group"
                )
            if negate:
                excluded.update(names)
            else:
                for name in names:
                    selected.setdefault(name, self._hosts[name])
        return [h for n, h in selected.items() if n not in excluded]
