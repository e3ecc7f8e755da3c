"""Playbooks: declarative multi-host experiment orchestration.

A playbook is a list of plays; a play targets a host pattern and runs an
ordered task list.  Execution fans out across hosts through the shared
execution engine (:mod:`repro.engine`): each task becomes a flat
:class:`~repro.engine.TaskGraph` with one node per alive host, run by a
:class:`~repro.engine.SerialScheduler`, host after host (the simulated
hosts neither sleep nor do I/O, so threads only added overhead).  Tasks
stay in lockstep, like Ansible's linear strategy: task *i* completes on
every host before task *i+1* starts, which is what experiment phases
(install → configure → run → collect) require.

YAML shape (the subset the Popper templates use)::

    - name: provision
      hosts: all
      vars: {gassyfs_nodes: 4}
      tasks:
        - name: install deps
          package: {name: [gasnet, gassyfs]}
        - name: run experiment
          command: {cmd: "gassyfs-mount /mnt"}
          register: mount_result
          when: inventory_hostname == 'node0'
        - name: record
          copy: {dest: /results.csv, content: "{{ mount_result.stdout }}"}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common import minyaml
from repro.common.errors import OrchestrationError, TransientError
from repro.engine import SerialScheduler, TaskGraph
from repro.monitor.tracing import current_tracer
from repro.orchestration.inventory import Host, Inventory
from repro.orchestration.modules import MODULES, TaskResult, run_module
from repro.orchestration.templating import evaluate, render_value

__all__ = ["Task", "Play", "Playbook", "PlaybookRunner", "HostStats", "PlayRecap"]

_TASK_KEYWORDS = {"name", "register", "when", "loop", "ignore_errors", "retries"}


@dataclass
class Task:
    """One task: a module invocation plus control keywords."""

    module: str
    args: dict[str, Any]
    name: str = ""
    register: str | None = None
    when: str | None = None
    loop: list[Any] | str | None = None
    ignore_errors: bool = False
    retries: int = 0

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Task":
        module_keys = [k for k in doc if k not in _TASK_KEYWORDS]
        if len(module_keys) != 1:
            raise OrchestrationError(
                f"task must name exactly one module, got {module_keys}: {doc}"
            )
        module = module_keys[0]
        if module not in MODULES:
            raise OrchestrationError(f"unknown module in task: {module!r}")
        raw_args = doc[module]
        if raw_args is None:
            args: dict[str, Any] = {}
        elif isinstance(raw_args, str):
            # `command: echo hi` shorthand
            args = {"cmd": raw_args} if module in ("command", "shell") else {"_raw": raw_args}
        elif isinstance(raw_args, dict):
            args = dict(raw_args)
        else:
            raise OrchestrationError(f"bad module args for {module!r}: {raw_args!r}")
        return cls(
            module=module,
            args=args,
            name=doc.get("name", module),
            register=doc.get("register"),
            when=doc.get("when"),
            loop=doc.get("loop"),
            ignore_errors=bool(doc.get("ignore_errors", False)),
            retries=int(doc.get("retries", 0)),
        )


@dataclass
class Play:
    """One play: a host pattern, play vars and a task list."""

    hosts: str
    tasks: list[Task]
    name: str = ""
    vars: dict[str, Any] = field(default_factory=dict)
    gather_facts: bool = True

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Play":
        if "hosts" not in doc:
            raise OrchestrationError(f"play missing 'hosts': {doc}")
        tasks = [Task.from_dict(t) for t in doc.get("tasks") or []]
        return cls(
            hosts=str(doc["hosts"]),
            tasks=tasks,
            name=doc.get("name", ""),
            vars=doc.get("vars") or {},
            gather_facts=bool(doc.get("gather_facts", True)),
        )


@dataclass
class Playbook:
    """An ordered list of plays."""

    plays: list[Play]

    @classmethod
    def from_yaml(cls, text: str) -> "Playbook":
        doc = minyaml.loads(text)
        if not isinstance(doc, list):
            raise OrchestrationError("playbook document must be a list of plays")
        return cls(plays=[Play.from_dict(p) for p in doc])


@dataclass
class HostStats:
    """Per-host recap counters (the ``PLAY RECAP`` line)."""

    ok: int = 0
    changed: int = 0
    failed: int = 0
    skipped: int = 0
    #: Operations lost to the host being unreachable (transient faults).
    unreachable: int = 0

    @property
    def healthy(self) -> bool:
        return self.failed == 0


@dataclass
class PlayRecap:
    """Result of a playbook run."""

    stats: dict[str, HostStats]
    task_results: list[tuple[str, str, TaskResult]]  # (task name, host, result)

    @property
    def ok(self) -> bool:
        return all(s.healthy for s in self.stats.values())

    def results_for(self, task_name: str) -> dict[str, TaskResult]:
        return {
            host: result
            for name, host, result in self.task_results
            if name == task_name
        }


class PlaybookRunner:
    """Executes playbooks against an inventory."""

    def __init__(
        self,
        inventory: Inventory,
        extra_vars: dict[str, Any] | None = None,
    ) -> None:
        self.inventory = inventory
        self.extra_vars = dict(extra_vars or {})

    def run(self, playbook: Playbook) -> PlayRecap:
        """Run every play; stops a host's participation at its first
        unignored failure (remaining tasks count as skipped).

        An unreachable host fails its task like any other failure; one
        that is unreachable while gathering facts raises.
        """
        stats: dict[str, HostStats] = {}
        task_log: list[tuple[str, str, TaskResult]] = []
        for play in playbook.plays:
            hosts = self.inventory.match(play.hosts)
            if not hosts:
                raise OrchestrationError(
                    f"play {play.name!r} matched no hosts ({play.hosts!r})"
                )
            host_vars: dict[str, dict[str, Any]] = {}
            for host in hosts:
                stats.setdefault(host.name, HostStats())
                merged = dict(self.extra_vars)
                merged.update(self.inventory.effective_vars(host))
                merged.update(play.vars)
                merged.update(self.extra_vars)  # extra vars win overall
                if play.gather_facts and host.connection is not None:
                    merged["facts"] = host.connection.facts()
                host_vars[host.name] = merged

            dead: set[str] = set()
            for task in play.tasks:
                alive = [h for h in hosts if h.name not in dead]
                if not alive:
                    break
                # One span per task across its host fan-out (tasks run in
                # lockstep, so the span's wall time is the barrier time).
                with current_tracer().span(
                    f"playbook/task/{task.name or task.module}",
                    module=task.module,
                    play=play.name,
                    hosts=len(alive),
                ) as task_span:
                    graph = TaskGraph()
                    for host in alive:
                        graph.add(
                            f"host/{host.name}",
                            (
                                lambda h: lambda ctx: self._run_task_on_host(
                                    task, h, host_vars[h.name]
                                )
                            )(host),
                        )
                    fanout = SerialScheduler().run(graph)
                    # _run_task_on_host reports failures as TaskResults;
                    # an exception here is a runner bug, not a host fault.
                    fanout.raise_first_error()
                    failed_hosts = 0
                    for host in alive:
                        result = fanout.value(f"host/{host.name}")
                        task_log.append((task.name, host.name, result))
                        host_stats = stats[host.name]
                        if result.skipped:
                            host_stats.skipped += 1
                            continue
                        if result.failed and not task.ignore_errors:
                            if result.unreachable:
                                host_stats.unreachable += 1
                            host_stats.failed += 1
                            failed_hosts += 1
                            dead.add(host.name)
                            continue
                        host_stats.ok += 1
                        if result.changed:
                            host_stats.changed += 1
                        if task.register:
                            host_vars[host.name][task.register] = {
                                "failed": result.failed,
                                "changed": result.changed,
                                "msg": result.msg,
                                **result.data,
                            }
                        if task.module == "set_fact":
                            host_vars[host.name].update(result.data)
                    task_span.attributes["failed_hosts"] = failed_hosts
        return PlayRecap(stats=stats, task_results=task_log)

    def _run_task_on_host(
        self, task: Task, host: Host, variables: dict[str, Any]
    ) -> TaskResult:
        if task.when is not None:
            try:
                condition = evaluate(task.when, variables)
            except OrchestrationError as exc:
                return TaskResult(failed=True, msg=f"when: {exc}")
            if not condition:
                return TaskResult(skipped=True)

        loop_items: list[Any] | None = None
        if task.loop is not None:
            rendered_loop = render_value(task.loop, variables)
            if not isinstance(rendered_loop, list):
                return TaskResult(
                    failed=True, msg=f"loop did not render to a list: {task.loop!r}"
                )
            loop_items = rendered_loop

        if host.connection is None:
            return TaskResult(failed=True, msg=f"{host.name}: no connection")

        def one(item: Any | None) -> TaskResult:
            local_vars = dict(variables)
            if item is not None:
                local_vars["item"] = item
            try:
                args = render_value(task.args, local_vars)
                if task.module == "assert":
                    # assertions evaluate their conditions as expressions
                    raw = task.args.get("that", [])
                    raw_list = raw if isinstance(raw, list) else [raw]
                    args = dict(args)
                    args["that"] = [evaluate(str(c), local_vars) for c in raw_list]
                return run_module(task.module, host.connection, args)
            except TransientError as exc:
                # The host, not the module, failed: the recap counts it
                # as unreachable.
                return TaskResult(failed=True, unreachable=True, msg=str(exc))
            except OrchestrationError as exc:
                return TaskResult(failed=True, msg=str(exc))

        def with_retries(item: Any | None) -> TaskResult:
            result = one(item)
            retries_used = 0
            while result.failed and retries_used < task.retries:
                retries_used += 1
                result = one(item)
            return result

        if loop_items is None:
            return with_retries(None)

        merged = TaskResult()
        results = []
        for item in loop_items:
            result = with_retries(item)
            results.append(result)
            merged.changed = merged.changed or result.changed
            if result.failed:
                merged.failed = True
                merged.msg = result.msg
                break
        merged.data["results"] = [
            {"failed": r.failed, "changed": r.changed, **r.data} for r in results
        ]
        return merged
