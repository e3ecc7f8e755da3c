"""Experiment runners: the executable half of every template.

A runner is a callable ``(vars: dict) -> MetricsTable`` registered under
a name that an experiment's ``vars.yml`` selects via its ``runner:``
key.  The four use-case runners drive the paper's experiments end to
end; ``generic-scaling`` is the parameterized synthetic workload behind
the remaining community templates (ceph-rados, cloverleaf, zlog,
spark-standalone, proteustm, malacology), each of which configures a
different resource mix.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import PopperError
from repro.common.rng import SeedSequenceFactory
from repro.common.tables import MetricsTable
from repro.monitor.tracing import current_tracer

__all__ = ["EXPERIMENT_RUNNERS", "register_runner", "run_experiment_runner"]

RunnerFn = Callable[[dict], MetricsTable]

EXPERIMENT_RUNNERS: dict[str, RunnerFn] = {}


def register_runner(name: str, fn: RunnerFn | None = None):
    """Register a runner (usable as a decorator)."""

    def inner(func: RunnerFn) -> RunnerFn:
        if name in EXPERIMENT_RUNNERS:
            raise PopperError(f"runner already registered: {name!r}")
        EXPERIMENT_RUNNERS[name] = func
        return func

    if fn is not None:
        return inner(fn)
    return inner


def run_experiment_runner(name: str, variables: dict) -> MetricsTable:
    """Dispatch to a registered runner (traced as ``runner/<name>``)."""
    fn = EXPERIMENT_RUNNERS.get(name)
    if fn is None:
        raise PopperError(
            f"unknown runner {name!r}; known: {sorted(EXPERIMENT_RUNNERS)}"
        )
    with current_tracer().span(f"runner/{name}") as span:
        table = fn(variables)
        span.attributes["rows"] = len(table)
    return table


# ---------------------------------------------------------------------------
# Use-case runners
# ---------------------------------------------------------------------------

@register_runner("gassyfs-scaling")
def _run_gassyfs(variables: dict) -> MetricsTable:
    from repro.gassyfs.experiment import ScalabilityConfig, run_scalability_experiment
    from repro.gassyfs.workloads import GIT_COMPILE, KERNEL_UNTAR_BUILD, CompileWorkload

    named = {w.name: w for w in (GIT_COMPILE, KERNEL_UNTAR_BUILD)}
    workloads = []
    for name in variables.get("workloads", ["git-compile"]):
        if name not in named:
            raise PopperError(f"unknown gassyfs workload {name!r}")
        workloads.append(named[name])
    scale = float(variables.get("workload_scale", 1.0))
    if scale != 1.0:
        workloads = [
            CompileWorkload(
                name=w.name,
                files=max(1, int(w.files * scale)),
                source_kib=w.source_kib,
                object_kib=w.object_kib,
                compile_ops=w.compile_ops,
                configure_ops=w.configure_ops,
                link_ops=w.link_ops,
            )
            for w in workloads
        ]
    config = ScalabilityConfig(
        node_counts=tuple(variables.get("node_counts", [1, 2, 4, 8])),
        workloads=tuple(workloads),
        sites=tuple(variables.get("sites", ["cloudlab-wisc", "ec2"])),
        placement=variables.get("placement", "round-robin"),
        block_size=int(variables.get("block_size", 1 << 20)),
        seed=int(variables.get("seed", 42)),
    )
    return run_scalability_experiment(config)


@register_runner("torpor-variability")
def _run_torpor(variables: dict) -> MetricsTable:
    from repro.torpor.experiment import run_torpor_experiment

    result = run_torpor_experiment(
        seed=int(variables.get("seed", 42)),
        runs=int(variables.get("runs", 3)),
    )
    return result.speedup_table()


@register_runner("mpi-comm-variability")
def _run_mpi(variables: dict) -> MetricsTable:
    from repro.mpicomm.experiment import run_noise_experiment
    from repro.mpicomm.lulesh import LuleshConfig

    config = LuleshConfig(
        side=int(variables.get("side", 3)),
        iterations=int(variables.get("iterations", 40)),
        elements_per_rank=int(variables.get("elements_per_rank", 27_000)),
    )
    return run_noise_experiment(
        config,
        runs=int(variables.get("runs", 10)),
        seed=int(variables.get("seed", 42)),
    )


@register_runner("bww-airtemp")
def _run_bww(variables: dict) -> MetricsTable:
    from repro.weather.analysis import analyze_air_temperature
    from repro.weather.generator import generate_air_temperature

    air = generate_air_temperature(
        seed=int(variables.get("seed", 42)),
        years=int(variables.get("years", 1)),
        lat_step=float(variables.get("lat_step", 5.0)),
        lon_step=float(variables.get("lon_step", 5.0)),
    )
    return analyze_air_temperature(air).seasonal_zonal


# ---------------------------------------------------------------------------
# The generic synthetic workload behind community templates
# ---------------------------------------------------------------------------

@register_runner("generic-scaling")
def _run_generic(variables: dict) -> MetricsTable:
    """A parallel job with a configurable resource mix, swept over nodes.

    vars: ``serial_ops``, ``parallel_ops``, ``mem_bytes_per_op``,
    ``net_bytes_per_node``, ``storage_bytes``, ``node_counts``,
    ``sites``, ``seed``, ``workload`` (label).
    """
    from repro.platform.perfmodel import KernelDemand, execution_time
    from repro.platform.sites import default_sites

    seed = int(variables.get("seed", 42))
    sites = default_sites(seed)
    seeds = SeedSequenceFactory(seed)
    label = str(variables.get("workload", "synthetic"))
    serial_ops = float(variables.get("serial_ops", 1e9))
    parallel_ops = float(variables.get("parallel_ops", 4e10))
    mem_per_op = float(variables.get("mem_bytes_per_op", 0.2))
    net_per_node = float(variables.get("net_bytes_per_node", 2e8))
    storage_bytes = float(variables.get("storage_bytes", 0.0))
    fp_fraction = float(variables.get("fp_fraction", 0.3))

    table = MetricsTable(["workload", "machine", "nodes", "time"])
    for site_name in variables.get("sites", ["cloudlab-wisc"]):
        if site_name not in sites:
            raise PopperError(f"unknown site {site_name!r}")
        site = sites[site_name]
        for nodes in variables.get("node_counts", [1, 2, 4, 8]):
            nodes = int(nodes)
            with site.allocate(nodes) as allocation:
                rng = seeds.rng("generic", label, site_name, nodes)
                serial_demand = KernelDemand(
                    ops=serial_ops,
                    fp_fraction=fp_fraction,
                    mem_bytes=serial_ops * mem_per_op,
                    working_set_kib=1 << 14,
                )
                share_demand = KernelDemand(
                    ops=parallel_ops / nodes,
                    fp_fraction=fp_fraction,
                    mem_bytes=parallel_ops * mem_per_op / nodes,
                    working_set_kib=1 << 15,
                    storage_read_bytes=storage_bytes / nodes,
                    net_bytes=net_per_node * (nodes - 1) / max(nodes, 1),
                    net_msgs=64.0 * (nodes - 1),
                )
                head = allocation[0]
                serial = head.observed_time(
                    execution_time(serial_demand, head.spec), rng
                )
                per_node = [
                    node.observed_time(
                        execution_time(share_demand, node.spec, threads=node.spec.cores),
                        rng,
                    )
                    for node in allocation
                ]
                table.append(
                    {
                        "workload": label,
                        "machine": site_name,
                        "nodes": nodes,
                        "time": serial + max(per_node),
                    }
                )
    return table
