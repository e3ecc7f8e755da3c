#!/usr/bin/env python3
"""Automated validation in CI: integrity checks plus regression detection.

Builds a Popperized repository, wires it to the CI substrate (TravisCI
stand-in) so every commit runs ``popper check`` and the Aver assertions,
then attaches per-commit performance profiles and runs the detector
suite CI uses, which flags a bad configuration change while passing a
benign one.

Run with::

    python examples/ci_regression.py
"""

import tempfile
from pathlib import Path

from repro.check import Profile, ProfileHistory, default_suite
from repro.common.fsutil import write_text
from repro.common.rng import SeedSequenceFactory
from repro.core import ExperimentPipeline, PopperRepository
from repro.core.ci_integration import make_ci_server
from repro.gassyfs.experiment import ScalabilityConfig, run_point
from repro.gassyfs.workloads import CompileWorkload
from repro.platform.sites import default_sites

FAST_VARS = (
    "runner: gassyfs-scaling\n"
    "node_counts: [1, 2, 4]\n"
    "sites: [cloudlab-wisc]\n"
    "workload_scale: 0.1\n"
    "seed: 7\n"
)


def sample_runtime(block_size: int, seeds: list[int]) -> list[float]:
    workload = CompileWorkload(
        name="probe", files=40, source_kib=256, object_kib=256,
        compile_ops=3e8, configure_ops=5e8, link_ops=1e9,
    )
    out = []
    for seed in seeds:
        config = ScalabilityConfig(
            node_counts=(4,), sites=("cloudlab-wisc",),
            workloads=(workload,), block_size=block_size, seed=seed,
        )
        site = default_sites(seed)["cloudlab-wisc"]
        out.append(run_point(site, 4, workload, config, SeedSequenceFactory(seed)))
    return out


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="popper-ci-"))
    repo = PopperRepository.init(workdir / "paper-repo")
    repo.add_experiment("gassyfs", "exp1")
    write_text(repo.experiment_dir("exp1") / "vars.yml", FAST_VARS)
    repo.vcs.add_all()
    repo.vcs.commit("shrink for demo")

    print("Author runs the experiment locally and commits results...")
    ExperimentPipeline(repo, "exp1").run()
    repo.vcs.add_all()
    repo.vcs.commit("experiment results")

    print("CI validates the commit (popper check + re-validation):")
    server = make_ci_server(repo)
    record = server.trigger()
    print(f"  build #{record.number}: {record.status.value} -> {server.badge()}\n")

    print("Author over-claims (superlinear scaling!) and commits...")
    write_text(
        repo.experiment_dir("exp1") / "validations.aver",
        "when workload=* and machine=*\nexpect superlinear(nodes, time)\n",
    )
    repo.vcs.add_all()
    repo.vcs.commit("overclaim scaling behaviour")
    record = server.trigger()
    print(f"  build #{record.number}: {record.status.value} -> {server.badge()}")
    print("  CI caught the claim the data cannot support.\n")

    print("Degradation detectors over synthetic commits:")
    metric = "gassyfs.probe.4nodes"
    history = ProfileHistory(workdir / "perf")
    history.attach(
        Profile("baseline-a", {metric: sample_runtime(1 << 20, [11, 12, 13, 14])})
    )
    history.attach(
        Profile("baseline-b", {metric: sample_runtime(1 << 20, [21, 22, 23, 24])})
    )
    baseline = history.baseline_for(["baseline-a", "baseline-b"]).series[metric]
    suite = default_suite()
    for commit, block_size, seeds in (
        ("harmless-change", 1 << 20, [31, 32, 33, 34]),
        ("shrink-block-to-4KiB", 1 << 12, [41, 42, 43, 44]),
    ):
        print(f"  {commit}:")
        candidate = sample_runtime(block_size, seeds)
        for verdict in suite.compare_samples(baseline, candidate, metric=metric):
            print(f"    {verdict}")
    print(
        "\nthe baseline pools both profiled commits.  Every detector calls"
        "\nthe same-config commit no-change; the 4 KiB blocks draw a firm"
        "\ndegradation from exclusive-time-outliers and maybe-degradations"
        "\nfrom the rest.  popper ci prints these verdicts as advice: they"
        "\nnever fail the build."
    )


if __name__ == "__main__":
    main()
