"""Integration: automated performance-regression testing over commits.

The paper argues experiments should be continuously re-executed and
their performance gated statistically.  Here a GassyFS configuration
change (shrinking the block size 16x, multiplying per-block message
overhead) plays the role of a bad commit; the detector suite must flag
it while waving identical-config commits through.
"""

import pytest

from repro.check import DetectorSuite, Profile, ProfileHistory, default_suite
from repro.common.fsutil import write_text
from repro.common.rng import SeedSequenceFactory
from repro.core.pipeline import ExperimentPipeline
from repro.core.repo import PopperRepository
from repro.gassyfs.experiment import ScalabilityConfig, run_point
from repro.gassyfs.workloads import CompileWorkload
from repro.platform.sites import default_sites


def _samples(block_size: int, seeds: list[int], nodes: int = 4) -> list[float]:
    workload = CompileWorkload(
        name="probe", files=40, source_kib=256, object_kib=256,
        compile_ops=3e8, configure_ops=5e8, link_ops=1e9,
    )
    out = []
    for seed in seeds:
        sites = default_sites(seed)
        config = ScalabilityConfig(
            node_counts=(nodes,), sites=("cloudlab-wisc",),
            workloads=(workload,), block_size=block_size, seed=seed,
        )
        out.append(
            run_point(
                sites["cloudlab-wisc"], nodes, workload, config,
                SeedSequenceFactory(seed),
            )
        )
    return out


class TestRegressionOverCommits:
    def test_config_regression_flagged(self, tmp_path):
        metric = "gassyfs.git-compile.4nodes"
        history = ProfileHistory(tmp_path)
        for i, seed in enumerate(((11, 12, 13, 14), (21, 22, 23, 24))):
            history.attach(
                Profile(f"good-{i}", {metric: _samples(1 << 20, list(seed))})
            )
        baseline = history.baseline_for(["good-0", "good-1"]).series[metric]
        suite = default_suite()
        same = suite.compare_samples(baseline, _samples(1 << 20, [31, 32, 33, 34]))
        assert not DetectorSuite.regressed(same)
        bad = suite.compare_samples(baseline, _samples(1 << 12, [41, 42, 43, 44]))
        assert DetectorSuite.regressed(bad)


class TestPipelineDeterminismAcrossRuns:
    def test_same_commit_same_results(self, tmp_path):
        """Re-running the pipeline from the same committed tree yields
        identical results — the property that makes regression
        comparisons about the *code*, not the harness."""
        repo = PopperRepository.init(tmp_path / "r")
        repo.add_experiment("torpor", "t")
        write_text(
            repo.experiment_dir("t") / "vars.yml",
            "runner: torpor-variability\nruns: 2\nseed: 99\n",
        )
        first = ExperimentPipeline(repo, "t").run()
        second = ExperimentPipeline(repo, "t").run()
        assert first.results == second.results
