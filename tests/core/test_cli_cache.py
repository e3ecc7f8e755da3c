"""CLI-level tests for the artifact cache: memoized sweeps, cache
administration verbs and the CI warm-cache mode."""

import pytest

from repro.core.cli import main
from repro.core.repo import PopperRepository

TORPOR_VARS = "runner: torpor-variability\nruns: 2\nseed: 11\n"


@pytest.fixture
def repo_dir(tmp_path):
    path = tmp_path / "mypaper-repo"
    path.mkdir()
    assert main(["-C", str(path), "init"]) == 0
    return path


def add_torpor(repo_dir, name, vars_text=TORPOR_VARS):
    assert main(["-C", str(repo_dir), "add", "torpor", name]) == 0
    (repo_dir / "experiments" / name / "vars.yml").write_text(vars_text)
    return repo_dir / "experiments" / name


class TestWarmSweep:
    def test_warm_rerun_is_all_cached_and_byte_identical(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        add_torpor(repo_dir, "two")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        results = {
            name: (repo_dir / "experiments" / name / "results.csv").read_bytes()
            for name in ("one", "two")
        }
        capsys.readouterr()

        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        out = capsys.readouterr().out
        # Every experiment line reports a cache hit...
        for name in ("one", "two"):
            assert f"-- {name}:" in out
        assert out.count("(cached)") == 2
        # ...and the materialized artifacts are byte-identical.
        for name, before in results.items():
            path = repo_dir / "experiments" / name / "results.csv"
            assert path.read_bytes() == before

    def test_vars_edit_invalidates_cache(self, repo_dir, capsys):
        exp = add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        (exp / "vars.yml").write_text(
            "runner: torpor-variability\nruns: 3\nseed: 11\n"
        )
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        out = capsys.readouterr().out
        assert "(cached)" not in out
        # The edited experiment now caches under its new fingerprint.
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_postprocess_edit_invalidates_cache(self, repo_dir, capsys):
        exp = add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert (exp / "figure.csv").read_text().startswith("class,")
        (exp / "process-result.py").write_text(
            "def process(results):\n"
            "    return results.aggregate(['stressor'], 'speedup')\n"
        )
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert "(cached)" not in capsys.readouterr().out
        assert (exp / "figure.csv").read_text().startswith("stressor,")
        # The new script's outputs are what the entry now replays.
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert "(cached)" in capsys.readouterr().out
        assert (exp / "figure.csv").read_text().startswith("stressor,")
        # Every hit re-evaluates the validations, so they stay out of
        # the key.
        with (exp / "validations.aver").open("a") as handle:
            handle.write("\n")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_warm_parallelism_is_deterministic(self, repo_dir, capsys):
        """-j1 and -j4 warm runs produce byte-identical artifacts."""
        add_torpor(repo_dir, "one")
        add_torpor(repo_dir, "two")
        assert main(["-C", str(repo_dir), "run", "--all", "-j", "1"]) == 0
        serial = {
            name: (repo_dir / "experiments" / name / "results.csv").read_bytes()
            for name in ("one", "two")
        }
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "run", "--all", "-j", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("(cached)") == 2
        for name, before in serial.items():
            path = repo_dir / "experiments" / name / "results.csv"
            assert path.read_bytes() == before


class TestCacheCheck:
    def test_cache_check_passes_on_deterministic_repo(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all", "--cache-check"]) == 0
        out = capsys.readouterr().out
        assert "cache check: 1/1 experiments served from cache" in out
        assert "results identical" in out

    def test_cache_check_rejects_no_cache(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        assert (
            main(["-C", str(repo_dir), "run", "--all", "--cache-check", "--no-cache"])
            == 2
        )
        assert "cannot be combined" in capsys.readouterr().err


class TestCacheStats:
    def test_stats_after_run(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "-- artifact cache" in out
        assert "-- vcs object pool" in out
        assert "0 quarantined" in out
        assert "records: " in out


class TestCacheVerify:
    def test_clean_repo_verifies(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 0
        assert "-- verify: clean" in capsys.readouterr().out

    def test_corrupt_artifact_quarantined_and_blamed(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        store = PopperRepository.open(repo_dir).artifact_store
        record = store.index.entries()[-1]
        oid = record.outputs[0].oid
        store.cas.object_path(oid).write_bytes(b"bit rot")
        capsys.readouterr()

        assert main(["-C", str(repo_dir), "cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert f"corrupt (quarantined): {oid[:12]}" in out
        assert record.task in out
        assert "-- verify: CORRUPTION FOUND" in out
        assert store.cas.quarantined() == [oid]

        # The damaged entry misses, so the sweep transparently re-runs
        # and repopulates the pool.
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 0

    def test_corrupt_vcs_object_blames_commits(self, repo_dir, capsys):
        add_torpor(repo_dir, "one")
        repo = PopperRepository.open(repo_dir)
        blob = None
        for oid in repo.vcs.store.ids():
            blob = oid
            break
        repo.vcs.store._path(blob).write_bytes(b"garbage")
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "cache", "verify"]) == 1
        out = capsys.readouterr().out
        assert f"corrupt (quarantined): {blob[:12]}" in out
        assert "-- verify: CORRUPTION FOUND" in out


class TestCacheGc:
    def test_gc_never_collects_latest_artifacts(self, repo_dir, capsys):
        exp = add_torpor(repo_dir, "one")
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        # A second fingerprint for the same tasks: edit vars and re-run.
        (exp / "vars.yml").write_text(
            "runner: torpor-variability\nruns: 3\nseed: 11\n"
        )
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        capsys.readouterr()

        assert main(["-C", str(repo_dir), "cache", "gc", "--keep-last", "1"]) == 0
        out = capsys.readouterr().out
        assert "-- gc: kept 1 record(s) per task" in out

        # The latest run is still served entirely from cache after gc.
        capsys.readouterr()
        assert main(["-C", str(repo_dir), "run", "--all"]) == 0
        assert "(cached)" in capsys.readouterr().out
