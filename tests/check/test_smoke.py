"""The ``--perf-smoke`` self-check must catch its own injected slowdown."""

from repro.check.smoke import perf_smoke


def test_perf_smoke_passes_and_summarizes():
    summary = perf_smoke()
    assert summary.startswith("perf smoke ok")
    assert "stable metric clean" in summary


def test_perf_smoke_writes_real_profiles(tmp_path):
    perf_smoke(root=tmp_path)
    assert (tmp_path / "profiles" / "smoke-base.jsonl").is_file()
    assert (tmp_path / "profiles" / "smoke-candidate.jsonl").is_file()
