"""The detector suite: batching, UNKNOWN fallbacks, consumer helpers."""

import pytest

from repro.check.detectors import PerformanceChange
from repro.check.suite import DetectorSuite, default_suite
from repro.common.errors import CheckError
from repro.common.rng import derive_rng


def noisy(mean, n=12, label="x"):
    rng = derive_rng(9, "check-suite", label, str(mean))
    return list(mean * (1.0 + 0.03 * rng.standard_normal(n)))


def test_compare_samples_runs_every_detector():
    suite = default_suite()
    verdicts = suite.compare_samples(noisy(10), noisy(13, label="slow"), metric="m")
    assert [v.detector for v in verdicts] == [d.name for d in suite.detectors]
    assert all(v.metric == "m" for v in verdicts)
    assert DetectorSuite.regressed(verdicts)


def test_flat_series_turning_linear_is_firm():
    """A flat stage that starts growing along the run: the drift moves
    the mean by about a quarter, so every detector is certain."""
    suite = default_suite(threshold=0.10)
    baseline = noisy(10, n=16, label="flat")
    eps = noisy(0.001, n=16, label="eps")
    drift = [10.0 + 0.35 * i + e for i, e in enumerate(eps)]
    verdicts = suite.compare_samples(baseline, drift)
    assert [v.detector for v in verdicts if v.regressed] == [
        d.name for d in suite.detectors
    ]


def test_short_samples_become_unknown_not_an_exception():
    verdicts = default_suite().compare_samples([1.0], [2.0], metric="tiny")
    assert all(v.change is PerformanceChange.UNKNOWN for v in verdicts)
    assert all("samples" in v.detail for v in verdicts)


def test_compare_series_covers_shared_and_one_sided_keys():
    suite = default_suite()
    baseline = {"a": noisy(10, label="a0"), "only-base": noisy(5)}
    current = {"a": noisy(10, label="a1"), "only-curr": noisy(5)}
    verdicts = suite.compare_series(baseline, current)
    by_metric = {}
    for v in verdicts:
        by_metric.setdefault(v.metric, []).append(v)
    assert len(by_metric["a"]) == len(suite.detectors)
    (base_only,) = by_metric["only-base"]
    assert base_only.change is PerformanceChange.UNKNOWN
    assert "baseline" in base_only.detail
    (curr_only,) = by_metric["only-curr"]
    assert "current" in curr_only.detail


def test_regressed_helper_needs_a_firm_verdict():
    maybe_only = default_suite().compare_samples(
        noisy(10, label="m0"), noisy(10.7, label="m1")
    )
    assert not DetectorSuite.regressed(
        [v for v in maybe_only if not v.regressed]
    )


def test_to_table_round_trips_verdict_fields():
    verdicts = default_suite().compare_samples(
        noisy(10, label="t0"), noisy(13, label="t1"), metric="m"
    )
    table = DetectorSuite.to_table(verdicts)
    assert table.columns[:3] == ["metric", "detector", "change"]
    assert len(table) == len(verdicts)
    assert {row["change"] for row in table} <= {c.value for c in PerformanceChange}
    text = table.to_text()
    assert text.splitlines()[0].startswith("metric")


def test_suite_construction_validation():
    with pytest.raises(CheckError):
        DetectorSuite([])
    detector = default_suite().detectors[0]
    with pytest.raises(CheckError):
        DetectorSuite([detector, detector])
