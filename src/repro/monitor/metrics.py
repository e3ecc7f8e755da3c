"""Metric collection: labeled samples feeding time series.

The paper's convention captures runtime performance metrics during every
experiment run ("many of the graphs included in the article can come
directly from running analysis scripts on top of this data").  A
:class:`MetricStore` plays the *collection* role of a Nagios/CollectD
deployment — an in-process, append-only sample store, not a network
monitoring daemon: experiments emit samples tagged with labels; analysis
pulls them out as :class:`~repro.common.tables.MetricsTable` rows (via
:meth:`MetricStore.to_table`) or as per-series :class:`SeriesSummary`
statistics (via :meth:`MetricStore.summary` / :meth:`MetricStore.summaries`).

Tracing spans (:mod:`repro.monitor.tracing`) feed the same store: every
closed span records a ``popper.span_seconds`` sample, so stage timings
are ordinary series to ``stats`` and ``figures``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.errors import MonitorError
from repro.common.tables import MetricsTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Sample", "SeriesSummary", "MetricStore"]


@dataclass(frozen=True)
class Sample:
    """One observation of one metric."""

    metric: str
    value: float
    timestamp: float
    labels: tuple[tuple[str, str], ...] = ()

    def labels_dict(self) -> dict[str, str]:
        return dict(self.labels)


@dataclass(frozen=True)
class SeriesSummary:
    """Descriptive statistics for one (metric, labels) series."""

    metric: str
    labels: tuple[tuple[str, str], ...]
    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @property
    def cov(self) -> float:
        """Coefficient of variation (std / mean)."""
        return self.std / self.mean if self.mean else float("inf")


def _freeze_labels(labels: dict[str, Any] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricStore:
    """An append-only store of metric samples.

    Recording is lock-protected: one store collects samples from every
    task the execution engine runs, including tasks on worker threads
    (parallel pipeline stages, concurrent experiments), and the logical
    clock must stay monotonic under that concurrency.
    """

    def __init__(self) -> None:
        self._samples: list[Sample] = []
        self._clock = 0.0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._samples)

    # -- recording ---------------------------------------------------------------
    def record(
        self,
        metric: str,
        value: float,
        labels: dict[str, Any] | None = None,
        timestamp: float | None = None,
    ) -> Sample:
        """Append one sample (timestamps are a logical clock if omitted)."""
        if not metric:
            raise MonitorError("metric name required")
        value = float(value)
        if not math.isfinite(value):
            raise MonitorError(f"non-finite sample for {metric!r}: {value}")
        frozen = _freeze_labels(labels)
        with self._lock:
            if timestamp is None:
                self._clock += 1.0
                timestamp = self._clock
            else:
                self._clock = max(self._clock, float(timestamp))
            sample = Sample(
                metric=metric,
                value=value,
                timestamp=float(timestamp),
                labels=frozen,
            )
            self._samples.append(sample)
        return sample

    def timer(self, metric: str, labels: dict[str, Any] | None = None):
        """Context manager measuring wall time into *metric*."""
        store = self

        class _Timer:
            def __enter__(self):
                import time

                self._start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                import time

                store.record(
                    metric, time.perf_counter() - self._start, labels=labels
                )

        return _Timer()

    # -- querying ------------------------------------------------------------------
    def metrics(self) -> list[str]:
        """Distinct metric names, sorted."""
        return sorted({s.metric for s in self._samples})

    def values(
        self, metric: str, labels: dict[str, Any] | None = None
    ) -> np.ndarray:
        """Sample values for a metric (filtered by label subset), in order."""
        import numpy as np

        want = dict(_freeze_labels(labels))
        out = [
            s.value
            for s in self._samples
            if s.metric == metric
            and all(s.labels_dict().get(k) == v for k, v in want.items())
        ]
        return np.asarray(out, dtype=np.float64)

    def summary(
        self, metric: str, labels: dict[str, Any] | None = None
    ) -> SeriesSummary:
        """Descriptive statistics for one series.

        *labels* matches by subset (like :meth:`values`): samples whose
        labels contain every given pair are included.  Use
        :meth:`summaries` for exact per-series grouping.
        """
        import numpy as np

        values = self.values(metric, labels)
        if values.size == 0:
            raise MonitorError(f"no samples for metric {metric!r} with {labels}")
        return SeriesSummary(
            metric=metric,
            labels=_freeze_labels(labels),
            count=int(values.size),
            mean=float(np.mean(values)),
            std=float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
            minimum=float(np.min(values)),
            maximum=float(np.max(values)),
            p50=float(np.percentile(values, 50)),
            p95=float(np.percentile(values, 95)),
        )

    def series(
        self, metric: str | None = None
    ) -> dict[tuple[str, tuple[tuple[str, str], ...]], list[float]]:
        """Raw sample values per distinct ``(metric, labels)`` series.

        The exact-grouping companion to :meth:`summaries` that keeps the
        samples themselves: degradation detection needs whole series,
        not their summaries, so this is what profile harvesting
        (:mod:`repro.check.profiles`) reads.  Keys are sorted (metric
        name, then label tuple); values preserve recording order.
        """
        groups: dict[tuple[str, tuple[tuple[str, str], ...]], list[float]] = {}
        for sample in self._samples:
            if metric is not None and sample.metric != metric:
                continue
            groups.setdefault((sample.metric, sample.labels), []).append(sample.value)
        return dict(sorted(groups.items()))

    def summaries(self, metric: str | None = None) -> list[SeriesSummary]:
        """One :class:`SeriesSummary` per distinct ``(metric, labels)`` series.

        Ordered by metric name then label tuple; restrict to one metric
        name by passing *metric*.  Unlike :meth:`summary` (which matches
        any series containing the given labels), grouping here is exact:
        each sample contributes to exactly one summary.
        """
        import numpy as np

        groups: dict[tuple[str, tuple[tuple[str, str], ...]], list[float]] = {}
        for sample in self._samples:
            if metric is not None and sample.metric != metric:
                continue
            groups.setdefault((sample.metric, sample.labels), []).append(sample.value)
        out: list[SeriesSummary] = []
        for (name, labels), raw in sorted(groups.items()):
            values = np.asarray(raw, dtype=np.float64)
            out.append(
                SeriesSummary(
                    metric=name,
                    labels=labels,
                    count=int(values.size),
                    mean=float(np.mean(values)),
                    std=float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
                    minimum=float(np.min(values)),
                    maximum=float(np.max(values)),
                    p50=float(np.percentile(values, 50)),
                    p95=float(np.percentile(values, 95)),
                )
            )
        return out

    def to_table(self, metric: str | None = None) -> MetricsTable:
        """Export samples as a results table (one row per sample).

        Label keys become columns; this is the bridge from monitoring to
        ``results.csv`` and hence to Aver validation.
        """
        samples = [
            s for s in self._samples if metric is None or s.metric == metric
        ]
        if not samples:
            raise MonitorError(f"no samples to export for {metric!r}")
        label_keys: list[str] = []
        for sample in samples:
            for key, _ in sample.labels:
                if key not in label_keys:
                    label_keys.append(key)
        table = MetricsTable(["metric", "timestamp", *label_keys, "value"])
        for sample in samples:
            row: dict[str, Any] = {
                "metric": sample.metric,
                "timestamp": sample.timestamp,
                "value": sample.value,
            }
            row.update({k: sample.labels_dict().get(k) for k in label_keys})
            table.append(row)
        return table

    def merge(self, other: "MetricStore") -> None:
        """Fold another store's samples into this one (multi-node collection)."""
        with other._lock:
            samples = list(other._samples)
        with self._lock:
            self._samples.extend(samples)
            if samples:
                self._clock = max(
                    self._clock, max(s.timestamp for s in samples)
                )
