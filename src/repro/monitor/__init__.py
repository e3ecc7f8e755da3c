"""Observability substrate: metrics, tracing spans, run journals, reports.

Three cooperating layers replace the paper's Nagios/CollectD-style
monitoring stack:

* :mod:`repro.monitor.metrics` — labeled metric samples, per-series
  summaries and export to results tables;
* :mod:`repro.monitor.tracing` — hierarchical spans over pipeline runs,
  feeding the metric store and the journal;
* :mod:`repro.monitor.journal` / :mod:`repro.monitor.report` — the
  per-run append-only JSONL journal and its renderer (``popper trace``).
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "metrics": ("MetricStore", "Sample", "SeriesSummary"),
        "tracing": (
            "SPAN_METRIC",
            "Span",
            "Tracer",
            "NullTracer",
            "activate",
            "current_tracer",
        ),
        "journal": (
            "JOURNAL_FILE",
            "EVENT_KINDS",
            "RunJournal",
            "load_journal",
            "read_journal",
        ),
        "report": (
            "SpanRecord",
            "spans_from_events",
            "stage_table",
            "critical_path",
            "render_report",
        ),
    },
)
