"""Observability substrate: logging, tracing, metrics, ledger, bench gate.

``repro.obs`` is the zero-dependency (stdlib-only) telemetry layer the
experiment pipeline reports through:

* :mod:`repro.obs.log` — a ``get_logger(name)`` facade over the stdlib
  ``logging`` module emitting ``key=value`` (or JSON) structured lines,
  configured via :func:`configure_logging`, ``REPRO_LOG_LEVEL`` /
  ``REPRO_LOG_JSON``, or the CLI ``--log-level`` / ``--log-json`` flags.
* :mod:`repro.obs.trace` — nested wall-time spans with an injectable
  clock and thread-safe collection.  The pipeline wraps every stage
  (dataset synthesis, scenario construction, FRA iterations, SHAP,
  improvement studies) in spans.
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms with ``snapshot()`` summaries and lossless
  ``dump()``/``merge()`` exchange.
* :mod:`repro.obs.profile` — :func:`profiled_span`, a span that also
  records ``getrusage`` CPU time and max-RSS and the GC passes inside
  it, riding ordinary span attrs (the run root and each scenario).
* :mod:`repro.obs.summary` — :class:`RunSummary`, the per-run bundle of
  spans + metrics (plain data) attached to
  ``ExperimentResults.run_summary``, and the span aggregations the
  ledger persists.
* :mod:`repro.obs.ledger` — :class:`RunLedger`, the append-only JSONL
  record every run/update/chaos/bench invocation appends to;
  :func:`build_record`, the one place a run becomes a record; query and
  compare helpers behind ``repro report`` — the one run report: stage
  table, slowest spans and counters.
* :mod:`repro.obs.bench` — the perf-regression gate comparing fresh
  ``BENCH_*.json`` artefacts to committed baselines
  (``repro bench check``).

Quick tour::

    from repro.obs import (Tracer, aggregate_spans, current_metrics,
                           span, use_tracer)

    tracer = Tracer()
    with use_tracer(tracer):
        with span("stage.work", scenario="2017_7"):
            current_metrics().counter("work.items").inc()
    stats = aggregate_spans(tracer.spans)   # per-name count, total, self
"""

from .bench import (
    BenchDelta,
    check_bench_dirs,
    compare_benchmarks,
    load_bench,
    load_bench_dir,
    render_bench_check,
)
from .ledger import (
    RunLedger,
    RunRecord,
    build_record,
    compare_records,
    git_describe,
    host_info,
    render_compare,
    render_history,
    render_record,
    slowest_rows,
    stage_rows,
    stage_table,
)
from .log import (
    JsonFormatter,
    KeyValueFormatter,
    StructuredLogger,
    configure_logging,
    get_logger,
    logging_configured,
    reset_logging,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_metrics,
    percentile_of,
    set_current_metrics,
    use_metrics,
)
from .profile import PROFILE_ATTRS, profiled_span
from .summary import (
    RunSummary,
    aggregate_spans,
    format_memory,
    format_runtime,
    slowest_spans,
)
from .trace import (
    Span,
    Tracer,
    current_tracer,
    event,
    set_current_tracer,
    span,
    use_tracer,
)

__all__ = [
    "BenchDelta",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "KeyValueFormatter",
    "MetricsRegistry",
    "PROFILE_ATTRS",
    "RunLedger",
    "RunRecord",
    "RunSummary",
    "Span",
    "StructuredLogger",
    "Tracer",
    "aggregate_spans",
    "build_record",
    "check_bench_dirs",
    "compare_benchmarks",
    "compare_records",
    "configure_logging",
    "current_metrics",
    "current_tracer",
    "event",
    "format_memory",
    "format_runtime",
    "get_logger",
    "git_describe",
    "host_info",
    "load_bench",
    "load_bench_dir",
    "logging_configured",
    "percentile_of",
    "profiled_span",
    "render_bench_check",
    "render_compare",
    "render_history",
    "render_record",
    "reset_logging",
    "set_current_metrics",
    "set_current_tracer",
    "slowest_rows",
    "slowest_spans",
    "span",
    "stage_rows",
    "stage_table",
    "use_metrics",
    "use_tracer",
]
