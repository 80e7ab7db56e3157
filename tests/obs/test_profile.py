"""Resource-measuring spans: measurement, merge, and report columns.

The contract under test: :func:`repro.obs.profiled_span` always
annotates its span attrs with CPU/max-RSS/GC measurements, rides the
existing worker-merge machinery unchanged (attrs are ordinary span
data), and surfaces as ``cpu`` / ``max-rss`` columns in the ledger's
run report — only for the stages whose spans were measured.
"""

import gc

from repro.obs import (
    PROFILE_ATTRS,
    RunRecord,
    Tracer,
    aggregate_spans,
    profiled_span,
    render_record,
    span,
    stage_rows,
    use_tracer,
)
from repro.parallel import ParallelMap


class TestProfiledSpan:
    def test_enabled_span_carries_every_profile_attr(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with profiled_span("stage.alloc", scenario="x"):
                blob = [float(i) for i in range(100_000)]
                del blob
        record = tracer.spans[0]
        assert set(PROFILE_ATTRS) == {"cpu_s", "max_rss_kb",
                                      "gc_collections"}
        for attr in PROFILE_ATTRS:
            assert attr in record.attrs, attr
        assert record.attrs["cpu_s"] >= 0.0
        assert record.attrs["max_rss_kb"] > 0
        # Ordinary attrs still ride along.
        assert record.attrs["scenario"] == "x"

    def test_disabled_span_carries_no_profile_attrs(self):
        # Only profiled spans are measured; a plain span stays bare, so
        # the report's resource columns read "-" for its stage.
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.plain"):
                pass
        assert not any(
            attr in tracer.spans[0].attrs for attr in PROFILE_ATTRS
        )

    def test_gc_passes_inside_the_span_are_counted(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with profiled_span("stage.collect"):
                gc.collect()
        assert tracer.spans[0].attrs["gc_collections"] >= 1


def _profiled_work(item):
    with profiled_span("worker.unit", item=item):
        blob = [float(i) for i in range(50_000)]
        del blob
    return item * 2


class TestWorkerMerge:
    def test_profile_attrs_merge_back_from_process_workers(self):
        tracer = Tracer()
        with use_tracer(tracer):
            results = ParallelMap(2).map(_profiled_work, [1, 2, 3])
        assert results == [2, 4, 6]
        units = [s for s in tracer.spans if s.name == "worker.unit"]
        assert len(units) == 3
        for record in units:
            assert record.attrs["max_rss_kb"] > 0
            assert "cpu_s" in record.attrs


class TestSummaryColumns:
    def test_aggregates_include_profile_columns_when_present(self):
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(2):
                with profiled_span("stage.a"):
                    blob = [float(i) for i in range(30_000)]
                    del blob
        stats = aggregate_spans(tracer.spans)["stage.a"]
        assert stats["count"] == 2
        assert stats["max_rss_kb"] > 0       # max across spans
        assert stats["cpu_s"] >= 0.0         # summed across spans
        assert "gc_collections" in stats

    def test_unprofiled_aggregates_keep_historical_keys(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("stage.a"):
                pass
        stats = aggregate_spans(tracer.spans)["stage.a"]
        assert set(stats) == {"count", "total_s", "self_s", "max_s",
                              "mean_s"}

    def test_stage_table_grows_columns_only_when_profiled(self):
        def report(make_span):
            tracer = Tracer()
            with use_tracer(tracer):
                with make_span("stage.a"):
                    pass
            record = RunRecord(kind="run", stages=stage_rows(tracer.spans))
            return render_record(record).splitlines()

        header = next(line for line in report(span)
                      if line.startswith("stage "))
        assert "cpu" not in header and "max-rss" not in header
        header = next(line for line in report(profiled_span)
                      if line.startswith("stage "))
        assert "cpu" in header and "max-rss" in header
