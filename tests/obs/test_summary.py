"""Run summary: runtime formatting, aggregation, stage breakdown, and
the run report's stage table and slowest-span list built from them."""

import pytest

from repro.obs import (
    RunRecord,
    RunSummary,
    Span,
    aggregate_spans,
    format_runtime,
    render_record,
    slowest_rows,
    slowest_spans,
    stage_breakdown,
    stage_rows,
)


def make_span(name, start, end, span_id, parent_id=None, **attrs):
    return Span(name=name, start=start, end=end, span_id=span_id,
                parent_id=parent_id, attrs=attrs)


@pytest.fixture
def trace():
    """root(0..10) -> stage_a.work(1..4), stage_b.work(4..9)
    with stage_a.work containing stage_a.inner(2..3)."""
    return [
        make_span("stage_a.inner", 2.0, 3.0, 3, parent_id=2),
        make_span("stage_a.work", 1.0, 4.0, 2, parent_id=1),
        make_span("stage_b.work", 4.0, 9.0, 4, parent_id=1,
                  scenario="2017_7"),
        make_span("experiment.run", 0.0, 10.0, 1),
    ]


class TestFormatRuntime:
    @pytest.mark.parametrize("seconds,expected", [
        (0.0, "0ms"),
        (0.0004, "0ms"),
        (0.412, "412ms"),
        (0.9994, "999ms"),
        (1.0, "1.00s"),
        (3.456, "3.46s"),
        (48.12, "48.1s"),
        (65.0, "1m 05s"),
        (725.4, "12m 05s"),
    ])
    def test_rendering(self, seconds, expected):
        assert format_runtime(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_runtime(-1.0)

    def test_sub_second_not_rendered_as_zero_seconds(self):
        # the old ":.0f" formatting printed "0s" for any fast run
        assert format_runtime(0.5) != "0s"


class TestAggregateSpans:
    def test_totals_and_self_time(self, trace):
        stats = aggregate_spans(trace)
        assert stats["experiment.run"]["total_s"] == pytest.approx(10.0)
        # root self-time excludes its two direct children (3s + 5s)
        assert stats["experiment.run"]["self_s"] == pytest.approx(2.0)
        assert stats["stage_a.work"]["self_s"] == pytest.approx(2.0)
        assert stats["stage_a.inner"]["self_s"] == pytest.approx(1.0)

    def test_self_time_sums_to_total(self, trace):
        stats = aggregate_spans(trace)
        assert sum(e["self_s"] for e in stats.values()) == (
            pytest.approx(10.0)
        )

    def test_sorted_by_total_descending(self, trace):
        names = list(aggregate_spans(trace))
        assert names[0] == "experiment.run"

    def test_counts_and_mean(self):
        spans = [
            make_span("x.a", 0.0, 1.0, 1),
            make_span("x.a", 1.0, 4.0, 2),
        ]
        stats = aggregate_spans(spans)
        assert stats["x.a"]["count"] == 2
        assert stats["x.a"]["mean_s"] == pytest.approx(2.0)
        assert stats["x.a"]["max_s"] == pytest.approx(3.0)

    def test_self_time_subtracts_union_of_overlapping_children(self):
        # Two worker spans absorbed under one root overlap in
        # wall-clock: they cover [0, 3.5] of the root's [0, 4], so the
        # root keeps 0.5 s of its own (a sum of durations reads 0).
        spans = [
            make_span("pipeline.scenario", 0.0, 3.0, 2, parent_id=1),
            make_span("pipeline.scenario", 0.5, 3.5, 3, parent_id=1),
            make_span("experiment.run", 0.0, 4.0, 1),
        ]
        stats = aggregate_spans(spans)
        assert stats["experiment.run"]["self_s"] == pytest.approx(0.5)
        assert stats["pipeline.scenario"]["self_s"] == pytest.approx(6.0)

    def test_children_clipped_to_parent(self):
        spans = [
            make_span("x.child", 3.0, 6.0, 2, parent_id=1),
            make_span("x.root", 0.0, 4.0, 1),
        ]
        stats = aggregate_spans(spans)
        assert stats["x.root"]["self_s"] == pytest.approx(3.0)


class TestStageBreakdown:
    def test_groups_by_prefix_in_start_order(self, trace):
        breakdown = stage_breakdown(trace)
        assert list(breakdown) == ["experiment", "stage_a", "stage_b"]
        assert breakdown["stage_a"] == pytest.approx(3.0)
        assert breakdown["stage_b"] == pytest.approx(5.0)


class TestSlowest:
    def test_orders_by_duration(self, trace):
        slowest = slowest_spans(trace, 2)
        assert [s.name for s in slowest] == [
            "experiment.run", "stage_b.work",
        ]

    def test_n_validated(self, trace):
        with pytest.raises(ValueError):
            slowest_spans(trace, 0)

    def test_format_includes_attrs(self, trace):
        record = RunRecord(kind="run", slowest=slowest_rows(trace, 3))
        text = render_record(record)
        assert "slowest 3 spans:" in text
        assert "stage_b.work scenario=2017_7" in text


class TestRenderings:
    def test_stage_table_contains_all_names(self, trace):
        text = render_record(RunRecord(kind="run",
                                       stages=stage_rows(trace)))
        for name in ("experiment.run", "stage_a.work",
                     "stage_a.inner", "stage_b.work"):
            assert name in text
        header = next(line for line in text.splitlines()
                      if line.startswith("stage "))
        # the markdown pipe table shared with the run report
        assert [cell.strip() for cell in header.split("|")] == ["stage", "count", "total", "self",
                                  "mean", "max"]

    def test_stage_table_empty_trace(self):
        record = RunRecord(kind="run", stages=stage_rows([]),
                           slowest=slowest_rows([]))
        text = render_record(record)
        assert "stage " not in text and "slowest" not in text


class TestRunSummary:
    """RunSummary is plain data; the views are the span aggregations."""

    def test_total_seconds_from_root(self, trace):
        roots = [s for s in RunSummary(spans=trace).spans
                 if s.parent_id is None]
        assert [s.duration for s in roots] == [pytest.approx(10.0)]

    def test_total_seconds_without_root(self):
        spans = [make_span("a.x", 1.0, 2.0, 1, parent_id=99)]
        assert stage_breakdown(RunSummary(spans=spans).spans) == {
            "a": pytest.approx(1.0)
        }

    def test_empty_summary(self):
        summary = RunSummary()
        assert summary.spans == [] and summary.metrics == {}
        assert stage_breakdown(summary.spans) == {}
        assert stage_rows(summary.spans) == {}

    def test_to_dict_json_ready(self, trace):
        import json

        summary = RunSummary(
            spans=trace, metrics={"counters": {"c": 1}},
        )
        # What a ledger record persists of a summary.
        payload = json.loads(json.dumps({
            "stages": stage_rows(summary.spans),
            "breakdown": stage_breakdown(summary.spans),
            "metrics": summary.metrics,
        }))
        assert payload["stages"]["experiment.run"]["total_s"] == (
            pytest.approx(10.0)
        )
        assert payload["metrics"]["counters"] == {"c": 1}
