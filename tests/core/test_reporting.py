"""Unit tests for the table renderers and the run report."""

import re
from dataclasses import replace

from repro.categories import DataCategory
from repro.core.pipeline import ScenarioFailure
from repro.core.reporting import (
    format_table,
    render_contributions,
    render_improvement_by_category,
    render_improvement_by_window,
    render_report,
    render_series,
    render_table1,
    render_top_features,
    render_unique_features,
)
from repro.obs import RunSummary
from repro.resilience import DegradationReport

DELIMITER = re.compile(r"^-+(\|-+)*$")


def _tables(doc: str) -> list[list[str]]:
    """Every pipe table of ``doc``: header, delimiter and body lines."""
    lines = doc.splitlines()
    tables = []
    for i, line in enumerate(lines):
        if "|" in line and set(line) <= {"-", "|"}:
            assert i >= 2 and lines[i - 2] == "", "table must start a block"
            body = []
            for row in lines[i + 1:]:
                if not row:
                    break
                body.append(row)
            tables.append([lines[i - 1], line] + body)
    return tables


def _assert_valid_tables(doc: str) -> int:
    tables = _tables(doc)
    for header, delimiter, *rows in tables:
        assert DELIMITER.match(delimiter), delimiter
        for line in [delimiter] + rows:
            assert line.count("|") == header.count("|"), line
    return len(tables)


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        out = format_table(["x"], [["1"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_non_string_cells(self):
        out = format_table(["n"], [[42], [3.5]])
        assert "42" in out and "3.5" in out

    def test_markdown_pipe_table(self):
        out = format_table(["a", "bbb"], [["1", "2"]], title="T")
        assert out.splitlines() == ["T", "", "a | bbb", "--|----",
                                    "1 | 2  "]


class TestRenderers:
    def test_table1(self):
        out = render_table1({"2017_1": 79, "2019_180": 90})
        assert "2017_1" in out and "79" in out
        assert "Table 1" in out

    def test_contributions_label_and_values(self):
        per_window = {
            7: {DataCategory.TECHNICAL: 0.5},
            90: {DataCategory.TECHNICAL: 0.25,
                 DataCategory.MACRO: 0.125},
        }
        out = render_contributions(per_window, "2017")
        assert "Figure 3" in out
        assert "Technical Indicators" in out
        assert "0.500" in out and "0.250" in out
        assert "Macroeconomic Indicators" in out
        # macro absent at w=7 renders as 0.000
        assert "0.000" in out

    def test_contributions_figure4_for_2019(self):
        out = render_contributions({7: {}}, "2019")
        assert "Figure 4" in out

    def test_top_features_uneven_columns(self):
        out = render_top_features(
            {"Short-term": ["a", "b", "c"], "Long-term": ["x"]}, "2017"
        )
        assert "Table 3" in out
        assert out.count("\n") >= 4

    def test_unique_features(self):
        out = render_unique_features(
            {"Short-term": ["s1"], "Long-term": ["l1", "l2"]}, "2019"
        )
        assert "Table 4" in out and "l2" in out

    def test_improvement_by_window(self):
        out = render_improvement_by_window(
            {"2017": {1: 855.87, 7: 189.08}, "2019": {1: 794.71}}
        )
        assert "855.87%" in out
        assert "-" in out  # missing cell for 2019 w=7

    def test_improvement_by_category(self):
        out = render_improvement_by_category(
            {"2017": {DataCategory.ONCHAIN_BTC: 12.09},
             "2019": {DataCategory.ONCHAIN_BTC: 17.51,
                      DataCategory.ONCHAIN_USDC: 378.52}}
        )
        assert "12.09%" in out and "378.52%" in out
        assert "On-chain Metrics (USDC)" in out

    def test_series(self):
        out = render_series("crypto100", [1.0, 2.0, 3.0, 4.0])
        assert "n=4" in out and "first=1" in out and "last=4" in out

    def test_series_empty(self):
        assert "(empty)" in render_series("x", [])


class TestRenderReport:
    def test_contains_all_sections(self, results):
        doc = render_report(results)
        for heading in (
            "Reproduction report",
            "Table 1",
            "FRA/SHAP top-100 overlap",
            "Figure 3",
            "Figure 4",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Overall average",
            "Run telemetry",
            "Counters",
        ):
            assert heading in doc, heading
        assert "unavailable" not in doc
        assert "degraded inputs" not in doc and "failed" not in doc

    def test_tables_are_valid_markdown(self, results):
        # Table 1, Figures 3-4, Tables 3-4 per set, Tables 5-6, §4.3,
        # telemetry and counters: every row as wide as its header.
        assert _assert_valid_tables(render_report(results)) >= 11

    def test_scenario_keys_present(self, results):
        doc = render_report(results)
        for key in results.table1_vector_sizes():
            assert key in doc

    def test_improvement_values_formatted(self, results):
        doc = render_report(results)
        assert re.search(r"\d\.\d\d%", doc)

    def test_metadata_line(self, results):
        header = render_report(results).splitlines()[0]
        assert str(results.config.simulation.seed) in header
        assert "2017, 2019" in header

    def test_telemetry_stage_table_matches_run_report(self, results):
        # The same stage columns as ``repro report --run``.
        doc = render_report(results)
        telemetry = doc[doc.index("Run telemetry"):].splitlines()
        cells = [cell.strip() for cell in telemetry[2].split("|")]
        assert cells == ["stage", "count", "total", "self", "mean",
                         "max", "cpu", "max-rss"]
        assert any(line.split("|")[0].strip() == "experiment.run"
                   for line in telemetry)

    def test_all_failed_run_lists_failures(self, results):
        keys = sorted(results.artifacts)
        failed = replace(
            results, artifacts={}, improvements_rf=[], improvements_gb=[],
            failures={key: ScenarioFailure(key, "RuntimeError", "boom")
                      for key in keys},
        )
        doc = render_report(failed)
        assert f"{len(keys)} scenario(s) failed" in doc
        for key in keys:
            assert f"- {key}: RuntimeError: boom" in doc
        assert ("[SHAP overlap unavailable on this run: "
                "no scenario succeeded]") in doc
        assert "no scenario of set 2017 succeeded" in doc
        _assert_valid_tables(doc)

    def test_degraded_run_shows_summary(self, results):
        degradation = DegradationReport(policy="fill")
        doc = render_report(replace(results, degradation=degradation))
        assert f"degraded inputs: {degradation.summary()}" in doc

    def test_single_period_run_has_no_other_period(self, results):
        only_2019 = replace(
            results,
            config=replace(results.config, periods=("2019",)),
            artifacts={key: art for key, art in results.artifacts.items()
                       if art.scenario.period == "2019"},
            improvements_rf=[i for i in results.improvements_rf
                             if i.period == "2019"],
            improvements_gb=[i for i in results.improvements_gb
                             if i.period == "2019"],
        )
        doc = render_report(only_2019)
        assert "Figure 4" in doc and "Figure 3" not in doc
        assert "set 2017" not in doc and "(2017)" not in doc
        assert "unavailable" not in doc
        _assert_valid_tables(doc)

    def test_telemetry_absent_without_spans(self, results):
        doc = render_report(replace(results, run_summary=RunSummary()))
        assert "Run telemetry" not in doc and "Counters" not in doc
