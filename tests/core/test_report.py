"""Tests for the markdown report exporter."""

from repro.core.report import export_markdown, write_markdown_report


class TestMarkdownExport:
    def test_contains_all_sections(self, results):
        doc = export_markdown(results)
        for heading in (
            "# Reproduction report",
            "## Table 1",
            "## Figure 3",
            "## Figure 4",
            "## Table 3",
            "## Table 4",
            "## Table 5",
            "## Table 6",
            "## Overall averages",
        ):
            assert heading in doc, heading

    def test_tables_are_valid_markdown(self, results):
        doc = export_markdown(results)
        table_lines = [l for l in doc.splitlines() if l.startswith("|")]
        assert table_lines
        # every table row has balanced pipes with its header
        for line in table_lines:
            assert line.count("|") >= 3

    def test_scenario_keys_present(self, results):
        doc = export_markdown(results)
        for key in results.table1_vector_sizes():
            assert key in doc

    def test_improvement_values_formatted(self, results):
        doc = export_markdown(results)
        assert "%" in doc

    def test_write_roundtrip(self, results, tmp_path):
        path = write_markdown_report(results, tmp_path / "sub" / "r.md")
        assert path.exists()
        assert path.read_text() == export_markdown(results)

    def test_metadata_line(self, results):
        doc = export_markdown(results)
        assert str(results.config.simulation.seed) in doc

    def test_telemetry_stage_table_matches_run_report(self, results):
        # The same stage columns as ``repro report --run``.
        doc = export_markdown(results)
        telemetry = doc[doc.index("## Run telemetry"):]
        header = next(line for line in telemetry.splitlines()
                      if line.startswith("| stage |"))
        cells = [cell.strip() for cell in header.strip("|").split("|")]
        assert cells == ["stage", "count", "total", "self", "mean",
                         "max", "cpu", "max-rss"]
        assert "| experiment.run |" in telemetry
