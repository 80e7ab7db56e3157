"""Observability integration for the cache, the hist kernel and workers.

Drives the real CLI end-to-end on a trimmed config: ``run`` with the
hist splitter, two worker processes, a cache directory and a ledger,
then ``report --run`` over the record it appended. The report must
surface the cache hit/miss counters and the histogram-kernel activity
that happened *inside worker processes* — proof that worker-side
registries and spans merge back into the parent run — along with the
per-stage table, the workers' CPU and max-RSS, and the slowest spans.
"""

import dataclasses
import io
from contextlib import redirect_stdout

import pytest

import repro.cli as cli
from repro.cli import main
from repro.core.pipeline import ExperimentConfig
from repro.obs import RunLedger, render_history


@pytest.fixture(scope="module")
def mini_config():
    config = ExperimentConfig.fast()
    return dataclasses.replace(
        config,
        simulation=dataclasses.replace(config.simulation,
                                       end="2019-12-31"),
        periods=("2017",),
        windows=(7, 90),
        run_gb_validation=False,
        splitter="hist",
    )


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory, mini_config):
    """Ledger holding one hist + cached + 2-worker run, no other flag."""
    base = tmp_path_factory.mktemp("cache-trace")
    ledger = base / "runs.jsonl"
    presets = dict(cli._PRESETS)
    presets["fast"] = lambda seed=0: mini_config
    original = cli._PRESETS
    cli._PRESETS = presets
    try:
        with redirect_stdout(io.StringIO()):
            code = main([
                "run", "--preset", "fast", "--quiet",
                "--jobs", "2",
                "--splitter", "hist",
                "--cache-dir", str(base / "cache"),
                "--ledger", str(ledger),
            ])
    finally:
        cli._PRESETS = original
    assert code == 0
    return ledger


@pytest.fixture(scope="module")
def summary_output(ledger_path):
    """stdout of ``report --run`` over that run's record."""
    run_id = RunLedger(ledger_path).latest().run_id
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["report", str(ledger_path), "--run", run_id]) == 0
    return buffer.getvalue()


class TestTraceSummaryShowsCacheAndKernel:
    # The run's trace summary is its ledger record, rendered by
    # 'report --run'.
    def test_cache_counters_surface(self, summary_output):
        assert "cache.misses" in summary_output
        assert "cache.writes" in summary_output
        assert "cache.bytes_written" in summary_output

    def test_hist_kernel_counter_from_workers(self, summary_output):
        # Every tree fit happened inside a worker process; the counter
        # only appears if worker registries merged into the parent.
        assert "ml.tree_fit.hist" in summary_output
        assert "ml.tree_fit.exact" not in summary_output

    def test_worker_spans_merged(self, summary_output):
        assert "pipeline.scenario" in summary_output
        assert "ml.forest_fit" in summary_output
        assert "fra.reduce" in summary_output

    def test_stage_table_has_self_mean_and_resource_columns(
            self, summary_output):
        header = next(line for line in summary_output.splitlines()
                      if line.startswith("stage "))
        # the markdown pipe table shared with the run report
        assert [cell.strip() for cell in header.split("|")] == ["stage", "count", "total", "self",
                                  "mean", "max", "cpu", "max-rss"]

    def test_slowest_spans_listed_with_attrs(self, summary_output):
        lines = summary_output.splitlines()
        start = lines.index("slowest 10 spans:")
        listed = lines[start + 1:start + 11]
        assert len(listed) == 10
        assert listed[0].split()[1] == "experiment.run"
        scenario = next(line for line in listed
                        if "pipeline.scenario" in line)
        assert "scenario=2017_" in scenario and "max_rss_kb=" in scenario
        # the counters follow the slowest list
        assert lines.index("counters:") > start


class TestResourceColumnsWithoutAFlag:
    def test_parallel_run_records_cpu_and_rss(self, ledger_path):
        record = RunLedger(ledger_path).latest()
        assert record.labels["jobs"] == 2
        for name in ("experiment.run", "pipeline.scenario"):
            row = record.stages[name]
            assert row["cpu_s"] >= 0.0, name
            assert row["max_rss_kb"] > 0, name
        # Both scenarios ran in workers, and each worker measured its
        # own span: the scenario row sums their CPU time.
        assert record.stages["pipeline.scenario"]["count"] == 2
        assert record.stages["pipeline.scenario"]["cpu_s"] > 0.0
        history = render_history([record])
        peak_rss = history.splitlines()[2].split()[-1]
        assert peak_rss != "-"
        assert peak_rss.endswith("MB")
