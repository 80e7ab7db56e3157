"""Tests for chaos runs (clean vs faulted MSE comparison)."""

import dataclasses

import pytest

from repro import ExperimentConfig
from repro.resilience import (
    CategoryDegradation,
    ChaosReport,
    FaultPlan,
    random_fault_plan,
    render_chaos_table,
    run_chaos,
)


class TestCategoryDegradation:
    def test_pct_change(self):
        row = CategoryDegradation("macro", clean_mse=2.0, faulted_mse=2.5)
        assert row.pct_change == pytest.approx(25.0)

    def test_pct_change_undefined_for_dropped(self):
        assert CategoryDegradation("m", 2.0, None).pct_change is None
        assert CategoryDegradation("m", None, 2.5).pct_change is None
        assert CategoryDegradation("m", 0.0, 2.5).pct_change is None


class TestRenderChaosTable:
    def _report(self, **overrides):
        base = dict(
            plan=random_fault_plan(3, ["macro"]),
            policy="fill",
            rows=[
                CategoryDegradation("diverse", 1.0, 1.2),
                CategoryDegradation("macro", 2.0, None),
            ],
            n_scenarios_compared=4,
        )
        base.update(overrides)
        return ChaosReport(**base)

    def test_table_contains_rows_and_header(self):
        table = render_chaos_table(self._report())
        assert "policy=fill" in table
        assert "4 scenarios" in table
        assert "diverse (final vector)" in table
        assert "+20.0%" in table
        assert "dropped" in table  # macro's faulted MSE is None

    def test_failures_listed(self):
        table = render_chaos_table(self._report(
            failures={"2017_30": "RuntimeError: boom"}
        ))
        assert "failed scenarios:" in table
        assert "2017_30: RuntimeError: boom" in table

    def test_counters_listed(self):
        table = render_chaos_table(self._report(
            counters={"resilience.category.dropped": 1}
        ))
        assert "resilience counters:" in table
        assert "resilience.category.dropped = 1" in table


class TestRunChaos:
    @pytest.fixture(scope="class")
    def chaos_report(self):
        config = ExperimentConfig.fast()
        config = dataclasses.replace(
            config,
            simulation=dataclasses.replace(
                config.simulation, end="2019-12-31"
            ),
            windows=(7,),
            run_gb_validation=False,
            n_jobs=1,
        )
        plan = random_fault_plan(
            11, ["sentiment", "macro", "onchain_btc"]
        )
        return run_chaos(config, plan, policy="fill")

    def test_compares_all_scenarios(self, chaos_report):
        assert chaos_report.n_scenarios_compared == 2
        assert chaos_report.policy == "fill"
        assert chaos_report.failures == {}

    def test_diverse_row_first_then_categories(self, chaos_report):
        labels = [row.label for row in chaos_report.rows]
        assert labels[0] == "diverse"
        assert len(labels) > 1
        assert all(
            row.clean_mse is not None and row.faulted_mse is not None
            for row in chaos_report.rows
        )

    def test_resilience_counters_surface(self, chaos_report):
        assert any(name.startswith("resilience.fault.")
                   for name in chaos_report.counters)
        assert chaos_report.counters.get(
            "resilience.filled_values", 0) > 0

    def test_degradation_report_carried(self, chaos_report):
        assert chaos_report.degradation.policy == "fill"
        assert chaos_report.degradation.total_faults() > 0

    def test_table_renders(self, chaos_report):
        table = render_chaos_table(chaos_report)
        assert "clean MSE" in table
        assert "faulted MSE" in table
        assert "degradation: policy=fill" in table

    def test_unknown_model_rejected(self, chaos_report):
        from repro.resilience.chaos import _improvements

        with pytest.raises(ValueError, match="unknown model"):
            _improvements(None, "svm")

    def test_runtimes_recorded(self, chaos_report):
        assert chaos_report.clean_runtime > 0
        assert chaos_report.faulted_runtime > 0


class TestPlanHandling:
    def test_empty_plan_compares_identical_runs(self):
        # Not a full run — just the report shape for a no-event plan.
        report = ChaosReport(plan=FaultPlan(), policy="abort")
        table = render_chaos_table(report)
        assert "0 fault events" in table
