"""Integration tests over one full fast experiment run.

These assertions check both the plumbing (every accessor works, shapes
line up) and the *reproduction shapes* the paper reports, at the level of
robustness the fast preset can support.
"""

import dataclasses

import numpy as np
import pytest

from repro.categories import DataCategory
from repro.core.pipeline import ExperimentConfig
from repro.obs import stage_rows


class TestRunArtifacts:
    def test_all_scenarios_present(self, results, fast_config):
        expected = {
            f"{p}_{w}"
            for p in fast_config.periods for w in fast_config.windows
        }
        assert set(results.artifacts) == expected

    def test_runtime_recorded(self, results):
        assert results.runtime_seconds > 0

    def test_table1_sizes_positive_and_bounded(self, results, fast_config):
        sizes = results.table1_vector_sizes()
        for key, n in sizes.items():
            assert 1 <= n <= 2 * fast_config.top_k, key

    def test_final_features_subset_of_candidates(self, results):
        for art in results.artifacts.values():
            candidates = set(art.scenario.feature_names)
            assert set(art.selection.final_features) <= candidates

    def test_rf_importance_covers_final_vector(self, results):
        for art in results.artifacts.values():
            assert set(art.rf_importance) == set(
                art.selection.final_features
            )

    def test_shap_overlap_positive(self, results):
        """FRA and SHAP must agree on a meaningful share of features."""
        assert results.mean_shap_overlap() > 0.3 * min(
            art.selection.fra.selected.__len__()
            for art in results.artifacts.values()
        )


    def test_shap_overlap_needs_a_scenario(self, results):
        with pytest.raises(ValueError, match="no scenario succeeded"):
            dataclasses.replace(results, artifacts={}).mean_shap_overlap()

class TestContributionShapes:
    def test_usdc_only_in_2019(self, results):
        for factors in results.contributions("2017").values():
            assert DataCategory.ONCHAIN_USDC not in factors
        assert any(
            DataCategory.ONCHAIN_USDC in factors
            for factors in results.contributions("2019").values()
        )

    def test_onchain_btc_contributes_everywhere(self, results):
        """The paper's headline: on-chain metrics matter at all windows."""
        for period in ("2017", "2019"):
            for factors in results.contributions(period).values():
                assert factors[DataCategory.ONCHAIN_BTC] > 0


class TestHorizonTables:
    def test_table3_shapes(self, results):
        table = results.table3_top_features("2019", k=5)
        assert len(table["Short-term"]) == 5
        assert len(table["Long-term"]) == 5

    def test_table4_unique_disjoint_from_other_group(self, results):
        for period in ("2017", "2019"):
            short, long_ = results.horizon_groups(period)
            table = results.table4_unique_features(period, k=10)
            for feature in table["Short-term"]:
                assert feature not in long_.importances
            for feature in table["Long-term"]:
                assert feature not in short.importances

    def test_groups_nonempty(self, results):
        short, long_ = results.horizon_groups("2017")
        assert short.importances and long_.importances


class TestImprovementTables:
    def test_table5_has_all_windows(self, results, fast_config):
        for period in ("2017", "2019"):
            table = results.table5_improvement_by_window(period)
            assert set(table) == set(fast_config.windows)

    def test_table6_covers_major_categories(self, results):
        table_2017 = results.table6_improvement_by_category("2017")
        assert DataCategory.ONCHAIN_USDC not in table_2017
        table_2019 = results.table6_improvement_by_category("2019")
        assert DataCategory.ONCHAIN_USDC in table_2019

    def test_diversity_helps_on_average(self, results):
        """§4.3's core claim at fast-preset robustness: the average
        improvement across categories is positive."""
        for period in ("2017", "2019"):
            assert results.overall_improvement(period) > 0

    def test_btc_onchain_benefits_least_among_full_categories(self, results):
        """Table 6's standout row: BTC on-chain needs diversity least."""
        for period in ("2017", "2019"):
            table = results.table6_improvement_by_category(period)
            assert table[DataCategory.ONCHAIN_BTC] <= min(
                table[DataCategory.MACRO],
                table[DataCategory.SENTIMENT],
            )

    def test_gb_validation_available(self, results):
        assert results.overall_improvement(
            "2017", "gb"
        ) == pytest.approx(
            np.mean([
                r.mean_improvement()
                for r in results.improvements_gb if r.period == "2017"
            ])
        )

    def test_unknown_model_rejected(self, results):
        with pytest.raises(ValueError):
            results.overall_improvement("2017", "svm")


class TestRunTelemetry:
    """The fast run must trace every pipeline stage (repro.obs)."""

    def test_run_summary_attached(self, results):
        summary = results.run_summary
        assert summary.spans
        root = next(s for s in summary.spans if s.parent_id is None)
        assert root.duration > 0

    def test_every_stage_traced(self, results):
        # the shared fixture passes a pre-built dataset, so synth spans
        # are exercised separately in test_dataset_generation_traced
        names = {s.name for s in results.run_summary.spans}
        assert {
            "experiment.run",
            "scenarios.build",
            "fra.reduce",
            "fra.iteration",
            "selection.shap",
            "selection.select",
            "horizons.rf_importance",
            "improvement.scenario",
            "improvement.feature_set",
        } <= names

    def test_every_scenario_has_stage_spans(self, results):
        spans = results.run_summary.spans
        for stage in ("pipeline.scenario", "improvement.scenario",
                      "horizons.rf_importance"):
            traced = {
                s.attrs.get("scenario") for s in spans if s.name == stage
            }
            assert set(results.artifacts) <= traced, stage

    def test_spans_nest_under_root(self, results):
        spans = results.run_summary.spans
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["experiment.run"]
        ids = {s.span_id for s in spans}
        for record in spans:
            if record.parent_id is not None:
                assert record.parent_id in ids

    def test_metrics_recorded(self, results, fast_config):
        metrics = results.run_summary.metrics
        assert metrics["counters"]["fra.features_eliminated"] > 0
        assert metrics["counters"]["fra.iterations"] > 0
        n_scenarios = len(results.artifacts)
        assert metrics["histograms"]["selection.shap_overlap"][
            "count"] == n_scenarios
        assert metrics["histograms"]["selection.final_size"][
            "count"] == n_scenarios
        # diverse + per-category MSEs for RF and GB across all scenarios
        assert metrics["histograms"]["improvement.mse"]["count"] >= (
            2 * n_scenarios
        )
        assert metrics["gauges"]["experiment.scenarios"] == n_scenarios

    def test_stage_breakdown_covers_hot_stages(self, results):
        rows = stage_rows(results.run_summary.spans)
        for stage in ("scenarios", "fra", "selection",
                      "horizons", "improvement"):
            self_s = sum(row["self_s"] for name, row in rows.items()
                         if name.split(".", 1)[0] == stage)
            assert self_s > 0.0, stage

    def test_dataset_generation_traced(self, fast_config):
        from repro.obs import Tracer, use_tracer
        from repro.synth import generate_raw_dataset

        tracer = Tracer()
        with use_tracer(tracer):
            generate_raw_dataset(fast_config.simulation)
        names = {s.name for s in tracer.spans}
        assert {"synth.dataset", "synth.latent", "synth.universe",
                "synth.category"} <= names
        by_name = {}
        for record in tracer.spans:
            by_name.setdefault(record.name, []).append(record)
        root = by_name["synth.dataset"][0]
        assert all(s.parent_id == root.span_id
                   for s in by_name["synth.category"])
        categories = {
            s.attrs["category"] for s in by_name["synth.category"]
        }
        assert "technical" in categories and "macro" in categories

    def test_runs_use_isolated_tracers(self, results):
        """A run's spans never leak into the ambient default tracer."""
        from repro.obs import current_tracer

        run_ids = {id(s) for s in results.run_summary.spans}
        ambient = {id(s) for s in current_tracer().spans}
        assert not run_ids & ambient


class TestConfigPresets:
    def test_fast_preset_small(self):
        cfg = ExperimentConfig.fast()
        assert cfg.fra.rf_params["n_estimators"] <= 10
        assert cfg.windows == (7, 90)

    def test_default_preset_full_windows(self):
        cfg = ExperimentConfig.default()
        assert cfg.windows == (1, 7, 30, 90, 180)

    def test_paper_preset_scales_up(self):
        paper = ExperimentConfig.paper()
        default = ExperimentConfig.default()
        assert (paper.fra.rf_params["n_estimators"]
                > default.fra.rf_params["n_estimators"])
        assert paper.improvement_rf.cv_folds == 5

    def test_seed_threads_through(self):
        cfg = ExperimentConfig.fast(seed=777)
        assert cfg.simulation.seed == 777
