"""Extension (§5) — detailed analysis of isolated categories.

Profiles every data source standing alone on one scenario: standalone
CV MSE/R², the category's internal top feature, and its redundancy (how
well the category does without that top feature).
"""

from repro.categories import CATEGORY_LABELS
from repro.core.category_analysis import analyze_all_categories
from repro.core.reporting import format_table
from repro.core.scenarios import build_scenario

_RF = {"n_estimators": 10, "max_depth": 10, "max_features": "sqrt",
       "min_samples_leaf": 2}


def test_ext_category_deepdive(benchmark, bench_results, artifact_writer):
    key = "2019_30" if "2019_30" in bench_results.artifacts else sorted(
        bench_results.artifacts
    )[0]
    info = bench_results.artifacts[key].scenario
    scenario = build_scenario(bench_results.raw, info.period, info.window)

    profiles = benchmark.pedantic(
        analyze_all_categories, args=(scenario,),
        kwargs={"rf_params": _RF}, rounds=1, iterations=1,
    )

    rows = []
    for category, profile in sorted(
        profiles.items(), key=lambda kv: kv[1].cv_mse
    ):
        rows.append([
            CATEGORY_LABELS[category],
            profile.n_features,
            f"{profile.cv_mse:.3g}",
            f"{profile.cv_r2:+.3f}",
            profile.top_feature,
            f"{profile.redundancy:.2f}",
        ])
    text = (
        format_table(
            ["Category", "n", "CV MSE", "CV R2", "top feature",
             "redundancy"],
            rows,
            title=f"Extension: isolated-category deep dive ({key})",
        )
        + "\n\nredundancy = MSE without the top feature / full-category "
        "MSE\n(1.0 = the top feature is fully substitutable within its "
        "category)."
    )
    artifact_writer("ext_category_deepdive", text)

    assert len(profiles) >= 5
    for profile in profiles.values():
        assert profile.cv_mse > 0
