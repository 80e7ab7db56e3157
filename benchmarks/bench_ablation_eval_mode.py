"""Ablation — CV-based vs chronological-holdout evaluation.

The paper tunes and scores with k-fold CV MSE over price levels. Tree
ensembles cannot extrapolate beyond training levels, so a chronological
holdout (test = the last 20 % of the period, which contains unseen price
levels) produces far larger MSE for *every* feature set. The bench
quantifies the gap — the reproduction's most important methodological
caveat.
"""

from repro.core.improvement import ImprovementConfig, evaluate_feature_set
from repro.core.reporting import format_table
from repro.core.scenarios import build_scenario


def test_ablation_eval_mode(benchmark, bench_results, artifact_writer):
    key = sorted(bench_results.artifacts)[0]
    art = bench_results.artifacts[key]
    scenario = build_scenario(bench_results.raw, art.scenario.period,
                              art.scenario.window)
    features = art.selection.final_features

    grid = {"n_estimators": [15], "max_depth": [12],
            "max_features": ["sqrt"]}
    cv_cfg = ImprovementConfig(model="rf", param_grid=grid, cv_folds=3,
                               evaluation="cv")
    holdout_cfg = ImprovementConfig(model="rf", param_grid=grid,
                                    cv_folds=3, evaluation="holdout")
    wf_cfg = ImprovementConfig(model="rf", param_grid=grid,
                               cv_folds=3, evaluation="walkforward")

    mse_cv = benchmark.pedantic(
        evaluate_feature_set, args=(scenario, features, cv_cfg),
        rounds=1, iterations=1,
    )
    mse_holdout = evaluate_feature_set(scenario, features, holdout_cfg)
    mse_wf = evaluate_feature_set(scenario, features, wf_cfg)

    rows = [
        ["k-fold CV (paper-style)", f"{mse_cv:.4g}"],
        ["chronological holdout", f"{mse_holdout:.4g}"],
        ["walk-forward (rolling origin)", f"{mse_wf:.4g}"],
        ["holdout / CV ratio", f"{mse_holdout / mse_cv:.1f}x"],
        ["walk-forward / CV ratio", f"{mse_wf / mse_cv:.1f}x"],
    ]
    text = (
        format_table(
            ["evaluation mode", "diverse-vector MSE"], rows,
            title=f"Ablation: evaluation protocol ({key})",
        )
        + "\n\nFinding: level forecasts look far better under CV than "
        "under a\nchronological holdout, because tree models cannot "
        "extrapolate to unseen\nprice levels. The paper's improvement "
        "magnitudes are CV-style numbers."
    )
    artifact_writer("ablation_eval_mode", text)

    assert mse_holdout > mse_cv
    assert mse_wf > mse_cv
