"""Statistical significance of the diversity improvement.

The paper reports point estimates; this bench adds inference on one
scenario: a Diebold-Mariano test between the diverse and
single-category forecasts, and a moving-block-bootstrap confidence
interval for the MSE-decrease percentage.
"""

from repro.categories import DataCategory
from repro.core.reporting import format_table
from repro.core.scenarios import build_scenario
from repro.ml import KFold, RandomForestRegressor, cross_val_predict
from repro.stats import diebold_mariano, improvement_ci

_RF = {"n_estimators": 15, "max_depth": 12, "max_features": "sqrt",
       "min_samples_leaf": 2}


def _cv_predictions(X, y, folds=3, random_state=0):
    """Out-of-fold predictions for every row (shuffled K-fold)."""
    return cross_val_predict(
        RandomForestRegressor(random_state=random_state, **_RF),
        X, y, cv=KFold(folds, shuffle=True, random_state=random_state),
    )


def test_stats_significance(benchmark, bench_results, artifact_writer):
    key = "2019_30" if "2019_30" in bench_results.artifacts else sorted(
        bench_results.artifacts
    )[0]
    art = bench_results.artifacts[key]
    scenario = build_scenario(bench_results.raw, art.scenario.period,
                              art.scenario.window)

    diverse = scenario.select_features(art.selection.final_features)
    sentiment = scenario.select_features(
        scenario.columns_in(DataCategory.SENTIMENT)
    )

    pred_diverse = benchmark.pedantic(
        _cv_predictions, args=(diverse.X, diverse.y),
        rounds=1, iterations=1,
    )
    pred_sentiment = _cv_predictions(sentiment.X, sentiment.y)
    y = scenario.y

    dm = diebold_mariano(y, pred_diverse, pred_sentiment,
                         horizon=scenario.window)
    point, lo, hi = improvement_ci(
        y, pred_sentiment, pred_diverse, block=30, n_resamples=400,
        random_state=0,
    )

    rows = [
        ["DM statistic (diverse vs sentiment-only)", f"{dm.statistic:.2f}"],
        ["DM p-value (two-sided)", f"{dm.p_value:.2e}"],
        ["MSE improvement point estimate", f"{point:.1f}%"],
        ["95% block-bootstrap CI", f"[{lo:.1f}%, {hi:.1f}%]"],
    ]
    text = (
        format_table(
            ["quantity", "value"], rows,
            title=f"Significance of the diversity improvement ({key})",
        )
        + "\n\nFinding: the diverse model's advantage over the "
        "sentiment-only model is\nstatistically significant, and the "
        "bootstrap CI of the improvement\npercentage excludes zero."
    )
    artifact_writer("stats_significance", text)

    assert dm.favors_first            # diverse has lower loss
    assert dm.p_value < 0.05
    assert lo > 0.0                   # CI excludes zero
