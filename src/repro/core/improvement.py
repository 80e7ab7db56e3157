"""The data-source-diversity improvement study (§4.3, Tables 5-6).

For every scenario the study compares a model trained on the *diverse*
final feature vector against models trained on each *single category's*
features alone. "Performance improvement is defined as the percentage
decrease of the mean squared error after evaluating the model on the
diverse feature vector":

    improvement = (MSE_category - MSE_diverse) / MSE_diverse * 100

Models are fine-tuned per feature set with k-fold cross-validation grid
search (the paper's recipe); the reported MSE of a feature set is the
tuned model's mean CV MSE (``evaluation="cv"``, the default, matching the
paper's "minimum mean squared error as the objective"). An alternative
``evaluation="holdout"`` mode tunes on a chronological training slice and
scores the held-out tail — stricter for level forecasts because tree
ensembles cannot extrapolate beyond training levels; the ablation bench
contrasts the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..categories import DataCategory
from ..ml.boosting import GradientBoostingRegressor
from ..ml.ensemble import StackingRegressor
from ..ml.forest import RandomForestRegressor
from ..ml.linear import Ridge
from ..ml.metrics import mean_squared_error, mse_improvement_pct
from ..ml.neural import MLPRegressor
from ..ml.model_selection import GridSearchCV, KFold, TimeSeriesSplit, clone
from ..obs import current_metrics, get_logger, span
from .scenarios import Scenario

_log = get_logger("improvement")

__all__ = [
    "ImprovementConfig",
    "ScenarioImprovement",
    "evaluate_feature_set",
    "scenario_improvements",
    "average_by_window",
    "average_by_category",
    "overall_average",
]

_DEFAULT_RF_GRID = {
    "n_estimators": [20, 40],
    "max_depth": [8, 14],
    "max_features": ["sqrt", 0.5],
}
_DEFAULT_GB_GRID = {
    "n_estimators": [40, 80],
    "max_depth": [3, 5],
    "learning_rate": [0.1],
}
_DEFAULT_MLP_GRID = {
    "hidden_layer_sizes": [(64, 32)],
    "n_epochs": [120],
    "learning_rate": [1e-3],
}
_DEFAULT_STACK_GRID = {
    "cv_folds": [3],
}


@dataclass(frozen=True)
class ImprovementConfig:
    """Model family, search grid and evaluation split for the study."""

    model: str = "rf"
    """``"rf"`` (Tables 5-6), ``"gb"`` (the paper's XGB validation),
    ``"mlp"`` (the §5 'complex models' future-work extension), or
    ``"stack"`` (an RF+GB+ridge stacking ensemble)."""

    param_grid: dict | None = None
    """Grid-search space; defaults depend on the model family."""

    cv_folds: int = 5
    evaluation: str = "cv"
    """Evaluation protocol:

    * ``"cv"`` — the tuned model's mean shuffled-k-fold CV MSE (the
      paper's "minimum mean squared error" objective);
    * ``"holdout"`` — tune on the chronological front, score the tail;
    * ``"walkforward"`` — rolling-origin evaluation: the tuned
      configuration is refit on each expanding window and scored on the
      following block (strictest, no level leakage at all).
    """

    test_frac: float = 0.2
    """Held-out fraction; only used by ``evaluation="holdout"``."""

    random_state: int = 0
    min_category_features: int = 1
    """Categories with fewer candidate features are skipped."""

    def resolved_grid(self) -> dict:
        """The effective hyper-parameter grid for this model family."""
        if self.param_grid is not None:
            return self.param_grid
        grids = {
            "rf": _DEFAULT_RF_GRID,
            "gb": _DEFAULT_GB_GRID,
            "mlp": _DEFAULT_MLP_GRID,
            "stack": _DEFAULT_STACK_GRID,
        }
        try:
            return grids[self.model]
        except KeyError:
            raise ValueError(
                f"unknown model family {self.model!r}"
            ) from None

    def make_estimator(self):
        """A fresh unfitted estimator of the configured family."""
        if self.model == "rf":
            return RandomForestRegressor(random_state=self.random_state)
        if self.model == "gb":
            return GradientBoostingRegressor(
                random_state=self.random_state
            )
        if self.model == "mlp":
            return MLPRegressor(random_state=self.random_state)
        if self.model == "stack":
            return StackingRegressor(
                [
                    ("rf", RandomForestRegressor(
                        n_estimators=15, max_depth=10,
                        max_features="sqrt",
                        random_state=self.random_state)),
                    ("gb", GradientBoostingRegressor(
                        n_estimators=30, max_depth=3,
                        random_state=self.random_state)),
                    ("ridge", Ridge(alpha=1.0)),
                ],
                random_state=self.random_state,
            )
        raise ValueError(f"unknown model family {self.model!r}")


@dataclass
class ScenarioImprovement:
    """Improvement results for one scenario."""

    period: str
    window: int
    diverse_mse: float
    category_mse: dict[DataCategory, float] = field(default_factory=dict)

    def improvements(self) -> dict[DataCategory, float]:
        """Per-category percentage MSE decrease (the paper's metric)."""
        return {
            category: mse_improvement_pct(mse, self.diverse_mse)
            for category, mse in self.category_mse.items()
        }

    def mean_improvement(self) -> float:
        """Average improvement across categories (a Table 5 cell)."""
        values = list(self.improvements().values())
        if not values:
            raise ValueError("no category results to average")
        return float(np.mean(values))


def evaluate_feature_set(
    scenario: Scenario,
    feature_names: list[str],
    config: ImprovementConfig,
) -> float:
    """Grid-search a model on the feature set; return its evaluation MSE.

    With ``evaluation="cv"`` the score is the winning candidate's mean
    k-fold CV MSE over all rows (shuffled folds, seeded). With
    ``"holdout"`` the search runs on the chronological training slice and
    the refit winner is scored on the held-out tail.
    """
    if not feature_names:
        raise ValueError("feature set is empty")
    with span("improvement.evaluate", scenario=scenario.key,
              model=config.model, n_features=len(feature_names)):
        return _evaluate_feature_set(scenario, feature_names, config)


def _evaluate_feature_set(
    scenario: Scenario,
    feature_names: list[str],
    config: ImprovementConfig,
) -> float:
    sub = scenario.select_features(feature_names)
    cv = KFold(config.cv_folds, shuffle=True,
               random_state=config.random_state)
    if config.evaluation == "cv":
        search = GridSearchCV(
            config.make_estimator(), config.resolved_grid(),
            cv=cv, refit=False,
        ).fit(sub.X, sub.y)
        return float(search.best_score_)
    if config.evaluation == "holdout":
        X_train, X_test, y_train, y_test = sub.split(config.test_frac)
        search = GridSearchCV(
            config.make_estimator(), config.resolved_grid(), cv=cv,
        ).fit(X_train, y_train)
        return mean_squared_error(y_test, search.predict(X_test))
    if config.evaluation == "walkforward":
        # tune once on the front 60 % with shuffled CV, then score the
        # winner on expanding-window splits over the full history
        cut = max(int(sub.n_samples * 0.6), config.cv_folds + 1)
        search = GridSearchCV(
            config.make_estimator(), config.resolved_grid(),
            cv=cv, refit=False,
        ).fit(sub.X[:cut], sub.y[:cut])
        winner = clone(config.make_estimator()).set_params(
            **search.best_params_
        )
        errors = []
        for train_idx, test_idx in TimeSeriesSplit(
            config.cv_folds
        ).split(sub.X):
            model = clone(winner).fit(sub.X[train_idx], sub.y[train_idx])
            errors.append(mean_squared_error(
                sub.y[test_idx], model.predict(sub.X[test_idx])
            ))
        return float(np.mean(errors))
    raise ValueError(f"unknown evaluation mode {config.evaluation!r}")


def scenario_improvements(
    scenario: Scenario,
    final_features: list[str],
    config: ImprovementConfig | None = None,
) -> ScenarioImprovement:
    """Run the full diverse-vs-single-category comparison for a scenario.

    The diverse model uses the selected final vector; each category model
    uses *all* of that category's candidate features in the scenario (the
    model sees everything the single data source can offer).
    """
    config = config if config is not None else ImprovementConfig()
    metrics = current_metrics()
    with span("improvement.scenario", scenario=scenario.key,
              model=config.model):
        with span("improvement.feature_set", scenario=scenario.key,
                  model=config.model, feature_set="diverse"):
            diverse_mse = evaluate_feature_set(
                scenario, final_features, config
            )
        metrics.histogram("improvement.mse").observe(diverse_mse)
        result = ScenarioImprovement(
            period=scenario.period,
            window=scenario.window,
            diverse_mse=diverse_mse,
        )
        for category in DataCategory:
            candidates = scenario.columns_in(category)
            if len(candidates) < config.min_category_features:
                continue
            with span("improvement.feature_set", scenario=scenario.key,
                      model=config.model, feature_set=category.value):
                category_mse = evaluate_feature_set(
                    scenario, candidates, config
                )
            metrics.histogram("improvement.mse").observe(category_mse)
            result.category_mse[category] = category_mse
            _log.debug("feature_set.done", scenario=scenario.key,
                       model=config.model, feature_set=category.value,
                       mse=category_mse)
    return result


def average_by_window(
    results: list[ScenarioImprovement], period: str
) -> dict[int, float]:
    """Table 5 column: mean improvement per prediction window."""
    out: dict[int, float] = {}
    for res in results:
        if res.period == period:
            out[res.window] = res.mean_improvement()
    return dict(sorted(out.items()))


def average_by_category(
    results: list[ScenarioImprovement], period: str
) -> dict[DataCategory, float]:
    """Table 6 column: mean improvement per category across windows."""
    sums: dict[DataCategory, float] = {}
    counts: dict[DataCategory, int] = {}
    for res in results:
        if res.period != period:
            continue
        for category, value in res.improvements().items():
            sums[category] = sums.get(category, 0.0) + value
            counts[category] = counts.get(category, 0) + 1
    return {
        category: sums[category] / counts[category] for category in sums
    }


def overall_average(results: list[ScenarioImprovement],
                    period: str) -> float:
    """The §4.3 headline number: mean improvement over all scenarios."""
    values = [
        res.mean_improvement() for res in results if res.period == period
    ]
    if not values:
        raise ValueError(f"no results for period {period!r}")
    return float(np.mean(values))
