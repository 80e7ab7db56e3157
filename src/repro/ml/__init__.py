"""Model substrate: trees, forests, boosting, CV, importances, TreeSHAP.

This package replaces scikit-learn + XGBoost + shap for the reproduction.
Estimators follow a uniform protocol — ``fit(X, y)``, ``predict(X)``,
``get_params()``/``set_params(**p)``, and (for tree ensembles)
``feature_importances_`` — so grid search, permutation importance and
TreeSHAP treat every model family the same way.
"""

from .boosting import GradientBoostingRegressor
from .compiled import (
    CompiledEnsemble,
    compile_ensemble,
    maybe_compile,
)
from .forest import RandomForestRegressor
from .importance import (
    pearson_correlation,
    permutation_importance,
    target_correlations,
)
from .linear import Ridge
from .metrics import mean_squared_error, mse_improvement_pct, r2_score
from .ensemble import StackingRegressor
from .neural import MLPRegressor
from .model_selection import (
    GridSearchCV,
    KFold,
    ParameterGrid,
    TimeSeriesSplit,
    clone,
    cross_val_predict,
)
from .shap import TreeExplainer, shap_importance
from .tree import DecisionTreeRegressor, TreeStructure

__all__ = [
    "CompiledEnsemble",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "GridSearchCV",
    "KFold",
    "MLPRegressor",
    "ParameterGrid",
    "RandomForestRegressor",
    "Ridge",
    "StackingRegressor",
    "TimeSeriesSplit",
    "TreeExplainer",
    "TreeStructure",
    "clone",
    "compile_ensemble",
    "cross_val_predict",
    "maybe_compile",
    "mean_squared_error",
    "mse_improvement_pct",
    "pearson_correlation",
    "permutation_importance",
    "r2_score",
    "shap_importance",
    "target_correlations",
]
