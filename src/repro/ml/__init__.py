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
    mdi_importance,
    pearson_correlation,
    permutation_importance,
    target_correlations,
)
from .linear import LinearRegression, Ridge
from .metrics import (
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
    mse_improvement_pct,
    r2_score,
    root_mean_squared_error,
)
from .ensemble import StackingRegressor, VotingRegressor
from .neural import MLPRegressor
from .persistence import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from .model_selection import (
    GridSearchCV,
    KFold,
    ParameterGrid,
    TimeSeriesSplit,
    clone,
    cross_val_predict,
    cross_val_score,
    train_test_split,
)
from .preprocessing import MinMaxScaler, StandardScaler
from .shap import TreeExplainer, shap_importance
from .tree import DecisionTreeRegressor, TreeStructure

__all__ = [
    "CompiledEnsemble",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "GridSearchCV",
    "KFold",
    "LinearRegression",
    "MLPRegressor",
    "MinMaxScaler",
    "ParameterGrid",
    "RandomForestRegressor",
    "Ridge",
    "StackingRegressor",
    "StandardScaler",
    "TimeSeriesSplit",
    "TreeExplainer",
    "TreeStructure",
    "VotingRegressor",
    "clone",
    "compile_ensemble",
    "cross_val_predict",
    "cross_val_score",
    "load_model",
    "maybe_compile",
    "mdi_importance",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "mean_squared_error",
    "model_from_dict",
    "model_to_dict",
    "mse_improvement_pct",
    "pearson_correlation",
    "permutation_importance",
    "r2_score",
    "root_mean_squared_error",
    "save_model",
    "shap_importance",
    "target_correlations",
    "train_test_split",
]
