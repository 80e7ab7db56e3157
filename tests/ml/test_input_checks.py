"""The one coercion and check of model inputs (``repro.ml.base``).

Every estimator's ``fit`` and ``predict``, the importance measures and
the SHAP explainer reject malformed inputs with the same messages.
"""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    MLPRegressor,
    RandomForestRegressor,
    Ridge,
    StackingRegressor,
    TreeExplainer,
    permutation_importance,
    target_correlations,
)
from repro.ml.tree import bin_features

ESTIMATORS = {
    "tree": lambda: DecisionTreeRegressor(max_depth=2),
    "forest_exact": lambda: RandomForestRegressor(n_estimators=2,
                                                  max_depth=2,
                                                  random_state=0),
    "forest_hist": lambda: RandomForestRegressor(n_estimators=2,
                                                 max_depth=2,
                                                 splitter="hist",
                                                 random_state=0),
    "boosting": lambda: GradientBoostingRegressor(n_estimators=2,
                                                  random_state=0),
    "ridge": lambda: Ridge(alpha=1.0),
    "mlp": lambda: MLPRegressor(hidden_layer_sizes=(4,), n_epochs=2,
                                random_state=0),
    "stacking": lambda: StackingRegressor([("ridge", Ridge())],
                                          cv_folds=2, random_state=0),
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 3))
    return X, X @ np.array([1.0, -2.0, 0.5])


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
class TestFitChecks:
    def test_one_dimensional_x(self, name, data):
        X, y = data
        with pytest.raises(ValueError, match="^X must be 2-D$"):
            ESTIMATORS[name]().fit(X[:, 0], y)

    def test_inconsistent_lengths(self, name, data):
        X, y = data
        with pytest.raises(ValueError,
                           match="^X and y have inconsistent lengths$"):
            ESTIMATORS[name]().fit(X, y[:-1])

    def test_empty_dataset(self, name):
        with pytest.raises(ValueError,
                           match="^cannot fit on an empty dataset$"):
            ESTIMATORS[name]().fit(np.empty((0, 3)), np.empty(0))


@pytest.mark.parametrize("name", sorted(set(ESTIMATORS) - {"stacking"}))
def test_predict_needs_the_fitted_width(name, data):
    X, y = data
    model = ESTIMATORS[name]().fit(X, y)
    for bad in (X[:, :2], X[0]):
        with pytest.raises(ValueError,
                           match="^X must be 2-D with 3 features$"):
            model.predict(bad)


def test_importance_checks(data):
    X, y = data
    model = Ridge().fit(X, y)
    with pytest.raises(ValueError, match="^X must be 2-D$"):
        target_correlations(X[:, 0], y)
    with pytest.raises(ValueError, match="inconsistent lengths"):
        permutation_importance(model, X, y[:-1])
    with pytest.raises(ValueError, match="at least two observations"):
        target_correlations(X[:1], y[:1])
    with pytest.raises(ValueError, match="at least two observations"):
        target_correlations(np.empty((0, 3)), np.empty(0))


def test_bin_features_rejects_an_empty_matrix():
    # Checked before any indexing, with the estimators' message.
    with pytest.raises(ValueError,
                       match="^cannot fit on an empty dataset$"):
        bin_features(np.empty((0, 3)))


def test_explainer_checks(data):
    X, y = data
    explainer = TreeExplainer(DecisionTreeRegressor(max_depth=2).fit(X, y))
    assert explainer.shap_values(X[0]).shape == (1, 3)
    with pytest.raises(ValueError, match="^X must be 2-D with 3 features$"):
        explainer.shap_values(X[:, :2])
