"""The one ``set_params`` every estimator shares (``repro.ml.base``)."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    MLPRegressor,
    RandomForestRegressor,
    Ridge,
    StackingRegressor,
)

# (factory, a valid new parameter value, an invalid one, a fitted
# attribute that is not a parameter)
CASES = {
    "tree": (lambda: DecisionTreeRegressor(max_depth=3),
             {"max_depth": 2}, {"min_samples_split": 1}, "tree_"),
    "forest": (lambda: RandomForestRegressor(n_estimators=3, max_depth=3,
                                             random_state=0),
               {"max_depth": 2}, {"n_estimators": 0}, "estimators_"),
    "boosting": (lambda: GradientBoostingRegressor(n_estimators=3,
                                                   random_state=0),
                 {"max_depth": 2}, {"learning_rate": 0.0}, "estimators_"),
    "ridge": (lambda: Ridge(alpha=1.0), {"alpha": 2.0}, {"alpha": -1.0},
              "coef_"),
    "mlp": (lambda: MLPRegressor(hidden_layer_sizes=(4,), n_epochs=2,
                                 random_state=0),
            {"n_epochs": 3}, {"n_epochs": 0}, "train_losses_"),
    "stacking": (lambda: StackingRegressor([("ridge", Ridge())],
                                           cv_folds=2, random_state=0),
                 {"cv_folds": 3}, {"cv_folds": 1}, "fitted_"),
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    return X, X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=40)


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_sets_parameters_and_returns_self(case):
    make, valid, _, _ = case
    model = make()
    untouched = set(model.get_params()) - set(valid)
    before = {key: model.get_params()[key] for key in untouched}
    assert model.set_params(**valid) is model
    params = model.get_params()
    assert {key: params[key] for key in valid} == valid
    assert all(params[key] is before[key] for key in untouched)


@pytest.mark.parametrize("which", ["fitted", "n_features_in_", "bogus"])
def test_rejects_names_that_are_not_parameters(case, data, which):
    make, _, _, fitted = case
    model = make().fit(*data)
    name = {"fitted": fitted, "n_features_in_": "n_features_in_",
            "bogus": "bogus"}[which]
    before = getattr(model, name, None)
    with pytest.raises(ValueError, match="unknown parameter"):
        model.set_params(**{name: None})
    assert getattr(model, name, None) is before
    assert model.predict(data[0][:2]).shape == (2,)


def test_runs_the_constructor_checks(case):
    make, _, invalid, _ = case
    model = make()
    params = model.get_params()
    with pytest.raises(ValueError):
        model.set_params(**invalid)
    assert model.get_params() == params

