"""Unit tests for repro.ml.ensemble."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    Ridge,
    StackingRegressor,
    mean_squared_error,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 4))
    # mix of linear and step structure so both families contribute
    y = 2 * X[:, 0] + 3 * (X[:, 1] > 0) + 0.1 * rng.normal(size=300)
    return X, y


BASES = [
    ("tree", DecisionTreeRegressor(max_depth=4)),
    ("linear", Ridge(alpha=0.0)),
]


class TestStacking:
    def test_beats_or_matches_single_bases(self, data):
        X, y = data
        stack = StackingRegressor(BASES, cv_folds=4,
                                  random_state=0).fit(X, y)
        mse_stack = mean_squared_error(y, stack.predict(X))
        mse_lin = mean_squared_error(
            y, Ridge(alpha=0.0).fit(X, y).predict(X)
        )
        # the stack must exploit the tree's step structure beyond OLS
        assert mse_stack < mse_lin

    def test_custom_meta_learner(self, data):
        X, y = data
        stack = StackingRegressor(
            BASES, final_estimator=Ridge(alpha=10.0), cv_folds=3,
            random_state=0,
        ).fit(X, y)
        assert isinstance(stack.meta_, Ridge)
        assert stack.predict(X[:5]).shape == (5,)

    def test_deterministic(self, data):
        X, y = data
        a = StackingRegressor(BASES, cv_folds=3, random_state=1).fit(X, y)
        b = StackingRegressor(BASES, cv_folds=3, random_state=1).fit(X, y)
        assert np.allclose(a.predict(X), b.predict(X))

    def test_validation(self, data):
        X, y = data
        with pytest.raises(ValueError):
            StackingRegressor([])
        with pytest.raises(ValueError):
            StackingRegressor(BASES, cv_folds=1)
        with pytest.raises(RuntimeError):
            StackingRegressor(BASES).predict(X)

    def test_grid_search_protocol(self, data):
        from repro.ml import clone

        stack = StackingRegressor(BASES, cv_folds=3, random_state=0)
        twin = clone(stack)
        assert twin.cv_folds == 3
        assert twin.meta_ is None
