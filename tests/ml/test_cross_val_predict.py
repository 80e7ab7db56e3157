"""Unit tests for cross_val_predict."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    KFold,
    Ridge,
    TimeSeriesSplit,
    cross_val_predict,
    mean_squared_error,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 3))
    y = 2 * X[:, 0] + 0.1 * rng.normal(size=120)
    return X, y


class TestCrossValPredict:
    def test_full_coverage_no_nans(self, data):
        X, y = data
        pred = cross_val_predict(DecisionTreeRegressor(max_depth=3), X, y,
                                 cv=KFold(4))
        assert pred.shape == y.shape
        assert not np.isnan(pred).any()

    def test_out_of_fold_honesty(self, data):
        """OOF predictions must be worse than in-sample memorisation."""
        X, y = data
        deep = DecisionTreeRegressor()  # memorises training data
        oof = cross_val_predict(deep, X, y, cv=KFold(4))
        in_sample = deep.fit(X, y).predict(X)
        assert mean_squared_error(y, in_sample) == pytest.approx(0.0)
        assert mean_squared_error(y, oof) > 0.0

    def test_reasonable_accuracy(self, data):
        X, y = data
        pred = cross_val_predict(Ridge(alpha=0.0), X, y, cv=KFold(4))
        assert mean_squared_error(y, pred) < 0.1 * np.var(y)

    def test_default_cv(self, data):
        X, y = data
        pred = cross_val_predict(Ridge(alpha=0.0), X, y)
        assert pred.shape == y.shape

    def test_deterministic_with_seeded_shuffle(self, data):
        X, y = data
        cv = KFold(3, shuffle=True, random_state=0)
        a = cross_val_predict(DecisionTreeRegressor(max_depth=2), X, y, cv)
        cv2 = KFold(3, shuffle=True, random_state=0)
        b = cross_val_predict(DecisionTreeRegressor(max_depth=2), X, y,
                              cv2)
        assert np.array_equal(a, b)

    def test_timeseries_split_rejected(self, data):
        X, y = data
        with pytest.raises(ValueError):
            cross_val_predict(Ridge(alpha=0.0), X, y,
                              cv=TimeSeriesSplit(4))
