"""Unit tests for repro.ml.boosting.GradientBoostingRegressor."""

import numpy as np
import pytest

from repro.ml import GradientBoostingRegressor, mean_squared_error


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(250, 5))
    y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=250)
    return X, y


class TestFitPredict:
    def test_loss_decreases_monotonically(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=40, random_state=0)
        gb.fit(X, y)
        losses = np.asarray(gb.train_losses_)
        assert losses[-1] < losses[0]
        # shrinkage with lambda can plateau, but must never increase much
        assert np.all(np.diff(losses) < 1e-9)

    def test_beats_constant_model(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=60, max_depth=3,
                                       random_state=0).fit(X, y)
        assert mean_squared_error(y, gb.predict(X)) < np.var(y) * 0.25

    def test_single_stage_with_lr_one(self, data):
        X, y = data
        gb = GradientBoostingRegressor(
            n_estimators=1, learning_rate=1.0, max_depth=2, reg_lambda=0.0,
            random_state=0,
        ).fit(X, y)
        tree = gb.estimators_[0]
        expected = y.mean() + tree.predict(X)
        assert np.allclose(gb.predict(X), expected)

    def test_deterministic_given_seed(self, data):
        X, y = data
        a = GradientBoostingRegressor(n_estimators=8, subsample=0.7,
                                      random_state=5).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=8, subsample=0.7,
                                      random_state=5).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_subsample_changes_model(self, data):
        X, y = data
        full = GradientBoostingRegressor(n_estimators=8,
                                         random_state=5).fit(X, y)
        sub = GradientBoostingRegressor(n_estimators=8, subsample=0.5,
                                        random_state=5).fit(X, y)
        assert not np.array_equal(full.predict(X), sub.predict(X))

    def test_base_prediction_is_target_mean(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=1,
                                       random_state=0).fit(X, y)
        assert gb.base_prediction_ == pytest.approx(y.mean())


class TestRegularisation:
    def test_lambda_shrinks_magnitude(self, data):
        X, y = data
        loose = GradientBoostingRegressor(n_estimators=5, reg_lambda=0.0,
                                          learning_rate=1.0,
                                          random_state=0).fit(X, y)
        tight = GradientBoostingRegressor(n_estimators=5, reg_lambda=100.0,
                                          learning_rate=1.0,
                                          random_state=0).fit(X, y)
        spread_loose = np.abs(loose.predict(X) - y.mean()).mean()
        spread_tight = np.abs(tight.predict(X) - y.mean()).mean()
        assert spread_tight < spread_loose


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=1.5)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict([[1.0]])

    def test_wrong_width_predict(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=2,
                                       random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            gb.predict(np.zeros((2, 99)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_params_roundtrip(self):
        gb = GradientBoostingRegressor(n_estimators=11, learning_rate=0.05,
                                       reg_lambda=2.0)
        clone = GradientBoostingRegressor(**gb.get_params())
        assert clone.get_params() == gb.get_params()


class TestImportances:
    def test_importances_sum_to_one(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=15, max_depth=3,
                                       random_state=0).fit(X, y)
        assert gb.feature_importances_.sum() == pytest.approx(1.0)

    def test_informative_features_dominate(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=25, max_depth=3,
                                       random_state=0).fit(X, y)
        fi = gb.feature_importances_
        assert set(np.argsort(fi)[-2:]) == {0, 1}
