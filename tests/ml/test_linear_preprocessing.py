"""Unit tests for repro.ml.linear."""

import numpy as np
import pytest

from repro.ml import Ridge


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(100, 3))
    y = 2 * X[:, 0] - X[:, 1] + 3 + 0.01 * rng.normal(size=100)
    return X, y


class TestRidge:
    def test_alpha_zero_matches_ols(self, data):
        # On a full-rank X, alpha=0 is ordinary least squares: the
        # intercept is the coefficient of an appended column of ones.
        X, y = data
        design = np.column_stack([X, np.ones(len(X))])
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        ridge = Ridge(alpha=0.0).fit(X, y)
        assert np.allclose(ridge.coef_, solution[:-1], atol=1e-10)
        assert ridge.intercept_ == pytest.approx(solution[-1], abs=1e-10)

        no_intercept = Ridge(alpha=0.0, fit_intercept=False).fit(X, y)
        through_origin, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.allclose(no_intercept.coef_, through_origin, atol=1e-10)
        assert no_intercept.intercept_ == 0.0

    def test_shrinkage_monotone(self, data):
        X, y = data
        norms = [
            np.linalg.norm(Ridge(alpha=a).fit(X, y).coef_)
            for a in (0.0, 10.0, 1000.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Ridge(alpha=-1.0)

    def test_params(self):
        r = Ridge(alpha=2.5, fit_intercept=False)
        assert r.get_params() == {"alpha": 2.5, "fit_intercept": False}

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            Ridge().predict([[1.0]])

    def test_wrong_width(self, data):
        X, y = data
        model = Ridge().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 5)))
