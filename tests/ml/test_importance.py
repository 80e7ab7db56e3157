"""Unit tests for repro.ml.importance."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    RandomForestRegressor,
    Ridge,
    pearson_correlation,
    permutation_importance,
    target_correlations,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 5))
    # feature 0 strong, feature 1 weak, rest pure noise
    y = 5 * X[:, 0] + 0.5 * X[:, 1] + 0.05 * rng.normal(size=300)
    return X, y


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert pearson_correlation(x, y) == pytest.approx(
            np.corrcoef(x, y)[0, 1]
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson_correlation([1], [1])

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x, y = rng.normal(size=20), rng.normal(size=20)
            assert -1.0 <= pearson_correlation(x, y) <= 1.0


class TestTargetCorrelations:
    def test_matches_columnwise_pearson(self, data):
        X, y = data
        vec = target_correlations(X, y)
        for j in range(X.shape[1]):
            assert vec[j] == pytest.approx(
                abs(pearson_correlation(X[:, j], y))
            )

    def test_absolute_values(self, data):
        X, y = data
        assert (target_correlations(X, -y) >= 0).all()

    def test_constant_column_zero(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.arange(10.0)
        vec = target_correlations(X, y)
        assert vec[0] == 0.0
        assert vec[1] == pytest.approx(1.0)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            target_correlations(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            target_correlations(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            target_correlations(np.zeros((1, 2)), np.zeros(1))


class TestPermutationImportance:
    def test_informative_feature_ranks_first(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=10, max_depth=6,
                                      random_state=0).fit(X, y)
        pfi = permutation_importance(model, X, y, n_repeats=3,
                                     random_state=0)
        assert pfi.argmax() == 0
        assert pfi[0] > pfi[2]

    def test_noise_features_near_zero(self, data):
        X, y = data
        model = RandomForestRegressor(n_estimators=10, max_depth=6,
                                      random_state=0).fit(X, y)
        pfi = permutation_importance(model, X, y, n_repeats=3,
                                     random_state=0)
        assert abs(pfi[4]) < 0.1 * pfi[0]

    def test_reproducible(self, data):
        X, y = data
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        a = permutation_importance(model, X, y, random_state=9)
        b = permutation_importance(model, X, y, random_state=9)
        assert np.array_equal(a, b)

    def test_does_not_mutate_X(self, data):
        X, y = data
        snapshot = X.copy()
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        permutation_importance(model, X, y, random_state=0)
        assert np.array_equal(X, snapshot)

    def test_works_with_linear_model(self, data):
        X, y = data
        model = Ridge().fit(X, y)
        pfi = permutation_importance(model, X, y, random_state=0)
        assert pfi.argmax() == 0

    def test_validation(self, data):
        X, y = data
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        with pytest.raises(ValueError):
            permutation_importance(model, X, y, n_repeats=0)
        with pytest.raises(ValueError):
            permutation_importance(model, X[:5], y)
        with pytest.raises(ValueError):
            permutation_importance(model, X.ravel(), y)
