"""Unit tests for repro.ml.model_selection."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GridSearchCV,
    KFold,
    ParameterGrid,
    RandomForestRegressor,
    TimeSeriesSplit,
    clone,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(120, 4))
    y = X[:, 0] + 0.5 * X[:, 1] + 0.1 * rng.normal(size=120)
    return X, y


class TestKFold:
    def test_partition_covers_everything_once(self):
        kf = KFold(5)
        seen = []
        for train, test in kf.split(np.zeros(53)):
            seen.extend(test.tolist())
            assert set(train) | set(test) == set(range(53))
            assert not set(train) & set(test)
        assert sorted(seen) == list(range(53))

    def test_n_splits_count(self):
        assert len(list(KFold(4).split(np.zeros(20)))) == 4

    def test_uneven_fold_sizes(self):
        sizes = [len(test) for _, test in KFold(3).split(np.zeros(10))]
        assert sorted(sizes) == [3, 3, 4]

    def test_shuffle_reproducible(self):
        a = [t.tolist() for _, t in
             KFold(3, shuffle=True, random_state=1).split(np.zeros(12))]
        b = [t.tolist() for _, t in
             KFold(3, shuffle=True, random_state=1).split(np.zeros(12))]
        assert a == b

    def test_shuffle_changes_order(self):
        plain = [t.tolist() for _, t in KFold(3).split(np.zeros(12))]
        shuffled = [t.tolist() for _, t in
                    KFold(3, shuffle=True, random_state=1).split(np.zeros(12))]
        assert plain != shuffled

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(np.zeros(3)))

    def test_min_splits(self):
        with pytest.raises(ValueError):
            KFold(1)


class TestTimeSeriesSplit:
    def test_test_always_after_train(self):
        for train, test in TimeSeriesSplit(4).split(np.zeros(50)):
            assert train.max() < test.min()

    def test_expanding_train(self):
        lengths = [len(train) for train, _ in
                   TimeSeriesSplit(4).split(np.zeros(50))]
        assert lengths == sorted(lengths)
        assert lengths[0] > 0

    def test_split_count(self):
        assert len(list(TimeSeriesSplit(3).split(np.zeros(40)))) == 3

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(TimeSeriesSplit(5).split(np.zeros(4)))


class TestParameterGrid:
    def test_cartesian_product(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        combos = list(grid)
        assert len(grid) == 6 == len(combos)
        assert {"a": 2, "b": "y"} in combos

    def test_single_param(self):
        assert list(ParameterGrid({"d": [3]})) == [{"d": 3}]

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})

    def test_string_values_rejected(self):
        with pytest.raises(TypeError):
            ParameterGrid({"a": "abc"})

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            ParameterGrid([("a", [1])])


class TestClone:
    def test_clone_is_unfitted_copy(self, data):
        X, y = data
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        fresh = clone(model)
        assert fresh.get_params() == model.get_params()
        assert fresh.tree_ is None


class TestGridSearchCV:
    def test_finds_best_params(self, data):
        X, y = data
        gs = GridSearchCV(
            DecisionTreeRegressor(),
            {"max_depth": [1, 5]},
            cv=KFold(3),
        ).fit(X, y)
        # depth 5 captures the linear signal far better than a stump
        assert gs.best_params_ == {"max_depth": 5}
        assert gs.best_estimator_ is not None
        assert len(gs.cv_results_) == 2

    def test_best_score_is_min_mean(self, data):
        X, y = data
        gs = GridSearchCV(
            DecisionTreeRegressor(),
            {"max_depth": [1, 2, 4]},
            cv=KFold(3),
        ).fit(X, y)
        assert gs.best_score_ == min(
            r["mean_score"] for r in gs.cv_results_
        )

    def test_predict_uses_refit_model(self, data):
        X, y = data
        gs = GridSearchCV(
            DecisionTreeRegressor(), {"max_depth": [3]}, cv=KFold(3)
        ).fit(X, y)
        direct = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert np.allclose(gs.predict(X), direct.predict(X))

    def test_no_refit(self, data):
        X, y = data
        gs = GridSearchCV(
            DecisionTreeRegressor(), {"max_depth": [2]},
            cv=KFold(3), refit=False,
        ).fit(X, y)
        assert gs.best_estimator_ is None
        with pytest.raises(RuntimeError):
            gs.predict(X)

    def test_works_with_forest(self, data):
        X, y = data
        gs = GridSearchCV(
            RandomForestRegressor(n_estimators=3, random_state=0),
            {"max_depth": [2, 6]},
            cv=KFold(3),
        ).fit(X, y)
        assert gs.best_params_["max_depth"] == 6
