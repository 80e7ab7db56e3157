"""Unit tests for repro.ml.shap — exact TreeSHAP vs brute-force oracle."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
    Ridge,
    TreeExplainer,
    shap_importance,
)
from repro.ml.shap import (
    _tree_expected_value,
    expected_value_brute,
    shap_values_brute,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 4))
    y = 2 * X[:, 0] + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=200)
    return X, y


class TestExpectedValue:
    def test_single_node(self):
        tree = DecisionTreeRegressor(max_depth=0).fit([[0.0], [1.0]],
                                                      [2.0, 4.0])
        assert _tree_expected_value(tree.tree_) == pytest.approx(3.0)

    def test_cover_weighted(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        # expected value equals mean prediction over the training set
        # only when leaves are exact means of their covers — true for CART
        assert _tree_expected_value(tree.tree_) == pytest.approx(
            y.mean(), rel=1e-9
        )

    def test_brute_empty_set_matches(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert expected_value_brute(
            tree.tree_, X[0], frozenset()
        ) == pytest.approx(_tree_expected_value(tree.tree_))

    def test_brute_full_set_is_prediction(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        known = frozenset(range(4))
        for i in range(5):
            assert expected_value_brute(
                tree.tree_, X[i], known
            ) == pytest.approx(tree.predict(X[i:i + 1])[0])


class TestTreeShapExactness:
    def test_matches_brute_force_depth2(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        explainer = TreeExplainer(tree)
        for i in range(10):
            fast = explainer.shap_values(X[i])[0]
            brute = shap_values_brute(tree.tree_, X[i], 4)
            assert np.allclose(fast, brute, atol=1e-10)

    def test_matches_brute_force_depth4(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        explainer = TreeExplainer(tree)
        for i in range(5):
            fast = explainer.shap_values(X[i])[0]
            brute = shap_values_brute(tree.tree_, X[i], 4)
            assert np.allclose(fast, brute, atol=1e-10)

    def test_repeated_feature_on_path(self):
        # Force a deep tree on one feature: the path revisits the feature,
        # exercising the unwind logic.
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(100, 2))
        y = np.sin(8 * X[:, 0])
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        explainer = TreeExplainer(tree)
        for i in range(5):
            fast = explainer.shap_values(X[i])[0]
            brute = shap_values_brute(tree.tree_, X[i], 2)
            assert np.allclose(fast, brute, atol=1e-10)


class TestAdditivity:
    def test_tree_additivity(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        ex = TreeExplainer(tree)
        sv = ex.shap_values(X[:30])
        recon = ex.expected_value + sv.sum(axis=1)
        assert np.allclose(recon, tree.predict(X[:30]), atol=1e-8)

    def test_forest_additivity(self, data):
        X, y = data
        rf = RandomForestRegressor(n_estimators=6, max_depth=4,
                                   random_state=0).fit(X, y)
        ex = TreeExplainer(rf)
        sv = ex.shap_values(X[:20])
        recon = ex.expected_value + sv.sum(axis=1)
        assert np.allclose(recon, rf.predict(X[:20]), atol=1e-8)

    def test_boosting_additivity(self, data):
        X, y = data
        gb = GradientBoostingRegressor(n_estimators=10, max_depth=3,
                                       random_state=0).fit(X, y)
        ex = TreeExplainer(gb)
        sv = ex.shap_values(X[:20])
        recon = ex.expected_value + sv.sum(axis=1)
        assert np.allclose(recon, gb.predict(X[:20]), atol=1e-8)


class TestExplainerAPI:
    def test_unsupported_model(self, data):
        X, y = data
        with pytest.raises(TypeError):
            TreeExplainer(Ridge().fit(X, y))

    def test_unfitted_model(self):
        with pytest.raises(RuntimeError):
            TreeExplainer(DecisionTreeRegressor())

    def test_1d_input_promoted(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        sv = TreeExplainer(tree).shap_values(X[0])
        assert sv.shape == (1, 4)

    def test_wrong_width(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        with pytest.raises(ValueError):
            TreeExplainer(tree).shap_values(np.zeros((2, 7)))


class TestShapImportance:
    def test_informative_feature_dominates(self, data):
        X, y = data
        rf = RandomForestRegressor(n_estimators=5, max_depth=4,
                                   random_state=0).fit(X, y)
        imp = shap_importance(rf, X, max_samples=50, random_state=0)
        assert imp.shape == (4,)
        assert imp.argmax() == 0
        assert (imp >= 0).all()

    def test_subsampling_reproducible(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        a = shap_importance(tree, X, max_samples=20, random_state=1)
        b = shap_importance(tree, X, max_samples=20, random_state=1)
        assert np.array_equal(a, b)

    def test_no_subsampling_when_small(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        full = shap_importance(tree, X[:30])
        manual = np.abs(TreeExplainer(tree).shap_values(X[:30])).mean(axis=0)
        assert np.allclose(full, manual)
