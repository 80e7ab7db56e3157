"""Property-based tests (hypothesis) for the ML substrate invariants.

Every tree-model invariant must hold under both split-finding kernels,
so each of those tests checks every drawn problem with each
``splitter`` in turn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
    TreeExplainer,
    mean_squared_error,
    pearson_correlation,
    target_correlations,
)
from repro.ml.shap import shap_values_brute


@st.composite
def regression_problem(draw, max_n=80, max_f=4):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=5, max_value=max_n))
    f = draw(st.integers(min_value=1, max_value=max_f))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    y = rng.normal(size=n)
    return X, y


SPLITTERS = ("exact", "hist")


class TestTreeInvariants:
    @settings(max_examples=25, deadline=None)
    @given(regression_problem())
    def test_predictions_within_target_range(self, problem):
        """Leaf values are (regularised) means: never outside [min, max] y."""
        X, y = problem
        for splitter in SPLITTERS:
            tree = DecisionTreeRegressor(max_depth=4,
                                         splitter=splitter).fit(X, y)
            pred = tree.predict(X)
            assert pred.min() >= y.min() - 1e-9
            assert pred.max() <= y.max() + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(regression_problem())
    def test_deeper_tree_never_increases_training_mse(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            shallow = DecisionTreeRegressor(max_depth=2,
                                            splitter=splitter).fit(X, y)
            deep = DecisionTreeRegressor(max_depth=6,
                                         splitter=splitter).fit(X, y)
            assert (
                mean_squared_error(y, deep.predict(X))
                <= mean_squared_error(y, shallow.predict(X)) + 1e-9
            )

    @settings(max_examples=25, deadline=None)
    @given(regression_problem())
    def test_importances_normalised(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            tree = DecisionTreeRegressor(max_depth=4,
                                         splitter=splitter).fit(X, y)
            fi = tree.feature_importances_
            assert (fi >= 0).all()
            assert fi.sum() == pytest.approx(1.0) or fi.sum() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(regression_problem())
    def test_structure_arrays_consistent(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            t = DecisionTreeRegressor(max_depth=5,
                                      splitter=splitter).fit(X, y).tree_
            internal = t.children_left != -1
            # children always come in pairs
            assert np.array_equal(internal, t.children_right != -1)
            # every non-root node is referenced exactly once as a child
            children = np.concatenate(
                [t.children_left[internal], t.children_right[internal]]
            )
            assert sorted(children.tolist()) == list(range(1, t.node_count))


class TestEnsembleInvariants:
    @settings(max_examples=10, deadline=None)
    @given(regression_problem(max_n=60, max_f=3))
    def test_forest_prediction_bounded_by_targets(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            rf = RandomForestRegressor(n_estimators=4, max_depth=3,
                                       splitter=splitter,
                                       random_state=0).fit(X, y)
            pred = rf.predict(X)
            assert pred.min() >= y.min() - 1e-9
            assert pred.max() <= y.max() + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(regression_problem(max_n=60, max_f=3))
    def test_boosting_train_loss_nonincreasing(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            gb = GradientBoostingRegressor(n_estimators=10, max_depth=2,
                                           splitter=splitter,
                                           random_state=0).fit(X, y)
            losses = np.asarray(gb.train_losses_)
            assert np.all(np.diff(losses) <= 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(regression_problem(max_n=60, max_f=4),
           st.sampled_from([1.0, "sqrt"]))
    def test_forest_mdi_sums_to_one_or_is_zero(self, problem, max_features):
        X, y = problem
        for splitter in SPLITTERS:
            rf = RandomForestRegressor(n_estimators=4, max_depth=4,
                                       max_features=max_features,
                                       splitter=splitter,
                                       random_state=0).fit(X, y)
            fi = rf.feature_importances_
            assert fi.shape == (X.shape[1],)
            assert (fi >= 0).all()
            assert fi.sum() == pytest.approx(1.0) or not fi.any()


def _assert_local_accuracy(model, X):
    """TreeSHAP local accuracy: sum(phi) + E[f] == f(x) row by row."""
    ex = TreeExplainer(model)
    sv = ex.shap_values(X)
    assert np.allclose(ex.expected_value + sv.sum(axis=1), model.predict(X),
                       atol=1e-8)


class TestShapInvariants:
    @settings(max_examples=10, deadline=None)
    @given(regression_problem(max_n=50, max_f=3))
    def test_additivity(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            tree = DecisionTreeRegressor(max_depth=3,
                                         splitter=splitter).fit(X, y)
            _assert_local_accuracy(tree, X[:5])

    @settings(max_examples=10, deadline=None)
    @given(regression_problem(max_n=50, max_f=3))
    def test_forest_local_accuracy(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            rf = RandomForestRegressor(n_estimators=4, max_depth=3,
                                       splitter=splitter,
                                       random_state=0).fit(X, y)
            _assert_local_accuracy(rf, X[:5])

    @settings(max_examples=10, deadline=None)
    @given(regression_problem(max_n=50, max_f=3))
    def test_booster_local_accuracy(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            gb = GradientBoostingRegressor(n_estimators=6, max_depth=2,
                                           subsample=0.8, reg_lambda=1.0,
                                           splitter=splitter,
                                           random_state=0).fit(X, y)
            _assert_local_accuracy(gb, X[:5])

    @settings(max_examples=8, deadline=None)
    @given(regression_problem(max_n=40, max_f=3))
    def test_exactness_vs_brute(self, problem):
        X, y = problem
        for splitter in SPLITTERS:
            tree = DecisionTreeRegressor(max_depth=3,
                                         splitter=splitter).fit(X, y)
            ex = TreeExplainer(tree)
            fast = ex.shap_values(X[0])[0]
            brute = shap_values_brute(tree.tree_, X[0], X.shape[1])
            assert np.allclose(fast, brute, atol=1e-9)


class TestCorrelationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(regression_problem(max_n=50, max_f=4))
    def test_correlations_in_unit_interval(self, problem):
        X, y = problem
        corr = target_correlations(X, y)
        assert (corr >= 0).all() and (corr <= 1.0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_pearson_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=20), rng.normal(size=20)
        assert pearson_correlation(x, y) == pytest.approx(
            pearson_correlation(y, x)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=-5, max_value=5))
    def test_pearson_affine_invariance(self, seed, scale, offset):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=20), rng.normal(size=20)
        assert pearson_correlation(scale * x + offset, y) == pytest.approx(
            pearson_correlation(x, y), abs=1e-9
        )
